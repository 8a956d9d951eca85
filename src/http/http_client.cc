#include "http/http_client.h"

#include <sys/socket.h>

namespace uindex {
namespace http {

namespace {

std::string Lowercase(std::string s) {
  for (char& c : s) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return s;
}

}  // namespace

Result<std::unique_ptr<HttpClient>> HttpClient::Connect(
    const std::string& host, uint16_t port, int timeout_ms) {
  Result<int> fd = net::Socket::Dial(host, port, timeout_ms);
  UINDEX_RETURN_IF_ERROR(fd.status());
  return std::unique_ptr<HttpClient>(new HttpClient(fd.value(), timeout_ms));
}

void HttpClient::ShutdownWrite() { ::shutdown(fd_, SHUT_WR); }

Status HttpClient::SendRaw(const std::string& bytes) {
  return SendAll(bytes.data(), bytes.size(), timeout_ms_);
}

Result<HttpClient::Response> HttpClient::ReadResponse() {
  // ---- head ------------------------------------------------------------
  size_t head_end;
  for (;;) {
    head_end = buffer_.find("\r\n\r\n");
    if (head_end != std::string::npos) break;
    bool eof = false;
    UINDEX_RETURN_IF_ERROR(RecvSome(&buffer_, timeout_ms_, &eof));
    if (eof) {
      return Status::Corruption("connection closed before response head");
    }
  }
  const std::string head = buffer_.substr(0, head_end);
  buffer_.erase(0, head_end + 4);

  Response response;
  const size_t line_end = head.find("\r\n");
  const std::string status_line =
      line_end == std::string::npos ? head : head.substr(0, line_end);
  // "HTTP/1.1 200 OK"
  const size_t sp1 = status_line.find(' ');
  if (sp1 == std::string::npos || status_line.rfind("HTTP/1.", 0) != 0) {
    return Status::Corruption("malformed status line: \"" + status_line +
                              "\"");
  }
  response.status = std::atoi(status_line.c_str() + sp1 + 1);
  if (response.status < 100 || response.status > 599) {
    return Status::Corruption("malformed status line: \"" + status_line +
                              "\"");
  }

  size_t pos = line_end == std::string::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    size_t eol = head.find("\r\n", pos);
    if (eol == std::string::npos) eol = head.size();
    const std::string line = head.substr(pos, eol - pos);
    pos = eol + 2;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    size_t vb = colon + 1;
    while (vb < line.size() && (line[vb] == ' ' || line[vb] == '\t')) ++vb;
    response.headers.emplace_back(Lowercase(line.substr(0, colon)),
                                  line.substr(vb));
  }

  // ---- body ------------------------------------------------------------
  size_t content_length = 0;
  if (const std::string* cl = response.FindHeader("content-length")) {
    content_length = static_cast<size_t>(std::strtoull(cl->c_str(),
                                                       nullptr, 10));
  }
  while (buffer_.size() < content_length) {
    bool eof = false;
    UINDEX_RETURN_IF_ERROR(RecvSome(&buffer_, timeout_ms_, &eof));
    if (eof) return Status::Corruption("connection closed mid-body");
  }
  response.body = buffer_.substr(0, content_length);
  buffer_.erase(0, content_length);
  return response;
}

Result<HttpClient::Response> HttpClient::RoundTrip(
    const std::string& request) {
  UINDEX_RETURN_IF_ERROR(SendRaw(request));
  return ReadResponse();
}

Result<HttpClient::Response> HttpClient::Get(const std::string& path) {
  return RoundTrip("GET " + path +
                   " HTTP/1.1\r\nHost: uindex\r\n"
                   "Connection: keep-alive\r\n\r\n");
}

Result<HttpClient::Response> HttpClient::Post(
    const std::string& path, const std::string& body,
    const std::string& content_type) {
  return RoundTrip("POST " + path + " HTTP/1.1\r\nHost: uindex\r\n" +
                   "Content-Type: " + content_type +
                   "\r\nContent-Length: " + std::to_string(body.size()) +
                   "\r\nConnection: keep-alive\r\n\r\n" + body);
}

}  // namespace http
}  // namespace uindex
