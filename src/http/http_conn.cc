#include "http/http_conn.h"

namespace uindex {
namespace http {

namespace {

std::string Lowercase(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

// Strips optional whitespace around a header value (RFC 9110 field-value
// OWS).
std::string TrimOws(const std::string& s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t')) --e;
  return s.substr(b, e - b);
}

}  // namespace

const char* StatusReason(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

HttpConn::HttpConn(int fd, HttpConnLimits limits)
    : net::Socket(fd), limits_(limits) {}

HttpConn::Outcome HttpConn::ReadRequest(HttpRequest* request,
                                        int* http_status,
                                        std::string* error) {
  *request = HttpRequest();
  *http_status = 400;
  error->clear();

  // ---- head: request line + headers, bounded by max_header_bytes -------
  size_t head_end = std::string::npos;
  bool started = !buffer_.empty();  // Pipelined bytes already count.
  for (;;) {
    head_end = buffer_.find("\r\n\r\n");
    if (head_end != std::string::npos) break;
    if (buffer_.size() > limits_.max_header_bytes) {
      *http_status = 431;
      *error = "request head exceeds " +
               std::to_string(limits_.max_header_bytes) + " bytes";
      return Outcome::kBadRequest;
    }
    bool eof = false;
    // Before the first byte the peer is merely idle; once a request has
    // started, a stall is a slow-loris and gets the (shorter) io timeout.
    const int timeout =
        started ? limits_.io_timeout_ms : limits_.idle_timeout_ms;
    const Status st = RecvSome(&buffer_, timeout, &eof);
    if (!st.ok()) {
      if (!started) return Outcome::kIdleTimeout;
      *http_status = 408;
      *error = "timed out mid-request (slow read)";
      return Outcome::kBadRequest;
    }
    if (eof) {
      if (!started) return Outcome::kClosed;
      *error = "peer closed mid-request head";
      return Outcome::kBadRequest;
    }
    started = true;
  }
  if (head_end > limits_.max_header_bytes) {
    *http_status = 431;
    *error = "request head exceeds " +
             std::to_string(limits_.max_header_bytes) + " bytes";
    return Outcome::kBadRequest;
  }

  const std::string head = buffer_.substr(0, head_end);
  buffer_.erase(0, head_end + 4);

  // ---- request line ----------------------------------------------------
  const size_t line_end = head.find("\r\n");
  const std::string request_line =
      line_end == std::string::npos ? head : head.substr(0, line_end);
  const size_t sp1 = request_line.find(' ');
  const size_t sp2 =
      sp1 == std::string::npos ? std::string::npos
                               : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    *error = "malformed request line: \"" + request_line + "\"";
    return Outcome::kBadRequest;
  }
  request->method = request_line.substr(0, sp1);
  request->target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string version = request_line.substr(sp2 + 1);
  if (version == "HTTP/1.1") {
    request->http_1_0 = false;
  } else if (version == "HTTP/1.0") {
    request->http_1_0 = true;
  } else {
    *error = "unsupported HTTP version: \"" + version + "\"";
    return Outcome::kBadRequest;
  }
  if (request->method.empty() || request->target.empty() ||
      request->target[0] != '/') {
    *error = "malformed request line: \"" + request_line + "\"";
    return Outcome::kBadRequest;
  }

  // ---- headers ---------------------------------------------------------
  size_t pos = line_end == std::string::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    size_t eol = head.find("\r\n", pos);
    if (eol == std::string::npos) eol = head.size();
    const std::string line = head.substr(pos, eol - pos);
    pos = eol + 2;
    const size_t colon = line.find(':');
    if (colon == std::string::npos || colon == 0) {
      *error = "malformed header line: \"" + line + "\"";
      return Outcome::kBadRequest;
    }
    if (request->headers.size() >= limits_.max_header_count) {
      *http_status = 431;
      *error = "more than " + std::to_string(limits_.max_header_count) +
               " headers";
      return Outcome::kBadRequest;
    }
    request->headers.emplace_back(Lowercase(line.substr(0, colon)),
                                  TrimOws(line.substr(colon + 1)));
  }

  // ---- framing: Content-Length only (chunked is a typed 501) -----------
  if (request->FindHeader("transfer-encoding") != nullptr) {
    *http_status = 501;
    *error = "Transfer-Encoding is not supported; use Content-Length";
    return Outcome::kBadRequest;
  }
  size_t content_length = 0;
  if (const std::string* cl = request->FindHeader("content-length")) {
    if (cl->empty() || cl->size() > 12 ||
        cl->find_first_not_of("0123456789") != std::string::npos) {
      *error = "malformed Content-Length: \"" + *cl + "\"";
      return Outcome::kBadRequest;
    }
    content_length = static_cast<size_t>(std::stoull(*cl));
  }
  if (content_length > limits_.max_body_bytes) {
    *http_status = 413;
    *error = "body of " + std::to_string(content_length) +
             " bytes exceeds limit " +
             std::to_string(limits_.max_body_bytes);
    return Outcome::kBadRequest;
  }

  // ---- body ------------------------------------------------------------
  while (buffer_.size() < content_length) {
    bool eof = false;
    const Status st = RecvSome(&buffer_, limits_.io_timeout_ms, &eof);
    if (!st.ok()) {
      *http_status = 408;
      *error = "timed out reading body (got " +
               std::to_string(buffer_.size()) + " of " +
               std::to_string(content_length) + " bytes)";
      return Outcome::kBadRequest;
    }
    if (eof) {
      *error = "peer closed with truncated body (got " +
               std::to_string(buffer_.size()) + " of " +
               std::to_string(content_length) + " bytes)";
      return Outcome::kBadRequest;
    }
  }
  request->body = buffer_.substr(0, content_length);
  buffer_.erase(0, content_length);

  // ---- keep-alive ------------------------------------------------------
  request->keep_alive = !request->http_1_0;
  if (const std::string* conn = request->FindHeader("connection")) {
    const std::string token = Lowercase(TrimOws(*conn));
    if (token == "close") request->keep_alive = false;
    if (token == "keep-alive") request->keep_alive = true;
  }
  return Outcome::kRequest;
}

Status HttpConn::WriteResponse(int status, const std::string& content_type,
                               const std::string& body, bool keep_alive) {
  std::string out;
  out.reserve(128 + body.size());
  out += "HTTP/1.1 ";
  out += std::to_string(status);
  out += ' ';
  out += StatusReason(status);
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: ";
  out += keep_alive ? "keep-alive" : "close";
  out += "\r\n\r\n";
  out += body;
  return SendAll(out.data(), out.size(), limits_.io_timeout_ms);
}

}  // namespace http
}  // namespace uindex
