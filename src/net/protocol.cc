#include "net/protocol.h"

#include <algorithm>
#include <cstring>

#include "util/coding.h"

namespace uindex {
namespace net {

namespace {

void PutString(std::string* out, const std::string& s) {
  PutFixed32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

Status ReadString(const Slice& blob, size_t* pos, std::string* out) {
  if (*pos + 4 > blob.size()) return Status::Corruption("truncated string");
  const uint32_t len = DecodeFixed32(blob.data() + *pos);
  *pos += 4;
  if (len > blob.size() || *pos + len > blob.size()) {
    return Status::Corruption("truncated string");
  }
  out->assign(blob.data() + *pos, len);
  *pos += len;
  return Status::OK();
}

Status ReadU32(const Slice& blob, size_t* pos, uint32_t* out) {
  if (*pos + 4 > blob.size()) return Status::Corruption("truncated u32");
  *out = DecodeFixed32(blob.data() + *pos);
  *pos += 4;
  return Status::OK();
}

Status ReadU64(const Slice& blob, size_t* pos, uint64_t* out) {
  if (*pos + 8 > blob.size()) return Status::Corruption("truncated u64");
  *out = DecodeFixed64(blob.data() + *pos);
  *pos += 8;
  return Status::OK();
}

Status ReadU8(const Slice& blob, size_t* pos, uint8_t* out) {
  if (*pos + 1 > blob.size()) return Status::Corruption("truncated u8");
  *out = static_cast<uint8_t>(blob[*pos]);
  *pos += 1;
  return Status::OK();
}

Status CheckDone(const Slice& blob, size_t pos) {
  if (pos != blob.size()) {
    return Status::Corruption("trailing bytes in message");
  }
  return Status::OK();
}

std::string OpOnly(Op op) {
  std::string out;
  out.push_back(static_cast<char>(op));
  return out;
}

}  // namespace

std::string EncodeHello() {
  std::string out = OpOnly(Op::kHello);
  out.append(kProtocolMagic, sizeof(kProtocolMagic));
  PutFixed32(&out, kProtocolVersion);
  return out;
}

std::string EncodeQuery(const std::string& oql) {
  std::string out = OpOnly(Op::kQuery);
  PutString(&out, oql);
  return out;
}

std::string EncodePing() { return OpOnly(Op::kPing); }
std::string EncodeSessionStatsRequest() {
  return OpOnly(Op::kSessionStats);
}
std::string EncodeGoodbye() { return OpOnly(Op::kGoodbye); }

std::string EncodeShardQuery(uint64_t map_version, const std::string& oql) {
  std::string out = OpOnly(Op::kShardQuery);
  PutFixed64(&out, map_version);
  PutString(&out, oql);
  return out;
}

std::string EncodeInstallShard(uint32_t self_index,
                               const std::string& map_blob) {
  std::string out = OpOnly(Op::kInstallShard);
  PutFixed32(&out, self_index);
  PutString(&out, map_blob);
  return out;
}

std::string EncodeGetShard() { return OpOnly(Op::kGetShard); }

std::string EncodeWelcome() {
  std::string out = OpOnly(Op::kWelcome);
  PutFixed32(&out, kProtocolVersion);
  return out;
}

std::string EncodeRows(const std::vector<Oid>& oids, uint64_t count,
                       bool used_index, const std::string& plan,
                       const WireQueryStats& stats) {
  std::string out = OpOnly(Op::kRows);
  PutFixed64(&out, count);
  out.push_back(used_index ? 1 : 0);
  PutString(&out, plan);
  for (const WireStatField& f : kWireStatFields) {
    PutFixed64(&out, stats.*f.wire);
  }
  PutFixed32(&out, static_cast<uint32_t>(oids.size()));
  for (const Oid oid : oids) PutFixed32(&out, oid);
  return out;
}

std::string EncodeError(const Status& status) {
  std::string out = OpOnly(Op::kError);
  out.push_back(static_cast<char>(status.code()));
  PutString(&out, status.message());
  return out;
}

std::string EncodeBusy(const std::string& message) {
  std::string out = OpOnly(Op::kBusy);
  PutString(&out, message);
  return out;
}

std::string EncodePong() { return OpOnly(Op::kPong); }

std::string EncodeStaleMap(uint64_t server_version,
                           const std::string& message) {
  std::string out = OpOnly(Op::kStaleMap);
  PutFixed64(&out, server_version);
  PutString(&out, message);
  return out;
}

std::string EncodeShardState(bool active, uint32_t self_index,
                             const std::string& map_blob) {
  std::string out = OpOnly(Op::kShardState);
  out.push_back(active ? 1 : 0);
  PutFixed32(&out, self_index);
  PutString(&out, map_blob);
  return out;
}

std::string EncodeStats(const Session::Stats& stats) {
  std::string out = OpOnly(Op::kStats);
  PutFixed64(&out, stats.queries);
  PutFixed64(&out, stats.failed);
  PutFixed64(&out, stats.rows);
  for (const WireStatField& f : kWireStatFields) {
    PutFixed64(&out, stats.*f.session);
  }
  return out;
}

WireQueryStats WireStatsDelta(const Session::Stats& before,
                              const Session::Stats& after) {
  WireQueryStats d;
  for (const WireStatField& f : kWireStatFields) {
    d.*f.wire = f.gauge ? after.*f.session
                        : after.*f.session - before.*f.session;
  }
  return d;
}

void AccumulateWireStats(const WireQueryStats& query, WireQueryStats* total) {
  for (const WireStatField& f : kWireStatFields) {
    uint64_t& t = total->*f.wire;
    t = f.gauge ? std::max(t, query.*f.wire) : t + query.*f.wire;
  }
}

void AccumulateWireStats(const WireQueryStats& query, Session::Stats* total) {
  for (const WireStatField& f : kWireStatFields) {
    uint64_t& t = total->*f.session;
    t = f.gauge ? std::max(t, query.*f.wire) : t + query.*f.wire;
  }
}

Result<Request> DecodeRequest(const Slice& payload) {
  if (payload.empty()) return Status::Corruption("empty request frame");
  Request r;
  r.op = static_cast<Op>(static_cast<uint8_t>(payload[0]));
  size_t pos = 1;
  switch (r.op) {
    case Op::kHello: {
      if (payload.size() < 1 + sizeof(kProtocolMagic)) {
        return Status::Corruption("truncated hello");
      }
      if (std::memcmp(payload.data() + 1, kProtocolMagic,
                      sizeof(kProtocolMagic)) != 0) {
        return Status::Corruption("bad protocol magic");
      }
      pos += sizeof(kProtocolMagic);
      UINDEX_RETURN_IF_ERROR(ReadU32(payload, &pos, &r.version));
      break;
    }
    case Op::kQuery:
      UINDEX_RETURN_IF_ERROR(ReadString(payload, &pos, &r.oql));
      break;
    case Op::kShardQuery:
      UINDEX_RETURN_IF_ERROR(ReadU64(payload, &pos, &r.map_version));
      UINDEX_RETURN_IF_ERROR(ReadString(payload, &pos, &r.oql));
      break;
    case Op::kInstallShard:
      UINDEX_RETURN_IF_ERROR(ReadU32(payload, &pos, &r.self_index));
      UINDEX_RETURN_IF_ERROR(ReadString(payload, &pos, &r.map_blob));
      break;
    case Op::kPing:
    case Op::kSessionStats:
    case Op::kGoodbye:
    case Op::kGetShard:
      break;
    default:
      return Status::Corruption("unknown request op " +
                                std::to_string(static_cast<int>(r.op)));
  }
  UINDEX_RETURN_IF_ERROR(CheckDone(payload, pos));
  return r;
}

Result<Response> DecodeResponse(const Slice& payload) {
  if (payload.empty()) return Status::Corruption("empty response frame");
  Response r;
  r.op = static_cast<Op>(static_cast<uint8_t>(payload[0]));
  size_t pos = 1;
  switch (r.op) {
    case Op::kWelcome:
      UINDEX_RETURN_IF_ERROR(ReadU32(payload, &pos, &r.version));
      break;
    case Op::kRows: {
      UINDEX_RETURN_IF_ERROR(ReadU64(payload, &pos, &r.count));
      uint8_t used = 0;
      UINDEX_RETURN_IF_ERROR(ReadU8(payload, &pos, &used));
      r.used_index = used != 0;
      UINDEX_RETURN_IF_ERROR(ReadString(payload, &pos, &r.plan));
      for (const WireStatField& f : kWireStatFields) {
        UINDEX_RETURN_IF_ERROR(
            ReadU64(payload, &pos, &(r.query_stats.*f.wire)));
      }
      uint32_t n = 0;
      UINDEX_RETURN_IF_ERROR(ReadU32(payload, &pos, &n));
      if (payload.size() - pos < static_cast<size_t>(n) * 4) {
        return Status::Corruption("truncated oid list");
      }
      r.oids.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        r.oids.push_back(DecodeFixed32(payload.data() + pos));
        pos += 4;
      }
      break;
    }
    case Op::kError:
      UINDEX_RETURN_IF_ERROR(ReadU8(payload, &pos, &r.error_code));
      UINDEX_RETURN_IF_ERROR(ReadString(payload, &pos, &r.message));
      break;
    case Op::kBusy:
      UINDEX_RETURN_IF_ERROR(ReadString(payload, &pos, &r.message));
      break;
    case Op::kStaleMap:
      UINDEX_RETURN_IF_ERROR(ReadU64(payload, &pos, &r.map_version));
      UINDEX_RETURN_IF_ERROR(ReadString(payload, &pos, &r.message));
      break;
    case Op::kShardState: {
      uint8_t active = 0;
      UINDEX_RETURN_IF_ERROR(ReadU8(payload, &pos, &active));
      r.shard_active = active != 0;
      UINDEX_RETURN_IF_ERROR(ReadU32(payload, &pos, &r.self_index));
      UINDEX_RETURN_IF_ERROR(ReadString(payload, &pos, &r.map_blob));
      break;
    }
    case Op::kPong:
      break;
    case Op::kStats:
      UINDEX_RETURN_IF_ERROR(ReadU64(payload, &pos, &r.session_stats.queries));
      UINDEX_RETURN_IF_ERROR(ReadU64(payload, &pos, &r.session_stats.failed));
      UINDEX_RETURN_IF_ERROR(ReadU64(payload, &pos, &r.session_stats.rows));
      for (const WireStatField& f : kWireStatFields) {
        UINDEX_RETURN_IF_ERROR(
            ReadU64(payload, &pos, &(r.session_stats.*f.session)));
      }
      break;
    default:
      return Status::Corruption("unknown response op " +
                                std::to_string(static_cast<int>(r.op)));
  }
  UINDEX_RETURN_IF_ERROR(CheckDone(payload, pos));
  return r;
}

Status ErrorResponseToStatus(const Response& response) {
  switch (static_cast<Status::Code>(response.error_code)) {
    case Status::Code::kNotFound:
      return Status::NotFound(response.message);
    case Status::Code::kCorruption:
      return Status::Corruption(response.message);
    case Status::Code::kInvalidArgument:
      return Status::InvalidArgument(response.message);
    case Status::Code::kAlreadyExists:
      return Status::AlreadyExists(response.message);
    case Status::Code::kNotSupported:
      return Status::NotSupported(response.message);
    case Status::Code::kResourceExhausted:
      return Status::ResourceExhausted(response.message);
    case Status::Code::kUnavailable:
      return Status::Unavailable(response.message);
    case Status::Code::kStaleVersion:
      return Status::StaleVersion(response.message);
    case Status::Code::kCycleDetected:
      return Status::CycleDetected(response.message);
    case Status::Code::kOk:
      break;
  }
  return Status::Corruption("error response with non-error code");
}

}  // namespace net
}  // namespace uindex
