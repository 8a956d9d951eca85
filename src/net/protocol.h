#ifndef UINDEX_NET_PROTOCOL_H_
#define UINDEX_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "db/session.h"
#include "objects/object.h"
#include "util/slice.h"
#include "util/status.h"

namespace uindex {
namespace net {

/// The U-index wire protocol: a request/response binary protocol over TCP
/// that puts one `Database` behind a socket. Every message travels in the
/// repo-wide record frame (util/framing.h, the same convention as the
/// durability journal):
///
///   [len u32][crc u32][payload]
///
/// and the payload starts with a one-byte op code. Requests (client →
/// server) and responses (server → client) use disjoint op ranges so a
/// garbled direction is caught at decode time. One request yields exactly
/// one response; there is no pipelining (the blocking client is the
/// intended consumer; the server tolerates — and answers — back-to-back
/// frames in order).
///
/// Robustness rules (enforced by conn/server, asserted by
/// tests/net_protocol_test and tests/net_server_test):
///  * frames above the direction's size limit, CRC mismatches, torn
///    frames, and undecodable payloads poison ONLY the offending
///    connection — the server answers with `kError` when the transport
///    still permits, then closes that connection;
///  * queries past the admission-control cap and wait queue are shed with
///    a typed `kBusy` response, never silently dropped;
///  * during graceful shutdown in-flight queries drain and their
///    responses are delivered, while new frames are refused with
///    `kError` (code `kResourceExhausted`, message "server shutting
///    down").

/// Protocol revision; bumped on any incompatible layout change. The server
/// rejects a `kHello` carrying a different major version.
/// v2: kRows/kStats grew the buffer-pool counters (pool_hits, pool_misses,
/// evictions, writebacks).
/// v3: kRows/kStats grew the MVCC + group-commit counters
/// (epochs_published, pages_cow, commit_batches, commit_records,
/// reader_pin_max_age_us).
/// v4: sharding — kShardQuery (version-fenced sub-query), kInstallShard /
/// kGetShard (ShardMap exchange), kStaleMap (typed stale-version
/// rejection), kShardState.
inline constexpr uint32_t kProtocolVersion = 4;

/// First bytes of every `kHello` payload after the op byte.
inline constexpr char kProtocolMagic[4] = {'U', 'I', 'D', 'X'};

/// Frame-size ceilings per direction. Requests carry OQL text (small);
/// responses carry row sets — 8 MiB fits ~2M oids, far beyond any
/// benchmarked result set.
inline constexpr uint32_t kMaxRequestFrame = 1u << 20;   // 1 MiB
inline constexpr uint32_t kMaxResponseFrame = 8u << 20;  // 8 MiB

enum class Op : uint8_t {
  // Requests (client → server).
  kHello = 0x01,         ///< magic + version; answered by kWelcome.
  kQuery = 0x02,         ///< OQL text; answered by kRows/kError/kBusy.
  kPing = 0x03,          ///< answered by kPong.
  kSessionStats = 0x04,  ///< answered by kStats.
  kGoodbye = 0x05,       ///< clean close; no response.
  // v4 (sharding).
  kShardQuery = 0x06,    ///< map-versioned sub-query; kRows or kStaleMap.
  kInstallShard = 0x07,  ///< ShardMap + own index; answered by kShardState.
  kGetShard = 0x08,      ///< answered by kShardState.

  // Responses (server → client).
  kWelcome = 0x81,  ///< server protocol version.
  kRows = 0x82,     ///< query result + per-query IoStats delta.
  kError = 0x83,    ///< Status code + message (incl. parse diagnostics).
  kBusy = 0x84,     ///< admission control shed this query; retry later.
  kPong = 0x85,
  kStats = 0x86,    ///< the connection's Session::Stats.
  // v4 (sharding).
  kStaleMap = 0x87,     ///< sub-query carried an old map version; refresh.
  kShardState = 0x88,   ///< the server's installed ShardMap + own index.
};

/// The per-query IoStats delta shipped with every `kRows` response, so a
/// remote client sees the same observability the shell's `stats` has.
/// Under concurrent queries the delta is attributed from the database-wide
/// counters (the global per-query-epoch accounting model — see the
/// `Database` class comment), exactly as `Session` reports it locally.
struct WireQueryStats {
  uint64_t pages_read = 0;
  uint64_t nodes_parsed = 0;
  uint64_t node_cache_hits = 0;
  uint64_t prefetch_issued = 0;
  uint64_t prefetch_hits = 0;
  uint64_t prefetch_wasted = 0;
  // Physical buffer-pool traffic (file backend; 0 in memory). v2.
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t evictions = 0;
  uint64_t writebacks = 0;
  // MVCC + group commit (db/commit_queue.h, storage/mvcc.h). v3.
  uint64_t epochs_published = 0;
  uint64_t pages_cow = 0;
  uint64_t commit_batches = 0;
  uint64_t commit_records = 0;
  uint64_t reader_pin_max_age_us = 0;  ///< Gauge, not a delta.
};

/// One counter `WireQueryStats` shares with `Session::Stats`.
struct WireStatField {
  const char* name;  ///< Also the key of the gateway's JSON "stats" object.
  uint64_t WireQueryStats::*wire;
  uint64_t Session::Stats::*session;
  bool gauge;  ///< A watermark: carried or maxed, never differenced/summed.
};

/// Every `WireQueryStats` counter in wire order — the one list the codec,
/// the gateway's JSON, and the conversions below walk. A new per-query
/// counter is added to both structs and here, nowhere else.
inline constexpr WireStatField kWireStatFields[] = {
    {"pages_read", &WireQueryStats::pages_read, &Session::Stats::pages_read,
     false},
    {"nodes_parsed", &WireQueryStats::nodes_parsed,
     &Session::Stats::nodes_parsed, false},
    {"node_cache_hits", &WireQueryStats::node_cache_hits,
     &Session::Stats::node_cache_hits, false},
    {"prefetch_issued", &WireQueryStats::prefetch_issued,
     &Session::Stats::prefetch_issued, false},
    {"prefetch_hits", &WireQueryStats::prefetch_hits,
     &Session::Stats::prefetch_hits, false},
    {"prefetch_wasted", &WireQueryStats::prefetch_wasted,
     &Session::Stats::prefetch_wasted, false},
    {"pool_hits", &WireQueryStats::pool_hits, &Session::Stats::pool_hits,
     false},
    {"pool_misses", &WireQueryStats::pool_misses,
     &Session::Stats::pool_misses, false},
    {"evictions", &WireQueryStats::evictions, &Session::Stats::evictions,
     false},
    {"writebacks", &WireQueryStats::writebacks, &Session::Stats::writebacks,
     false},
    {"epochs_published", &WireQueryStats::epochs_published,
     &Session::Stats::epochs_published, false},
    {"pages_cow", &WireQueryStats::pages_cow, &Session::Stats::pages_cow,
     false},
    {"commit_batches", &WireQueryStats::commit_batches,
     &Session::Stats::commit_batches, false},
    {"commit_records", &WireQueryStats::commit_records,
     &Session::Stats::commit_records, false},
    {"reader_pin_max_age_us", &WireQueryStats::reader_pin_max_age_us,
     &Session::Stats::reader_pin_max_age_us, true},
};

/// The per-query delta between two snapshots of one session (a gauge
/// reports `after`'s value) — what a server ships in `kRows`. A fresh
/// per-request session is its own delta from `Session::Stats()`.
WireQueryStats WireStatsDelta(const Session::Stats& before,
                              const Session::Stats& after);

/// Folds one query's stats into a running total (sums; a gauge keeps the
/// max): a router merging shard replies, or a connection's session stats.
void AccumulateWireStats(const WireQueryStats& query, WireQueryStats* total);
void AccumulateWireStats(const WireQueryStats& query, Session::Stats* total);

/// A decoded request frame.
struct Request {
  Op op = Op::kPing;
  uint32_t version = 0;     ///< kHello.
  std::string oql;          ///< kQuery / kShardQuery.
  // kShardQuery / kInstallShard.
  uint64_t map_version = 0;  ///< The router's ShardMap version fence.
  uint32_t self_index = 0;   ///< kInstallShard: the server's map entry.
  std::string map_blob;      ///< kInstallShard: ShardMap::EncodeBlob image.
};

/// A decoded response frame. Exactly the members implied by `op` are
/// meaningful.
struct Response {
  Op op = Op::kPong;
  uint32_t version = 0;            ///< kWelcome.
  // kRows.
  std::vector<Oid> oids;           ///< Sorted distinct bindings.
  uint64_t count = 0;              ///< Bindings pre-LIMIT (COUNT queries).
  bool used_index = false;
  std::string plan;
  WireQueryStats query_stats;
  // kError / kBusy.
  uint8_t error_code = 0;          ///< Status::Code as uint8.
  std::string message;
  // kStats.
  Session::Stats session_stats;
  // kStaleMap / kShardState.
  uint64_t map_version = 0;   ///< The server's installed map version.
  bool shard_active = false;  ///< kShardState: a map is installed.
  uint32_t self_index = 0;    ///< kShardState: the server's map entry.
  std::string map_blob;       ///< kShardState: installed map image.
};

// --------------------------------------------------------------- encoders
std::string EncodeHello();
std::string EncodeQuery(const std::string& oql);
std::string EncodePing();
std::string EncodeSessionStatsRequest();
std::string EncodeGoodbye();
std::string EncodeShardQuery(uint64_t map_version, const std::string& oql);
/// `map_blob` is a `ShardMap::EncodeBlob` image; `self_index` names the
/// receiving server's own entry (its served range).
std::string EncodeInstallShard(uint32_t self_index,
                               const std::string& map_blob);
std::string EncodeGetShard();

std::string EncodeWelcome();
std::string EncodeRows(const std::vector<Oid>& oids, uint64_t count,
                       bool used_index, const std::string& plan,
                       const WireQueryStats& stats);
std::string EncodeError(const Status& status);
std::string EncodeBusy(const std::string& message);
std::string EncodePong();
std::string EncodeStats(const Session::Stats& stats);
std::string EncodeStaleMap(uint64_t server_version,
                           const std::string& message);
std::string EncodeShardState(bool active, uint32_t self_index,
                             const std::string& map_blob);

// --------------------------------------------------------------- decoders
/// Both decoders reject empty payloads, ops outside their direction, and
/// any truncated or trailing bytes with `Status::Corruption` — a malformed
/// payload can never be half-decoded.
Result<Request> DecodeRequest(const Slice& payload);
Result<Response> DecodeResponse(const Slice& payload);

/// Reconstructs the `Status` carried by a `kError` response.
Status ErrorResponseToStatus(const Response& response);

}  // namespace net
}  // namespace uindex

#endif  // UINDEX_NET_PROTOCOL_H_
