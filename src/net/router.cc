#include "net/router.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "exec/shard_route.h"

namespace uindex {
namespace net {

namespace {

std::string EndpointKey(const std::string& host, uint16_t port) {
  return host + ":" + std::to_string(port);
}

}  // namespace

Result<std::unique_ptr<Router>> Router::Create(ShardMap map,
                                               const Database* planner,
                                               RouterOptions options) {
  UINDEX_RETURN_IF_ERROR(map.Validate());
  if (planner == nullptr) {
    return Status::InvalidArgument("router needs a planning database");
  }
  return std::unique_ptr<Router>(
      new Router(std::move(map), planner, std::move(options)));
}

Router::Router(ShardMap map, const Database* planner, RouterOptions options)
    : planner_(planner), options_(std::move(options)), map_(std::move(map)) {
  const size_t workers =
      options_.fanout_threads != 0
          ? options_.fanout_threads
          : std::max<size_t>(8, 2 * map_.entries.size());
  fanout_ = std::make_unique<exec::ThreadPool>(workers);
}

Router::~Router() {
  // The fan-out pool drains before the connection pool dies.
  fanout_.reset();
}

ShardMap Router::CurrentMap() const {
  std::lock_guard<std::mutex> lock(map_mu_);
  return map_;
}

std::unique_ptr<Client> Router::AcquireClient(const std::string& host,
                                              uint16_t port, Status* error) {
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    auto it = idle_.find(EndpointKey(host, port));
    if (it != idle_.end() && !it->second.empty()) {
      std::unique_ptr<Client> client = std::move(it->second.back());
      it->second.pop_back();
      return client;
    }
  }
  Result<std::unique_ptr<Client>> dialed =
      Client::Connect(host, port, options_.subquery_timeout_ms);
  if (!dialed.ok()) {
    *error = dialed.status();
    return nullptr;
  }
  counters_.conns_created.fetch_add(1, std::memory_order_relaxed);
  return std::move(dialed).value();
}

void Router::ReleaseClient(const std::string& host, uint16_t port,
                           std::unique_ptr<Client> client) {
  if (client == nullptr) return;
  if (!client->healthy()) {
    // A transport failure sticks to the connection; returning it would
    // fail the next sub-query too. Drop it — the next acquire re-dials.
    counters_.conns_evicted.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  std::lock_guard<std::mutex> lock(pool_mu_);
  idle_[EndpointKey(host, port)].push_back(std::move(client));
}

Router::SubResult Router::RunSubQuery(const ShardMap& map, size_t shard,
                                      const std::string& oql) {
  SubResult out;
  out.shard = shard;
  const ShardMap::Entry& entry = map.entries[shard];
  Status dial;
  std::unique_ptr<Client> client =
      AcquireClient(entry.host, entry.port, &dial);
  if (client == nullptr) {
    out.result = dial;
    return out;
  }
  uint64_t server_version = 0;
  Result<Client::QueryResult> r =
      client->ShardQuery(map.version, oql, &server_version);
  if (!r.ok() && r.status().IsStaleVersion()) {
    out.stale = true;
    out.server_version = server_version;
  }
  out.result = std::move(r);
  ReleaseClient(entry.host, entry.port, std::move(client));
  return out;
}

Status Router::RefreshMap() {
  // Prefer the operator-maintained map file; fall back to asking the
  // shards themselves (the map is exchangeable over the wire), adopting
  // the highest installed version any of them reports.
  ShardMap fresh;
  bool have_fresh = false;
  if (!options_.map_path.empty()) {
    Result<ShardMap> loaded = ShardMap::Load(options_.map_path);
    if (loaded.ok()) {
      fresh = std::move(loaded).value();
      have_fresh = true;
    } else if (!loaded.status().IsNotFound()) {
      return loaded.status();
    }
  }
  if (!have_fresh) {
    const ShardMap current = CurrentMap();
    for (const ShardMap::Entry& entry : current.entries) {
      Status dial;
      std::unique_ptr<Client> client =
          AcquireClient(entry.host, entry.port, &dial);
      if (client == nullptr) continue;  // Best effort; others may answer.
      Result<Client::ShardState> state = client->GetShard();
      ReleaseClient(entry.host, entry.port, std::move(client));
      if (!state.ok() || !state.value().active) continue;
      if (!have_fresh || state.value().map.version > fresh.version) {
        fresh = std::move(state).value().map;
        have_fresh = true;
      }
    }
  }
  if (!have_fresh) {
    return Status::Unavailable("no shard map source answered the refresh");
  }
  UINDEX_RETURN_IF_ERROR(fresh.Validate());
  std::lock_guard<std::mutex> lock(map_mu_);
  if (fresh.version > map_.version) map_ = std::move(fresh);
  return Status::OK();
}

Result<Router::QueryOutcome> Router::Query(const std::string& oql) {
  // Plan locally: parse errors and unknown names fail here, before any
  // bytes hit the wire, with the same diagnostics a single node gives.
  Result<Database::RoutingPlan> plan = planner_->PlanOqlRouting(oql);
  if (!plan.ok()) {
    counters_.queries_failed.fetch_add(1, std::memory_order_relaxed);
    return plan.status();
  }

  for (int attempt = 0; attempt <= options_.max_stale_retries; ++attempt) {
    const ShardMap map = CurrentMap();
    const std::vector<size_t> candidates =
        exec::CandidateShards(plan.value().code_spans, map.Boundaries());
    counters_.shards_pruned.fetch_add(map.entries.size() - candidates.size(),
                                      std::memory_order_relaxed);
    if (candidates.empty()) {
      // No shard range intersects the query's code spans (possible only
      // for degenerate spans); an empty result is the correct answer.
      QueryOutcome out;
      out.used_index = plan.value().used_index;
      out.plan = plan.value().plan + " over 0/" +
                 std::to_string(map.entries.size()) + " shards (v" +
                 std::to_string(map.version) + ")";
      counters_.queries_ok.fetch_add(1, std::memory_order_relaxed);
      return out;
    }

    // Scatter... Every future is joined before anything else happens —
    // including the stale-retry path, which is what "drain in-flight
    // old-version sub-queries before refreshing" means.
    std::vector<exec::Future<SubResult>> futures;
    futures.reserve(candidates.size());
    for (const size_t shard : candidates) {
      counters_.subqueries_sent.fetch_add(1, std::memory_order_relaxed);
      futures.push_back(fanout_->Submit(
          [this, &map, shard, &oql] { return RunSubQuery(map, shard, oql); }));
    }
    std::vector<SubResult> subs;
    subs.reserve(futures.size());
    for (exec::Future<SubResult>& f : futures) subs.push_back(f.Take());

    // ...gather.
    bool any_stale = false;
    const SubResult* failed = nullptr;
    for (const SubResult& sub : subs) {
      if (sub.stale) {
        any_stale = true;
      } else if (!sub.result.ok() && failed == nullptr) {
        failed = &sub;
      }
    }
    if (any_stale) {
      // A split/rebalance moved the map under us. Refresh and rerun the
      // whole scatter: results computed under the old version are
      // discarded, never mixed across versions.
      counters_.stale_retries.fetch_add(1, std::memory_order_relaxed);
      const Status refreshed = RefreshMap();
      if (!refreshed.ok() && attempt == options_.max_stale_retries) {
        counters_.queries_failed.fetch_add(1, std::memory_order_relaxed);
        return refreshed;
      }
      // The installer may still be mid-rollout (map file ahead of the
      // servers, or vice versa); give it a beat before retrying.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    if (failed != nullptr) {
      const ShardMap::Entry& entry = map.entries[failed->shard];
      counters_.partial_failures.fetch_add(1, std::memory_order_relaxed);
      counters_.queries_failed.fetch_add(1, std::memory_order_relaxed);
      return Status::Unavailable(
          "shard " + std::to_string(failed->shard) + " (" + entry.host +
          ":" + std::to_string(entry.port) +
          ") failed: " + failed->result.status().ToString() +
          "; partial results discarded");
    }

    // Merge. Served-range enforcement makes shard row sets disjoint, so
    // the sorted union of sorted streams is exactly the single-node row
    // set; counts and stats sum.
    QueryOutcome out;
    out.shards_queried = subs.size();
    out.used_index = true;
    for (SubResult& sub : subs) {
      Client::QueryResult& r = sub.result.value();
      out.count += r.count;
      out.used_index = out.used_index && r.used_index;
      AccumulateWireStats(r.stats, &out.stats);
      out.oids.insert(out.oids.end(), r.oids.begin(), r.oids.end());
    }
    std::sort(out.oids.begin(), out.oids.end());
    if (plan.value().limit != 0 && out.oids.size() > plan.value().limit) {
      // Each shard already applied LIMIT locally (capping its stream);
      // the merged stream re-applies it for the global cut.
      out.oids.resize(plan.value().limit);
    }
    out.plan = plan.value().plan + " over " + std::to_string(subs.size()) +
               "/" + std::to_string(map.entries.size()) + " shards (v" +
               std::to_string(map.version) + ")";
    counters_.queries_ok.fetch_add(1, std::memory_order_relaxed);
    return out;
  }

  counters_.queries_failed.fetch_add(1, std::memory_order_relaxed);
  return Status::Unavailable(
      "shard map still stale after " +
      std::to_string(options_.max_stale_retries) + " refreshes");
}

}  // namespace net
}  // namespace uindex
