#include "serve/sharded_server.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "common/logging.h"
#include "io/fs_util.h"
#include "pathexpr/nfa.h"
#include "query/frozen_view.h"

namespace dki {
namespace {

std::string ShardDir(const std::string& root, int shard) {
  return root + "/shard-" + std::to_string(shard);
}

int64_t ElapsedNanos(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Merges k ascending global-id lists into one ascending union. The only id
// two shards can both return is the replicated root (0), so duplicates are
// collapsed by skipping equal heads. k is the (small) shard count; a
// repeated min-scan beats heap bookkeeping at that size.
std::vector<NodeId> MergeSortedUnique(
    std::vector<std::vector<NodeId>>* lists) {
  std::vector<std::vector<NodeId>*> live;
  size_t total = 0;
  for (std::vector<NodeId>& l : *lists) {
    if (!l.empty()) {
      live.push_back(&l);
      total += l.size();
    }
  }
  if (live.empty()) return {};
  if (live.size() == 1) return std::move(*live[0]);
  std::vector<size_t> pos(live.size(), 0);
  std::vector<NodeId> merged;
  merged.reserve(total);
  for (;;) {
    NodeId best = kInvalidNode;
    for (size_t i = 0; i < live.size(); ++i) {
      if (pos[i] < live[i]->size() &&
          (best == kInvalidNode || (*live[i])[pos[i]] < best)) {
        best = (*live[i])[pos[i]];
      }
    }
    if (best == kInvalidNode) break;
    merged.push_back(best);
    for (size_t i = 0; i < live.size(); ++i) {
      if (pos[i] < live[i]->size() && (*live[i])[pos[i]] == best) ++pos[i];
    }
  }
  return merged;
}

QueryServer::Options ShardOptions(const QueryServer::Options& base,
                                  const std::string& root, int shard,
                                  uint64_t start_seq) {
  QueryServer::Options o = base;
  if (!root.empty()) {
    o.durability.dir = ShardDir(root, shard);
    o.durability.start_seq = start_seq;
  }
  return o;
}

}  // namespace

bool RecoverShardedDkIndex(const std::string& dir, ShardedRecovery* out,
                           std::string* error) {
  if (!ShardRouter::LoadManifest(dir + "/router.manifest", &out->router,
                                 error)) {
    return false;
  }
  const int n = out->router.num_shards();
  out->graphs.clear();
  out->indexes.clear();
  out->indexes.reserve(static_cast<size_t>(n));
  out->shard_stats.assign(static_cast<size_t>(n), RecoveryStats());
  for (int s = 0; s < n; ++s) {
    out->graphs.push_back(std::make_unique<DataGraph>());
    std::optional<DkIndex> dk = RecoverDkIndex(
        ShardDir(dir, s), out->graphs.back().get(),
        &out->shard_stats[static_cast<size_t>(s)], error);
    if (!dk.has_value()) {
      if (error != nullptr) {
        *error = "shard " + std::to_string(s) + ": " + *error;
      }
      return false;
    }
    out->indexes.push_back(std::move(*dk));
  }
  std::vector<int64_t> counts;
  counts.reserve(out->graphs.size());
  for (const auto& g : out->graphs) counts.push_back(g->NumNodes());
  return out->router.Reconcile(counts, error);
}

ShardedQueryServer::ShardedQueryServer(const DataGraph& graph,
                                       const LabelRequirements& reqs,
                                       Options options)
    : options_(std::move(options)) {
  DKI_CHECK_GE(options_.num_shards, 1);
  router_ = ShardRouter::Partition(graph, options_.num_shards);
  const std::string root = options_.server.durability.dir;
  if (!root.empty()) {
    std::string error;
    if (!EnsureDir(root, &error)) {
      std::fprintf(stderr,
                   "ShardedQueryServer: cannot create durability root "
                   "(%s); shards will disable durability too\n",
                   error.c_str());
    }
    manifest_path_ = root + "/router.manifest";
  }
  std::vector<std::unique_ptr<QueryServer>> servers;
  servers.reserve(static_cast<size_t>(options_.num_shards));
  for (int s = 0; s < options_.num_shards; ++s) {
    DataGraph sg = router_.TakeShardGraph(s);
    DkIndex dk = DkIndex::Build(&sg, reqs, options_.build);
    servers.push_back(std::make_unique<QueryServer>(
        dk, ShardOptions(options_.server, root, s, /*start_seq=*/0)));
  }
  StartShards(std::move(servers));
}

ShardedQueryServer::ShardedQueryServer(ShardedRecovery recovered,
                                       Options options)
    : options_(std::move(options)), router_(std::move(recovered.router)) {
  // The manifest is authoritative on shard count after a recovery.
  options_.num_shards = router_.num_shards();
  const std::string root = options_.server.durability.dir;
  if (!root.empty()) manifest_path_ = root + "/router.manifest";
  std::vector<std::unique_ptr<QueryServer>> servers;
  servers.reserve(static_cast<size_t>(options_.num_shards));
  for (int s = 0; s < options_.num_shards; ++s) {
    servers.push_back(std::make_unique<QueryServer>(
        recovered.indexes[static_cast<size_t>(s)],
        ShardOptions(options_.server, root, s,
                     recovered.shard_stats[static_cast<size_t>(s)].last_seq)));
  }
  StartShards(std::move(servers));
}

void ShardedQueryServer::StartShards(
    std::vector<std::unique_ptr<QueryServer>> servers) {
  servers_ = std::move(servers);
  shard_latency_.reserve(servers_.size());
  for (size_t s = 0; s < servers_.size(); ++s) {
    shard_latency_.push_back(&MetricsRegistry::Global().GetHistogram(
        "serve.shard." + std::to_string(s) + ".eval.latency"));
  }
  if (!manifest_path_.empty()) {
    std::lock_guard<std::mutex> lock(subgraph_mu_);
    SaveManifestLocked("initial manifest");
  }
}

ShardedQueryServer::~ShardedQueryServer() { Stop(); }

bool ShardedQueryServer::SaveManifestLocked(const char* what) {
  if (manifest_path_.empty()) return true;
  std::string error;
  if (router_.SaveManifest(manifest_path_, &error)) return true;
  std::fprintf(stderr, "ShardedQueryServer: %s: manifest save failed: %s\n",
               what, error.c_str());
  return false;
}

std::vector<int> ShardedQueryServer::SurvivingShards(
    const std::vector<std::shared_ptr<const IndexSnapshot>>& snaps,
    const PathExpression* query) const {
  const int n = num_shards();
  std::vector<int> targets;
  targets.reserve(static_cast<size_t>(n));
  if (query == nullptr || query->forward().AnyFromStart()) {
    // No pruning possible: unknown label universe, or a wildcard start
    // edge seeds from every node.
    for (int s = 0; s < n; ++s) targets.push_back(s);
    return targets;
  }
  const Automaton& fwd = query->forward();
  for (int s = 0; s < n; ++s) {
    const FrozenView& view = snaps[static_cast<size_t>(s)]->frozen();
    bool can_seed = false;
    for (LabelId l = 0; l < view.num_labels() && !can_seed; ++l) {
      can_seed = view.IndexNodesWithLabel(l) > 0 && fwd.CanStartWith(l);
    }
    if (can_seed) targets.push_back(s);
  }
  return targets;
}

std::optional<std::vector<NodeId>> ShardedQueryServer::Evaluate(
    const std::string& query_text, EvalStats* stats, std::string* error,
    std::vector<EvalStats>* per_shard_stats) const {
  ScopedLatency latency(&DKI_METRIC_HISTOGRAM("serve.shard.query.latency"));
  queries_.fetch_add(1, std::memory_order_relaxed);
  const int n = num_shards();
  std::vector<std::shared_ptr<const IndexSnapshot>> snaps(
      static_cast<size_t>(n));
  for (int s = 0; s < n; ++s) {
    snaps[static_cast<size_t>(s)] = servers_[static_cast<size_t>(s)]->snapshot();
  }
  if (stats != nullptr) *stats = EvalStats();
  if (per_shard_stats != nullptr) {
    per_shard_stats->assign(static_cast<size_t>(n), EvalStats());
  }

  // Pruning fast path: while the label universe is shared, one parse (via
  // the front-door cache) against shard 0's snapshot decides which shards
  // can seed at all. Once diverged, every shard parses for itself.
  std::shared_ptr<const PathExpression> query;
  if (!router_.labels_diverged()) {
    std::string parse_error;
    query = parse_cache_.Get(query_text,
                             snaps[0]->graph().labels(), &parse_error);
    if (query == nullptr) {
      DKI_METRIC_COUNTER("serve.shard.query.parse_errors").Increment();
      if (error != nullptr) *error = parse_error;
      return std::nullopt;
    }
  }
  const std::vector<int> targets = SurvivingShards(snaps, query.get());
  shard_evals_.fetch_add(static_cast<int64_t>(targets.size()),
                         std::memory_order_relaxed);
  shards_pruned_.fetch_add(static_cast<int64_t>(n - targets.size()),
                           std::memory_order_relaxed);

  const size_t t = targets.size();
  std::vector<std::vector<NodeId>> locals(t);
  std::vector<EvalStats> shard_stats(t);
  std::vector<std::string> shard_errors(t);
  std::vector<char> ok(t, 1);
  auto eval_one = [&](size_t ti) {
    const int s = targets[ti];
    const auto start = std::chrono::steady_clock::now();
    std::optional<std::vector<NodeId>> r =
        servers_[static_cast<size_t>(s)]->EvaluateOn(
            *snaps[static_cast<size_t>(s)], query_text, &shard_stats[ti],
            &shard_errors[ti]);
    shard_latency_[static_cast<size_t>(s)]->Record(ElapsedNanos(start));
    if (r.has_value()) {
      locals[ti] = std::move(*r);
    } else {
      ok[ti] = 0;
    }
  };
  if (t > 1) {
    // Scatter in parallel when the shared pool is free; under contention
    // fall back to the calling thread (same results, just serial).
    std::unique_lock<std::mutex> pool_lock(scatter_mu_, std::try_to_lock);
    if (pool_lock.owns_lock()) {
      if (scatter_pool_ == nullptr) {
        scatter_pool_ = std::make_unique<ThreadPool>(
            std::min(n, ThreadPool::HardwareConcurrency()));
      }
      scatter_pool_->ParallelFor(
          static_cast<int64_t>(t), [&](int chunk, int64_t begin, int64_t end) {
            (void)chunk;
            for (int64_t i = begin; i < end; ++i) {
              eval_one(static_cast<size_t>(i));
            }
          });
    } else {
      for (size_t ti = 0; ti < t; ++ti) eval_one(ti);
    }
  } else if (t == 1) {
    eval_one(0);
  }
  for (size_t ti = 0; ti < t; ++ti) {
    if (!ok[ti]) {
      // Reachable only on the diverged path (otherwise the front-door
      // parse above already succeeded on the same text).
      DKI_METRIC_COUNTER("serve.shard.query.parse_errors").Increment();
      if (error != nullptr) *error = shard_errors[ti];
      return std::nullopt;
    }
  }

  // Gather: shard-local answers are ascending, MapToGlobal preserves order,
  // so the union is one sorted merge (root dedupe included).
  std::vector<std::vector<NodeId>> globals(t);
  for (size_t ti = 0; ti < t; ++ti) {
    router_.MapToGlobal(targets[ti], locals[ti], &globals[ti]);
  }
  std::vector<NodeId> merged = MergeSortedUnique(&globals);
  if (stats != nullptr) {
    for (size_t ti = 0; ti < t; ++ti) stats->Accumulate(shard_stats[ti]);
    stats->result_size = static_cast<int64_t>(merged.size());
  }
  if (per_shard_stats != nullptr) {
    for (size_t ti = 0; ti < t; ++ti) {
      (*per_shard_stats)[static_cast<size_t>(targets[ti])] = shard_stats[ti];
    }
  }
  return merged;
}

bool ShardedQueryServer::SubmitAddEdge(NodeId global_u, NodeId global_v) {
  std::optional<ShardRouter::EdgeRoute> route =
      router_.RouteEdge(global_u, global_v);
  if (!route.has_value()) {
    cross_shard_rejects_.fetch_add(1, std::memory_order_relaxed);
    DKI_METRIC_COUNTER("serve.shard.cross_shard_rejected").Increment();
    return false;
  }
  return servers_[static_cast<size_t>(route->shard)]->SubmitAddEdge(route->u,
                                                                    route->v);
}

bool ShardedQueryServer::SubmitRemoveEdge(NodeId global_u, NodeId global_v) {
  std::optional<ShardRouter::EdgeRoute> route =
      router_.RouteEdge(global_u, global_v);
  if (!route.has_value()) {
    cross_shard_rejects_.fetch_add(1, std::memory_order_relaxed);
    DKI_METRIC_COUNTER("serve.shard.cross_shard_rejected").Increment();
    return false;
  }
  return servers_[static_cast<size_t>(route->shard)]->SubmitRemoveEdge(
      route->u, route->v);
}

bool ShardedQueryServer::SubmitAddSubgraph(DataGraph h) {
  // Serialized so a rollback can only ever undo the newest reservation.
  std::lock_guard<std::mutex> lock(subgraph_mu_);
  std::optional<ShardRouter::SubgraphRoute> route = router_.RouteSubgraph(h);
  if (!route.has_value()) {
    cross_shard_rejects_.fetch_add(1, std::memory_order_relaxed);
    DKI_METRIC_COUNTER("serve.shard.cross_shard_rejected").Increment();
    return false;
  }
  // Write-ahead of the id mapping: recovery reconciles reservations whose
  // op never reached the shard WAL, the reverse (op logged, mapping lost)
  // would orphan the shard's nodes.
  SaveManifestLocked("subgraph reservation");
  const bool ok =
      servers_[static_cast<size_t>(route->shard)]->SubmitAddSubgraph(
          std::move(h));
  if (!ok) {
    router_.RollbackSubgraph(*route);
    SaveManifestLocked("subgraph rollback");
  }
  return ok;
}

bool ShardedQueryServer::SubmitRetune(LabelRequirements targets, bool shrink) {
  LabelRequirements filtered;
  for (const auto& [label, k] : targets) {
    if (label >= 0 && label < router_.base_label_count()) {
      filtered[label] = k;
    } else {
      // A single unknown label invalidates a whole retune op at apply time
      // (serve/apply.h), and labels past the base table exist on at most
      // one shard — dropping them keeps the fan-out valid everywhere.
      DKI_METRIC_COUNTER("serve.shard.retune.filtered_targets").Increment();
    }
  }
  if (filtered.empty() && !targets.empty()) {
    // Nothing retunable survived; an empty-target retune is NOT a no-op
    // (with shrink it demotes everything), so refuse instead.
    return false;
  }
  bool ok = true;
  for (auto& server : servers_) {
    ok = server->SubmitRetune(filtered, shrink) && ok;
  }
  return ok;
}

void ShardedQueryServer::Flush() {
  for (auto& server : servers_) server->Flush();
}

bool ShardedQueryServer::SyncWal() {
  bool ok = true;
  for (auto& server : servers_) ok = server->SyncWal() && ok;
  return ok;
}

bool ShardedQueryServer::CheckpointNow() {
  bool ok = true;
  for (auto& server : servers_) ok = server->CheckpointNow() && ok;
  return ok;
}

void ShardedQueryServer::Stop() {
  for (auto& server : servers_) server->Stop();
  // A clean shutdown leaves the manifest in sync with the final state.
  std::lock_guard<std::mutex> lock(subgraph_mu_);
  SaveManifestLocked("shutdown");
}

ShardedQueryServer::Stats ShardedQueryServer::stats() const {
  Stats st;
  st.per_shard.reserve(servers_.size());
  for (const auto& server : servers_) {
    QueryServer::Stats ps = server->stats();
    st.aggregate.ops_accepted += ps.ops_accepted;
    st.aggregate.ops_rejected += ps.ops_rejected;
    st.aggregate.ops_rejected_full += ps.ops_rejected_full;
    st.aggregate.ops_rejected_closed += ps.ops_rejected_closed;
    st.aggregate.ops_applied += ps.ops_applied;
    st.aggregate.ops_invalid += ps.ops_invalid;
    st.aggregate.ops_logged += ps.ops_logged;
    st.aggregate.ops_coalesced += ps.ops_coalesced;
    st.aggregate.batches += ps.batches;
    st.aggregate.publishes += ps.publishes;
    st.aggregate.checkpoints += ps.checkpoints;
    st.aggregate.auto_retunes += ps.auto_retunes;
    st.aggregate.tuner_recorded_misses += ps.tuner_recorded_misses;
    st.aggregate.tuner_dropped_misses += ps.tuner_dropped_misses;
    st.aggregate.tuner_last_index_nodes += ps.tuner_last_index_nodes;
    st.per_shard.push_back(ps);
  }
  st.queries = queries_.load(std::memory_order_relaxed);
  st.shard_evals = shard_evals_.load(std::memory_order_relaxed);
  st.shards_pruned = shards_pruned_.load(std::memory_order_relaxed);
  st.cross_shard_rejects =
      cross_shard_rejects_.load(std::memory_order_relaxed);
  return st;
}

}  // namespace dki
