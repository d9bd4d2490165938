#ifndef DKINDEX_SERVE_SHARDED_SERVER_H_
#define DKINDEX_SERVE_SHARDED_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "graph/data_graph.h"
#include "index/dk_index.h"
#include "query/evaluator.h"
#include "query/parse_cache.h"
#include "serve/query_server.h"
#include "serve/shard_router.h"

namespace dki {

// Everything RecoverShardedDkIndex needs to hand a crashed sharded
// deployment back to a ShardedQueryServer: the reconciled router plus one
// recovered (graph, index, stats) triple per shard. The graphs are
// heap-held so their addresses stay stable — each DkIndex borrows its
// graph pointer.
struct ShardedRecovery {
  ShardRouter router;
  std::vector<std::unique_ptr<DataGraph>> graphs;
  std::vector<DkIndex> indexes;
  std::vector<RecoveryStats> shard_stats;
};

// Recovers a sharded durability directory: loads `dir`/router.manifest,
// runs per-shard RecoverDkIndex over `dir`/shard-<i>, and reconciles the
// router against what each shard actually got back (reserved global ids
// whose ops the crash lost become permanent holes). False + error if the
// manifest or any shard is unrecoverable.
bool RecoverShardedDkIndex(const std::string& dir, ShardedRecovery* out,
                           std::string* error);

// Sharded multi-writer serving: N independent QueryServer pipelines — each
// with its own master (DataGraph, DkIndex), bounded update queue, writer
// thread, WAL + checkpoint directory, and per-publish FrozenView — behind
// one routing front door.
//
//   Submit*(global ids) ──ShardRouter──► one shard's queue ─► that shard's
//                                        writer (N writers run in parallel;
//                                        each republish copies 1/N of
//                                        the data)
//   Evaluate(text)      ──label prune──► scatter to surviving shards
//                                        (parallel) ─► sorted-merge of
//                                        global ids
//
// Exactness: the router's edge-closed partition (shard_router.h) makes the
// union of shard answers bit-identical to a single unsharded QueryServer
// over the same graph and accepted update stream — same result sets, same
// sorted order. The price is the single-shard ownership rule: cross-shard
// edge ops are rejected at submit time (counted in Stats::
// cross_shard_rejects) instead of entering any queue.
//
// Scatter pruning: each shard snapshot's FrozenView knows its label
// population; a shard none of whose labels can seed the query automaton's
// start states is skipped outright (zero visits, no latency). Once any
// accepted subgraph introduces a label outside the base table
// (router.labels_diverged()), pruning turns off — shard label tables may
// no longer agree — and every query fans out to all shards.
//
// Durability layout under Options::server.durability.dir:
//   <dir>/router.manifest     global<->local id mapping (write-ahead saved
//                             before each accepted subgraph submit)
//   <dir>/shard-<i>/          shard i's wal.log + checkpoint-<seq>.dki
// Recover with RecoverShardedDkIndex(dir), then rebuild the server with
// the recovery constructor.
class ShardedQueryServer {
 public:
  struct Options {
    int num_shards = 2;
    // Per-shard pipeline options. durability.dir (when set) is the SHARDED
    // root: shard i gets "<dir>/shard-<i>"; durability.start_seq is
    // per-shard and supplied by the recovery constructor.
    QueryServer::Options server;
    // Per-shard initial index construction.
    BuildOptions build;
  };

  // Fresh start: partitions `graph`, builds one D(k)-index per shard under
  // `reqs`, and starts the N pipelines.
  ShardedQueryServer(const DataGraph& graph, const LabelRequirements& reqs,
                     Options options);
  // Restart after RecoverShardedDkIndex: adopts the reconciled router and
  // forks each shard pipeline from its recovered index, with start_seq =
  // that shard's RecoveryStats::last_seq.
  ShardedQueryServer(ShardedRecovery recovered, Options options);
  ~ShardedQueryServer();

  ShardedQueryServer(const ShardedQueryServer&) = delete;
  ShardedQueryServer& operator=(const ShardedQueryServer&) = delete;

  int num_shards() const { return static_cast<int>(servers_.size()); }
  const ShardRouter& router() const { return router_; }
  // Direct access to one shard's pipeline (tests, stats drilling).
  QueryServer& shard(int s) { return *servers_[static_cast<size_t>(s)]; }
  const QueryServer& shard(int s) const {
    return *servers_[static_cast<size_t>(s)];
  }

  // --- read path (scatter-gather; any thread) ----------------------------

  // Evaluates `query_text` against one consistent snapshot per shard:
  // prunes shards whose labels cannot seed the query, evaluates survivors
  // (in parallel on the scatter pool when it is free), maps each shard's
  // sorted local answer to global ids, and merges. Returns nullopt on parse
  // errors. `stats`, when given, accumulates every surviving shard's
  // EvalStats with result_size fixed to the merged count;
  // `per_shard_stats`, when given, is resized to num_shards() with pruned
  // shards left all-zero.
  std::optional<std::vector<NodeId>> Evaluate(
      const std::string& query_text, EvalStats* stats = nullptr,
      std::string* error = nullptr,
      std::vector<EvalStats>* per_shard_stats = nullptr) const;

  // --- update path (routed; any thread) ----------------------------------

  // Global-id edge ops, routed per shard_router.h. False if the router
  // rejects the op (cross-shard / into-root / unknown id — counted in
  // Stats::cross_shard_rejects) or the owning shard's queue does.
  bool SubmitAddEdge(NodeId global_u, NodeId global_v);
  bool SubmitRemoveEdge(NodeId global_u, NodeId global_v);
  // Routes `h` to its owning shard, write-ahead-saves the router manifest,
  // and submits. Global ids for h's nodes are reserved exactly as a single
  // server would assign them; on queue rejection the reservation is rolled
  // back. False also when the router rejects `h` (edge into its root).
  bool SubmitAddSubgraph(DataGraph h);
  // Fans the retune out to every shard, restricted to the shared base
  // label universe (labels introduced by later subgraph inserts exist only
  // on their owning shard and cannot be retuned through this front door).
  // True iff every shard accepted; partial acceptance leaves shards with
  // different effective requirements, which changes cost, never answers.
  bool SubmitRetune(LabelRequirements targets, bool shrink = true);

  // Blocks until every accepted op on every shard is applied + published.
  void Flush();
  bool SyncWal();        // all shards; true iff all succeed
  bool CheckpointNow();  // all shards; true iff all succeed
  void Stop();           // stops every pipeline; idempotent

  struct Stats {
    QueryServer::Stats aggregate;  // field-wise sum over shards
    std::vector<QueryServer::Stats> per_shard;
    int64_t queries = 0;             // front-door Evaluate queries
    int64_t shard_evals = 0;         // per-shard evaluations dispatched
    int64_t shards_pruned = 0;       // evaluations skipped by label pruning
    int64_t cross_shard_rejects = 0; // router-rejected update ops
  };
  Stats stats() const;

  const Options& options() const { return options_; }

 private:
  void StartShards(std::vector<std::unique_ptr<QueryServer>> servers);
  // Shards (by snapshot) whose label population can seed `query`; null
  // query (diverged label universe) selects every shard.
  std::vector<int> SurvivingShards(
      const std::vector<std::shared_ptr<const IndexSnapshot>>& snaps,
      const PathExpression* query) const;
  bool SaveManifestLocked(const char* what);

  Options options_;
  std::string manifest_path_;  // empty when durability is off
  ShardRouter router_;
  std::vector<std::unique_ptr<QueryServer>> servers_;
  std::vector<Histogram*> shard_latency_;  // serve.shard.<i>.eval.latency

  // Front-door parse cache for the pruning fast path: no result cache sits
  // ahead of it. Each shard's QueryServer parses its own result-cache
  // misses uncached.
  mutable ParseCache parse_cache_{"serve.shard.parse_cache", 4096};

  // Serializes RouteSubgraph + manifest save + submit (+ rollback), so a
  // rollback can never strand a later reservation.
  std::mutex subgraph_mu_;

  // Scatter pool: single-query fan-out uses it when free (try_lock —
  // ThreadPool::ParallelFor is non-reentrant) and falls back to the calling
  // thread otherwise; results are identical either way.
  mutable std::mutex scatter_mu_;
  mutable std::unique_ptr<ThreadPool> scatter_pool_;

  mutable std::atomic<int64_t> queries_{0};
  mutable std::atomic<int64_t> shard_evals_{0};
  mutable std::atomic<int64_t> shards_pruned_{0};
  std::atomic<int64_t> cross_shard_rejects_{0};
};

}  // namespace dki

#endif  // DKINDEX_SERVE_SHARDED_SERVER_H_
