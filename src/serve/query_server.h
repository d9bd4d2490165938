#ifndef DKINDEX_SERVE_QUERY_SERVER_H_
#define DKINDEX_SERVE_QUERY_SERVER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "graph/data_graph.h"
#include "index/dk_index.h"
#include "pathexpr/path_expression.h"
#include "query/evaluator.h"
#include "query/frozen_view.h"
#include "query/result_cache.h"
#include "serve/checkpoint.h"
#include "serve/snapshot.h"
#include "serve/update_queue.h"
#include "serve/wal.h"

namespace dki {

// The server's adaptive loop (QueryServer::Options::tuning), the D(k)
// tuning of Sections 5.3-5.4 run against live traffic as retunes. The
// defaults were chosen on servebench (EXPERIMENTS.md, "The adaptive loop"):
// read_wide's first retune lands inside the 1 s warm-up, while read_hot's
// start-up misses and write_mix's post-publish misses stay below
// min_misses.
struct TuningOptions {
  // Tick period of the tuner thread; 0 turns the loop off (no thread, and
  // misses are not recorded).
  int64_t period_ms = 100;
  // A tick mines only once the decayed count of misses seen (buffered or
  // dropped; about the misses of the last 1 / (1 - kDecay) periods)
  // reaches this: the first retune then rests on enough misses to stand,
  // and the misses that warm a small hot set's result cache never retune.
  int64_t min_misses = 3000;

  // Fraction of each label's recorded miss traffic the mined requirements
  // make sound (QueryLoadTracker::MineRequirements).
  static constexpr double kCoverage = 0.95;
  // Weight each tick keeps of the misses seen before it
  // (QueryLoadTracker::Decay).
  static constexpr double kDecay = 0.8;
};

// Snapshot-isolated concurrent serving of a D(k)-index (the ROADMAP's
// "heavy traffic" story): any number of reader threads answer queries
// against immutable, epoch-stamped IndexSnapshots, while ONE writer thread
// owns the mutable master index and drains a bounded MPSC queue of
// Section 5 update operations.
//
//   Evaluate(text) ──► ResultCache probe ──hit──► answer
//     │ key = CanonicalizeQuery(text)     (16 shard locks; no parse, no
//     │ epoch = published epoch atomic     snapshot lock, no refcount)
//     │                    │ miss
//     │                    ▼
//     │    snapshot() ──► shared_ptr<const IndexSnapshot> ──► Parse against
//     │      ▲  (shared_mutex-guarded pointer swap)      its labels, evaluate,
//     │      │                                           Put, RecordMiss
//   publish ◄── writer thread ◄── UpdateQueue ◄── SubmitAddEdge /
//   (graph copy     applies batches to the        SubmitRemoveEdge /
//    + freeze +     private master DkIndex        SubmitAddSubgraph
//    swap + epoch
//    store)
//
// The contract:
//   * Readers never block on the writer and never see a half-applied batch:
//     a snapshot is either the state before a batch or after it, never
//     between ops. A held snapshot yields bit-identical answers forever.
//   * Updates are applied in submission order (single consumer); with one
//     producer the served states are exactly the sequential interleaving's
//     prefix states.
//   * Backpressure: the queue is bounded; producers block or get rejected
//     (Options::full_policy) when the writer falls behind.
//   * Query results flow through the epoch-stamped ResultCache, so repeated
//     traffic between republishes is served from memory and a stale entry
//     can never be returned (epochs are monotonic and never reused). A hit
//     is probed before parsing, at the epoch Publish stored last, and
//     answers as of the snapshot that was current at that load; only a
//     miss takes snapshot(), parses (no parse cache: misses rarely repeat,
//     so a malformed text is re-parsed each time) and evaluates.
//   * Adaptive tuning (Options::tuning, on by default): every result-cache
//     MISS appends its parsed expression to a bounded per-thread-stripe
//     buffer (hits record nothing). A tuner thread drains the buffers each
//     period into a QueryLoadTracker, decays it, and mines coverage-aware
//     per-label requirements against the last map the tuner itself
//     submitted (at first, the source index's requirements): a label rises
//     as soon as its misses need it, falls only on evidence beyond
//     sampling noise, and falls to 0 once its misses have decayed away
//     (QueryLoadTracker::MineRequirements). When the mined map moves on
//     labels carrying at least 1 - kCoverage of the recorded misses (a
//     label whose misses decayed away counts with those it carried when
//     the tuner submitted it), the tuner submits it as a shrink
//     SubmitRetune. Auto-retunes are thus ordinary kRetune ops: ordered
//     with updates, WAL-logged and replayed on recovery. An explicit
//     SubmitRetune is an operator override: the tuner never re-asserts an
//     unchanged mined map over it and acts again only once the traffic's
//     mined map moves. Answers are unaffected — a retune only changes
//     which extents Theorem 1 certifies and which need validation.
//   * Durability (opt-in via Options::durability.dir): every op the writer
//     applies is first appended to a write-ahead log (serve/wal.h) and a
//     background checkpointer periodically persists the newest published
//     snapshot atomically (serve/checkpoint.h), truncating the log behind
//     it. After a crash, RecoverDkIndex(dir) restores a state bit-identical
//     to what a clean shutdown would have produced for the logged prefix.
//
// The cost of this isolation is, per republish, one copy of the data graph
// (skipped when the batch only retuned) and one FrozenView freeze of the
// master index, which is the snapshot's only copy of the index — the batch
// size knob trades update latency against copy amortization; republish
// latency is recorded in the serve.writer.republish.latency histogram.
//
// Evaluate / EvaluateOn are the only way a query is answered; a caller that
// needs several answers from one state takes snapshot() and loops
// EvaluateOn.
class QueryServer {
 public:
  struct Options {
    // Bounded update-queue capacity (ops), and what Submit* does when the
    // queue is full.
    size_t queue_capacity = 1024;
    UpdateQueue::FullPolicy full_policy = UpdateQueue::FullPolicy::kBlock;
    // Max ops the writer applies between two republishes.
    size_t max_batch = 64;
    // Byte budget of the shared result cache.
    int64_t cache_byte_budget = 8 * 1024 * 1024;
    // Always true: uncertain extents are validated, so every answer is
    // exact. Kept read-only for callers that still record it in their
    // provenance.
    static constexpr bool validate = true;
    // Always 0: queries are answered on their caller's thread, with no batch
    // pool. Kept read-only for callers that still record it in their
    // provenance.
    static constexpr int batch_threads = 0;
    // Crash safety (serve/wal.h): set durability.dir to enable the
    // write-ahead log + checkpoint pipeline; leave empty for the purely
    // in-memory server. After a crash, recover with RecoverDkIndex(dir) and
    // pass RecoveryStats::last_seq back as durability.start_seq.
    DurabilityOptions durability;
    // Options of every published snapshot's frozen view
    // (query/frozen_view.h).
    FrozenViewOptions frozen;
    // The adaptive loop: mines result-cache misses and retunes the index
    // through the update pipeline. period_ms = 0 pins the index.
    TuningOptions tuning;
  };

  // Forks a private master from `source` (deep copy; `source` is not
  // referenced afterwards), publishes the initial snapshot, and starts the
  // writer thread.
  explicit QueryServer(const DkIndex& source)
      : QueryServer(source, Options()) {}
  QueryServer(const DkIndex& source, Options options);
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  // --- read path (any thread, lock-free against the writer) --------------

  // The latest published snapshot. Holding it pins that state: evaluations
  // against it stay bit-identical across any number of concurrent
  // republishes.
  std::shared_ptr<const IndexSnapshot> snapshot() const;

  // Answers `query_text` as of the latest published snapshot: a result
  // cache hit at the published epoch returns at once; a miss parses against
  // the latest snapshot's labels, evaluates and fills the cache. Returns
  // nullopt on parse errors (message in *error if given).
  std::optional<std::vector<NodeId>> Evaluate(const std::string& query_text,
                                              EvalStats* stats = nullptr,
                                              std::string* error = nullptr)
      const;

  // Same against a caller-held snapshot (snapshot isolation: the caller
  // chooses the state to read): the probe uses the snapshot's epoch, and a
  // miss evaluates on its FrozenView (built once at publish time).
  std::optional<std::vector<NodeId>> EvaluateOn(const IndexSnapshot& snap,
                                                const std::string& query_text,
                                                EvalStats* stats = nullptr,
                                                std::string* error = nullptr)
      const;

  // --- update path (any thread; applied by the writer thread) ------------

  // Enqueue one operation. Returns false iff rejected (full queue under
  // kReject, or the server is stopped); a false return means the op will
  // never be applied.
  bool SubmitAddEdge(NodeId u, NodeId v);
  bool SubmitRemoveEdge(NodeId u, NodeId v);
  bool SubmitAddSubgraph(DataGraph h);

  // Enqueue a load-driven retune (Sections 5.3-5.4): the writer
  // re-partitions the index as DkIndex::Build would, to the targets with
  // `shrink`, else to the targets merged with the current requirements.
  // Flows through the same queue/WAL pipeline as structural updates, so
  // retunes are ordered with them, durable, and replayed on recovery. The
  // server's tuner submits shrink retunes from mined misses; an explicit
  // call overrides it until the mined requirements move (see class comment).
  bool SubmitRetune(LabelRequirements targets, bool shrink = true);

  // Blocks until every op accepted so far has been applied AND published
  // (queue quiescent). Mainly for tests and benchmarks; under continuous
  // concurrent submission it waits for those ops too.
  void Flush();

  // Durability controls (no-ops returning true when durability is off):

  // Forces an fsync of the write-ahead log right now, regardless of the
  // group-commit policy.
  bool SyncWal();

  // Synchronously checkpoints the newest published snapshot and truncates
  // the log behind the retained checkpoints. Safe to call from any thread;
  // serialized with the background checkpointer.
  bool CheckpointNow();

  // Graceful shutdown: joins the tuner (so it submits nothing afterwards),
  // rejects new submissions, drains the queue, publishes the final state,
  // joins the writer. Idempotent; the read path stays usable afterwards.
  // Called by the destructor.
  void Stop();

  struct Stats {
    int64_t ops_accepted = 0;   // Submit* calls that returned true
    int64_t ops_rejected = 0;   // rejected_full + rejected_closed
    // The two rejection causes, split because they demand opposite producer
    // reactions: kFull is retryable backpressure, kClosed is terminal.
    int64_t ops_rejected_full = 0;
    int64_t ops_rejected_closed = 0;
    int64_t ops_applied = 0;    // ops applied to the master and published
    int64_t ops_invalid = 0;    // dropped at apply time (e.g. bad node id)
    int64_t ops_logged = 0;     // ops appended to the WAL (0 when disabled)
    // Retunes whose apply was elided because a later shrink-retune in the
    // same batch supersedes them (serve/apply.h). Counted in ops_applied —
    // the op's effect is fully subsumed, not lost.
    int64_t ops_coalesced = 0;
    int64_t batches = 0;        // writer batches (== republishes after init)
    int64_t publishes = 0;      // snapshots published, including the initial
    int64_t checkpoints = 0;    // checkpoints written (incl. the initial one)
    // The tuner: retunes it submitted, misses it buffered and misses it
    // dropped because their stripe's buffer was full, and the index-node
    // count of the snapshot that published its latest retune.
    int64_t auto_retunes = 0;
    int64_t tuner_recorded_misses = 0;
    int64_t tuner_dropped_misses = 0;
    int64_t tuner_last_index_nodes = 0;
  };
  Stats stats() const;

  // The shared result cache's counters (hits/misses/stale drops/...).
  ResultCache::Stats cache_stats() const { return cache_.stats(); }

  const Options& options() const { return options_; }

 private:
  // Evaluate (held == nullptr) and EvaluateOn.
  std::optional<std::vector<NodeId>> Serve(const IndexSnapshot* held,
                                           const std::string& query_text,
                                           EvalStats* stats,
                                           std::string* error) const;
  void WriterLoop();
  void CheckpointerLoop();
  // Copies the master's graph (unless only retunes ran since the last
  // publish), freezes its index into a fresh snapshot and swaps it in.
  void Publish();
  bool Submit(UpdateOp op);
  // Constructor helper, after the initial Publish: opens the WAL,
  // checkpoints the initial snapshot, and resets the log. On failure
  // durability is disabled with a loud stderr message (the server still
  // serves, in-memory only).
  void InitDurability();
  // Checkpoints `snap` and truncates the log. Serialized by checkpoint_mu_.
  bool WriteCheckpoint(const IndexSnapshot& snap);
  // Appends a result-cache miss's expression to this thread's stripe of
  // the tuner's buffer (no-op with tuning off).
  void RecordMiss(std::shared_ptr<const PathExpression> query) const;
  // The tuner thread; `initial_requirements` are the source index's.
  void TunerLoop(std::vector<int> initial_requirements);
  // Waits one background-thread period; false once Stop asked them to end.
  bool WaitBackgroundTick(std::chrono::milliseconds period);

  const Options options_;

  // The writer's private master; only the writer thread (and the
  // constructor, before the thread starts) touches these.
  DataGraph master_graph_;
  DkIndex master_;
  // Next WAL record gets seq_ + 1; writer thread only (after construction).
  uint64_t seq_ = 0;
  // Whether master_graph_ may differ from the published snapshot's graph
  // (writer thread only): retune-only batches republish sharing it.
  bool graph_changed_ = true;

  UpdateQueue queue_;
  mutable ResultCache cache_;

  // Durability pipeline; null when Options::durability.dir is empty.
  std::unique_ptr<WriteAheadLog> wal_;
  std::unique_ptr<CheckpointStore> checkpoints_;
  // Serializes CheckpointNow against the background checkpointer.
  std::mutex checkpoint_mu_;
  uint64_t last_checkpoint_seq_ = 0;  // guarded by checkpoint_mu_

  // Publication point. Readers copy the shared_ptr under a shared lock;
  // the writer swaps it, and stores its epoch, under an exclusive lock.
  mutable std::shared_mutex snapshot_mu_;
  std::shared_ptr<const IndexSnapshot> snapshot_;
  // snapshot_'s epoch, read by Evaluate's cache probe without the lock.
  std::atomic<uint64_t> published_epoch_{0};

  // Flush/stats accounting. accepted_ is incremented BEFORE the queue push
  // (and rolled back on rejection), so Flush's quiescence predicate
  // `applied_published_ >= accepted_` can never be satisfied while an
  // accepted op is still in flight.
  mutable std::mutex state_mu_;
  std::condition_variable state_cv_;
  int64_t accepted_ = 0;
  int64_t applied_published_ = 0;
  int64_t rejected_full_ = 0;
  int64_t rejected_closed_ = 0;
  int64_t invalid_ = 0;
  int64_t logged_ = 0;
  int64_t coalesced_ = 0;
  int64_t batches_ = 0;
  int64_t publishes_ = 0;
  int64_t checkpoints_written_ = 0;
  int64_t auto_retunes_ = 0;
  int64_t tuner_last_index_nodes_ = 0;

  std::thread writer_;
  bool stopped_ = false;  // guarded by state_mu_

  // The tuner's miss buffers, striped like the metric cells so readers on
  // different cores take different locks; each holds at most
  // kMissesPerStripe expressions between two ticks.
  static constexpr size_t kMissesPerStripe = 512;
  struct alignas(metrics_internal::kCacheLine) MissStripe {
    std::mutex mu;
    std::vector<std::shared_ptr<const PathExpression>> queries;  // by mu
    int64_t recorded = 0;                                        // by mu
    int64_t dropped = 0;                                         // by mu
  };
  mutable std::array<MissStripe, kMetricStripes> miss_stripes_;

  // Background threads, woken early only by Stop: the tuner (tuning on) and
  // the checkpointer (durability only), which ticks every
  // min(sync_interval, checkpoint_interval) to enforce the time-based fsync
  // policy and write due checkpoints.
  std::mutex background_mu_;
  std::condition_variable background_cv_;
  bool background_stop_ = false;  // guarded by background_mu_
  std::thread tuner_;
  std::thread checkpointer_;
};

}  // namespace dki

#endif  // DKINDEX_SERVE_QUERY_SERVER_H_
