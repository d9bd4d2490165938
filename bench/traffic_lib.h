#ifndef DKINDEX_BENCH_TRAFFIC_LIB_H_
#define DKINDEX_BENCH_TRAFFIC_LIB_H_

// The production-traffic simulator behind bench/traffic (docs/BENCHMARKS.md
// has the handbook entry). Open-loop driving of a serving stack — one
// QueryServer, or a ShardedQueryServer when num_shards > 0: arrivals are
// a precomputed Poisson tape at an *offered* rate, workers serve each
// arrival at its scheduled time (or drop it once it is hopelessly late), and
// latency is measured from the scheduled arrival — not from when a worker
// got free — so queueing delay under overload is visible instead of being
// coordination-omitted away. Query popularity is Zipf-skewed with a
// rotation knob (the drift phases rotate which queries are hot), update
// edges are NURand-skewed, and the server's own tuner
// (QueryServer::Options::tuning) mines the result-cache misses and submits
// kRetune ops, so promote/demote runs against live traffic.
//
// Shaped as a library so tests/traffic_smoke_test.cc can run a tiny
// configuration in-process and validate the emitted JSON.

#include <cstdint>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_json.h"
#include "serve/query_server.h"

namespace dki {
namespace bench {

struct TrafficOptions {
  uint64_t seed = 20030609;

  // Query pool: `query_pool` distinct paths (MakeWorkload), rank-popularity
  // Zipf(s). Drift phases remap rank r to (r + query_pool/2) % query_pool,
  // so the hot set jumps to previously cold queries (and thus labels).
  int query_pool = 64;
  double zipf_s = 1.0;

  // Worker threads serving the arrival tape (each owns no arrivals
  // statically; they race on an atomic cursor).
  int workers = 4;

  // Fraction of arrivals that are edge toggles instead of queries; toggled
  // edges are NURand-picked from a Section 6.2 recipe pool, so updates have
  // hot keys too.
  double update_fraction = 0.05;
  int update_edge_pool = 128;

  // An arrival this late past its scheduled time is dropped (counted, not
  // served) — the open-loop stand-in for a client-side timeout.
  double deadline_ms = 50.0;

  // Phase script: warm, then one sub-phase per sweep entry, then drift.
  double warm_qps = 400.0;
  std::vector<double> sweep_qps = {400.0, 800.0, 1600.0};
  double drift_qps = 800.0;
  double phase_sec = 2.0;

  // The server's adaptive loop (sharded runs: every shard's). A 64-query
  // pool behind the result cache misses mostly after publishes, far below
  // the server default's min_misses, so the simulator ticks at 150 ms and
  // mines from 32 decayed misses.
  TuningOptions tuning{/*period_ms=*/150, /*min_misses=*/32};

  // 0: classic single QueryServer. >= 1: a ShardedQueryServer with that
  // many partitions (1 included, so "--shards 1" vs "--shards 4" compares
  // one writer against four on the exact same stack). Sharded runs filter
  // the update-edge pool through the run's own router, so every offered
  // toggle is routable and applied-ops/s measures writer throughput, not
  // rejection rate.
  int num_shards = 0;

  // Non-empty: enable the WAL/checkpoint pipeline in this directory (the
  // traffic binary points it at a fresh temp dir so wal.* deltas are real).
  // Sharded runs treat it as the sharded root (router.manifest +
  // shard-<i>/ subdirectories).
  std::string durability_dir;

  QueryServer::Options ServerOptions() const;
};

// Per-phase report. Latency percentiles come from a phase-local Histogram
// (common/metrics.h) over scheduled-arrival-to-completion nanos.
struct PhaseStats {
  std::string name;
  double offered_qps = 0.0;   // arrival rate of the tape (queries + updates)
  double duration_sec = 0.0;
  int64_t arrivals = 0;
  int64_t completed = 0;      // queries served
  int64_t dropped = 0;        // queries past deadline
  int64_t updates_submitted = 0;
  int64_t updates_rejected = 0;  // queue backpressure (kReject)
  double achieved_qps = 0.0;  // completed / duration

  double p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0, max_ms = 0.0,
         mean_ms = 0.0;

  // Serving-stack deltas over the phase window.
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t publishes = 0;
  int64_t wal_appends = 0;
  int64_t retunes_submitted = 0;
  int64_t promote_label_calls = 0;
  int64_t demote_calls = 0;
  // Writer throughput: ops actually applied to a master and published
  // (summed over shards when sharded) — the sharding acceptance metric.
  int64_t ops_applied = 0;
  // Sharded runs only: update ops the router refused (cross-shard /
  // into-root). 0 for unsharded runs and for pools filtered at setup.
  int64_t cross_shard_rejects = 0;
};

// Run-wide per-shard evaluation latency (serve.shard.<i>.eval.latency),
// captured once at the end of a sharded run. Empty for unsharded runs.
struct ShardLatencyStats {
  int shard = 0;
  int64_t evals = 0;  // per-shard evaluations dispatched (pruned ones absent)
  double p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0, max_ms = 0.0,
         mean_ms = 0.0;
};

// End-of-run storage accounting, captured from the final published
// snapshot(s) — summed over shards when sharded.
struct TrafficMemoryStats {
  // Heap bytes of the final FrozenView(s) (query/frozen_view.h).
  int64_t frozen_resident_bytes = 0;
  // Cumulative bytes the checkpointer wrote over the run (the
  // checkpoint.bytes counter); 0 without durability.
  int64_t checkpoint_bytes_written = 0;
  // getrusage(RUSAGE_SELF) peak RSS for the whole process, in KiB.
  int64_t max_rss_kb = 0;
};

struct TrafficResult {
  std::string dataset_name;
  int64_t nodes = 0, edges = 0, labels = 0;
  std::vector<PhaseStats> phases;
  std::vector<ShardLatencyStats> shard_latency;  // sharded runs only
  TrafficMemoryStats memory;
};

// Runs the full phase script against a server built from `dataset` (index
// built with the paper's Section 6.1 rule over the query pool). Blocking;
// returns per-phase stats.
TrafficResult RunTraffic(const Dataset& dataset, const TrafficOptions& opts);

// The BENCH_traffic.json schema (version 4: version 3 without the
// budgeted-storage fields — config.memory_budget_mb and the memory
// section's flat/compressed/spilled/exactness entries) — documented in
// docs/BENCHMARKS.md and round-trip-validated by tests/traffic_smoke_test.
Json TrafficResultToJson(const TrafficResult& result,
                         const TrafficOptions& opts);

// Prints the per-phase table to stdout.
void PrintTrafficResult(const TrafficResult& result);

}  // namespace bench
}  // namespace dki

#endif  // DKINDEX_BENCH_TRAFFIC_LIB_H_
