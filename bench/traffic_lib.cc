#include "bench/traffic_lib.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <set>
#include <thread>
#include <utility>

#include "common/metrics.h"
#include "common/random.h"
#include "serve/sharded_server.h"

namespace dki {
namespace bench {
namespace {

using Clock = std::chrono::steady_clock;

int64_t NanosBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
      .count();
}

// One scheduled event on the open-loop tape.
struct Arrival {
  int64_t at_nanos = 0;  // offset from phase start
  enum class What : uint8_t { kQuery, kAddEdge, kRemoveEdge } what =
      What::kQuery;
  uint32_t query = 0;  // kQuery: index into the query pool
  NodeId u = kInvalidNode, v = kInvalidNode;  // edge ops
};

// Poisson arrival tape at `qps` for `duration_sec`. Query choice is
// Zipf-over-rank with the phase's rotation; update-edge choice is NURand
// with the phase's run constant C. `present` tracks edge existence across
// phases so toggles stay toggles.
std::vector<Arrival> MakeTape(
    Rng* rng, const ZipfSampler& zipf, size_t rotation, double qps,
    double duration_sec, double update_fraction,
    const std::vector<std::pair<NodeId, NodeId>>& edge_pool,
    int64_t nurand_c, std::set<std::pair<NodeId, NodeId>>* present) {
  const int64_t nurand_a =
      edge_pool.empty()
          ? 1
          : Rng::DefaultNURandA(static_cast<int64_t>(edge_pool.size()));
  std::vector<Arrival> tape;
  tape.reserve(static_cast<size_t>(qps * duration_sec * 1.1));
  double t = 0.0;
  for (;;) {
    // Exponential inter-arrival; 1 - U keeps log's argument in (0, 1].
    t += -std::log(1.0 - rng->UniformDouble()) / qps;
    if (t >= duration_sec) break;
    Arrival a;
    a.at_nanos = static_cast<int64_t>(t * 1e9);
    if (!edge_pool.empty() && rng->Bernoulli(update_fraction)) {
      const auto& e = edge_pool[static_cast<size_t>(rng->NURand(
          nurand_a, 0, static_cast<int64_t>(edge_pool.size()) - 1,
          nurand_c))];
      a.u = e.first;
      a.v = e.second;
      if (present->count(e) == 0) {
        a.what = Arrival::What::kAddEdge;
        present->insert(e);
      } else {
        a.what = Arrival::What::kRemoveEdge;
        present->erase(e);
      }
    } else {
      a.what = Arrival::What::kQuery;
      a.query = static_cast<uint32_t>((zipf.Sample(rng) + rotation) %
                                      zipf.n());
    }
    tape.push_back(a);
  }
  return tape;
}

// Dispatches the phase loop to whichever serving stack the run drives: one
// QueryServer (TrafficOptions::num_shards == 0) or a ShardedQueryServer.
// Both expose the same submit/evaluate verbs; the handle flattens the stat
// surfaces the phases report deltas of.
class ServerHandle {
 public:
  ServerHandle(DataGraph* graph, const LabelRequirements& reqs,
               const TrafficOptions& opts) {
    if (opts.num_shards > 0) {
      ShardedQueryServer::Options options;
      options.num_shards = opts.num_shards;
      options.server = opts.ServerOptions();
      sharded_ =
          std::make_unique<ShardedQueryServer>(*graph, reqs, options);
    } else {
      DkIndex dk = DkIndex::Build(graph, reqs);
      single_ = std::make_unique<QueryServer>(dk, opts.ServerOptions());
    }
  }

  // Non-null for sharded runs: the update pool is pre-filtered through it.
  const ShardRouter* router() const {
    return sharded_ ? &sharded_->router() : nullptr;
  }
  int num_shards() const { return sharded_ ? sharded_->num_shards() : 0; }

  void Evaluate(const std::string& text) {
    if (sharded_) {
      sharded_->Evaluate(text);
    } else {
      single_->Evaluate(text);
    }
  }
  bool SubmitAddEdge(NodeId u, NodeId v) {
    return sharded_ ? sharded_->SubmitAddEdge(u, v)
                    : single_->SubmitAddEdge(u, v);
  }
  bool SubmitRemoveEdge(NodeId u, NodeId v) {
    return sharded_ ? sharded_->SubmitRemoveEdge(u, v)
                    : single_->SubmitRemoveEdge(u, v);
  }
  void Flush() { sharded_ ? sharded_->Flush() : single_->Flush(); }
  void Stop() { sharded_ ? sharded_->Stop() : single_->Stop(); }

  int64_t publishes() const {
    return sharded_ ? sharded_->stats().aggregate.publishes
                    : single_->stats().publishes;
  }
  int64_t ops_applied() const {
    return sharded_ ? sharded_->stats().aggregate.ops_applied
                    : single_->stats().ops_applied;
  }
  int64_t cross_shard_rejects() const {
    return sharded_ ? sharded_->stats().cross_shard_rejects : 0;
  }
  ResultCache::Stats cache_stats() const {
    if (!sharded_) return single_->cache_stats();
    ResultCache::Stats total;
    for (int s = 0; s < sharded_->num_shards(); ++s) {
      ResultCache::Stats cs = sharded_->shard(s).cache_stats();
      total.hits += cs.hits;
      total.misses += cs.misses;
    }
    return total;
  }

  // The currently published snapshot(s): the single server's, or one per
  // shard. The memory section and the exactness guard read these.
  std::vector<std::shared_ptr<const IndexSnapshot>> Snapshots() const {
    std::vector<std::shared_ptr<const IndexSnapshot>> out;
    if (sharded_) {
      for (int s = 0; s < sharded_->num_shards(); ++s) {
        out.push_back(sharded_->shard(s).snapshot());
      }
    } else {
      out.push_back(single_->snapshot());
    }
    return out;
  }

 private:
  std::unique_ptr<QueryServer> single_;
  std::unique_ptr<ShardedQueryServer> sharded_;
};

// Point-in-time values of the serving-stack counters a phase reports deltas
// of.
struct MetricPoint {
  int64_t wal_appends = 0;
  int64_t retunes = 0;
  int64_t promote_label_calls = 0;
  int64_t demote_calls = 0;
  int64_t publishes = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t ops_applied = 0;
  int64_t cross_shard_rejects = 0;

  static MetricPoint Capture(const ServerHandle& server) {
    MetricsRegistry& reg = MetricsRegistry::Global();
    MetricPoint p;
    p.wal_appends = reg.GetCounter("wal.appends").value();
    p.retunes = reg.GetCounter("serve.retune.submitted").value();
    p.promote_label_calls =
        reg.GetHistogram("index.dk.promote_label.latency").snapshot().count;
    p.demote_calls =
        reg.GetHistogram("index.dk.demote.latency").snapshot().count;
    p.publishes = server.publishes();
    ResultCache::Stats cs = server.cache_stats();
    p.cache_hits = cs.hits;
    p.cache_misses = cs.misses;
    p.ops_applied = server.ops_applied();
    p.cross_shard_rejects = server.cross_shard_rejects();
    return p;
  }
};

// Shared mutable state of one run: the server and the pools the phases
// draw from.
class TrafficEngine {
 public:
  TrafficEngine(const Dataset& dataset, const TrafficOptions& opts)
      : opts_(opts), graph_(dataset.graph) {
    workload_ = MakeWorkload(graph_, opts.query_pool, opts.seed);
    for (const auto& q : workload_) query_texts_.push_back(q.text());
    // Paper rule over the half of the pool that warm and sweep make hot:
    // drift rotates the other half in, so the tuner has labels to promote
    // under load.
    LabelRequirements reqs = MineWorkloadRequirements(
        {workload_.begin(), workload_.begin() + workload_.size() / 2},
        graph_.labels());
    server_ = std::make_unique<ServerHandle>(&graph_, reqs, opts);

    Dataset pool_source{dataset.name, graph_, dataset.ref_pairs};
    if (const ShardRouter* router = server_->router()) {
      // Sharded: draw a larger candidate pool and keep the first
      // `update_edge_pool` edges the router accepts (same shard, not into
      // the root), so the tape's offered update load is routable at any
      // shard count instead of measuring the rejection rate.
      auto candidates = MakeUpdateEdges(
          pool_source, opts.update_edge_pool * 8, opts.seed ^ 0x9e3779b9u);
      for (const auto& e : candidates) {
        if (!router->RouteEdge(e.first, e.second).has_value()) continue;
        edge_pool_.push_back(e);
        if (edge_pool_.size() == static_cast<size_t>(opts.update_edge_pool))
          break;
      }
    } else {
      edge_pool_ = MakeUpdateEdges(pool_source, opts.update_edge_pool,
                                   opts.seed ^ 0x9e3779b9u);
    }
    for (const auto& e : edge_pool_) {
      if (graph_.HasEdge(e.first, e.second)) present_.insert(e);
    }
  }

  PhaseStats RunPhase(const std::string& name, double qps, size_t rotation,
                      uint64_t phase_seed) {
    Rng tape_rng(phase_seed);
    ZipfSampler zipf(query_texts_.size(), opts_.zipf_s);
    std::vector<Arrival> tape =
        MakeTape(&tape_rng, zipf, rotation, qps, opts_.phase_sec,
                 opts_.update_fraction, edge_pool_,
                 static_cast<int64_t>(phase_seed % 4096), &present_);

    Histogram latency("traffic.phase.latency");
    std::atomic<size_t> cursor{0};
    std::atomic<int64_t> completed{0}, dropped{0}, upd_ok{0}, upd_rej{0};
    const int64_t deadline_nanos =
        static_cast<int64_t>(opts_.deadline_ms * 1e6);

    const MetricPoint before = MetricPoint::Capture(*server_);
    const Clock::time_point t0 = Clock::now();

    std::vector<std::thread> workers;
    workers.reserve(static_cast<size_t>(opts_.workers));
    for (int w = 0; w < opts_.workers; ++w) {
      workers.emplace_back([&] {
        for (;;) {
          const size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
          if (i >= tape.size()) break;
          const Arrival& a = tape[i];
          const Clock::time_point scheduled =
              t0 + std::chrono::nanoseconds(a.at_nanos);
          std::this_thread::sleep_until(scheduled);
          if (a.what != Arrival::What::kQuery) {
            const bool ok = a.what == Arrival::What::kAddEdge
                                ? server_->SubmitAddEdge(a.u, a.v)
                                : server_->SubmitRemoveEdge(a.u, a.v);
            (ok ? upd_ok : upd_rej).fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          if (NanosBetween(scheduled, Clock::now()) > deadline_nanos) {
            dropped.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          server_->Evaluate(query_texts_[a.query]);
          // Latency from the SCHEDULED arrival: a late start counts against
          // the served latency (open-loop, no coordinated omission).
          latency.Record(NanosBetween(scheduled, Clock::now()));
          completed.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (auto& t : workers) t.join();
    server_->Flush();  // phase deltas include every op this phase submitted
    const double elapsed =
        static_cast<double>(NanosBetween(t0, Clock::now())) / 1e9;
    const MetricPoint after = MetricPoint::Capture(*server_);

    PhaseStats s;
    s.name = name;
    s.offered_qps = qps;
    s.duration_sec = elapsed;
    s.arrivals = static_cast<int64_t>(tape.size());
    s.completed = completed.load();
    s.dropped = dropped.load();
    s.updates_submitted = upd_ok.load();
    s.updates_rejected = upd_rej.load();
    s.achieved_qps = static_cast<double>(s.completed) / elapsed;
    HistogramSnapshot snap = latency.snapshot();
    s.p50_ms = snap.p50() / 1e6;
    s.p95_ms = snap.p95() / 1e6;
    s.p99_ms = snap.p99() / 1e6;
    s.max_ms = static_cast<double>(snap.max) / 1e6;
    s.mean_ms = snap.mean() / 1e6;
    s.cache_hits = after.cache_hits - before.cache_hits;
    s.cache_misses = after.cache_misses - before.cache_misses;
    s.publishes = after.publishes - before.publishes;
    s.wal_appends = after.wal_appends - before.wal_appends;
    s.retunes_submitted = after.retunes - before.retunes;
    s.promote_label_calls =
        after.promote_label_calls - before.promote_label_calls;
    s.demote_calls = after.demote_calls - before.demote_calls;
    s.ops_applied = after.ops_applied - before.ops_applied;
    s.cross_shard_rejects =
        after.cross_shard_rejects - before.cross_shard_rejects;
    return s;
  }

  // Run-wide per-shard evaluation latency from the process-global
  // serve.shard.<i>.eval.latency histograms. Empty for unsharded runs.
  std::vector<ShardLatencyStats> ShardLatencies() const {
    std::vector<ShardLatencyStats> out;
    for (int s = 0; s < server_->num_shards(); ++s) {
      HistogramSnapshot snap =
          MetricsRegistry::Global()
              .GetHistogram("serve.shard." + std::to_string(s) +
                            ".eval.latency")
              .snapshot();
      ShardLatencyStats l;
      l.shard = s;
      l.evals = snap.count;
      l.p50_ms = snap.p50() / 1e6;
      l.p95_ms = snap.p95() / 1e6;
      l.p99_ms = snap.p99() / 1e6;
      l.max_ms = static_cast<double>(snap.max) / 1e6;
      l.mean_ms = snap.mean() / 1e6;
      out.push_back(l);
    }
    return out;
  }

  // End-of-run storage accounting. Call before Stop().
  TrafficMemoryStats CaptureMemory() const {
    TrafficMemoryStats m;
    for (const auto& snap : server_->Snapshots()) {
      m.frozen_resident_bytes += snap->frozen().memory_stats().resident_bytes;
    }
    m.checkpoint_bytes_written =
        MetricsRegistry::Global().GetCounter("checkpoint.bytes").value();
    struct rusage usage;
    if (::getrusage(RUSAGE_SELF, &usage) == 0) {
      m.max_rss_kb = usage.ru_maxrss;
    }
    return m;
  }

  void Stop() { server_->Stop(); }

 private:
  const TrafficOptions opts_;
  DataGraph graph_;
  std::vector<PathExpression> workload_;
  std::vector<std::string> query_texts_;
  std::vector<std::pair<NodeId, NodeId>> edge_pool_;
  std::set<std::pair<NodeId, NodeId>> present_;
  std::unique_ptr<ServerHandle> server_;
};

}  // namespace

QueryServer::Options TrafficOptions::ServerOptions() const {
  QueryServer::Options options;
  options.max_batch = 8;
  // kReject: backpressure surfaces as a counted rejection instead of a
  // blocked worker distorting the open-loop pacing.
  options.full_policy = UpdateQueue::FullPolicy::kReject;
  options.queue_capacity = 256;
  options.durability.dir = durability_dir;
  options.tuning = tuning;
  return options;
}

TrafficResult RunTraffic(const Dataset& dataset, const TrafficOptions& opts) {
  TrafficEngine engine(dataset, opts);
  TrafficResult result;
  result.dataset_name = dataset.name;
  result.nodes = dataset.graph.NumNodes();
  result.edges = dataset.graph.NumEdges();
  result.labels = dataset.graph.labels().size();

  const size_t pool = static_cast<size_t>(opts.query_pool);
  uint64_t phase_seed = opts.seed;
  auto next_seed = [&phase_seed] { return ++phase_seed; };

  result.phases.push_back(
      engine.RunPhase("warm", opts.warm_qps, /*rotation=*/0, next_seed()));
  for (double qps : opts.sweep_qps) {
    char name[32];
    std::snprintf(name, sizeof(name), "sweep@%g", qps);
    result.phases.push_back(
        engine.RunPhase(name, qps, /*rotation=*/0, next_seed()));
  }
  // Drift: rotate the Zipf ranks half way around the pool, so the hot
  // queries (and the labels they target) change under sustained load — this
  // is the phase where the tuner's promote/demote work shows up.
  result.phases.push_back(engine.RunPhase("drift", opts.drift_qps,
                                          /*rotation=*/pool / 2,
                                          next_seed()));
  result.shard_latency = engine.ShardLatencies();
  result.memory = engine.CaptureMemory();
  engine.Stop();
  return result;
}

Json TrafficResultToJson(const TrafficResult& result,
                         const TrafficOptions& opts) {
  Json root = Json::Object();
  root.Set("bench", Json::Str("traffic"));
  root.Set("version", Json::Int(4));

  Json dataset = Json::Object();
  dataset.Set("name", Json::Str(result.dataset_name));
  dataset.Set("nodes", Json::Int(result.nodes));
  dataset.Set("edges", Json::Int(result.edges));
  dataset.Set("labels", Json::Int(result.labels));
  root.Set("dataset", std::move(dataset));

  Json config = Json::Object();
  config.Set("seed", Json::Int(static_cast<int64_t>(opts.seed)));
  config.Set("query_pool", Json::Int(opts.query_pool));
  config.Set("zipf_s", Json::Num(opts.zipf_s));
  config.Set("workers", Json::Int(opts.workers));
  config.Set("update_fraction", Json::Num(opts.update_fraction));
  config.Set("deadline_ms", Json::Num(opts.deadline_ms));
  config.Set("phase_sec", Json::Num(opts.phase_sec));
  config.Set("coverage", Json::Num(TuningOptions::kCoverage));
  config.Set("num_shards", Json::Int(opts.num_shards));
  config.Set("durability", Json::Bool(!opts.durability_dir.empty()));
  root.Set("config", std::move(config));

  Json memory = Json::Object();
  memory.Set("frozen_resident_bytes",
             Json::Int(result.memory.frozen_resident_bytes));
  memory.Set("checkpoint_bytes_written",
             Json::Int(result.memory.checkpoint_bytes_written));
  memory.Set("max_rss_kb", Json::Int(result.memory.max_rss_kb));
  root.Set("memory", std::move(memory));

  Json phases = Json::Array();
  for (const PhaseStats& p : result.phases) {
    Json phase = Json::Object();
    phase.Set("name", Json::Str(p.name));
    phase.Set("offered_qps", Json::Num(p.offered_qps));
    phase.Set("achieved_qps", Json::Num(p.achieved_qps));
    phase.Set("duration_sec", Json::Num(p.duration_sec));
    phase.Set("arrivals", Json::Int(p.arrivals));
    phase.Set("completed", Json::Int(p.completed));
    phase.Set("dropped", Json::Int(p.dropped));
    phase.Set("updates_submitted", Json::Int(p.updates_submitted));
    phase.Set("updates_rejected", Json::Int(p.updates_rejected));
    Json lat = Json::Object();
    lat.Set("p50", Json::Num(p.p50_ms));
    lat.Set("p95", Json::Num(p.p95_ms));
    lat.Set("p99", Json::Num(p.p99_ms));
    lat.Set("max", Json::Num(p.max_ms));
    lat.Set("mean", Json::Num(p.mean_ms));
    phase.Set("latency_ms", std::move(lat));
    Json deltas = Json::Object();
    deltas.Set("cache_hits", Json::Int(p.cache_hits));
    deltas.Set("cache_misses", Json::Int(p.cache_misses));
    deltas.Set("publishes", Json::Int(p.publishes));
    deltas.Set("wal_appends", Json::Int(p.wal_appends));
    deltas.Set("retunes_submitted", Json::Int(p.retunes_submitted));
    deltas.Set("promote_label_calls", Json::Int(p.promote_label_calls));
    deltas.Set("demote_calls", Json::Int(p.demote_calls));
    deltas.Set("ops_applied", Json::Int(p.ops_applied));
    deltas.Set("cross_shard_rejects", Json::Int(p.cross_shard_rejects));
    phase.Set("metrics_delta", std::move(deltas));
    phases.Push(std::move(phase));
  }
  root.Set("phases", std::move(phases));

  // Run-wide per-shard evaluation latency; [] for unsharded runs.
  Json shards = Json::Array();
  for (const ShardLatencyStats& l : result.shard_latency) {
    Json shard = Json::Object();
    shard.Set("shard", Json::Int(l.shard));
    shard.Set("evals", Json::Int(l.evals));
    Json lat = Json::Object();
    lat.Set("p50", Json::Num(l.p50_ms));
    lat.Set("p95", Json::Num(l.p95_ms));
    lat.Set("p99", Json::Num(l.p99_ms));
    lat.Set("max", Json::Num(l.max_ms));
    lat.Set("mean", Json::Num(l.mean_ms));
    shard.Set("latency_ms", std::move(lat));
    shards.Push(std::move(shard));
  }
  root.Set("shards", std::move(shards));
  return root;
}

void PrintTrafficResult(const TrafficResult& result) {
  std::printf(
      "\n%-12s %9s %9s %8s %7s %7s %7s %7s %7s %7s %7s %6s %6s %6s\n",
      "phase", "offered", "achieved", "done", "drop", "p50ms", "p95ms",
      "p99ms", "maxms", "hit%", "applied", "retune", "promo", "demote");
  for (const PhaseStats& p : result.phases) {
    const int64_t lookups = p.cache_hits + p.cache_misses;
    const double hit_rate =
        lookups == 0 ? 0.0
                     : 100.0 * static_cast<double>(p.cache_hits) /
                           static_cast<double>(lookups);
    std::printf(
        "%-12s %9.0f %9.0f %8lld %7lld %7.2f %7.2f %7.2f %7.1f %6.1f "
        "%7lld %6lld %6lld %6lld\n",
        p.name.c_str(), p.offered_qps, p.achieved_qps,
        static_cast<long long>(p.completed),
        static_cast<long long>(p.dropped), p.p50_ms, p.p95_ms, p.p99_ms,
        p.max_ms, hit_rate, static_cast<long long>(p.ops_applied),
        static_cast<long long>(p.retunes_submitted),
        static_cast<long long>(p.promote_label_calls),
        static_cast<long long>(p.demote_calls));
  }
  for (const ShardLatencyStats& l : result.shard_latency) {
    std::printf(
        "shard %-6d %9s %9s %8lld %7s %7.2f %7.2f %7.2f %7.1f\n", l.shard,
        "", "", static_cast<long long>(l.evals), "", l.p50_ms, l.p95_ms,
        l.p99_ms, l.max_ms);
  }
  const TrafficMemoryStats& m = result.memory;
  std::printf(
      "\nmemory: frozen view %.1f KiB, checkpoints %.1f KiB, "
      "peak RSS %lld KiB\n",
      m.frozen_resident_bytes / 1024.0, m.checkpoint_bytes_written / 1024.0,
      static_cast<long long>(m.max_rss_kb));
}

}  // namespace bench
}  // namespace dki
