#include "replay.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <thread>

#include "index/index_graph.h"
#include "query/backend.h"
#include "query/evaluator.h"
#include "query/frozen_view.h"
#include "query/parse_cache.h"
#include "query/result_cache.h"
#include "serve/apply.h"
#include "serve/checkpoint.h"
#include "serve/wal.h"

namespace servebench {
namespace {

using dki::NodeId;

// Planner outcomes reported as shares of evaluated queries. A name the
// library no longer produces simply reads 0.
const char* const kPlanNames[] = {"nfa",           "dfa",     "prefilter",
                                  "dfa_prefilter", "reverse", "empty"};

struct ReadSpans {
  LatencyHist snapshot, parse_get, probe, put, plan, evaluate, request;
  int64_t completed = 0;
  int64_t parse_errors = 0;
  int64_t evaluations = 0;
  int64_t index_pairs = 0, data_pairs = 0, validated = 0, result_nodes = 0;
  std::map<std::string, int64_t> plans;
};

// One replay client: the front door QueryServer::Evaluate runs, unrolled
// into its layer calls (snapshot pointer, parse cache, result cache probe,
// planner, frozen evaluation, result cache fill).
void ReplayReader(const ReplayInput& in, int client, dki::ParseCache* parses,
                  dki::ResultCache* results, const std::atomic<bool>* stop,
                  ReadSpans* out) {
  QueryStream stream(in.seed, client, in.pool->size(), in.zipf);
  dki::FrozenScratch scratch;
  std::string error;
  std::vector<NodeId> result;
  while (!stop->load(std::memory_order_relaxed)) {
    const std::string& text = (*in.pool)[stream.Next()];
    const int64_t t0 = NowNs();
    std::shared_ptr<const dki::IndexSnapshot> snap = in.server->snapshot();
    const int64_t t1 = NowNs();
    std::shared_ptr<const dki::PathExpression> expr =
        parses->Get(text, snap->graph().labels(), &error);
    const int64_t t2 = NowNs();
    out->snapshot.Record(t1 - t0);
    out->parse_get.Record(t2 - t1);
    if (expr == nullptr) {
      ++out->parse_errors;
      continue;
    }
    const dki::FrozenView& view = snap->frozen();
    const std::string key = dki::CanonicalizeQuery(expr->text());
    const int64_t t3 = NowNs();
    const bool hit = results->TryGet(key, view.epoch(), &result);
    const int64_t t4 = NowNs();
    out->probe.Record(t4 - t3);
    if (!hit) {
      const dki::EvalPlan plan = view.PlanQuery(*expr, /*validate=*/true);
      const int64_t t5 = NowNs();
      dki::EvalStats stats;
      result = view.Evaluate(*expr, &stats, /*validate=*/true, &scratch);
      const int64_t t6 = NowNs();
      results->Put(key, view.epoch(), result);
      const int64_t t7 = NowNs();
      out->plan.Record(t5 - t4);
      out->evaluate.Record(t6 - t5);
      out->put.Record(t7 - t6);
      ++out->plans[plan.empty ? "empty" : dki::EvalBackendName(plan.backend)];
      ++out->evaluations;
      out->index_pairs += stats.index_nodes_visited;
      out->data_pairs += stats.data_nodes_visited;
      out->validated += stats.validated_candidates;
      out->result_nodes += static_cast<int64_t>(result.size());
    }
    out->request.Record(NowNs() - t0);
    ++out->completed;
  }
}

void AddQuantiles(MetricList* m, const std::string& name,
                  const LatencyHist& h, double ns_per_unit,
                  const std::string& unit, bool with_p99 = true) {
  AddMetric(m, name + ".p50", h.Quantile(0.50) / ns_per_unit, unit);
  if (with_p99) {
    AddMetric(m, name + ".p99", h.Quantile(0.99) / ns_per_unit, unit);
  }
}

void ReplayReads(const ReplayInput& in, ReplayResult* res) {
  dki::ParseCache parses("servebench.replay.parse_cache",
                         static_cast<size_t>(kParseCacheEntries));
  dki::ResultCache results(dki::ResultCache::Options{kResultCacheBytes});
  std::atomic<bool> stop{false};
  std::vector<ReadSpans> spans(static_cast<size_t>(in.clients));
  std::vector<std::thread> threads;
  const int64_t start = NowNs();
  for (int c = 0; c < in.clients; ++c) {
    threads.emplace_back(ReplayReader, std::cref(in), c, &parses, &results,
                         &stop, &spans[static_cast<size_t>(c)]);
  }
  std::this_thread::sleep_for(
      std::chrono::duration<double>(in.read_seconds));
  stop.store(true);
  for (std::thread& t : threads) t.join();
  const double elapsed_s = static_cast<double>(NowNs() - start) / 1e9;

  ReadSpans all;
  for (const ReadSpans& s : spans) {
    all.snapshot.Merge(s.snapshot);
    all.parse_get.Merge(s.parse_get);
    all.probe.Merge(s.probe);
    all.put.Merge(s.put);
    all.plan.Merge(s.plan);
    all.evaluate.Merge(s.evaluate);
    all.request.Merge(s.request);
    all.completed += s.completed;
    all.parse_errors += s.parse_errors;
    all.evaluations += s.evaluations;
    all.index_pairs += s.index_pairs;
    all.data_pairs += s.data_pairs;
    all.validated += s.validated;
    all.result_nodes += s.result_nodes;
    for (const auto& [name, n] : s.plans) all.plans[name] += n;
  }
  res->attempted += all.completed + all.parse_errors;
  res->failed += all.parse_errors;

  // The parse layer alone: PathExpression::Parse over the distinct texts at
  // the head of the pool, each parsed several times.
  LatencyHist parse;
  {
    std::shared_ptr<const dki::IndexSnapshot> snap = in.server->snapshot();
    const size_t distinct = std::min<size_t>(in.pool->size(), 2048);
    const int repeats = static_cast<int>(std::max<size_t>(1, 2048 / distinct));
    std::string error;
    for (int r = 0; r < repeats; ++r) {
      for (size_t i = 0; i < distinct; ++i) {
        const int64_t t0 = NowNs();
        std::optional<dki::PathExpression> expr = dki::PathExpression::Parse(
            (*in.pool)[i], snap->graph().labels(), &error);
        parse.Record(NowNs() - t0);
        if (!expr.has_value()) ++res->failed;
      }
    }
  }

  MetricList* m = &res->metrics;
  AddQuantiles(m, "serve.snapshot_acquire_ns", all.snapshot, 1, "ns");
  AddQuantiles(m, "query.parse_cache.get_ns", all.parse_get, 1, "ns");
  AddQuantiles(m, "query.result_cache.probe_ns", all.probe, 1, "ns");
  AddQuantiles(m, "query.result_cache.put_ns", all.put, 1, "ns", false);
  AddQuantiles(m, "query.planner.plan_ns", all.plan, 1, "ns", false);
  AddQuantiles(m, "query.frozen.evaluate_us", all.evaluate, 1e3, "us");
  AddQuantiles(m, "pathexpr.parse_us", parse, 1e3, "us");
  const double evals = static_cast<double>(all.evaluations);
  AddMetric(m, "query.frozen.evaluations", evals, "count");
  AddMetric(m, "query.frozen.index_pairs_per_query",
            Ratio(static_cast<double>(all.index_pairs), evals), "count");
  AddMetric(m, "query.frozen.data_pairs_per_query",
            Ratio(static_cast<double>(all.data_pairs), evals), "count");
  AddMetric(m, "query.frozen.validated_per_result",
            Ratio(static_cast<double>(all.validated),
                  static_cast<double>(all.result_nodes)),
            "ratio");
  for (const char* name : kPlanNames) {
    auto it = all.plans.find(name);
    AddMetric(m, std::string("query.planner.") + name + "_share",
              Ratio(it == all.plans.end() ? 0.0 : static_cast<double>(it->second),
                    evals),
              "ratio");
  }
  AddMetric(m, "bench.traced.read_qps",
            Ratio(static_cast<double>(all.completed), elapsed_s), "1/s");
  AddMetric(m, "bench.traced.read_p50_us", all.request.Quantile(0.50) / 1e3,
            "us");
  AddMetric(m, "bench.traced.read_p99_us", all.request.Quantile(0.99) / 1e3,
            "us");
}

struct WriteSpans {
  LatencyHist apply_edge, apply_retune, apply_subgraph;
  LatencyHist graph_copy, index_clone, freeze;
  LatencyHist wal_append, wal_sync, wal_truncate, checkpoint_write;
  double checkpoint_bytes = 0;
  double recovery_load_ns = 0;
  double recovery_replay_ns_per_op = 0;
  int64_t ops = 0;
};

template <typename F>
void Timed(LatencyHist* h, F&& f) {
  const int64_t t0 = NowNs();
  f();
  h->Record(NowNs() - t0);
}

[[noreturn]] void DieIo(const char* what, const std::string& error) {
  std::fprintf(stderr, "servebench: replay %s: %s\n", what, error.c_str());
  std::exit(2);
}

// Replays the write schedule one op per publish, the writer's own order of
// work: WAL append + fsync, Section-5 apply, the three publish copies, and a
// checkpoint + WAL truncation as often as the server's checkpoint interval
// comes round at write_mix's rate. Ends with a crash-style recovery from the
// directory, checked query by query against the replayed state.
void ReplayWrites(const ReplayInput& in, ReplayResult* res, WriteSpans* w) {
  const int64_t ops_per_checkpoint = std::max<int64_t>(
      1, std::llround(static_cast<double>(in.durability.checkpoint_interval_ms) /
                      1e3 * kWriteRate));
  std::error_code ec;
  std::filesystem::create_directories(in.dir, ec);
  dki::DataGraph graph = in.base->graph();
  dki::DkIndex dk = in.base->Fork(&graph);
  dki::WriteAheadLog wal(in.dir + "/wal.log", in.durability.sync_every_n,
                         in.durability.sync_interval_ms);
  dki::CheckpointStore store(in.dir);
  std::string error;
  if (!wal.Open(&error)) DieIo("wal open", error);
  if (!store.Write(graph, dk.index(), dk.effective_requirements(), 0, &error) ||
      !wal.Reset(&error)) {
    DieIo("initial checkpoint", error);
  }

  const int64_t deadline =
      NowNs() + static_cast<int64_t>(in.write_seconds * 1e9);
  uint64_t seq = 0;
  for (const WriteOp& op : *in.writes) {
    if (NowNs() >= deadline) break;
    if (seq > 0 && static_cast<int64_t>(seq) % ops_per_checkpoint == 0) {
      bool ok = true;
      Timed(&w->checkpoint_write, [&] {
        ok = store.Write(graph, dk.index(), dk.effective_requirements(), seq,
                         &error);
      });
      if (!ok) DieIo("checkpoint", error);
      w->checkpoint_bytes = static_cast<double>(
          std::filesystem::file_size(store.List().front().path, ec));
      Timed(&w->wal_truncate, [&] {
        ok = wal.TruncateThrough(store.SafeTruncationSeq(), &error);
      });
      if (!ok) DieIo("wal truncate", error);
    }
    ++seq;
    bool ok = true;
    Timed(&w->wal_append, [&] { ok = wal.Append(op.op, seq, &error); });
    if (!ok) DieIo("wal append", error);
    Timed(&w->wal_sync, [&] { ok = wal.Sync(/*force=*/true, &error); });
    if (!ok) DieIo("wal sync", error);
    LatencyHist* apply = op.kind == WriteOp::Kind::kEdge ? &w->apply_edge
                         : op.kind == WriteOp::Kind::kRetune
                             ? &w->apply_retune
                             : &w->apply_subgraph;
    Timed(apply, [&] { ok = dki::ApplyUpdateOp(&dk, op.op); });
    if (!ok) ++res->failed;
    ++res->attempted;
    ++w->ops;

    std::optional<dki::DataGraph> graph_copy;
    std::optional<dki::IndexGraph> index_copy;
    Timed(&w->graph_copy, [&] { graph_copy.emplace(graph); });
    Timed(&w->index_clone,
          [&] { index_copy.emplace(dk.index().CloneOnto(&*graph_copy)); });
    Timed(&w->freeze, [&] { dki::FrozenView view(*index_copy); });
  }
  if (!wal.Sync(/*force=*/true, &error)) DieIo("wal sync", error);

  {
    dki::DataGraph loaded;
    uint64_t loaded_seq = 0;
    bool fallback = false;
    const int64_t t0 = NowNs();
    std::optional<dki::DkIndex> base =
        store.LoadNewestValid(&loaded, &loaded_seq, &fallback, &error);
    w->recovery_load_ns = static_cast<double>(NowNs() - t0);
    if (!base.has_value()) DieIo("checkpoint load", error);
  }
  dki::DataGraph recovered_graph;
  dki::RecoveryStats rstats;
  const int64_t t0 = NowNs();
  std::optional<dki::DkIndex> recovered =
      dki::RecoverDkIndex(in.dir, &recovered_graph, &rstats, &error);
  const double recover_ns = static_cast<double>(NowNs() - t0);
  if (!recovered.has_value()) DieIo("recovery", error);
  w->recovery_replay_ns_per_op =
      Ratio(std::max(0.0, recover_ns - w->recovery_load_ns),
            static_cast<double>(rstats.replayed_ops));

  for (const std::string& text : *in.check_pool) {
    std::optional<dki::PathExpression> live =
        dki::PathExpression::Parse(text, graph.labels(), &error);
    std::optional<dki::PathExpression> rec =
        dki::PathExpression::Parse(text, recovered_graph.labels(), &error);
    ++res->attempted;
    if (!live.has_value() || !rec.has_value() ||
        dki::EvaluateOnIndex(dk.index(), *live) !=
            dki::EvaluateOnIndex(recovered->index(), *rec)) {
      std::fprintf(stderr, "servebench: recovered state differs on %s\n",
                   text.c_str());
      ++res->failed;
    }
  }
}

void AddWriteMetrics(const WriteSpans& w, MetricList* m) {
  AddQuantiles(m, "index.apply_edge_us", w.apply_edge, 1e3, "us");
  AddQuantiles(m, "index.apply_retune_ms", w.apply_retune, 1e6, "ms", false);
  AddQuantiles(m, "index.apply_subgraph_ms", w.apply_subgraph, 1e6, "ms",
               false);
  AddQuantiles(m, "serve.publish.graph_copy_ms", w.graph_copy, 1e6, "ms",
               false);
  AddQuantiles(m, "serve.publish.index_clone_ms", w.index_clone, 1e6, "ms",
               false);
  AddQuantiles(m, "serve.publish.freeze_ms", w.freeze, 1e6, "ms", false);
  AddQuantiles(m, "serve.wal.append_us", w.wal_append, 1e3, "us", false);
  AddQuantiles(m, "serve.wal.sync_ms", w.wal_sync, 1e6, "ms");
  AddQuantiles(m, "serve.wal.truncate_ms", w.wal_truncate, 1e6, "ms", false);
  AddQuantiles(m, "serve.checkpoint.write_ms", w.checkpoint_write, 1e6, "ms",
               false);
  AddMetric(m, "serve.checkpoint.bytes", w.checkpoint_bytes, "bytes");
  AddMetric(m, "serve.recovery.load_ms", w.recovery_load_ns / 1e6, "ms");
  AddMetric(m, "serve.recovery.replay_us_per_op",
            w.recovery_replay_ns_per_op / 1e3, "us");
  AddMetric(m, "bench.replay.write_ops", static_cast<double>(w.ops), "count");
}

}  // namespace

ReplayResult RunReplay(const ReplayInput& in) {
  ReplayResult res;
  ReplayReads(in, &res);
  WriteSpans w;  // stays empty (all zeros) for the read-only workloads
  if (in.writes != nullptr) ReplayWrites(in, &res, &w);
  AddWriteMetrics(w, &res.metrics);
  return res;
}

}  // namespace servebench
