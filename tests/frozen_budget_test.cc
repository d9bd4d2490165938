// Tests of the memory-budgeted FrozenView storage tier (query/frozen_view.h
// + query/csr_codec.h): budgeted and spilled views must answer every query
// bit-identically to the flat representation — results AND EvalStats — at a
// fraction of the resident memory, including under concurrent readers and
// through the QueryServer publish path.

#include "query/frozen_view.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "datagen/nasa_generator.h"
#include "datagen/xmark_generator.h"
#include "graph/data_graph.h"
#include "index/dk_index.h"
#include "query/evaluator.h"
#include "serve/apply.h"
#include "serve/query_server.h"
#include "tests/test_util.h"

namespace dki {
namespace {

// A budget of one byte always forces compression AND the spill (nothing
// fits); a huge budget forces compression without the spill.
constexpr int64_t kForceSpill = 1;
constexpr int64_t kNoSpill = int64_t{1} << 40;

std::vector<std::string> Probes(const DataGraph& g, int count, Rng* rng) {
  std::vector<std::string> out = {g.label_name(1)};
  for (int i = 1; i < count; ++i) {
    out.push_back(testing_util::RandomChainQuery(
        g, static_cast<int>(rng->UniformInt(1, 4)), rng));
  }
  return out;
}

void ExpectSameStats(const EvalStats& got, const EvalStats& want,
                     const std::string& what) {
  EXPECT_EQ(got.index_nodes_visited, want.index_nodes_visited) << what;
  EXPECT_EQ(got.data_nodes_visited, want.data_nodes_visited) << what;
  EXPECT_EQ(got.validated_candidates, want.validated_candidates) << what;
  EXPECT_EQ(got.uncertain_index_nodes, want.uncertain_index_nodes) << what;
  EXPECT_EQ(got.result_size, want.result_size) << what;
}

void RunDifferential(DataGraph& g, DkIndex& dk, int64_t budget,
                     const std::string& name) {
  // Pin the reference traversal on both sides: this helper compares
  // EvalStats, and the prefilter-free NFA is the traversal whose counters
  // the reference evaluators define.
  FrozenViewOptions flat_options;
  flat_options.prefilter = false;
  FrozenView flat(dk.index(), flat_options);
  FrozenViewOptions options;
  options.memory_budget_bytes = budget;
  options.prefilter = false;
  FrozenView budgeted(dk.index(), options);
  EXPECT_TRUE(budgeted.budgeted());
  EXPECT_FALSE(flat.budgeted());

  Rng rng(103);
  FrozenScratch flat_scratch, budget_scratch;
  for (const std::string& probe : Probes(g, 25, &rng)) {
    PathExpression q = testing_util::MustParse(probe, g.labels());
    for (bool validate : {true, false}) {
      EvalStats flat_stats, budget_stats;
      EXPECT_EQ(
          budgeted.Evaluate(q, &budget_stats, validate, &budget_scratch),
          flat.Evaluate(q, &flat_stats, validate, &flat_scratch))
          << name << " '" << probe << "' validate=" << validate;
      ExpectSameStats(budget_stats, flat_stats,
                      name + " '" + probe + "' stats");
    }
    EvalStats flat_stats, budget_stats;
    EXPECT_EQ(budgeted.EvaluateOnData(q, &budget_stats, &budget_scratch),
              flat.EvaluateOnData(q, &flat_stats, &flat_scratch))
        << name << " '" << probe << "' on data";
    ExpectSameStats(budget_stats, flat_stats,
                    name + " '" + probe + "' data stats");
  }
}

TEST(FrozenBudgetTest, RandomGraphsBitIdenticalCompressed) {
  Rng rng(107);
  for (int trial = 0; trial < 5; ++trial) {
    DataGraph g = testing_util::RandomGraph(400, 6, 80, &rng);
    LabelRequirements reqs;
    reqs[g.label(static_cast<NodeId>(rng.UniformInt(1, g.NumNodes() - 1)))] =
        2;
    DkIndex dk = DkIndex::Build(&g, reqs);
    RunDifferential(g, dk, kNoSpill, "random/compressed");
    RunDifferential(g, dk, kForceSpill, "random/spilled");
  }
}

TEST(FrozenBudgetTest, XmarkBitIdenticalSpilled) {
  XmarkOptions options;
  options.scale = 0.25;
  DataGraph g = GenerateXmarkGraph(options).graph;
  DkIndex dk = DkIndex::Build(&g, {});
  RunDifferential(g, dk, kForceSpill, "xmark/spilled");
}

TEST(FrozenBudgetTest, NasaBitIdenticalCompressed) {
  NasaOptions options;
  options.scale = 0.25;
  DataGraph g = GenerateNasaGraph(options).graph;
  DkIndex dk = DkIndex::Build(&g, {});
  RunDifferential(g, dk, kNoSpill, "nasa/compressed");
}

TEST(FrozenBudgetTest, MemoryStatsAccounting) {
  XmarkOptions options;
  options.scale = 0.5;
  DataGraph g = GenerateXmarkGraph(options).graph;
  DkIndex dk = DkIndex::Build(&g, {});

  FrozenView flat(dk.index());
  const FrozenMemoryStats& fs = flat.memory_stats();
  EXPECT_EQ(fs.resident_bytes, fs.flat_bytes);
  EXPECT_EQ(fs.compressed_bytes, 0);
  EXPECT_EQ(fs.spilled_bytes, 0);
  EXPECT_EQ(flat.ApproxBytes(), fs.flat_bytes);

  FrozenViewOptions no_spill;
  no_spill.memory_budget_bytes = kNoSpill;
  FrozenView compressed(dk.index(), no_spill);
  const FrozenMemoryStats& cs = compressed.memory_stats();
  EXPECT_EQ(cs.flat_bytes, fs.flat_bytes);  // same source state
  EXPECT_GT(cs.compressed_bytes, 0);
  EXPECT_EQ(cs.spilled_bytes, 0);
  EXPECT_LT(cs.resident_bytes, cs.flat_bytes);

  FrozenViewOptions spill;
  spill.memory_budget_bytes = kForceSpill;
  FrozenView spilled(dk.index(), spill);
  const FrozenMemoryStats& ss = spilled.memory_stats();
  EXPECT_EQ(ss.compressed_bytes, cs.compressed_bytes);
  EXPECT_EQ(ss.spilled_bytes, ss.compressed_bytes);
  EXPECT_LT(ss.resident_bytes, cs.resident_bytes);
  // The acceptance target: a spilled view holds <= 1/3 the flat bytes.
  EXPECT_LE(ss.resident_bytes * 3, ss.flat_bytes)
      << "resident " << ss.resident_bytes << "B vs flat " << ss.flat_bytes
      << "B";
}

TEST(FrozenBudgetTest, EvaluateBatchMatchesFlatAcrossLaneCounts) {
  XmarkOptions options;
  options.scale = 0.2;
  DataGraph g = GenerateXmarkGraph(options).graph;
  DkIndex dk = DkIndex::Build(&g, {});

  FrozenView flat(dk.index());
  FrozenViewOptions budget;
  budget.memory_budget_bytes = kForceSpill;
  FrozenView budgeted(dk.index(), budget);

  Rng rng(109);
  std::vector<PathExpression> queries;
  for (const std::string& probe : Probes(g, 40, &rng)) {
    queries.push_back(testing_util::MustParse(probe, g.labels()));
  }

  std::vector<std::vector<NodeId>> want = flat.EvaluateBatch(
      queries, /*pool=*/nullptr);
  for (int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    std::vector<EvalStats> stats;
    EXPECT_EQ(budgeted.EvaluateBatch(queries, &pool, &stats), want)
        << threads << " lanes";
  }
}

// Many reader threads sharing one spilled view, each with its own scratch
// (and so its own BlockCache) — the serving configuration TSan must bless.
TEST(FrozenBudgetTest, ConcurrentReadersOnSpilledView) {
  Rng rng(113);
  DataGraph g = testing_util::RandomGraph(300, 5, 60, &rng);
  DkIndex dk = DkIndex::Build(&g, {});

  FrozenView flat(dk.index());
  FrozenViewOptions budget;
  budget.memory_budget_bytes = kForceSpill;
  FrozenView budgeted(dk.index(), budget);

  std::vector<std::string> probes = Probes(g, 8, &rng);
  std::vector<PathExpression> queries;
  std::vector<std::vector<NodeId>> want;
  for (const std::string& probe : probes) {
    queries.push_back(testing_util::MustParse(probe, g.labels()));
    want.push_back(flat.Evaluate(queries.back()));
  }

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      FrozenScratch scratch;
      for (int round = 0; round < 30; ++round) {
        const size_t qi = static_cast<size_t>((t + round) % queries.size());
        EXPECT_EQ(budgeted.Evaluate(queries[qi], nullptr, true, &scratch),
                  want[qi]);
      }
    });
  }
  for (std::thread& t : readers) t.join();
}

// One scratch surviving a snapshot swap must not serve stale cached blocks:
// distinct views get distinct cache keys even at equal graph shapes.
TEST(FrozenBudgetTest, ScratchSurvivesViewSwapWithoutStaleness) {
  Rng rng(127);
  DataGraph g = testing_util::RandomGraph(250, 5, 50, &rng);
  DkIndex dk = DkIndex::Build(&g, {});

  // Same index frozen twice: identical content, distinct view identities.
  FrozenViewOptions budget;
  budget.memory_budget_bytes = kForceSpill;
  auto view1 = std::make_unique<FrozenView>(dk.index(), budget);

  // Mutate, freeze again — different adjacency under the same node ids.
  const NodeId u = static_cast<NodeId>(rng.UniformInt(1, g.NumNodes() - 1));
  const NodeId v = static_cast<NodeId>(rng.UniformInt(1, g.NumNodes() - 1));
  ApplyUpdateOp(&dk, UpdateOp::AddEdge(u, v));
  FrozenView view2(dk.index(), budget);
  FrozenView flat2(dk.index());

  FrozenScratch scratch;  // shared across both views, like a server thread
  Rng prng(131);
  for (const std::string& probe : Probes(g, 10, &prng)) {
    PathExpression q = testing_util::MustParse(probe, g.labels());
    (void)view1->Evaluate(q, nullptr, true, &scratch);  // warm the cache
    EXPECT_EQ(view2.Evaluate(q, nullptr, true, &scratch),
              flat2.Evaluate(q))
        << "'" << probe << "' served stale blocks after view swap";
  }
}

// End-to-end through the serving stack: a budgeted server answers exactly
// like an unbudgeted one.
TEST(FrozenBudgetTest, QueryServerServesBitIdenticalUnderBudget) {
  Rng rng(137);
  DataGraph g = testing_util::RandomGraph(300, 6, 60, &rng);
  DkIndex dk = DkIndex::Build(&g, {});

  QueryServer::Options flat_options;
  QueryServer::Options budget_options;
  budget_options.frozen.memory_budget_bytes = 1;  // force compress + spill
  QueryServer flat_server(dk, flat_options);
  QueryServer budget_server(dk, budget_options);

  EXPECT_TRUE(budget_server.snapshot()->frozen().budgeted());
  EXPECT_FALSE(flat_server.snapshot()->frozen().budgeted());

  std::vector<std::string> probes = Probes(g, 15, &rng);
  for (const std::string& probe : probes) {
    auto flat_result = flat_server.Evaluate(probe);
    auto budget_result = budget_server.Evaluate(probe);
    ASSERT_TRUE(flat_result.has_value()) << probe;
    ASSERT_TRUE(budget_result.has_value()) << probe;
    EXPECT_EQ(*budget_result, *flat_result) << probe;
  }

  // Mutations republish budgeted snapshots; answers stay identical.
  for (int i = 0; i < 20; ++i) {
    const NodeId u = static_cast<NodeId>(rng.UniformInt(1, g.NumNodes() - 1));
    const NodeId v = static_cast<NodeId>(rng.UniformInt(1, g.NumNodes() - 1));
    ASSERT_TRUE(flat_server.SubmitAddEdge(u, v));
    ASSERT_TRUE(budget_server.SubmitAddEdge(u, v));
  }
  flat_server.Flush();
  budget_server.Flush();
  for (const std::string& probe : probes) {
    EXPECT_EQ(*budget_server.Evaluate(probe), *flat_server.Evaluate(probe))
        << probe << " after updates";
  }
  flat_server.Stop();
  budget_server.Stop();
}

}  // namespace
}  // namespace dki
