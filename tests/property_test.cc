// Randomized property sweeps over the whole index family, parameterized by
// graph shape (TEST_P / INSTANTIATE_TEST_SUITE_P): on random graphs and
// random workloads, every index kind must answer every query exactly
// (safety + validation = ground truth), and the D(k)-index must keep its
// structural invariants through arbitrary update sequences.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "common/random.h"
#include "index/ak_index.h"
#include "index/dk_index.h"
#include "index/one_index.h"
#include "query/evaluator.h"
#include "query/load_analyzer.h"
#include "query/workload.h"
#include "serve/apply.h"
#include "tests/test_util.h"

namespace dki {
namespace {

struct GraphShape {
  int nodes;
  int labels;
  int extra_edges;
  uint64_t seed;
};

std::string ShapeName(const ::testing::TestParamInfo<GraphShape>& info) {
  return "n" + std::to_string(info.param.nodes) + "_l" +
         std::to_string(info.param.labels) + "_e" +
         std::to_string(info.param.extra_edges) + "_s" +
         std::to_string(info.param.seed);
}

class IndexFamilyProperty : public ::testing::TestWithParam<GraphShape> {
 protected:
  IndexFamilyProperty() : rng_(GetParam().seed) {
    g_ = testing_util::RandomGraph(GetParam().nodes, GetParam().labels,
                                   GetParam().extra_edges, &rng_);
  }

  std::vector<std::string> SampleQueries(int count, int max_len) {
    std::vector<std::string> out;
    for (int i = 0; i < count; ++i) {
      out.push_back(testing_util::RandomChainQuery(
          g_, static_cast<int>(rng_.UniformInt(1, max_len)), &rng_));
    }
    return out;
  }

  Rng rng_;
  DataGraph g_;
};

TEST_P(IndexFamilyProperty, AllIndexesAnswerExactly) {
  IndexGraph one = OneIndex::Build(&g_);
  DataGraph g_ak = g_;
  AkIndex a2 = AkIndex::Build(&g_ak, 2);
  std::vector<std::string> queries = SampleQueries(15, 5);
  LabelRequirements reqs =
      MineRequirementsFromText(queries, g_.labels(), nullptr);
  DataGraph g_dk = g_;
  DkIndex dk = DkIndex::Build(&g_dk, reqs);

  for (const std::string& text : queries) {
    PathExpression q = testing_util::MustParse(text, g_.labels());
    auto truth = EvaluateOnDataGraph(g_, q);
    EXPECT_EQ(EvaluateOnIndex(one, q), truth) << "1-index " << text;
    EXPECT_EQ(EvaluateOnIndex(a2.index(), q), truth) << "A(2) " << text;
    EXPECT_EQ(EvaluateOnIndex(dk.index(), q), truth) << "D(k) " << text;
  }
}

TEST_P(IndexFamilyProperty, DkWorkloadNeedsNoValidation) {
  std::vector<std::string> queries = SampleQueries(10, 4);
  LabelRequirements reqs =
      MineRequirementsFromText(queries, g_.labels(), nullptr);
  DkIndex dk = DkIndex::Build(&g_, reqs);
  for (const std::string& text : queries) {
    PathExpression q = testing_util::MustParse(text, g_.labels());
    EvalStats stats;
    EvaluateOnIndex(dk.index(), q, &stats);
    EXPECT_EQ(stats.uncertain_index_nodes, 0) << text;
  }
}

TEST_P(IndexFamilyProperty, DkSmallerOrEqualToUniformAk) {
  // The load-aware index never exceeds the uniform A(kmax) that would be
  // needed for the same soundness horizon.
  std::vector<std::string> queries = SampleQueries(10, 4);
  LabelRequirements reqs =
      MineRequirementsFromText(queries, g_.labels(), nullptr);
  int kmax = 0;
  for (const auto& [label, k] : reqs) kmax = std::max(kmax, k);
  DataGraph g_dk = g_;
  DkIndex dk = DkIndex::Build(&g_dk, reqs);
  AkIndex ak = AkIndex::Build(&g_, kmax);
  EXPECT_LE(dk.index().NumIndexNodes(), ak.index().NumIndexNodes());
}

TEST_P(IndexFamilyProperty, UpdateStormKeepsDkExact) {
  std::vector<std::string> queries = SampleQueries(8, 4);
  LabelRequirements reqs =
      MineRequirementsFromText(queries, g_.labels(), nullptr);
  DkIndex dk = DkIndex::Build(&g_, reqs);
  for (int i = 0; i < 20; ++i) {
    NodeId u = static_cast<NodeId>(rng_.UniformInt(1, g_.NumNodes() - 1));
    NodeId v = static_cast<NodeId>(rng_.UniformInt(1, g_.NumNodes() - 1));
    dk.AddEdge(u, v);
  }
  std::string error;
  ASSERT_TRUE(dk.index().ValidatePartition(&error)) << error;
  ASSERT_TRUE(dk.index().ValidateEdges(&error)) << error;
  ASSERT_TRUE(dk.index().ValidateDkConstraint(&error)) << error;
  for (const std::string& text : queries) {
    PathExpression q = testing_util::MustParse(text, g_.labels());
    EXPECT_EQ(EvaluateOnIndex(dk.index(), q), EvaluateOnDataGraph(g_, q))
        << text;
  }
}

TEST_P(IndexFamilyProperty, MixedUpdateGrowShrinkRetuneCycle) {
  std::vector<std::string> queries = SampleQueries(6, 4);
  LabelRequirements reqs =
      MineRequirementsFromText(queries, g_.labels(), nullptr);
  DkIndex dk = DkIndex::Build(&g_, reqs);

  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 5; ++i) {
      NodeId u = static_cast<NodeId>(rng_.UniformInt(1, g_.NumNodes() - 1));
      NodeId v = static_cast<NodeId>(rng_.UniformInt(1, g_.NumNodes() - 1));
      dk.AddEdge(u, v);
    }
    ASSERT_TRUE(ApplyUpdateOp(&dk, UpdateOp::Retune(reqs, /*shrink=*/false)))
        << "round " << round;
    if (round == 1) dk.Demote(reqs);
    std::string error;
    ASSERT_TRUE(dk.index().ValidatePartition(&error))
        << "round " << round << ": " << error;
    ASSERT_TRUE(dk.index().ValidateEdges(&error))
        << "round " << round << ": " << error;
    ASSERT_TRUE(dk.index().ValidateDkConstraint(&error))
        << "round " << round << ": " << error;
    for (const std::string& text : queries) {
      PathExpression q = testing_util::MustParse(text, g_.labels());
      EXPECT_EQ(EvaluateOnIndex(dk.index(), q), EvaluateOnDataGraph(g_, q))
          << "round " << round << ": " << text;
    }
  }
}

TEST_P(IndexFamilyProperty, RegexQueriesAnswerExactlyOnAllIndexes) {
  // Beyond chains: wildcard / optional / alternation / descendant queries.
  IndexGraph one = OneIndex::Build(&g_);
  DataGraph g_ak = g_;
  AkIndex a1 = AkIndex::Build(&g_ak, 1);

  std::vector<std::string> regexes;
  for (int i = 0; i < 6; ++i) {
    std::string chain = testing_util::RandomChainQuery(g_, 3, &rng_);
    auto dot = chain.find('.');
    if (dot == std::string::npos) continue;
    regexes.push_back(chain.substr(0, dot) + "._?" + chain.substr(dot));
    regexes.push_back(chain.substr(0, dot) + "//" + chain.substr(dot + 1));
  }
  for (const std::string& text : regexes) {
    PathExpression q = testing_util::MustParse(text, g_.labels());
    auto truth = EvaluateOnDataGraph(g_, q);
    EXPECT_EQ(EvaluateOnIndex(one, q), truth) << text;
    EXPECT_EQ(EvaluateOnIndex(a1.index(), q), truth) << text;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, IndexFamilyProperty,
    ::testing::Values(GraphShape{40, 3, 5, 1}, GraphShape{80, 4, 15, 2},
                      GraphShape{120, 5, 25, 3}, GraphShape{200, 4, 60, 4},
                      GraphShape{150, 8, 10, 5}, GraphShape{60, 2, 30, 6},
                      GraphShape{300, 6, 40, 7}, GraphShape{100, 3, 80, 8}),
    ShapeName);

}  // namespace
}  // namespace dki
