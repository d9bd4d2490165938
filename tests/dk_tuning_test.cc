#include <gtest/gtest.h>

#include <set>
#include <unordered_map>

#include "bench/algorithm6.h"
#include "common/random.h"
#include "index/ak_index.h"
#include "index/dk_index.h"
#include "query/evaluator.h"
#include "query/workload.h"
#include "tests/test_util.h"

namespace dki {
namespace {

// Algorithm 6 (the promoting process) is the bench-side comparator of
// bench/algorithm6.h; the Demote cases test the library's retune.
using bench::PromoteBatch;
using bench::PromoteLabel;
using testing_util::ExpectSameIndex;

LabelRequirements RandomReqs(const DataGraph& g, Rng* rng, int count,
                             int max_k) {
  LabelRequirements reqs;
  for (int i = 0; i < count; ++i) {
    reqs[static_cast<LabelId>(rng->UniformInt(2, g.labels().size() - 1))] =
        static_cast<int>(rng->UniformInt(1, max_k));
  }
  return reqs;
}

TEST(DkTuningTest, DemoteMatchesFreshConstruction) {
  // Theorem 2: quotienting the refined D(k)-index under lower requirements
  // equals building the lower D(k)-index from scratch.
  Rng rng(211);
  for (int trial = 0; trial < 8; ++trial) {
    DataGraph g = testing_util::RandomGraph(100, 4, 20, &rng);
    LabelRequirements high = RandomReqs(g, &rng, 3, 4);
    LabelRequirements low;
    for (const auto& [label, k] : high) {
      if (k > 1) low[label] = k - static_cast<int>(rng.UniformInt(1, k));
    }

    DataGraph g2 = g;
    DkIndex demoted = DkIndex::Build(&g, high);
    demoted.Demote(low);
    DkIndex fresh = DkIndex::Build(&g2, low);
    fresh.mutable_index()->set_graph(&g);  // compare over the same graph
    ExpectSameIndex(demoted.index(), fresh.index());
  }
}

TEST(DkTuningTest, DemoteToZeroIsLabelSplit) {
  Rng rng(223);
  DataGraph g = testing_util::RandomGraph(120, 5, 25, &rng);
  DkIndex dk = DkIndex::Build(&g, RandomReqs(g, &rng, 3, 4));
  dk.Demote({});
  std::set<LabelId> occurring;
  for (NodeId n = 0; n < g.NumNodes(); ++n) occurring.insert(g.label(n));
  EXPECT_EQ(dk.index().NumIndexNodes(),
            static_cast<int64_t>(occurring.size()));
  for (IndexNodeId i = 0; i < dk.index().NumIndexNodes(); ++i) {
    EXPECT_EQ(dk.index().k(i), 0);
  }
}

TEST(DkTuningTest, DemoteShrinksOrKeepsSize) {
  Rng rng(227);
  DataGraph g = testing_util::RandomGraph(200, 4, 40, &rng);
  LabelRequirements high = RandomReqs(g, &rng, 4, 4);
  DkIndex dk = DkIndex::Build(&g, high);
  int64_t before = dk.index().NumIndexNodes();
  LabelRequirements low;
  for (const auto& [label, k] : high) low[label] = k / 2;
  dk.Demote(low);
  EXPECT_LE(dk.index().NumIndexNodes(), before);
  std::string error;
  EXPECT_TRUE(dk.index().ValidatePartition(&error)) << error;
  EXPECT_TRUE(dk.index().ValidateEdges(&error)) << error;
  EXPECT_TRUE(dk.index().ValidateDkConstraint(&error)) << error;
}

TEST(DkTuningTest, PromoteReachesTargetSimilarityAndStaysValid) {
  // Algorithm 6 promotes individual index nodes by their *actual* parents,
  // so it can be coarser than a fresh label-uniform construction for labels
  // the workload never targets — but every promoted node must reach the
  // target similarity, all invariants must hold, and its queries must be
  // answered exactly.
  Rng rng(229);
  for (int trial = 0; trial < 8; ++trial) {
    DataGraph g = testing_util::RandomGraph(100, 4, 20, &rng);
    LabelId target =
        static_cast<LabelId>(rng.UniformInt(2, g.labels().size() - 1));
    int k_target = static_cast<int>(rng.UniformInt(1, 3));

    DkIndex dk = DkIndex::Build(&g, {});  // label split
    PromoteLabel(dk.mutable_index(), target, k_target);

    for (IndexNodeId i = 0; i < dk.index().NumIndexNodes(); ++i) {
      if (dk.index().label(i) == target) {
        EXPECT_GE(dk.index().k(i), k_target);
      }
    }
    std::string error;
    ASSERT_TRUE(dk.index().ValidatePartition(&error)) << error;
    ASSERT_TRUE(dk.index().ValidateEdges(&error)) << error;
    ASSERT_TRUE(dk.index().ValidateDkConstraint(&error)) << error;
  }
}

TEST(DkTuningTest, PromoteBatchAnswersWorkloadSoundly) {
  Rng rng(233);
  for (int trial = 0; trial < 5; ++trial) {
    DataGraph g = testing_util::RandomGraph(90, 4, 18, &rng);

    DkIndex dk = DkIndex::Build(&g, {});
    // Queries of length <= 4 over the promoted index must be exact without
    // validation once their end labels are promoted to length-1.
    std::vector<PathExpression> queries;
    LabelRequirements targets;
    for (int i = 0; i < 6; ++i) {
      std::string text = testing_util::RandomChainQuery(
          g, static_cast<int>(rng.UniformInt(2, 4)), &rng);
      queries.push_back(testing_util::MustParse(text, g.labels()));
      const auto& labels = queries.back().chain_labels();
      int need = static_cast<int>(labels.size()) - 1;
      auto [it, inserted] = targets.emplace(labels.back(), need);
      if (!inserted) it->second = std::max(it->second, need);
    }
    PromoteBatch(dk.mutable_index(), targets);

    for (const auto& q : queries) {
      EvalStats stats;
      auto result = EvaluateOnIndex(dk.index(), q, &stats);
      EXPECT_EQ(result, EvaluateOnDataGraph(g, q)) << q.text();
      EXPECT_EQ(stats.uncertain_index_nodes, 0) << q.text();
    }
    std::string error;
    ASSERT_TRUE(dk.index().ValidateDkConstraint(&error)) << error;
  }
}

TEST(DkTuningTest, PromoteIsIdempotent) {
  Rng rng(239);
  DataGraph g = testing_util::RandomGraph(80, 4, 15, &rng);
  DkIndex dk = DkIndex::Build(&g, {});
  LabelId target = static_cast<LabelId>(2);
  PromoteLabel(dk.mutable_index(), target, 2);
  int64_t size = dk.index().NumIndexNodes();
  PromoteLabel(dk.mutable_index(), target, 2);
  EXPECT_EQ(dk.index().NumIndexNodes(), size);
  PromoteLabel(dk.mutable_index(), target, 1);  // lower target: no-op
  EXPECT_EQ(dk.index().NumIndexNodes(), size);
}

TEST(DkTuningTest, PromoteRestoresSoundnessAfterUpdates) {
  // The "promoting process periodically restores performance" claim: after
  // edge additions demote local similarities, promoting the workload's
  // target labels makes its queries exact again (no validation).
  Rng rng(241);
  DataGraph g = testing_util::RandomGraph(150, 4, 30, &rng);
  std::vector<std::string> queries;
  for (int i = 0; i < 8; ++i) {
    queries.push_back(testing_util::RandomChainQuery(
        g, static_cast<int>(rng.UniformInt(2, 4)), &rng));
  }
  LabelRequirements reqs;
  std::vector<PathExpression> parsed;
  for (const auto& text : queries) {
    parsed.push_back(testing_util::MustParse(text, g.labels()));
    const auto& labels = parsed.back().chain_labels();
    auto [it, inserted] = reqs.emplace(
        labels.back(), static_cast<int>(labels.size()) - 1);
    if (!inserted) {
      it->second =
          std::max(it->second, static_cast<int>(labels.size()) - 1);
    }
  }
  DkIndex dk = DkIndex::Build(&g, reqs);
  for (int i = 0; i < 25; ++i) {
    NodeId u = static_cast<NodeId>(rng.UniformInt(1, g.NumNodes() - 1));
    NodeId v = static_cast<NodeId>(rng.UniformInt(1, g.NumNodes() - 1));
    dk.AddEdge(u, v);
  }
  PromoteBatch(dk.mutable_index(), reqs);
  for (const auto& q : parsed) {
    EvalStats stats;
    auto result = EvaluateOnIndex(dk.index(), q, &stats);
    EXPECT_EQ(result, EvaluateOnDataGraph(g, q)) << q.text();
    EXPECT_EQ(stats.uncertain_index_nodes, 0)
        << q.text() << " still needs validation after promotion";
  }
  std::string error;
  EXPECT_TRUE(dk.index().ValidatePartition(&error)) << error;
  EXPECT_TRUE(dk.index().ValidateEdges(&error)) << error;
  EXPECT_TRUE(dk.index().ValidateDkConstraint(&error)) << error;
}

// Regression: a Promote frame split v by the parents it snapshotted on
// entry, but a deeper frame at a lower target could split one of those
// parents (an ancestor v shares with another parent) in the meantime, and
// the parts split off kept the lower k — so v was stamped k_target over a
// parent below k_target - 1, and Theorem 1 certified wrong answers. Streams
// of edge toggles and subgraph inserts between promotions make such shared
// ancestors common; after every PromoteBatch the index must satisfy the
// D(k) constraint and answer a mined workload exactly.
TEST(DkTuningTest, PromoteBatchKeepsDkConstraintOverUpdateStreams) {
  Rng rng(3);
  int promotions = 0;
  for (int trial = 0; trial < 60; ++trial) {
    DataGraph g = testing_util::RandomGraph(110, 5, 25, &rng);
    DkIndex dk = DkIndex::Build(&g, RandomReqs(g, &rng, 3, 3));
    for (int step = 0; step < 24; ++step) {
      const int64_t kind = rng.UniformInt(0, 5);
      if (kind <= 2) {
        NodeId u = static_cast<NodeId>(rng.UniformInt(1, g.NumNodes() - 1));
        NodeId v = static_cast<NodeId>(rng.UniformInt(1, g.NumNodes() - 1));
        if (g.HasEdge(u, v)) {
          dk.RemoveEdge(u, v);
        } else {
          dk.AddEdge(u, v);
        }
        continue;
      }
      if (kind == 3) {
        dk.AddSubgraph(testing_util::RandomGraph(8, 5, 2, &rng));
        continue;
      }
      PromoteBatch(dk.mutable_index(), RandomReqs(g, &rng, 2, 4));
      ++promotions;
      std::string error;
      ASSERT_TRUE(dk.index().ValidateDkConstraint(&error))
          << "trial " << trial << " step " << step << ": " << error;
      WorkloadOptions options;
      options.num_queries = 20;
      for (const std::string& text :
           GenerateWorkload(g, options, &rng).queries) {
        const PathExpression q = testing_util::MustParse(text, g.labels());
        ASSERT_EQ(EvaluateOnIndex(dk.index(), q), EvaluateOnDataGraph(g, q))
            << "trial " << trial << " step " << step << " query " << text;
      }
    }
  }
  EXPECT_GT(promotions, 400);
}

TEST(DkTuningTest, PromoteOnCyclicIndexTerminates) {
  DataGraph g;
  NodeId a = g.AddNode("a");
  NodeId b = g.AddNode("b");
  NodeId c = g.AddNode("a");
  g.AddEdge(g.root(), a);
  g.AddEdge(a, b);
  g.AddEdge(b, c);
  g.AddEdge(c, b);  // cycle between a-labeled and b-labeled nodes
  DkIndex dk = DkIndex::Build(&g, {});
  PromoteLabel(dk.mutable_index(), g.labels().Find("b"), 3);
  std::string error;
  EXPECT_TRUE(dk.index().ValidatePartition(&error)) << error;
  EXPECT_TRUE(dk.index().ValidateEdges(&error)) << error;
}

TEST(DkTuningTest, PromoteDeepChainDoesNotOverflowStack) {
  // Regression: Promote used to recurse through the parent chain, one C
  // stack frame (holding a parents vector) per ancestor — a 10^5-node path
  // promoted to k ~ 10^5 blew the stack. The explicit-worklist rewrite must
  // walk the whole chain and leave the same similarities behind.
  constexpr int kChain = 100000;
  DataGraph g;
  NodeId prev = g.root();
  for (int i = 0; i < kChain; ++i) {
    // Distinct labels keep every chain node in its own index node, so the
    // promotion really recurses the full depth.
    NodeId n = g.AddNode("c" + std::to_string(i));
    g.AddEdge(prev, n);
    prev = n;
  }
  DkIndex dk = DkIndex::Build(&g, {});  // label split
  PromoteLabel(dk.mutable_index(), g.label(prev), kChain);

  EXPECT_EQ(dk.index().k(dk.index().index_of(prev)), kChain);
  // Walking up: the ancestor at distance d must have reached kChain - d.
  NodeId cur = prev;
  int expect = kChain;
  while (cur != g.root()) {
    EXPECT_GE(dk.index().k(dk.index().index_of(cur)), expect);
    ASSERT_EQ(g.parents(cur).size(), 1u);
    cur = g.parents(cur)[0];
    --expect;
  }
  std::string error;
  EXPECT_TRUE(dk.index().ValidateDkConstraint(&error)) << error;
}

}  // namespace
}  // namespace dki
