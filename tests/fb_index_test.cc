#include "index/fb_index.h"

#include <gtest/gtest.h>

#include <set>

#include "common/random.h"
#include "index/one_index.h"
#include "query/evaluator.h"
#include "tests/test_util.h"

namespace dki {
namespace {

// Reference forward-stability check: for blocks A, B, either every member
// of B has a child in A's extent set or none does... stability is
// Succ-based: B ⊆ Pred(A) or disjoint. We verify both directions directly.
void ExpectStableBothWays(const DataGraph& g, const Partition& p) {
  std::vector<std::vector<NodeId>> members(static_cast<size_t>(p.num_blocks));
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    members[static_cast<size_t>(p.block_of[static_cast<size_t>(n)])]
        .push_back(n);
  }
  for (int32_t a = 0; a < p.num_blocks; ++a) {
    std::set<NodeId> succ, pred;
    for (NodeId u : members[static_cast<size_t>(a)]) {
      for (NodeId v : g.children(u)) succ.insert(v);
      for (NodeId v : g.parents(u)) pred.insert(v);
    }
    for (int32_t b = 0; b < p.num_blocks; ++b) {
      size_t in_succ = 0, in_pred = 0;
      for (NodeId v : members[static_cast<size_t>(b)]) {
        in_succ += succ.count(v);
        in_pred += pred.count(v);
      }
      size_t size = members[static_cast<size_t>(b)].size();
      EXPECT_TRUE(in_succ == 0 || in_succ == size)
          << "backward-unstable: block " << b << " vs splitter " << a;
      EXPECT_TRUE(in_pred == 0 || in_pred == size)
          << "forward-unstable: block " << b << " vs splitter " << a;
    }
  }
}

TEST(FbIndexTest, StableInBothDirections) {
  Rng rng(311);
  for (int trial = 0; trial < 8; ++trial) {
    DataGraph g = testing_util::RandomGraph(60 + trial * 10, 4, 12, &rng);
    Partition p = FbIndex::ComputePartition(g);
    ExpectStableBothWays(g, p);
  }
}

TEST(FbIndexTest, RefinesTheOneIndex) {
  Rng rng(313);
  DataGraph g = testing_util::RandomGraph(150, 4, 30, &rng);
  Partition fb = FbIndex::ComputePartition(g);
  Partition one =
      testing_util::UniformPartition(g, IndexGraph::kInfiniteSimilarity);
  EXPECT_GE(fb.num_blocks, one.num_blocks);
  // Same F&B block implies same 1-index block.
  std::unordered_map<int32_t, int32_t> map;
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    auto [it, inserted] = map.emplace(fb.block_of[static_cast<size_t>(n)],
                                      one.block_of[static_cast<size_t>(n)]);
    EXPECT_EQ(it->second, one.block_of[static_cast<size_t>(n)]);
  }
}

TEST(FbIndexTest, CoarsestAmongBothWayStablePartitions) {
  // Refining the F&B partition once more in either direction is a no-op.
  Rng rng(317);
  DataGraph g = testing_util::RandomGraph(100, 3, 20, &rng);
  Partition p = FbIndex::ComputePartition(g);
  std::vector<bool> all(static_cast<size_t>(p.num_blocks), true);
  EXPECT_EQ(RefineOnce(g, p, all).num_blocks, p.num_blocks);
  ReverseGraphView reversed(&g);
  EXPECT_EQ(RefineOnce(reversed, p, all).num_blocks, p.num_blocks);
}

TEST(FbIndexTest, AnswersIncomingAndOutgoingQueriesExactly) {
  Rng rng(331);
  DataGraph g = testing_util::RandomGraph(120, 4, 25, &rng);
  IndexGraph fb = FbIndex::Build(&g);
  std::string error;
  ASSERT_TRUE(fb.ValidatePartition(&error)) << error;
  ASSERT_TRUE(fb.ValidateEdges(&error)) << error;

  for (int i = 0; i < 15; ++i) {
    int len = static_cast<int>(rng.UniformInt(1, 4));
    std::string text = testing_util::RandomChainQuery(g, len, &rng);
    PathExpression q = testing_util::MustParse(text, g.labels());
    EvalStats stats;
    EXPECT_EQ(EvaluateOnIndex(fb, q, &stats), EvaluateOnDataGraph(g, q))
        << text;
    // Infinite local similarity: never any validation.
    EXPECT_EQ(stats.uncertain_index_nodes, 0) << text;
  }
}

TEST(FbIndexTest, ForwardSiblingsDistinguished) {
  // Two `a` nodes with the same incoming paths but different *outgoing*
  // structure: bisimilar for the 1-index, split by the F&B index.
  DataGraph g;
  NodeId a1 = g.AddNode("a");
  NodeId a2 = g.AddNode("a");
  NodeId b = g.AddNode("b");
  g.AddEdge(g.root(), a1);
  g.AddEdge(g.root(), a2);
  g.AddEdge(a1, b);  // only a1 has a b child
  Partition one =
      testing_util::UniformPartition(g, IndexGraph::kInfiniteSimilarity);
  Partition fb = FbIndex::ComputePartition(g);
  EXPECT_EQ(one.block_of[static_cast<size_t>(a1)],
            one.block_of[static_cast<size_t>(a2)]);
  EXPECT_NE(fb.block_of[static_cast<size_t>(a1)],
            fb.block_of[static_cast<size_t>(a2)]);
}

TEST(FbIndexTest, TreeWithUniformStructureStaysCoarse) {
  DataGraph g;
  for (int i = 0; i < 5; ++i) {
    NodeId a = g.AddNode("a");
    g.AddEdge(g.root(), a);
    NodeId b = g.AddNode("b");
    g.AddEdge(a, b);
  }
  Partition fb = FbIndex::ComputePartition(g);
  EXPECT_EQ(fb.num_blocks, 3);  // ROOT, {a...}, {b...}
}

}  // namespace
}  // namespace dki
