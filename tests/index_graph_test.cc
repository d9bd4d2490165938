#include "index/index_graph.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "index/partition.h"
#include "tests/test_util.h"

namespace dki {
namespace {

IndexGraph LabelSplitIndex(const DataGraph* g) {
  Partition p = LabelSplit(*g);
  std::vector<int> ks(static_cast<size_t>(p.num_blocks), 0);
  return IndexGraph::FromPartition(g, p.block_of, p.num_blocks, ks);
}

TEST(IndexGraphTest, FromPartitionBasics) {
  DataGraph g = testing_util::BuildMovieGraph();
  IndexGraph index = LabelSplitIndex(&g);
  std::string error;
  EXPECT_TRUE(index.ValidatePartition(&error)) << error;
  EXPECT_TRUE(index.ValidateEdges(&error)) << error;
  EXPECT_EQ(index.TotalExtentSize(), g.NumNodes());
  EXPECT_EQ(index.NumIndexNodes(), g.labels().size());

  // Every data node maps to an index node with its label.
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    EXPECT_EQ(index.label(index.index_of(n)), g.label(n));
  }
}

TEST(IndexGraphTest, DerivedEdges) {
  DataGraph g;
  NodeId a1 = g.AddNode("a");
  NodeId a2 = g.AddNode("a");
  NodeId b = g.AddNode("b");
  g.AddEdge(g.root(), a1);
  g.AddEdge(g.root(), a2);
  g.AddEdge(a1, b);
  IndexGraph index = LabelSplitIndex(&g);
  IndexNodeId ia = index.index_of(a1);
  IndexNodeId ib = index.index_of(b);
  EXPECT_EQ(index.index_of(a2), ia);
  // a-block -> b-block because a1 -> b exists, even though a2 has no b child.
  const auto& children = index.children(ia);
  EXPECT_NE(std::find(children.begin(), children.end(), ib), children.end());
}

TEST(IndexGraphTest, SplitOffMovesMembersAndMapping) {
  DataGraph g;
  NodeId a1 = g.AddNode("a");
  NodeId a2 = g.AddNode("a");
  NodeId a3 = g.AddNode("a");
  g.AddEdge(g.root(), a1);
  g.AddEdge(g.root(), a2);
  g.AddEdge(g.root(), a3);
  IndexGraph index = LabelSplitIndex(&g);
  IndexNodeId ia = index.index_of(a1);
  IndexNodeId fresh = index.SplitOff(ia, {a2, a3});
  EXPECT_EQ(index.extent(ia), (std::vector<NodeId>{a1}));
  EXPECT_EQ(index.extent(fresh), (std::vector<NodeId>{a2, a3}));
  EXPECT_EQ(index.index_of(a2), fresh);
  EXPECT_EQ(index.k(fresh), index.k(ia));
  EXPECT_EQ(index.label(fresh), index.label(ia));

  index.RecomputeEdgesLocal({ia, fresh});
  std::string error;
  EXPECT_TRUE(index.ValidatePartition(&error)) << error;
  EXPECT_TRUE(index.ValidateEdges(&error)) << error;
}

TEST(IndexGraphTest, RecomputeEdgesLocalMatchesFullRecompute) {
  Rng rng(99);
  DataGraph g = testing_util::RandomGraph(120, 4, 25, &rng);
  Partition p = testing_util::UniformPartition(g, 2);
  std::vector<int> ks(static_cast<size_t>(p.num_blocks), 2);
  IndexGraph index =
      IndexGraph::FromPartition(&g, p.block_of, p.num_blocks, ks);

  // Split a few nodes and fix edges locally; the result must match a global
  // recompute exactly (ValidateEdges derives the ground truth itself).
  for (int i = 0; i < 5; ++i) {
    IndexNodeId victim = -1;
    for (IndexNodeId n = 0; n < index.NumIndexNodes(); ++n) {
      if (index.extent(n).size() >= 2) {
        victim = n;
        break;
      }
    }
    if (victim == -1) break;
    std::vector<NodeId> half(index.extent(victim).begin(),
                             index.extent(victim).begin() +
                                 index.extent(victim).size() / 2);
    IndexNodeId fresh = index.SplitOff(victim, half);
    index.RecomputeEdgesLocal({victim, fresh});
    std::string error;
    ASSERT_TRUE(index.ValidateEdges(&error)) << error;
    ASSERT_TRUE(index.ValidatePartition(&error)) << error;
  }
}

TEST(IndexGraphTest, AddIndexEdgeDeduplicates) {
  DataGraph g;
  NodeId a = g.AddNode("a");
  NodeId b = g.AddNode("b");
  g.AddEdge(g.root(), a);
  g.AddEdge(g.root(), b);
  IndexGraph index = LabelSplitIndex(&g);
  IndexNodeId ia = index.index_of(a);
  IndexNodeId ib = index.index_of(b);
  int64_t before = index.NumIndexEdges();
  index.AddIndexEdge(ia, ib);
  EXPECT_EQ(index.NumIndexEdges(), before + 1);
  index.AddIndexEdge(ia, ib);
  EXPECT_EQ(index.NumIndexEdges(), before + 1);
}

TEST(IndexGraphTest, DkConstraintValidator) {
  DataGraph g;
  NodeId a = g.AddNode("a");
  NodeId b = g.AddNode("b");
  g.AddEdge(g.root(), a);
  g.AddEdge(a, b);
  IndexGraph index = LabelSplitIndex(&g);
  std::string error;
  EXPECT_TRUE(index.ValidateDkConstraint(&error)) << error;  // all k = 0
  index.set_k(index.index_of(b), 2);  // parent a has k=0 < 2-1
  EXPECT_FALSE(index.ValidateDkConstraint(&error));
  index.set_k(index.index_of(a), 1);
  EXPECT_TRUE(index.ValidateDkConstraint(&error)) << error;
}

TEST(IndexGraphTest, NodesWithLabelAndDot) {
  DataGraph g = testing_util::BuildMovieGraph();
  IndexGraph index = LabelSplitIndex(&g);
  LabelId movie = g.labels().Find("movie");
  auto nodes = index.NodesWithLabel(movie);
  ASSERT_EQ(nodes.size(), 1u);  // label split: one block per label
  EXPECT_EQ(index.label(nodes[0]), movie);
  EXPECT_NE(index.ToDot().find("movie"), std::string::npos);
}

}  // namespace
}  // namespace dki
