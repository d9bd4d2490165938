#include "index/one_index.h"

#include <gtest/gtest.h>

#include <set>
#include <unordered_map>

#include "common/random.h"
#include "datagen/xmark_generator.h"
#include "index/partition.h"
#include "query/evaluator.h"
#include "tests/splitter_oracle.h"
#include "tests/test_util.h"

namespace dki {
namespace {

// The partition OneIndex::Build hands FromPartition, read back per node.
Partition PartitionOf(const IndexGraph& index) {
  Partition p;
  p.num_blocks = static_cast<int32_t>(index.NumIndexNodes());
  for (NodeId n = 0; n < index.graph().NumNodes(); ++n) {
    p.block_of.push_back(index.index_of(n));
  }
  for (IndexNodeId i = 0; i < index.NumIndexNodes(); ++i) {
    p.block_label.push_back(index.label(i));
  }
  return p;
}

// The 1-index through the one round loop equals the test-only splitter
// oracle, block numbering included.
TEST(OneIndexTest, MatchesSplitterOracle) {
  Rng rng(17);
  for (int trial = 0; trial < 10; ++trial) {
    DataGraph g = testing_util::RandomGraph(
        60 + trial * 10, 3 + trial % 4, 10 + trial * 3, &rng);
    EXPECT_EQ(PartitionOf(OneIndex::Build(&g)),
              testing_util::CoarsestStablePartition(g))
        << "trial " << trial;
  }
}

TEST(OneIndexTest, MatchesSplitterOracleOnCyclicGraph) {
  DataGraph g;
  NodeId a = g.AddNode("a");
  NodeId b = g.AddNode("b");
  NodeId c = g.AddNode("a");
  g.AddEdge(g.root(), a);
  g.AddEdge(a, b);
  g.AddEdge(b, c);
  g.AddEdge(c, a);  // cycle a -> b -> a' -> a
  EXPECT_EQ(PartitionOf(OneIndex::Build(&g)),
            testing_util::CoarsestStablePartition(g));
}

TEST(OneIndexTest, MatchesSplitterOracleOnXmarkGraph) {
  XmarkOptions options;
  options.scale = 0.1;
  DataGraph g = GenerateXmarkGraph(options).graph;
  IndexGraph index = OneIndex::Build(&g);
  EXPECT_EQ(PartitionOf(index), testing_util::CoarsestStablePartition(g));
  EXPECT_LT(index.NumIndexNodes(), g.NumNodes());  // a real summary
}

TEST(OneIndexTest, TrivialGraphs) {
  DataGraph g;  // just ROOT
  EXPECT_EQ(OneIndex::Build(&g).NumIndexNodes(), 1);

  NodeId a = g.AddNode("a");
  NodeId b = g.AddNode("a");
  g.AddEdge(g.root(), a);
  g.AddEdge(g.root(), b);
  IndexGraph index = OneIndex::Build(&g);
  EXPECT_EQ(index.NumIndexNodes(), 2);  // ROOT and the bisimilar {a, a}
  EXPECT_EQ(index.index_of(a), index.index_of(b));
}

TEST(OneIndexTest, DistinguishesByParentLabel) {
  // The paper's movie example: a movie with an actor parent is not bisimilar
  // to a movie without one.
  DataGraph g = testing_util::BuildMovieGraph();
  IndexGraph index = OneIndex::Build(&g);
  LabelId movie = g.labels().Find("movie");
  LabelId actor = g.labels().Find("actor");
  EXPECT_GT(index.NodesWithLabel(movie).size(), 1u);
  // Within an index node, "has an actor parent" must be uniform.
  std::unordered_map<IndexNodeId, bool> has_actor_parent;
  for (NodeId n : g.NodesWithLabel(movie)) {
    bool has = false;
    for (NodeId parent : g.parents(n)) has |= g.label(parent) == actor;
    auto [it, inserted] = has_actor_parent.emplace(index.index_of(n), has);
    EXPECT_EQ(it->second, has);
  }
}

TEST(OneIndexTest, StabilityHolds) {
  Rng rng(31);
  DataGraph g = testing_util::RandomGraph(80, 4, 20, &rng);
  IndexGraph index = OneIndex::Build(&g);
  // For every pair of index nodes (A, B): B ⊆ Succ(A) or B ∩ Succ(A) = ∅.
  for (IndexNodeId a = 0; a < index.NumIndexNodes(); ++a) {
    std::set<NodeId> succ;
    for (NodeId u : index.extent(a)) {
      for (NodeId v : g.children(u)) succ.insert(v);
    }
    for (IndexNodeId b = 0; b < index.NumIndexNodes(); ++b) {
      size_t inside = 0;
      for (NodeId v : index.extent(b)) inside += succ.count(v);
      EXPECT_TRUE(inside == 0 || inside == index.extent(b).size())
          << "index node " << b << " unstable w.r.t. index node " << a;
    }
  }
}

TEST(OneIndexTest, InfiniteLocalSimilarity) {
  DataGraph g = testing_util::BuildMovieGraph();
  IndexGraph index = OneIndex::Build(&g);
  for (IndexNodeId i = 0; i < index.NumIndexNodes(); ++i) {
    EXPECT_EQ(index.k(i), IndexGraph::kInfiniteSimilarity);
  }
  std::string error;
  EXPECT_TRUE(index.ValidatePartition(&error)) << error;
  EXPECT_TRUE(index.ValidateEdges(&error)) << error;
  EXPECT_TRUE(index.ValidateDkConstraint(&error)) << error;
}

TEST(OneIndexTest, SoundAndSafeForAnyQuery) {
  // The 1-index answers any path expression exactly, with no validation.
  Rng rng(23);
  DataGraph g = testing_util::RandomGraph(150, 5, 30, &rng);
  IndexGraph index = OneIndex::Build(&g);
  for (int i = 0; i < 20; ++i) {
    int len = static_cast<int>(rng.UniformInt(1, 5));
    std::string text = testing_util::RandomChainQuery(g, len, &rng);
    PathExpression q = testing_util::MustParse(text, g.labels());
    EvalStats truth_stats, index_stats;
    auto truth = EvaluateOnDataGraph(g, q, &truth_stats);
    auto result = EvaluateOnIndex(index, q, &index_stats);
    EXPECT_EQ(result, truth) << text;
    EXPECT_EQ(index_stats.data_nodes_visited, 0) << text;
    EXPECT_EQ(index_stats.uncertain_index_nodes, 0) << text;
  }
}

TEST(OneIndexTest, NeverLargerThanDataGraph) {
  Rng rng(29);
  DataGraph g = testing_util::RandomGraph(200, 3, 50, &rng);
  IndexGraph index = OneIndex::Build(&g);
  EXPECT_LE(index.NumIndexNodes(), g.NumNodes());
}

}  // namespace
}  // namespace dki
