// Edge removal and subtree compaction — the "other update operations" the
// paper says are built from the two basic cases (Section 5).

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "graph/graph_algos.h"
#include "index/dk_index.h"
#include "query/evaluator.h"
#include "query/load_analyzer.h"
#include "serve/apply.h"
#include "tests/test_util.h"

namespace dki {
namespace {

TEST(RemoveEdgeTest, GraphRemoveEdge) {
  DataGraph g;
  NodeId a = g.AddNode("a");
  NodeId b = g.AddNode("b");
  g.AddEdge(g.root(), a);
  g.AddEdge(a, b);
  EXPECT_TRUE(g.RemoveEdge(a, b));
  EXPECT_FALSE(g.HasEdge(a, b));
  EXPECT_EQ(g.NumEdges(), 1);
  EXPECT_TRUE(g.parents(b).empty());
  EXPECT_FALSE(g.RemoveEdge(a, b));  // already gone
}

TEST(RemoveEdgeTest, IndexStaysConsistentAndExact) {
  Rng rng(601);
  for (int trial = 0; trial < 5; ++trial) {
    DataGraph g = testing_util::RandomGraph(100, 4, 30, &rng);
    LabelRequirements reqs;
    reqs[static_cast<LabelId>(rng.UniformInt(2, g.labels().size() - 1))] = 3;
    DkIndex dk = DkIndex::Build(&g, reqs);

    // Remove a handful of existing edges (but keep reachability intact by
    // only removing edges whose target has another parent).
    int removed = 0;
    for (int attempts = 0; attempts < 200 && removed < 8; ++attempts) {
      NodeId v = static_cast<NodeId>(rng.UniformInt(1, g.NumNodes() - 1));
      if (g.parents(v).size() < 2) continue;
      NodeId u = g.parents(v)[0];
      ASSERT_TRUE(dk.RemoveEdge(u, v));
      ++removed;
      std::string error;
      ASSERT_TRUE(dk.index().ValidatePartition(&error)) << error;
      ASSERT_TRUE(dk.index().ValidateEdges(&error)) << error;
      ASSERT_TRUE(dk.index().ValidateDkConstraint(&error)) << error;
    }
    ASSERT_GT(removed, 0);

    for (int i = 0; i < 15; ++i) {
      int len = static_cast<int>(rng.UniformInt(1, 4));
      std::string text = testing_util::RandomChainQuery(g, len, &rng);
      PathExpression q = testing_util::MustParse(text, g.labels());
      EXPECT_EQ(EvaluateOnIndex(dk.index(), q), EvaluateOnDataGraph(g, q))
          << text;
    }
  }
}

TEST(RemoveEdgeTest, RedundantParentKeepsSimilarity) {
  // b has two parents with identical upstream label paths; removing one of
  // the edges changes nothing about b's label paths, so the removal-time
  // recomputation must keep k(b) instead of demoting it to 0 (which the old
  // unconditional demotion did, degrading every query through b to
  // validation until the next promotion).
  DataGraph g;
  NodeId a1 = g.AddNode("a");
  NodeId a2 = g.AddNode("a");
  NodeId b = g.AddNode("b");
  NodeId c = g.AddNode("c");
  g.AddEdge(g.root(), a1);
  g.AddEdge(g.root(), a2);
  g.AddEdge(a1, b);
  g.AddEdge(a2, b);
  g.AddEdge(b, c);

  LabelRequirements reqs;
  reqs[g.labels().Find("c")] = 3;
  DkIndex dk = DkIndex::Build(&g, reqs);
  int k_before = dk.index().k(dk.index().index_of(b));
  ASSERT_GE(k_before, 2);

  ASSERT_TRUE(dk.RemoveEdge(a1, b));
  EXPECT_EQ(dk.index().k(dk.index().index_of(b)), k_before);
  std::string error;
  ASSERT_TRUE(dk.index().ValidateDkConstraint(&error)) << error;

  // The surviving similarity keeps the query certain — no validation pass.
  PathExpression q = testing_util::MustParse("a.b.c", g.labels());
  EvalStats stats;
  EXPECT_EQ(EvaluateOnIndex(dk.index(), q, &stats),
            EvaluateOnDataGraph(g, q));
  EXPECT_EQ(stats.uncertain_index_nodes, 0);
}

TEST(RemoveEdgeTest, MatchesFreshBuildAfterRemovals) {
  Rng rng(613);
  for (int trial = 0; trial < 3; ++trial) {
    DataGraph g = testing_util::RandomGraph(120, 4, 25, &rng);
    LabelRequirements reqs;
    reqs[static_cast<LabelId>(rng.UniformInt(2, g.labels().size() - 1))] = 3;
    DkIndex dk = DkIndex::Build(&g, reqs);

    int removed = 0;
    for (int attempts = 0; attempts < 300 && removed < 10; ++attempts) {
      NodeId v = static_cast<NodeId>(rng.UniformInt(1, g.NumNodes() - 1));
      if (g.parents(v).size() < 2) continue;
      NodeId u = g.parents(v)[0];
      ASSERT_TRUE(dk.RemoveEdge(u, v));
      ++removed;
    }
    ASSERT_GT(removed, 0);

    // A fresh build of the mutated graph assigns every node the effective
    // requirement of its label; the incremental index only ever demotes
    // below that, so per data node its k is bounded by the fresh one.
    DkIndex fresh = DkIndex::Build(&g, reqs);
    for (NodeId n = 0; n < g.NumNodes(); ++n) {
      EXPECT_LE(dk.index().k(dk.index().index_of(n)),
                fresh.index().k(fresh.index().index_of(n)))
          << "node " << n << " trial " << trial;
    }

    // And both serve identical (exact) answers.
    for (int i = 0; i < 12; ++i) {
      int len = static_cast<int>(rng.UniformInt(1, 4));
      std::string text = testing_util::RandomChainQuery(g, len, &rng);
      PathExpression q = testing_util::MustParse(text, g.labels());
      auto ground_truth = EvaluateOnDataGraph(g, q);
      EXPECT_EQ(EvaluateOnIndex(dk.index(), q), ground_truth) << text;
      EXPECT_EQ(EvaluateOnIndex(fresh.index(), q), ground_truth) << text;
    }
  }
}

TEST(RemoveEdgeTest, RemovingUnknownEdgeIsNoOp) {
  DataGraph g = testing_util::BuildMovieGraph();
  LabelRequirements reqs;
  reqs[g.labels().Find("title")] = 2;
  DkIndex dk = DkIndex::Build(&g, reqs);
  int64_t size = dk.index().NumIndexNodes();
  EXPECT_FALSE(dk.RemoveEdge(1, 1));
  EXPECT_EQ(dk.index().NumIndexNodes(), size);
}

TEST(RemoveEdgeTest, SimilarityRecoverableByRetune) {
  DataGraph g = testing_util::BuildMovieGraph();
  LabelId title = g.labels().Find("title");
  LabelRequirements reqs;
  reqs[title] = 2;
  DkIndex dk = DkIndex::Build(&g, reqs);

  // Remove the reference edge (actor -> shared movie) and re-add it.
  LabelId actor = g.labels().Find("actor");
  NodeId shared_movie = kInvalidNode, ref_actor = kInvalidNode;
  for (NodeId m : g.NodesWithLabel(g.labels().Find("movie"))) {
    for (NodeId p : g.parents(m)) {
      if (g.label(p) == actor && g.children(p).size() >= 2) {
        shared_movie = m;
        ref_actor = p;
      }
    }
  }
  ASSERT_NE(shared_movie, kInvalidNode);
  ASSERT_TRUE(dk.RemoveEdge(ref_actor, shared_movie));
  EXPECT_EQ(dk.index().k(dk.index().index_of(shared_movie)), 0);

  ASSERT_TRUE(
      ApplyUpdateOp(&dk, UpdateOp::Retune({{title, 2}}, /*shrink=*/false)));
  PathExpression q =
      testing_util::MustParse("director.movie.title", g.labels());
  EvalStats stats;
  EXPECT_EQ(EvaluateOnIndex(dk.index(), q, &stats),
            EvaluateOnDataGraph(g, q));
  EXPECT_EQ(stats.uncertain_index_nodes, 0);
}

TEST(CompactTest, DropsUnreachableSubtree) {
  DataGraph g;
  NodeId a = g.AddNode("a");
  NodeId b = g.AddNode("b");
  NodeId c = g.AddNode("c");
  NodeId d = g.AddNode("d");
  g.AddEdge(g.root(), a);
  g.AddEdge(a, b);
  g.AddEdge(g.root(), c);
  g.AddEdge(c, d);

  // Detach the c subtree (document deletion), then compact.
  g.RemoveEdge(g.root(), c);
  std::vector<NodeId> mapping;
  DataGraph compact = CompactReachable(g, &mapping);
  EXPECT_EQ(compact.NumNodes(), 3);  // ROOT, a, b
  EXPECT_EQ(mapping[static_cast<size_t>(c)], kInvalidNode);
  EXPECT_EQ(mapping[static_cast<size_t>(d)], kInvalidNode);
  EXPECT_EQ(compact.label_name(mapping[static_cast<size_t>(b)]), "b");
  EXPECT_TRUE(AllReachableFromRoot(compact));
}

TEST(CompactTest, PreservesSharedNodesAndQueries) {
  Rng rng(607);
  DataGraph g = testing_util::RandomGraph(150, 4, 30, &rng);
  // Detach one of the root's subtrees (document deletion). Cross references
  // may keep parts of it alive; the rest is dropped by compaction.
  ASSERT_GE(g.children(g.root()).size(), 2u);
  g.RemoveEdge(g.root(), g.children(g.root())[0]);
  std::vector<NodeId> mapping;
  DataGraph compact = CompactReachable(g, &mapping);
  ASSERT_LE(compact.NumNodes(), g.NumNodes());
  ASSERT_TRUE(AllReachableFromRoot(compact));

  // The compacted graph's answers are contained in the original's answers
  // (mapped): compaction only removes nodes and edges. Paths through the
  // dropped region may make the original match more surviving nodes.
  for (int i = 0; i < 10; ++i) {
    std::string text = testing_util::RandomChainQuery(compact, 3, &rng);
    PathExpression q_compact = testing_util::MustParse(text, compact.labels());
    auto compact_result = EvaluateOnDataGraph(compact, q_compact);
    PathExpression q_orig = testing_util::MustParse(text, g.labels());
    std::vector<NodeId> mapped;
    for (NodeId n : EvaluateOnDataGraph(g, q_orig)) {
      if (mapping[static_cast<size_t>(n)] != kInvalidNode) {
        mapped.push_back(mapping[static_cast<size_t>(n)]);
      }
    }
    std::sort(mapped.begin(), mapped.end());
    for (NodeId n : compact_result) {
      EXPECT_TRUE(std::binary_search(mapped.begin(), mapped.end(), n))
          << text;
    }
  }
}

}  // namespace
}  // namespace dki
