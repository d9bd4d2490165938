// Tests of the splitter-queue oracle (tests/splitter_oracle.h) on its own:
// the other suites trust it as the independent 1-index, so its answers are
// checked here against the definition (label-homogeneous, stable) and
// against plain RefineOnce iterated on every block until nothing splits.

#include "tests/splitter_oracle.h"

#include <gtest/gtest.h>

#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "datagen/xmark_generator.h"
#include "index/partition.h"
#include "tests/test_util.h"

namespace dki {
namespace {

using testing_util::CoarsestStablePartition;

// The full-bisimulation fixpoint by the textbook loop: refine every block
// each round until a round splits nothing.
Partition IteratedRefinementFixpoint(const DataGraph& g) {
  Partition p = LabelSplit(g);
  while (true) {
    Partition next = RefineOnce(
        g, p, std::vector<bool>(static_cast<size_t>(p.num_blocks), true));
    if (next.num_blocks == p.num_blocks) return next;
    p = std::move(next);
  }
}

TEST(PaigeTarjanTest, TrivialGraphs) {
  DataGraph g;  // just ROOT
  Partition p = CoarsestStablePartition(g);
  EXPECT_EQ(p.num_blocks, 1);

  NodeId a = g.AddNode("a");
  NodeId b = g.AddNode("a");
  g.AddEdge(g.root(), a);
  g.AddEdge(g.root(), b);
  p = CoarsestStablePartition(g);
  EXPECT_EQ(p.num_blocks, 2);  // ROOT block and the bisimilar {a, a} block
  EXPECT_EQ(p.block_of[static_cast<size_t>(a)],
            p.block_of[static_cast<size_t>(b)]);
}

TEST(PaigeTarjanTest, DistinguishesByParentLabel) {
  // The paper's movie example: a movie with an actor parent is not bisimilar
  // to a movie without one.
  DataGraph g = testing_util::BuildMovieGraph();
  Partition p = CoarsestStablePartition(g);
  LabelId movie = g.labels().Find("movie");
  LabelId actor = g.labels().Find("actor");
  std::set<int32_t> movie_blocks;
  for (NodeId n : g.NodesWithLabel(movie)) {
    movie_blocks.insert(p.block_of[static_cast<size_t>(n)]);
  }
  EXPECT_GT(movie_blocks.size(), 1u);
  // Within a block, the "has an actor parent" property must be uniform.
  std::unordered_map<int32_t, bool> has_actor_parent;
  for (NodeId n : g.NodesWithLabel(movie)) {
    bool has = false;
    for (NodeId parent : g.parents(n)) has |= g.label(parent) == actor;
    auto [it, inserted] =
        has_actor_parent.emplace(p.block_of[static_cast<size_t>(n)], has);
    EXPECT_EQ(it->second, has);
  }
}

TEST(PaigeTarjanTest, AgreesWithIteratedRefinementOnRandomGraphs) {
  Rng rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    DataGraph g = testing_util::RandomGraph(
        60 + trial * 10, 3 + trial % 4, 10 + trial * 3, &rng);
    EXPECT_EQ(CoarsestStablePartition(g), IteratedRefinementFixpoint(g))
        << "trial " << trial;
  }
}

TEST(PaigeTarjanTest, AgreesOnCyclicGraph) {
  DataGraph g;
  NodeId a = g.AddNode("a");
  NodeId b = g.AddNode("b");
  NodeId c = g.AddNode("a");
  g.AddEdge(g.root(), a);
  g.AddEdge(a, b);
  g.AddEdge(b, c);
  g.AddEdge(c, a);  // cycle a -> b -> a' -> a
  EXPECT_EQ(CoarsestStablePartition(g), IteratedRefinementFixpoint(g));
}

TEST(PaigeTarjanTest, AgreesOnXmarkGraph) {
  XmarkOptions options;
  options.scale = 0.1;
  DataGraph g = GenerateXmarkGraph(options).graph;
  Partition pt = CoarsestStablePartition(g);
  EXPECT_EQ(pt, IteratedRefinementFixpoint(g));
  EXPECT_LT(pt.num_blocks, g.NumNodes());  // a real summary, not identity
}

TEST(PaigeTarjanTest, StabilityHolds) {
  Rng rng(31);
  DataGraph g = testing_util::RandomGraph(80, 4, 20, &rng);
  Partition p = CoarsestStablePartition(g);
  // For every pair of blocks (A, B): B ⊆ Succ(A) or B ∩ Succ(A) = ∅.
  std::vector<std::vector<NodeId>> members(
      static_cast<size_t>(p.num_blocks));
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    members[static_cast<size_t>(p.block_of[static_cast<size_t>(n)])]
        .push_back(n);
  }
  for (int32_t a = 0; a < p.num_blocks; ++a) {
    std::set<NodeId> succ;
    for (NodeId u : members[static_cast<size_t>(a)]) {
      for (NodeId v : g.children(u)) succ.insert(v);
    }
    for (int32_t b = 0; b < p.num_blocks; ++b) {
      size_t inside = 0;
      for (NodeId v : members[static_cast<size_t>(b)]) {
        inside += succ.count(v);
      }
      EXPECT_TRUE(inside == 0 || inside == members[static_cast<size_t>(b)].size())
          << "block " << b << " unstable w.r.t. block " << a;
      EXPECT_EQ(g.label(members[static_cast<size_t>(b)].front()),
                p.block_label[static_cast<size_t>(b)]);
    }
  }
}

}  // namespace
}  // namespace dki
