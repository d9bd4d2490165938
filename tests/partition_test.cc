#include "index/partition.h"

#include <gtest/gtest.h>

#include <set>
#include <unordered_map>

#include "common/random.h"
#include "graph/graph_algos.h"
#include "tests/splitter_oracle.h"
#include "tests/test_util.h"

namespace dki {
namespace {

// Reference implementation of k-bisimilarity, straight from Definition 2:
// a boolean matrix per level. O(k * n^2 * deg^2) — small graphs only.
std::vector<std::vector<bool>> ReferenceKBisim(const DataGraph& g, int k) {
  const size_t n = static_cast<size_t>(g.NumNodes());
  std::vector<std::vector<bool>> eq(n, std::vector<bool>(n, false));
  for (size_t u = 0; u < n; ++u) {
    for (size_t v = 0; v < n; ++v) {
      eq[u][v] = g.label(static_cast<NodeId>(u)) ==
                 g.label(static_cast<NodeId>(v));
    }
  }
  for (int level = 1; level <= k; ++level) {
    std::vector<std::vector<bool>> next(n, std::vector<bool>(n, false));
    for (size_t u = 0; u < n; ++u) {
      for (size_t v = 0; v < n; ++v) {
        if (!eq[u][v]) continue;
        auto covered = [&](NodeId x, const std::vector<NodeId>& others) {
          for (NodeId y : others) {
            if (eq[static_cast<size_t>(x)][static_cast<size_t>(y)]) {
              return true;
            }
          }
          return others.empty() ? false : false;
        };
        bool ok = true;
        for (NodeId up : g.parents(static_cast<NodeId>(u))) {
          if (!covered(up, g.parents(static_cast<NodeId>(v)))) {
            ok = false;
            break;
          }
        }
        if (ok) {
          for (NodeId vp : g.parents(static_cast<NodeId>(v))) {
            if (!covered(vp, g.parents(static_cast<NodeId>(u)))) {
              ok = false;
              break;
            }
          }
        }
        next[u][v] = ok;
      }
    }
    eq = std::move(next);
  }
  return eq;
}

void ExpectPartitionMatchesRelation(
    const DataGraph& g, const Partition& p,
    const std::vector<std::vector<bool>>& eq) {
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      bool same_block = p.block_of[static_cast<size_t>(u)] ==
                        p.block_of[static_cast<size_t>(v)];
      EXPECT_EQ(same_block, eq[static_cast<size_t>(u)][static_cast<size_t>(v)])
          << "nodes " << u << " and " << v;
    }
  }
}

TEST(PartitionTest, LabelSplitGroupsByLabel) {
  DataGraph g = testing_util::BuildMovieGraph();
  Partition p = LabelSplit(g);
  EXPECT_EQ(p.num_blocks, g.labels().size());  // every label occurs
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    EXPECT_EQ(p.block_label[static_cast<size_t>(
                  p.block_of[static_cast<size_t>(u)])],
              g.label(u));
  }
}

TEST(PartitionTest, KBisimulationMatchesReferenceOnMovieGraph) {
  DataGraph g = testing_util::BuildMovieGraph();
  for (int k = 0; k <= 4; ++k) {
    Partition p = testing_util::UniformPartition(g, k);
    ExpectPartitionMatchesRelation(g, p, ReferenceKBisim(g, k));
  }
}

TEST(PartitionTest, KBisimulationMatchesReferenceOnRandomGraphs) {
  Rng rng(123);
  for (int trial = 0; trial < 10; ++trial) {
    DataGraph g = testing_util::RandomGraph(30, 4, 8, &rng);
    for (int k = 0; k <= 3; ++k) {
      Partition p = testing_util::UniformPartition(g, k);
      ExpectPartitionMatchesRelation(g, p, ReferenceKBisim(g, k));
    }
  }
}

TEST(PartitionTest, RefinementIsMonotone) {
  Rng rng(5);
  DataGraph g = testing_util::RandomGraph(100, 5, 20, &rng);
  Partition prev = LabelSplit(g);
  for (int k = 1; k <= 5; ++k) {
    Partition next = testing_util::UniformPartition(g, k);
    EXPECT_GE(next.num_blocks, prev.num_blocks);
    // next refines prev: same next-block implies same prev-block.
    std::unordered_map<int32_t, int32_t> mapping;
    for (NodeId u = 0; u < g.NumNodes(); ++u) {
      auto [it, inserted] = mapping.emplace(
          next.block_of[static_cast<size_t>(u)],
          prev.block_of[static_cast<size_t>(u)]);
      EXPECT_EQ(it->second, prev.block_of[static_cast<size_t>(u)]);
    }
    prev = std::move(next);
  }
}

TEST(PartitionTest, SelectiveRefinementLeavesOtherBlocksAlone) {
  Rng rng(9);
  DataGraph g = testing_util::RandomGraph(60, 4, 10, &rng);
  Partition p0 = LabelSplit(g);
  std::vector<bool> refine(static_cast<size_t>(p0.num_blocks), false);
  refine[0] = true;  // only the first block
  Partition p1 = RefineOnce(g, p0, refine);
  // Every block except possibly block 0 survives intact.
  std::unordered_map<int32_t, std::set<int32_t>> images;
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    images[p0.block_of[static_cast<size_t>(u)]].insert(
        p1.block_of[static_cast<size_t>(u)]);
  }
  for (const auto& [old_block, new_blocks] : images) {
    if (old_block != 0) {
      EXPECT_EQ(new_blocks.size(), 1u) << "block " << old_block << " split";
    }
  }
}

TEST(PartitionTest, FullBisimulationIsFixpoint) {
  Rng rng(11);
  DataGraph g = testing_util::RandomGraph(80, 4, 15, &rng);
  Partition p =
      testing_util::UniformPartition(g, IndexGraph::kInfiniteSimilarity);
  EXPECT_GT(p.num_blocks, LabelSplit(g).num_blocks);
  // One more round splits nothing and, both being numbered in
  // first-appearance order, reproduces the partition as a value.
  std::vector<bool> all(static_cast<size_t>(p.num_blocks), true);
  EXPECT_EQ(RefineOnce(g, p, all), p);
}

TEST(PartitionTest, RenumberByFirstAppearanceKeepsGroupsAndLabels) {
  Partition p{{2, 2, 0, 1, 0}, 3, {7, 8, 9}};
  RenumberByFirstAppearance(&p);
  EXPECT_EQ(p, (Partition{{0, 0, 1, 2, 1}, 3, {9, 7, 8}}));
  RenumberByFirstAppearance(&p);  // already in order: unchanged
  EXPECT_EQ(p, (Partition{{0, 0, 1, 2, 1}, 3, {9, 7, 8}}));
}

// A(k) through the one round loop: k = 0..5 match Definition 2 straight,
// and once k reaches the fixpoint depth A(k) is the 1-index, which the
// test-only splitter oracle computes independently.
TEST(PartitionTest, UniformLoopMatchesDefinitionAndSplitterOracle) {
  Rng rng(4242);
  for (int trial = 0; trial < 6; ++trial) {
    DataGraph g = testing_util::RandomGraph(40, 3 + trial % 3, 12, &rng);
    const Partition one = testing_util::CoarsestStablePartition(g);
    EXPECT_EQ(testing_util::UniformPartition(
                  g, IndexGraph::kInfiniteSimilarity),
              one);
    for (int k = 0; k <= 5; ++k) {
      Partition p = testing_util::UniformPartition(g, k);
      ExpectPartitionMatchesRelation(g, p, ReferenceKBisim(g, k));
      if (p.num_blocks == one.num_blocks) {
        EXPECT_EQ(p, one) << "k " << k;
      }
    }
    EXPECT_EQ(testing_util::UniformPartition(g, g.NumNodes()), one);
  }
}

TEST(PartitionTest, KBisimilarNodesHaveSameShortIncomingPaths) {
  // Property 1 of the A(k)-index: k-bisimilar nodes have identical sets of
  // incoming label paths of length <= k.
  Rng rng(77);
  DataGraph g = testing_util::RandomGraph(50, 3, 12, &rng);
  const int k = 3;
  Partition p = testing_util::UniformPartition(g, k);
  // A path of `len` labels has len-1 edges; the property covers <= k edges.
  for (int len = 1; len <= k + 1; ++len) {
    std::unordered_map<int32_t, std::set<std::vector<LabelId>>> per_block;
    for (NodeId u = 0; u < g.NumNodes(); ++u) {
      auto paths = IncomingLabelPaths(g, u, len, 10000);
      std::set<std::vector<LabelId>> set(paths.begin(), paths.end());
      auto [it, inserted] =
          per_block.emplace(p.block_of[static_cast<size_t>(u)], set);
      if (!inserted) {
        EXPECT_EQ(it->second, set)
            << "path sets of length " << len << " differ within a block";
      }
    }
  }
}

}  // namespace
}  // namespace dki
