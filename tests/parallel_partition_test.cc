// Sequential-vs-parallel engine equivalence. The parallel engine's
// chunk-ordered reduction reproduces the sequential first-appearance
// numbering exactly, so these tests compare partitions with == across
// thread and chunk counts, through RefineOnce and through the one round
// loop, BuildDkPartition.

#include "index/parallel_refine.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "datagen/nasa_generator.h"
#include "datagen/xmark_generator.h"
#include "index/ak_index.h"
#include "index/dk_index.h"
#include "index/one_index.h"
#include "index/partition.h"
#include "tests/splitter_oracle.h"
#include "tests/test_util.h"

namespace dki {
namespace {

// Thread counts to sweep; deliberately includes more lanes than this
// container has cores and a 1-lane pool (the inline path).
const int kThreadCounts[] = {1, 2, 3, 4, 8};

TEST(ParallelPartitionTest, RefineOnceMatchesSequentialOnRandomGraphs) {
  Rng rng(20030609);
  for (int trial = 0; trial < 10; ++trial) {
    DataGraph g = testing_util::RandomGraph(300 + trial * 50, 6, 80, &rng);
    Partition p = LabelSplit(g);
    std::vector<bool> all(static_cast<size_t>(p.num_blocks), true);
    Partition seq = RefineOnce(g, p, all);
    for (int threads : kThreadCounts) {
      ThreadPool pool(threads);
      EXPECT_EQ(seq, ParallelRefineOnce(g, p, all, pool));
    }
  }
}

TEST(ParallelPartitionTest, RefineOnceRespectsRefineMask) {
  Rng rng(7);
  DataGraph g = testing_util::RandomGraph(500, 5, 120, &rng);
  Partition p = testing_util::UniformPartition(g, 1);
  // Refine only every other block; untouched blocks must survive verbatim.
  std::vector<bool> mask(static_cast<size_t>(p.num_blocks), false);
  for (size_t b = 0; b < mask.size(); b += 2) mask[b] = true;
  Partition seq = RefineOnce(g, p, mask);
  ThreadPool pool(4);
  EXPECT_EQ(seq, ParallelRefineOnce(g, p, mask, pool));
}

TEST(ParallelPartitionTest, KBisimulationMatchesAcrossThreadCounts) {
  Rng rng(99);
  DataGraph g = testing_util::RandomGraph(400, 8, 100, &rng);
  for (int k : {0, 1, 2, 3, 5}) {
    Partition seq = testing_util::UniformPartition(g, k);
    for (int threads : kThreadCounts) {
      ThreadPool pool(threads);
      EXPECT_EQ(seq, testing_util::UniformPartition(g, k, &pool));
    }
  }
}

TEST(ParallelPartitionTest, FullBisimulationMatchesSequentialAndSplitter) {
  Rng rng(1234);
  DataGraph g = testing_util::RandomGraph(600, 6, 150, &rng);
  const int kInf = IndexGraph::kInfiniteSimilarity;
  Partition seq = testing_util::UniformPartition(g, kInf);
  ThreadPool pool(4);
  EXPECT_EQ(seq, testing_util::UniformPartition(g, kInf, &pool));
  EXPECT_EQ(seq, testing_util::CoarsestStablePartition(g));
}

TEST(ParallelPartitionTest, DkPartitionMatchesOnXmarkSeed) {
  XmarkOptions options;
  options.scale = 0.3;
  DataGraph g = GenerateXmarkGraph(options).graph;
  std::vector<int> req(static_cast<size_t>(g.labels().size()), 0);
  // A mixed requirement profile exercising the per-round refine mask.
  for (size_t l = 0; l < req.size(); ++l) req[l] = static_cast<int>(l % 4);
  req = BroadcastLabelRequirements(
      ComputeLabelParents(g, g.labels().size()), std::move(req));

  std::vector<int> seq_k;
  Partition seq = BuildDkPartition(g, req, &seq_k);
  for (int threads : {2, 4}) {
    ThreadPool pool(threads);
    std::vector<int> par_k;
    EXPECT_EQ(seq, BuildDkPartition(g, req, &par_k, &pool));
    EXPECT_EQ(seq_k, par_k);
  }
}

TEST(ParallelPartitionTest, DkPartitionMatchesOnNasaSeed) {
  NasaOptions options;
  options.scale = 0.3;
  DataGraph g = GenerateNasaGraph(options).graph;
  std::vector<int> req(static_cast<size_t>(g.labels().size()), 0);
  for (size_t l = 0; l < req.size(); ++l) req[l] = static_cast<int>(l % 5);
  req = BroadcastLabelRequirements(
      ComputeLabelParents(g, g.labels().size()), std::move(req));

  std::vector<int> seq_k;
  Partition seq = BuildDkPartition(g, req, &seq_k);
  ThreadPool pool(4);
  std::vector<int> par_k;
  EXPECT_EQ(seq, BuildDkPartition(g, req, &par_k, &pool));
  EXPECT_EQ(seq_k, par_k);
}

// End-to-end: the BuildOptions knob produces identical indexes through the
// public constructors.

TEST(ParallelPartitionTest, DkIndexBuildIdenticalWithThreads) {
  XmarkOptions options;
  options.scale = 0.2;
  DataGraph g1 = GenerateXmarkGraph(options).graph;
  DataGraph g2 = g1;
  LabelRequirements reqs;
  for (LabelId l = 0; l < g1.labels().size(); l += 3) reqs[l] = 3;

  DkIndex seq = DkIndex::Build(&g1, reqs, BuildOptions{.num_threads = 1});
  DkIndex par = DkIndex::Build(&g2, reqs, BuildOptions{.num_threads = 4});
  ASSERT_EQ(seq.index().NumIndexNodes(), par.index().NumIndexNodes());
  EXPECT_EQ(seq.index().NumIndexEdges(), par.index().NumIndexEdges());
  for (NodeId n = 0; n < g1.NumNodes(); ++n) {
    ASSERT_EQ(seq.index().index_of(n), par.index().index_of(n)) << n;
  }
  for (IndexNodeId i = 0; i < seq.index().NumIndexNodes(); ++i) {
    EXPECT_EQ(seq.index().k(i), par.index().k(i));
  }
}

TEST(ParallelPartitionTest, AkIndexBuildIdenticalWithThreads) {
  Rng rng(555);
  DataGraph g1 = testing_util::RandomGraph(800, 7, 200, &rng);
  DataGraph g2 = g1;
  AkIndex seq = AkIndex::Build(&g1, 3, BuildOptions{.num_threads = 1});
  AkIndex par = AkIndex::Build(&g2, 3, BuildOptions{.num_threads = 8});
  ASSERT_EQ(seq.index().NumIndexNodes(), par.index().NumIndexNodes());
  for (NodeId n = 0; n < g1.NumNodes(); ++n) {
    ASSERT_EQ(seq.index().index_of(n), par.index().index_of(n)) << n;
  }
}

TEST(ParallelPartitionTest, OneIndexLoopIdenticalWithThreads) {
  // OneIndex::Build runs the sequential loop; the loop with a pool hands
  // FromPartition the identical 1-index partition.
  Rng rng(777);
  DataGraph g = testing_util::RandomGraph(700, 5, 180, &rng);
  IndexGraph seq = OneIndex::Build(&g);
  ThreadPool pool(4);
  Partition par =
      testing_util::UniformPartition(g, IndexGraph::kInfiniteSimilarity, &pool);
  ASSERT_EQ(seq.NumIndexNodes(), par.num_blocks);
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    ASSERT_EQ(seq.index_of(n), par.block_of[static_cast<size_t>(n)]) << n;
  }
}

TEST(ParallelPartitionTest, BuildOptionsZeroResolvesFromEnvironment) {
  // num_threads = 0 (the default) defers to DKI_NUM_THREADS (the CI forcing
  // knob), else hardware concurrency.
  const char* saved = std::getenv("DKI_NUM_THREADS");
  std::string saved_value = saved != nullptr ? saved : "";

  BuildOptions options;
  options.num_threads = 5;  // explicit count wins over the environment
  ::setenv("DKI_NUM_THREADS", "3", 1);
  EXPECT_EQ(options.ResolvedNumThreads(), 5);

  options.num_threads = 0;
  EXPECT_EQ(options.ResolvedNumThreads(), 3);
  ::setenv("DKI_NUM_THREADS", "not-a-number", 1);
  EXPECT_EQ(options.ResolvedNumThreads(), ThreadPool::HardwareConcurrency());
  ::unsetenv("DKI_NUM_THREADS");
  EXPECT_EQ(options.ResolvedNumThreads(), ThreadPool::HardwareConcurrency());

  if (saved != nullptr) {
    ::setenv("DKI_NUM_THREADS", saved_value.c_str(), 1);
  }
}

}  // namespace
}  // namespace dki
