// Sharded serving tests (serve/shard_router.h, serve/sharded_server.h):
// partition exactness units, manifest round trips, randomized differential
// runs proving a ShardedQueryServer at N ∈ {1,2,4} serves answers
// bit-identical to one unsharded QueryServer over the same accepted update
// stream, label-based shard pruning, and fork+SIGKILL crash recovery of a
// sharded durability directory back to the per-shard durable prefixes.

#include "serve/sharded_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/random.h"
#include "graph/data_graph.h"
#include "graph/graph_builder.h"
#include "index/dk_index.h"
#include "io/fs_util.h"
#include "query/evaluator.h"
#include "serve/query_server.h"
#include "serve/shard_router.h"
#include "tests/test_util.h"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DKI_UNDER_TSAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define DKI_UNDER_TSAN 1
#endif

namespace dki {
namespace {

// A fresh directory for one test, removed when the test ends.
testing_util::ScopedTempDir FreshDir(const std::string& name) {
  return testing_util::ScopedTempDir(::testing::TempDir() + "dki_sharded_" +
                                     name + "_" +
                                     std::to_string(::getpid()));
}

// A graph the partitioner can actually spread: `subtrees` independent
// subtrees under the root, each with random internal tree edges plus a few
// extra intra-subtree cross edges. No edge ever crosses two subtrees, so
// the router's edge-closure keeps one group per subtree for every shard
// count, and any intra-subtree edge op routes identically at N ∈ {1,2,4}.
// `ranges` receives each subtree's [first, last] global-id range.
DataGraph MakeShardableGraph(int subtrees, int per_subtree, int extra_edges,
                             Rng* rng,
                             std::vector<std::pair<NodeId, NodeId>>* ranges) {
  static const char* kNames[] = {"a", "b", "c", "d", "e"};
  DataGraph g;
  for (int t = 0; t < subtrees; ++t) {
    NodeId first = g.AddNode(kNames[t % 5]);
    g.AddEdge(g.root(), first);
    for (int i = 1; i < per_subtree; ++i) {
      NodeId node = g.AddNode(kNames[rng->UniformInt(0, 4)]);
      NodeId parent = first + static_cast<NodeId>(rng->UniformInt(0, i - 1));
      g.AddEdge(parent, node);
    }
    for (int e = 0; e < extra_edges; ++e) {
      NodeId u = first + static_cast<NodeId>(rng->UniformInt(0, per_subtree - 1));
      NodeId v = first + static_cast<NodeId>(rng->UniformInt(0, per_subtree - 1));
      if (u != v && !g.HasEdge(u, v)) g.AddEdge(u, v);
    }
    if (ranges != nullptr) {
      ranges->push_back({first, first + per_subtree - 1});
    }
  }
  return g;
}

// An intra-subtree add/remove stream: every op's endpoints share a subtree,
// so every router (any shard count) accepts every op. `track` ends up as
// the ground-truth graph after the whole stream.
std::vector<UpdateOp> MakeIntraSubtreeOps(
    const std::vector<std::pair<NodeId, NodeId>>& ranges, int count,
    DataGraph* track, Rng* rng) {
  std::vector<UpdateOp> ops;
  while (static_cast<int>(ops.size()) < count) {
    const auto& range =
        ranges[static_cast<size_t>(rng->UniformInt(0, ranges.size() - 1))];
    NodeId u = static_cast<NodeId>(rng->UniformInt(range.first, range.second));
    NodeId v = static_cast<NodeId>(rng->UniformInt(range.first, range.second));
    if (u == v) continue;
    if (track->HasEdge(u, v)) {
      ops.push_back(UpdateOp::RemoveEdge(u, v));
      track->RemoveEdge(u, v);
    } else {
      ops.push_back(UpdateOp::AddEdge(u, v));
      track->AddEdge(u, v);
    }
  }
  return ops;
}

// ---------------------------------------------------------------------------
// ShardRouter units: partition exactness and the manifest.
// ---------------------------------------------------------------------------

TEST(ShardRouterTest, PartitionCoversNodesEdgesAndLabelsExactly) {
  Rng rng(41001);
  std::vector<std::pair<NodeId, NodeId>> ranges;
  DataGraph g = MakeShardableGraph(8, 24, 6, &rng, &ranges);
  for (int n : {1, 2, 4}) {
    ShardRouter router = ShardRouter::Partition(g, n);
    ASSERT_EQ(router.num_shards(), n);
    int64_t nodes = 1;  // the replicated root counts once
    int64_t edges = 0;
    for (int s = 0; s < n; ++s) {
      const DataGraph& sg = router.shard_graph(s);
      nodes += sg.NumNodes() - 1;
      edges += sg.NumEdges();
      // The full base label table is pre-interned in every shard, so label
      // ids agree across shards.
      EXPECT_EQ(sg.labels().size(), g.labels().size()) << "n=" << n;
      // Every shard edge maps back to a real global edge, and the id maps
      // round-trip.
      for (NodeId lu = 0; lu < sg.NumNodes(); ++lu) {
        NodeId gu = router.ToGlobal(s, lu);
        if (lu != 0) {
          EXPECT_EQ(router.ShardOfNode(gu), s);
          EXPECT_EQ(g.label(gu), sg.label(lu));
        }
        for (NodeId lv : sg.children(lu)) {
          EXPECT_TRUE(g.HasEdge(gu, router.ToGlobal(s, lv)))
              << "n=" << n << " shard=" << s;
        }
      }
    }
    EXPECT_EQ(nodes, g.NumNodes()) << "n=" << n;
    EXPECT_EQ(edges, g.NumEdges()) << "n=" << n;
    EXPECT_EQ(router.ShardOfNode(g.root()), ShardRouter::kAllShards);
    EXPECT_EQ(router.next_global(), g.NumNodes());
  }
}

TEST(ShardRouterTest, EdgeRoutingEnforcesOwnershipAndRootRules) {
  Rng rng(41002);
  std::vector<std::pair<NodeId, NodeId>> ranges;
  DataGraph g = MakeShardableGraph(8, 12, 3, &rng, &ranges);
  ShardRouter router = ShardRouter::Partition(g, 4);

  // Intra-subtree edges route to the subtree's shard with local ids that
  // map back to the same endpoints.
  NodeId u = ranges[0].first;
  NodeId v = ranges[0].first + 3;
  auto route = router.RouteEdge(u, v);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->shard, router.ShardOfNode(u));
  EXPECT_EQ(router.ToGlobal(route->shard, route->u), u);
  EXPECT_EQ(router.ToGlobal(route->shard, route->v), v);

  // Edges FROM the root route to the other endpoint's shard as local 0->v.
  auto from_root = router.RouteEdge(g.root(), v);
  ASSERT_TRUE(from_root.has_value());
  EXPECT_EQ(from_root->shard, router.ShardOfNode(v));
  EXPECT_EQ(from_root->u, 0);

  // Edges INTO the root (self-loops included) are rejected: they would
  // open downward paths through the replicated root across shards.
  EXPECT_FALSE(router.RouteEdge(u, g.root()).has_value());
  EXPECT_FALSE(router.RouteEdge(g.root(), g.root()).has_value());
  // Unknown ids are rejected.
  EXPECT_FALSE(router.RouteEdge(u, g.NumNodes() + 7).has_value());

  // With 8 closed groups on 4 shards some pair of subtrees must live on
  // different shards; their cross edge is rejected.
  bool found_cross = false;
  for (size_t i = 0; i < ranges.size() && !found_cross; ++i) {
    for (size_t j = i + 1; j < ranges.size() && !found_cross; ++j) {
      if (router.ShardOfNode(ranges[i].first) !=
          router.ShardOfNode(ranges[j].first)) {
        EXPECT_FALSE(
            router.RouteEdge(ranges[i].first, ranges[j].first).has_value());
        found_cross = true;
      }
    }
  }
  EXPECT_TRUE(found_cross);
}

TEST(ShardRouterTest, ManifestRoundTripsAndReconcilesLostReservations) {
  Rng rng(41003);
  std::vector<std::pair<NodeId, NodeId>> ranges;
  DataGraph g = MakeShardableGraph(5, 10, 2, &rng, &ranges);
  ShardRouter router = ShardRouter::Partition(g, 3);
  std::vector<int64_t> counts;
  for (int s = 0; s < 3; ++s) {
    counts.push_back(router.shard_graph(s).NumNodes());
  }

  // Reserve ids for a subgraph insert, then save: the manifest must carry
  // the reservation.
  DataGraph h;
  GraphBuilder hb(&h);
  hb.Open("e");
  hb.ValueLeaf("a");
  hb.Close();
  auto reserved = router.RouteSubgraph(h);
  ASSERT_TRUE(reserved.has_value());
  EXPECT_EQ(reserved->first_global, g.NumNodes());
  EXPECT_GT(reserved->new_nodes, 0);

  const auto dir = FreshDir("manifest");
  std::string path = dir + "/router.manifest";
  std::string error;
  ASSERT_TRUE(router.SaveManifest(path, &error)) << error;

  ShardRouter loaded;
  ASSERT_TRUE(ShardRouter::LoadManifest(path, &loaded, &error)) << error;
  EXPECT_EQ(loaded.num_shards(), 3);
  EXPECT_EQ(loaded.next_global(), router.next_global());
  EXPECT_EQ(loaded.base_label_count(), router.base_label_count());
  for (NodeId id = 0; id < g.NumNodes(); ++id) {
    ASSERT_EQ(loaded.ShardOfNode(id), router.ShardOfNode(id)) << id;
  }

  // Reconcile against shard node counts WITHOUT the inserted subgraph (the
  // crash lost that op): the reserved ids become permanent holes and their
  // edge ops are rejected, but every pre-crash id still routes.
  ASSERT_TRUE(loaded.Reconcile(counts, &error)) << error;
  EXPECT_EQ(loaded.ShardOfNode(reserved->first_global), ShardRouter::kHole);
  EXPECT_FALSE(
      loaded.RouteEdge(ranges[0].first, reserved->first_global).has_value());
  auto still = loaded.RouteEdge(ranges[0].first, ranges[0].first + 1);
  EXPECT_TRUE(still.has_value());
  // Holes are never reused: the high-water mark survives reconciliation.
  EXPECT_EQ(loaded.next_global(), router.next_global());
}

TEST(ShardRouterTest, ManifestKeepsLabelsHoldingNewlines) {
  // Manifest v1 wrote one label name per line, so a base label holding
  // '\n' saved fine and then failed to load. v2 length-prefixes names.
  DataGraph g;
  GraphBuilder b(&g);
  b.Open("root");
  b.Open("line\nbreak");
  b.ValueLeaf("x");
  b.Close();
  b.Open("plain");
  b.ValueLeaf("y");
  b.Close();
  b.Close();
  ASSERT_NE(g.labels().Find("line\nbreak"), kInvalidLabel);
  ShardRouter router = ShardRouter::Partition(g, 2);

  const auto dir = FreshDir("manifest_newline");
  const std::string path = dir + "/router.manifest";
  std::string error;
  ASSERT_TRUE(router.SaveManifest(path, &error)) << error;
  ShardRouter loaded;
  ASSERT_TRUE(ShardRouter::LoadManifest(path, &loaded, &error)) << error;
  EXPECT_EQ(loaded.num_shards(), router.num_shards());
  EXPECT_EQ(loaded.next_global(), router.next_global());
  EXPECT_EQ(loaded.base_label_count(), router.base_label_count());
  for (NodeId id = 0; id < g.NumNodes(); ++id) {
    EXPECT_EQ(loaded.ShardOfNode(id), router.ShardOfNode(id)) << id;
  }

  // A v1 manifest is refused by version, not misparsed.
  std::string contents;
  ASSERT_TRUE(ReadFileToString(path, &contents, &error)) << error;
  ASSERT_EQ(contents.rfind("dkrouter v2\n", 0), 0u);
  contents.replace(0, std::string("dkrouter v2").size(), "dkrouter v1");
  ASSERT_TRUE(AtomicWriteFile(path, contents, &error)) << error;
  EXPECT_FALSE(ShardRouter::LoadManifest(path, &loaded, &error));
  EXPECT_NE(error.find("unsupported manifest version"), std::string::npos)
      << error;
}

// ---------------------------------------------------------------------------
// Differential serving: sharded answers are bit-identical to one server.
// ---------------------------------------------------------------------------

TEST(ShardedServeTest, DifferentialBitIdenticalAcrossShardCounts) {
  Rng rng(42001);
  std::vector<std::pair<NodeId, NodeId>> ranges;
  DataGraph original = MakeShardableGraph(8, 24, 6, &rng, &ranges);
  LabelRequirements reqs;
  reqs[original.labels().Find("b")] = 2;

  // The unsharded reference pipeline.
  DataGraph ref_graph = original;
  DkIndex ref_dk = DkIndex::Build(&ref_graph, reqs);
  QueryServer reference(ref_dk);

  std::vector<std::unique_ptr<ShardedQueryServer>> sharded;
  for (int n : {1, 2, 4}) {
    ShardedQueryServer::Options opts;
    opts.num_shards = n;
    sharded.push_back(
        std::make_unique<ShardedQueryServer>(original, reqs, opts));
  }

  // The identical accepted stream goes everywhere.
  DataGraph track = original;
  std::vector<UpdateOp> ops = MakeIntraSubtreeOps(ranges, 60, &track, &rng);
  for (const UpdateOp& op : ops) {
    const bool add = op.kind == UpdateOp::Kind::kAddEdge;
    ASSERT_TRUE(add ? reference.SubmitAddEdge(op.u, op.v)
                    : reference.SubmitRemoveEdge(op.u, op.v));
    for (auto& server : sharded) {
      ASSERT_TRUE(add ? server->SubmitAddEdge(op.u, op.v)
                      : server->SubmitRemoveEdge(op.u, op.v));
    }
  }
  reference.Flush();
  for (auto& server : sharded) server->Flush();

  std::vector<std::string> probes = {"a//c", "b//d", "e//a", "a.b", "d.e.a"};
  for (int i = 0; i < 8; ++i) {
    probes.push_back(testing_util::RandomChainQuery(track, 3, &rng));
  }
  for (const std::string& probe : probes) {
    std::vector<NodeId> truth = EvaluateOnDataGraph(
        track, testing_util::MustParse(probe, track.labels()));
    auto ref_result = reference.Evaluate(probe);
    ASSERT_TRUE(ref_result.has_value()) << probe;
    EXPECT_EQ(*ref_result, truth) << probe;
    for (auto& server : sharded) {
      EvalStats stats;
      auto result = server->Evaluate(probe, &stats);
      ASSERT_TRUE(result.has_value())
          << probe << " n=" << server->num_shards();
      EXPECT_EQ(*result, truth) << probe << " n=" << server->num_shards();
      EXPECT_TRUE(std::is_sorted(result->begin(), result->end())) << probe;
      EXPECT_EQ(stats.result_size, static_cast<int64_t>(truth.size()));
    }
  }

  // A parse failure is nullopt, with a message, on every front door, and
  // no crash without an error pointer.
  EXPECT_FALSE(reference.Evaluate("movie..").has_value());
  EXPECT_FALSE(reference.Evaluate("broken..query").has_value());
  for (auto& server : sharded) {
    EXPECT_FALSE(server->Evaluate("movie..").has_value())
        << " n=" << server->num_shards();
    std::string error;
    EXPECT_FALSE(
        server->Evaluate("broken..query", nullptr, &error).has_value())
        << " n=" << server->num_shards();
    EXPECT_FALSE(error.empty()) << " n=" << server->num_shards();
  }

  // No op was cross-shard, so nothing was rejected anywhere.
  for (auto& server : sharded) {
    EXPECT_EQ(server->stats().cross_shard_rejects, 0);
    EXPECT_EQ(server->stats().aggregate.ops_applied,
              static_cast<int64_t>(ops.size()));
  }

  // Cross-shard edges are rejected at the front door — never enqueued, and
  // answers are untouched.
  ShardedQueryServer& s4 = *sharded[2];
  bool tried_cross = false;
  for (size_t i = 0; i < ranges.size() && !tried_cross; ++i) {
    for (size_t j = i + 1; j < ranges.size() && !tried_cross; ++j) {
      if (s4.router().ShardOfNode(ranges[i].first) !=
          s4.router().ShardOfNode(ranges[j].first)) {
        EXPECT_FALSE(s4.SubmitAddEdge(ranges[i].first, ranges[j].first));
        tried_cross = true;
      }
    }
  }
  ASSERT_TRUE(tried_cross);
  EXPECT_FALSE(s4.SubmitAddEdge(ranges[0].first, original.root()));
  EXPECT_EQ(s4.stats().cross_shard_rejects, 2);
  s4.Flush();
  auto after = s4.Evaluate(probes[0]);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(*after, EvaluateOnDataGraph(track, testing_util::MustParse(
                                                   probes[0], track.labels())));
}

TEST(ShardedServeTest, SubgraphInsertsMatchSingleServerIdsAndAnswers) {
  Rng rng(42002);
  std::vector<std::pair<NodeId, NodeId>> ranges;
  DataGraph original = MakeShardableGraph(4, 12, 3, &rng, &ranges);
  LabelRequirements reqs;
  reqs[original.labels().Find("c")] = 2;

  DataGraph ref_graph = original;
  DkIndex ref_dk = DkIndex::Build(&ref_graph, reqs);
  QueryServer reference(ref_dk);

  ShardedQueryServer::Options opts;
  opts.num_shards = 2;
  ShardedQueryServer server(original, reqs, opts);

  // Insert 1: base labels only — pruning stays on afterwards.
  DataGraph h1;
  {
    GraphBuilder b(&h1);
    b.Open("e");
    b.Open("a");
    b.ValueLeaf("c");
    b.Close();
    b.Close();
  }
  ASSERT_TRUE(reference.SubmitAddSubgraph(h1));
  ASSERT_TRUE(server.SubmitAddSubgraph(std::move(h1)));
  EXPECT_FALSE(server.router().labels_diverged());

  // Insert 2: a NEW label — the shared label universe diverges and every
  // query fans out, still bit-identically.
  DataGraph h2;
  {
    GraphBuilder b(&h2);
    b.Open("zznew");
    b.ValueLeaf("a");
    b.Close();
  }
  ASSERT_TRUE(reference.SubmitAddSubgraph(h2));
  ASSERT_TRUE(server.SubmitAddSubgraph(std::move(h2)));
  reference.Flush();
  server.Flush();
  EXPECT_TRUE(server.router().labels_diverged());

  // Both deployments assigned the same global ids (the router reserves the
  // single server's sequential assignment).
  EXPECT_EQ(server.router().next_global(),
            reference.snapshot()->graph().NumNodes());

  for (const char* probe : {"e.a.c", "zznew", "zznew.a", "a//c", "b//e"}) {
    auto ref_result = reference.Evaluate(probe);
    ASSERT_TRUE(ref_result.has_value()) << probe;
    auto result = server.Evaluate(probe);
    ASSERT_TRUE(result.has_value()) << probe;
    EXPECT_EQ(*result, *ref_result) << probe;
  }
  // Diverged, every shard parses for itself: a malformed text still fails
  // cleanly, with or without an error pointer.
  EXPECT_FALSE(server.Evaluate("movie..").has_value());
  std::string error;
  EXPECT_FALSE(server.Evaluate("movie..", nullptr, &error).has_value());
  EXPECT_FALSE(error.empty());

  // A subgraph with an edge back into its own root is rejected before any
  // reservation: ids are untouched.
  DataGraph h3;
  NodeId x = h3.AddNode("e");
  h3.AddEdge(h3.root(), x);
  h3.AddEdge(x, h3.root());
  NodeId before = server.router().next_global();
  EXPECT_FALSE(server.SubmitAddSubgraph(std::move(h3)));
  EXPECT_EQ(server.router().next_global(), before);
  EXPECT_GT(server.stats().cross_shard_rejects, 0);
}

TEST(ShardedServeTest, RetuneFansOutAndFiltersUnknownLabels) {
  Rng rng(42003);
  std::vector<std::pair<NodeId, NodeId>> ranges;
  DataGraph original = MakeShardableGraph(4, 10, 2, &rng, &ranges);
  LabelRequirements reqs;
  reqs[original.labels().Find("a")] = 1;

  ShardedQueryServer::Options opts;
  opts.num_shards = 2;
  ShardedQueryServer server(original, reqs, opts);

  LabelRequirements targets;
  targets[original.labels().Find("c")] = 3;
  EXPECT_TRUE(server.SubmitRetune(targets));
  server.Flush();
  EXPECT_EQ(server.stats().aggregate.ops_applied, 2);  // one per shard

  // Targets entirely outside the base universe are refused, not applied as
  // an empty (demote-everything) retune.
  LabelRequirements bogus;
  bogus[static_cast<LabelId>(original.labels().size() + 50)] = 2;
  EXPECT_FALSE(server.SubmitRetune(bogus));
  server.Flush();
  EXPECT_EQ(server.stats().aggregate.ops_applied, 2);
}

// Stats::aggregate is the field-wise sum of per_shard, the tuner's fields
// included: each shard records its own misses and retunes itself.
TEST(ShardedServeTest, AggregateStatsSumEveryShardField) {
  Rng rng(42011);
  std::vector<std::pair<NodeId, NodeId>> ranges;
  DataGraph original = MakeShardableGraph(4, 10, 2, &rng, &ranges);
  ShardedQueryServer::Options opts;
  opts.num_shards = 2;
  opts.server.cache_byte_budget = 1;  // stores nothing: every query misses
  opts.server.tuning.period_ms = 2;
  opts.server.tuning.min_misses = 8;
  ShardedQueryServer server(original, {}, opts);
  // Wildcard starts prune no shard, so every shard sees every miss.
  const std::vector<std::string> texts = {"_.a.b", "_.b.c", "_.c.d",
                                          "_.d.e"};
  auto every_shard_retuned = [&] {
    for (const QueryServer::Stats& ps : server.stats().per_shard) {
      if (ps.auto_retunes == 0) return false;
    }
    return true;
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!every_shard_retuned()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    for (const std::string& text : texts) {
      ASSERT_TRUE(server.Evaluate(text).has_value()) << text;
    }
  }
  server.Stop();

  const ShardedQueryServer::Stats st = server.stats();
  ASSERT_EQ(st.per_shard.size(), 2u);
  using S = QueryServer::Stats;
  int index = 0;  // the field's position in the list, for failures
  for (int64_t S::*field :
       {&S::ops_accepted, &S::ops_rejected, &S::ops_rejected_full,
        &S::ops_rejected_closed, &S::ops_applied, &S::ops_invalid,
        &S::ops_logged, &S::ops_coalesced, &S::batches, &S::publishes,
        &S::checkpoints, &S::auto_retunes, &S::tuner_recorded_misses,
        &S::tuner_dropped_misses, &S::tuner_last_index_nodes}) {
    int64_t sum = 0;
    for (const S& ps : st.per_shard) sum += ps.*field;
    EXPECT_EQ(st.aggregate.*field, sum) << "field #" << index;
    ++index;
  }
  const S& agg = st.aggregate;
  EXPECT_GE(agg.auto_retunes, 2);
  EXPECT_GT(agg.tuner_recorded_misses, 0);
  EXPECT_GT(agg.tuner_last_index_nodes, 0);
}

// ---------------------------------------------------------------------------
// Label-based shard pruning.
// ---------------------------------------------------------------------------

TEST(ShardedServeTest, LabelPruningSkipsShardsThatCannotSeed) {
  // Two subtrees with disjoint label alphabets (plus one shared label), so
  // partitioning at N=2 puts each alphabet on its own shard.
  DataGraph g;
  NodeId a0 = g.AddNode("alpha");
  g.AddEdge(g.root(), a0);
  NodeId a1 = g.AddNode("amid");
  g.AddEdge(a0, a1);
  NodeId a2 = g.AddNode("aleaf");
  g.AddEdge(a1, a2);
  NodeId ac = g.AddNode("common");
  g.AddEdge(a0, ac);
  NodeId b0 = g.AddNode("beta");
  g.AddEdge(g.root(), b0);
  NodeId b1 = g.AddNode("bmid");
  g.AddEdge(b0, b1);
  NodeId b2 = g.AddNode("bleaf");
  g.AddEdge(b1, b2);
  NodeId bc = g.AddNode("common");
  g.AddEdge(b0, bc);

  LabelRequirements reqs;
  reqs[g.labels().Find("amid")] = 2;
  ShardedQueryServer::Options opts;
  opts.num_shards = 2;
  ShardedQueryServer server(g, reqs, opts);
  const int a_shard = server.router().ShardOfNode(a0);
  const int b_shard = server.router().ShardOfNode(b0);
  ASSERT_NE(a_shard, b_shard);

  // A query only subtree A's labels can seed: shard B is pruned — zero
  // visits, zero results — and the answer is exact.
  EvalStats stats;
  std::vector<EvalStats> per_shard;
  auto result = server.Evaluate("alpha.amid", &stats, nullptr, &per_shard);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result, std::vector<NodeId>{a1});
  ASSERT_EQ(per_shard.size(), 2u);
  EXPECT_EQ(per_shard[static_cast<size_t>(b_shard)].cost(), 0);
  EXPECT_EQ(per_shard[static_cast<size_t>(b_shard)].result_size, 0);
  EXPECT_GT(per_shard[static_cast<size_t>(a_shard)].cost(), 0);
  ShardedQueryServer::Stats st = server.stats();
  EXPECT_EQ(st.queries, 1);
  EXPECT_EQ(st.shard_evals, 1);
  EXPECT_EQ(st.shards_pruned, 1);

  // The mirror query prunes shard A.
  result = server.Evaluate("beta//bleaf", nullptr, nullptr, &per_shard);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result, std::vector<NodeId>{b2});
  EXPECT_EQ(per_shard[static_cast<size_t>(a_shard)].cost(), 0);
  EXPECT_EQ(server.stats().shards_pruned, 2);

  // A label present on both shards prunes nothing.
  result = server.Evaluate("common", nullptr, nullptr, &per_shard);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result, (std::vector<NodeId>{ac, bc}));
  st = server.stats();
  EXPECT_EQ(st.shards_pruned, 2);
  EXPECT_EQ(st.shard_evals, 4);

  // A label nobody has prunes everything and answers empty.
  result = server.Evaluate("zz_nosuch");
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->empty());
  EXPECT_EQ(server.stats().shards_pruned, 4);
}

// ---------------------------------------------------------------------------
// fork+SIGKILL crash recovery of a sharded durability directory.
// ---------------------------------------------------------------------------

struct ShardedCrashFixture {
  DataGraph original;
  std::vector<std::pair<NodeId, NodeId>> ranges;
  LabelRequirements reqs;
  std::vector<UpdateOp> ops;
  std::vector<std::string> probes;

  static ShardedCrashFixture Make(uint64_t seed) {
    ShardedCrashFixture f;
    Rng rng(seed);
    f.original = MakeShardableGraph(6, 20, 4, &rng, &f.ranges);
    f.reqs[f.original.labels().Find("b")] = 2;
    DataGraph track = f.original;
    f.ops = MakeIntraSubtreeOps(f.ranges, 120, &track, &rng);
    for (int i = 0; i < 3; ++i) {
      f.probes.push_back(testing_util::RandomChainQuery(track, 3, &rng));
    }
    f.probes.push_back("a//e");
    return f;
  }
};

// One trial: the child serves the stream through a sharded durable
// deployment and is SIGKILLed mid-flight; the parent recovers, rebuilds a
// ShardedQueryServer from the recovery, and asserts its answers are
// bit-identical to ground truth on the graph holding exactly each shard's
// durable op prefix.
void RunShardedKillTrial(const ShardedCrashFixture& f, int num_shards,
                         const std::string& dir, int64_t kill_after_us) {
  ShardedQueryServer::Options opts;
  opts.num_shards = num_shards;
  opts.server.durability.dir = dir;
  opts.server.durability.sync_every_n = 8;
  opts.server.durability.checkpoint_interval_ms = 5;
  opts.server.max_batch = 4;

  ::pid_t pid = ::fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // Child: serve the whole stream, then park until SIGKILLed — it must
    // never run gtest teardown.
    {
      ShardedQueryServer server(f.original, f.reqs, opts);
      for (const UpdateOp& op : f.ops) {
        bool ok = op.kind == UpdateOp::Kind::kAddEdge
                      ? server.SubmitAddEdge(op.u, op.v)
                      : server.SubmitRemoveEdge(op.u, op.v);
        if (!ok) ::_exit(2);
        std::this_thread::sleep_for(std::chrono::microseconds(150));
      }
      server.Flush();
      for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
    }
  }
  std::this_thread::sleep_for(std::chrono::microseconds(kill_after_us));
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
      << "child exited on its own (status " << status << ")";

  if (!PathExists(dir + "/router.manifest")) {
    // Killed before the deployment finished starting: nothing was durable
    // yet, so there is nothing to recover or compare.
    return;
  }
  ShardedRecovery rec;
  std::string error;
  ASSERT_TRUE(RecoverShardedDkIndex(dir, &rec, &error)) << error;
  ASSERT_EQ(rec.router.num_shards(), num_shards);

  // Ground truth: the original graph plus, per shard, exactly the durable
  // prefix of that shard's op stream. Ops on different shards touch
  // disjoint edges, so global submission order is a valid interleaving.
  ShardRouter route_check = ShardRouter::Partition(f.original, num_shards);
  DataGraph truth = f.original;
  std::vector<int64_t> pos(static_cast<size_t>(num_shards), 0);
  for (const UpdateOp& op : f.ops) {
    auto route = route_check.RouteEdge(op.u, op.v);
    ASSERT_TRUE(route.has_value());
    const size_t s = static_cast<size_t>(route->shard);
    if (static_cast<uint64_t>(++pos[s]) > rec.shard_stats[s].last_seq) {
      continue;  // past this shard's durable prefix
    }
    if (op.kind == UpdateOp::Kind::kAddEdge) {
      truth.AddEdge(op.u, op.v);
    } else {
      ASSERT_TRUE(truth.RemoveEdge(op.u, op.v));
    }
  }

  for (int s = 0; s < num_shards; ++s) {
    std::string invariant_error;
    EXPECT_TRUE(rec.indexes[static_cast<size_t>(s)].index().ValidatePartition(
        &invariant_error))
        << "shard " << s << ": " << invariant_error;
  }

  ShardedQueryServer server(std::move(rec), opts);
  for (const std::string& probe : f.probes) {
    auto result = server.Evaluate(probe);
    ASSERT_TRUE(result.has_value()) << probe;
    EXPECT_EQ(*result, EvaluateOnDataGraph(truth, testing_util::MustParse(
                                                      probe, truth.labels())))
        << "n=" << num_shards << " probe '" << probe << "'";
  }
  server.Stop();
}

class ShardedFaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
#ifdef DKI_UNDER_TSAN
    GTEST_SKIP() << "fork-based fault injection is not TSan-compatible";
#endif
  }
};

TEST_F(ShardedFaultInjectionTest, KillsRecoverDurablePrefixAcrossShardCounts) {
  ShardedCrashFixture f = ShardedCrashFixture::Make(43001);
  Rng rng(43002);
  int trial = 0;
  for (int num_shards : {1, 2, 2, 4}) {
    const auto dir = FreshDir("kill_n" + std::to_string(num_shards) + "_" +
                               std::to_string(trial++));
    RunShardedKillTrial(f, num_shards, dir, rng.UniformInt(2000, 25000));
    if (HasFatalFailure()) return;
  }
}

// A clean stop must recover to the full stream on every shard.
TEST(ShardedServeTest, CleanShutdownRecoversEveryShardCompletely) {
  ShardedCrashFixture f = ShardedCrashFixture::Make(43003);
  const auto dir = FreshDir("clean_shutdown");
  ShardedQueryServer::Options opts;
  opts.num_shards = 2;
  opts.server.durability.dir = dir;
  opts.server.durability.sync_every_n = 1;

  DataGraph truth = f.original;
  std::vector<std::vector<NodeId>> served;
  {
    ShardedQueryServer server(f.original, f.reqs, opts);
    for (const UpdateOp& op : f.ops) {
      if (op.kind == UpdateOp::Kind::kAddEdge) {
        ASSERT_TRUE(server.SubmitAddEdge(op.u, op.v));
        truth.AddEdge(op.u, op.v);
      } else {
        ASSERT_TRUE(server.SubmitRemoveEdge(op.u, op.v));
        ASSERT_TRUE(truth.RemoveEdge(op.u, op.v));
      }
    }
    server.Flush();
    for (const std::string& probe : f.probes) {
      auto result = server.Evaluate(probe);
      ASSERT_TRUE(result.has_value());
      served.push_back(*result);
    }
    server.Stop();
  }

  ShardedRecovery rec;
  std::string error;
  ASSERT_TRUE(RecoverShardedDkIndex(dir, &rec, &error)) << error;
  uint64_t durable_ops = 0;
  for (const RecoveryStats& st : rec.shard_stats) durable_ops += st.last_seq;
  EXPECT_EQ(durable_ops, f.ops.size());

  ShardedQueryServer server(std::move(rec), opts);
  for (size_t i = 0; i < f.probes.size(); ++i) {
    auto result = server.Evaluate(f.probes[i]);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(*result, served[i]) << f.probes[i];
    EXPECT_EQ(*result,
              EvaluateOnDataGraph(truth, testing_util::MustParse(
                                             f.probes[i], truth.labels())));
  }
  server.Stop();
}

}  // namespace
}  // namespace dki
