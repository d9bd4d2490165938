// Differential suite for the index traversal (query/backend.h): views with
// the required-label prefilter on (the default: empty short-circuit plus
// prefiltered seeding) and off (the pure reference NFA) must return
// bit-identical RESULTS to the reference evaluator, on random graphs, XMark
// and NASA, across epochs, and through QueryServer configurations. (EvalStats are only defined to match the
// reference with the prefilter off — tests/frozen_view_test.cc pins that;
// here only results are compared.)
//
// Every suite evaluates each query TWICE per view: the second pass runs on
// warm scratches (compiled-query cache hits, stale generation stamps).

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "datagen/nasa_generator.h"
#include "datagen/xmark_generator.h"
#include "index/ak_index.h"
#include "index/dk_index.h"
#include "query/evaluator.h"
#include "query/frozen_view.h"
#include "query/load_analyzer.h"
#include "query/workload.h"
#include "serve/apply.h"
#include "serve/query_server.h"
#include "tests/test_util.h"

namespace dki {
namespace {

const bool kAllModes[] = {true, false};  // FrozenViewOptions::prefilter

FrozenViewOptions ModeOptions(bool prefilter) {
  FrozenViewOptions options;
  options.prefilter = prefilter;
  return options;
}

// The workload generator's chains plus handwritten expressions picking the
// shapes the planner routes differently: wildcard starts and literal-heavy
// chains (prefilter gate), alternation and closures (automaton states
// overlapping at a node), and dead/absent labels (empty shortcircuit).
std::vector<std::string> BackendQueries(const DataGraph& g, uint64_t seed) {
  Rng rng(seed);
  WorkloadOptions options;
  options.num_queries = 20;
  Workload load = GenerateWorkload(g, options, &rng);
  std::vector<std::string> queries = load.queries;
  for (int len : {2, 3, 4}) {
    queries.push_back(testing_util::RandomChainQuery(g, len, &rng));
  }
  const std::string a = testing_util::RandomChainQuery(g, 1, &rng);
  const std::string b = testing_util::RandomChainQuery(g, 2, &rng);
  queries.push_back("_");
  queries.push_back("_." + a);
  queries.push_back("_*." + a);
  queries.push_back("_._." + a);
  queries.push_back("(" + a + ")|(" + b + ")");
  queries.push_back("(" + b + ")|(_._)");
  queries.push_back(a + "._*");
  queries.push_back(a + "?._");
  queries.push_back("label_absent_from_this_graph");
  queries.push_back("_.label_absent_from_this_graph._");
  return queries;
}

// Checks: reference(EvaluateOnIndex) == every mode's view, both validate
// flavors, two passes. All views share the parsed PathExpression objects,
// as serving threads do.
void ExpectAllModesMatchReference(const IndexGraph& index, const DataGraph& g,
                                  const std::vector<std::string>& texts) {
  std::vector<PathExpression> queries;
  for (const std::string& t : texts) {
    queries.push_back(testing_util::MustParse(t, g.labels()));
  }

  std::vector<std::unique_ptr<FrozenView>> views;
  std::vector<std::unique_ptr<FrozenScratch>> scratches;
  for (bool prefilter : kAllModes) {
    views.push_back(
        std::make_unique<FrozenView>(index, ModeOptions(prefilter)));
    scratches.push_back(std::make_unique<FrozenScratch>());
    EXPECT_EQ(views.back()->epoch(), index.epoch());
  }

  for (int pass = 0; pass < 2; ++pass) {
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      for (bool validate : {true, false}) {
        const std::vector<NodeId> want =
            EvaluateOnIndex(index, queries[qi], nullptr, validate);
        for (size_t vi = 0; vi < views.size(); ++vi) {
          const std::vector<NodeId> got = views[vi]->Evaluate(
              queries[qi], nullptr, validate, scratches[vi].get());
          EXPECT_EQ(want, got)
              << "prefilter=" << kAllModes[vi] << " pass=" << pass
              << " validate=" << validate << " query=" << texts[qi];
        }
      }
    }
  }
}

TEST(BackendDiffTest, RandomGraphsAllBackendsBitIdentical) {
  Rng rng(41);
  for (int round = 0; round < 6; ++round) {
    DataGraph g = testing_util::RandomGraph(/*n=*/150, /*num_labels=*/6,
                                            /*extra_edges=*/30, &rng);
    AkIndex ak = AkIndex::Build(&g, round % 4);
    ExpectAllModesMatchReference(ak.index(), g,
                                 BackendQueries(g, 1000 + round));
  }
}

TEST(BackendDiffTest, XmarkAllBackendsBitIdentical) {
  XmarkOptions opt;
  opt.scale = 0.08;
  DataGraph g = GenerateXmarkGraph(opt).graph;
  std::vector<std::string> queries = BackendQueries(g, 43);

  LabelRequirements reqs =
      MineRequirementsFromText(queries, g.labels(), nullptr);
  DkIndex dk = DkIndex::Build(&g, reqs);
  AkIndex a1 = AkIndex::Build(&g, 1);  // low k: the validate path dominates
  ExpectAllModesMatchReference(dk.index(), g, queries);
  ExpectAllModesMatchReference(a1.index(), g, queries);
}

TEST(BackendDiffTest, NasaAllBackendsBitIdentical) {
  NasaOptions opt;
  opt.scale = 0.08;
  DataGraph g = GenerateNasaGraph(opt).graph;
  std::vector<std::string> queries = BackendQueries(g, 47);

  LabelRequirements reqs =
      MineRequirementsFromText(queries, g.labels(), nullptr);
  DkIndex dk = DkIndex::Build(&g, reqs);
  AkIndex a1 = AkIndex::Build(&g, 1);
  ExpectAllModesMatchReference(dk.index(), g, queries);
  ExpectAllModesMatchReference(a1.index(), g, queries);
}

TEST(BackendDiffTest, BackendsAgreeAcrossEpochs) {
  // Mutate the index between freezes: every mode must track the new
  // quotient, and views of the same index must carry the same epoch stamp.
  Rng rng(59);
  DataGraph g = testing_util::RandomGraph(200, 5, 40, &rng);
  LabelRequirements reqs;
  for (LabelId l = 0; l < static_cast<LabelId>(g.labels().size()); ++l) {
    reqs[l] = 2;
  }
  DkIndex dk = DkIndex::Build(&g, reqs);

  std::vector<std::string> queries = BackendQueries(g, 61);
  for (int epoch_round = 0; epoch_round < 3; ++epoch_round) {
    ExpectAllModesMatchReference(dk.index(), g, queries);
    const uint64_t before = dk.index().epoch();
    for (int i = 0; i < 5; ++i) {
      const NodeId u =
          static_cast<NodeId>(rng.UniformInt(1, g.NumNodes() - 1));
      const NodeId v =
          static_cast<NodeId>(rng.UniformInt(1, g.NumNodes() - 1));
      ApplyUpdateOp(&dk, UpdateOp::AddEdge(u, v));
    }
    EXPECT_GT(dk.index().epoch(), before) << "round " << epoch_round;
  }
}

TEST(BackendDiffTest, ForcedBackendServersBitIdentical) {
  // End to end through the serving stack: one QueryServer with the
  // prefilter on and one with it off (QueryServer::Options::frozen), fed
  // the same traffic and the same updates, must answer identically — the
  // latest snapshot and a held one — across republished snapshots.
  Rng rng(67);
  DataGraph g = testing_util::RandomGraph(250, 6, 50, &rng);
  DkIndex dk = DkIndex::Build(&g, {});

  std::vector<std::unique_ptr<QueryServer>> servers;
  for (bool prefilter : kAllModes) {
    QueryServer::Options options;
    options.frozen.prefilter = prefilter;
    servers.push_back(std::make_unique<QueryServer>(dk, options));
  }

  std::vector<std::string> texts = BackendQueries(g, 71);
  auto expect_servers_agree = [&](const std::string& when) {
    for (const std::string& text : texts) {
      auto want = servers[0]->Evaluate(text);
      ASSERT_TRUE(want.has_value()) << when << " " << text;
      for (size_t si = 1; si < servers.size(); ++si) {
        auto got = servers[si]->Evaluate(text);
        ASSERT_TRUE(got.has_value()) << when << " " << text;
        EXPECT_EQ(*want, *got)
            << when << " prefilter=" << kAllModes[si]
            << " query=" << text;
      }
    }
    // Every answer from one held snapshot per server.
    std::vector<std::vector<std::optional<std::vector<NodeId>>>> held;
    for (auto& server : servers) {
      const std::shared_ptr<const IndexSnapshot> snap = server->snapshot();
      held.emplace_back();
      for (const std::string& text : texts) {
        held.back().push_back(server->EvaluateOn(*snap, text));
      }
    }
    for (size_t si = 1; si < held.size(); ++si) {
      EXPECT_EQ(held[0], held[si])
          << when << " held snapshot prefilter=" << kAllModes[si];
    }
  };

  expect_servers_agree("fresh");
  for (int i = 0; i < 15; ++i) {
    const NodeId u = static_cast<NodeId>(rng.UniformInt(1, g.NumNodes() - 1));
    const NodeId v = static_cast<NodeId>(rng.UniformInt(1, g.NumNodes() - 1));
    for (auto& server : servers) {
      ASSERT_TRUE(server->SubmitAddEdge(u, v));
    }
  }
  for (auto& server : servers) server->Flush();
  expect_servers_agree("after updates");
  for (auto& server : servers) server->Stop();
}

}  // namespace
}  // namespace dki
