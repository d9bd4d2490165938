// Equivalence suite for the frozen read path (query/frozen_view.h): frozen
// evaluation — single-query, batched over 1..8 threads, and with parallel
// uncertain-extent validation — must be bit-identical to the reference
// evaluators, in results AND in EvalStats, across the workload generator's
// query mix on XMark and NASA.

#include "query/frozen_view.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "datagen/nasa_generator.h"
#include "datagen/xmark_generator.h"
#include "index/ak_index.h"
#include "index/dk_index.h"
#include "index/one_index.h"
#include "query/evaluator.h"
#include "query/load_analyzer.h"
#include "query/workload.h"
#include "tests/test_util.h"

namespace dki {
namespace {

// This suite pins the reference traversal: EvalStats are compared
// pop-for-pop against query/evaluator.cc, a property only the
// prefilter-free view guarantees (the prefilter legally skips traversal
// work — tests/backend_diff_test.cc holds its RESULTS bit-identical).
FrozenViewOptions ReferenceBackend() {
  FrozenViewOptions options;
  options.prefilter = false;
  return options;
}

void ExpectStatsEq(const EvalStats& want, const EvalStats& got,
                   const std::string& context) {
  EXPECT_EQ(want.index_nodes_visited, got.index_nodes_visited) << context;
  EXPECT_EQ(want.data_nodes_visited, got.data_nodes_visited) << context;
  EXPECT_EQ(want.validated_candidates, got.validated_candidates) << context;
  EXPECT_EQ(want.uncertain_index_nodes, got.uncertain_index_nodes) << context;
  EXPECT_EQ(want.result_size, got.result_size) << context;
}

// Asserts frozen == reference for one (index, query) pair, with and without
// validation, and that the validated answer is the data graph's.
void ExpectFrozenMatchesReference(const IndexGraph& index,
                                  const FrozenView& view,
                                  const PathExpression& query,
                                  FrozenScratch* scratch) {
  const std::string ctx = "query: " + query.text();
  for (bool validate : {true, false}) {
    EvalStats ref_stats, frozen_stats;
    std::vector<NodeId> ref =
        EvaluateOnIndex(index, query, &ref_stats, validate);
    std::vector<NodeId> frozen =
        view.Evaluate(query, &frozen_stats, validate, scratch);
    EXPECT_EQ(ref, frozen) << ctx << " validate=" << validate;
    ExpectStatsEq(ref_stats, frozen_stats,
                  ctx + " validate=" + std::to_string(validate));
  }
  EXPECT_EQ(EvaluateOnDataGraph(index.graph(), query),
            view.Evaluate(query, nullptr, true, scratch))
      << ctx << " (data graph)";
}

// The workload generator's query mix over `graph`, plus a few handwritten
// expressions exercising wildcards, alternation and closures (the workload
// itself emits plain chains).
std::vector<std::string> MixedQueries(const DataGraph& graph, uint64_t seed) {
  Rng rng(seed);
  WorkloadOptions options;
  options.num_queries = 30;
  Workload load = GenerateWorkload(graph, options, &rng);
  std::vector<std::string> queries = load.queries;
  queries.push_back("_");
  queries.push_back("_._");
  if (!load.queries.empty()) {
    queries.push_back("(" + load.queries[0] + ")|(_._._)");
    queries.push_back("_*." + load.queries[0]);
  }
  queries.push_back("no_such_label_anywhere");
  return queries;
}

TEST(FrozenViewTest, MovieGraphMatchesReferenceOnAllIndexKinds) {
  DataGraph g = testing_util::BuildMovieGraph();
  const std::vector<std::string> queries = {
      "movieDB.director.movie",       "movie.title",
      "director.movie.title",         "actor.movie",
      "_.movie",                      "(director|actor).movie",
      "movieDB._._",                  "_*.title",
      "actor",                        "does_not_exist.movie",
  };

  IndexGraph one = OneIndex::Build(&g);
  AkIndex a0 = AkIndex::Build(&g, 0);
  AkIndex a2 = AkIndex::Build(&g, 2);
  LabelRequirements reqs =
      MineRequirementsFromText(queries, g.labels(), nullptr);
  DkIndex dk = DkIndex::Build(&g, reqs);

  const std::vector<const IndexGraph*> kinds = {&one, &a0.index(),
                                                &a2.index(), &dk.index()};
  for (const IndexGraph* index : kinds) {
    FrozenView view(*index, ReferenceBackend());
    EXPECT_EQ(view.epoch(), index->epoch());
    EXPECT_EQ(view.num_data_nodes(), g.NumNodes());
    EXPECT_EQ(view.num_index_nodes(), index->NumIndexNodes());
    EXPECT_GT(view.ApproxBytes(), 0);
    FrozenScratch scratch;  // shared across queries: exercises reuse
    for (const std::string& text : queries) {
      ExpectFrozenMatchesReference(
          *index, view, testing_util::MustParse(text, g.labels()), &scratch);
    }
  }
}

TEST(FrozenViewTest, RandomGraphsMatchReference) {
  Rng rng(7);
  for (int round = 0; round < 8; ++round) {
    DataGraph g = testing_util::RandomGraph(/*n=*/120, /*num_labels=*/6,
                                            /*extra_edges=*/25, &rng);
    AkIndex ak = AkIndex::Build(&g, static_cast<int>(round % 4));
    FrozenView view(ak.index(), ReferenceBackend());
    FrozenScratch scratch;
    for (int q = 0; q < 12; ++q) {
      std::string text = testing_util::RandomChainQuery(
          g, 2 + static_cast<int>(rng.UniformInt(0, 3)), &rng);
      ExpectFrozenMatchesReference(
          ak.index(), view, testing_util::MustParse(text, g.labels()),
          &scratch);
    }
  }
}

TEST(FrozenViewTest, XmarkWorkloadMatchesReference) {
  XmarkOptions opt;
  opt.scale = 0.08;
  DataGraph g = GenerateXmarkGraph(opt).graph;
  std::vector<std::string> queries = MixedQueries(g, 11);

  // D(k) mined from the load (mostly certain answers) AND a low-k A(k)
  // (many k-uncertain extents, exercising the validation path).
  LabelRequirements reqs =
      MineRequirementsFromText(queries, g.labels(), nullptr);
  DkIndex dk = DkIndex::Build(&g, reqs);
  AkIndex a1 = AkIndex::Build(&g, 1);

  for (const IndexGraph* index : {&dk.index(), &a1.index()}) {
    FrozenView view(*index, ReferenceBackend());
    FrozenScratch scratch;
    for (const std::string& text : queries) {
      ExpectFrozenMatchesReference(
          *index, view, testing_util::MustParse(text, g.labels()), &scratch);
    }
  }
}

// The five query shapes servebench's read_wide pool draws from, built
// around the workload's chains: the chain, `_*.chain`, `_.chain`, the
// chain with a middle step replaced by `_`, and two chains alternated.
TEST(FrozenViewTest, XmarkWidePoolShapesMatchReference) {
  XmarkOptions opt;
  opt.scale = 0.08;
  DataGraph g = GenerateXmarkGraph(opt).graph;
  Rng rng(17);
  WorkloadOptions options;
  options.num_queries = 12;
  const std::vector<std::string> chains =
      GenerateWorkload(g, options, &rng).queries;
  ASSERT_GE(chains.size(), 2u);
  std::vector<std::string> queries;
  int mid_wildcards = 0;
  for (size_t i = 0; i < chains.size(); ++i) {
    const std::string& c = chains[i];
    queries.push_back(c);
    queries.push_back("_*." + c);
    queries.push_back("_." + c);
    const size_t dot = c.find('.');
    const size_t next = dot == std::string::npos ? dot : c.find('.', dot + 1);
    if (next != std::string::npos) {
      queries.push_back(c.substr(0, dot) + "._" + c.substr(next));
      ++mid_wildcards;
    }
    queries.push_back("(" + c + "|" + chains[(i + 1) % chains.size()] + ")");
  }
  ASSERT_GT(mid_wildcards, 0);

  LabelRequirements reqs =
      MineRequirementsFromText(queries, g.labels(), nullptr);
  DkIndex dk = DkIndex::Build(&g, reqs);
  AkIndex a1 = AkIndex::Build(&g, 1);
  for (const IndexGraph* index : {&dk.index(), &a1.index()}) {
    FrozenView view(*index, ReferenceBackend());
    FrozenScratch scratch;
    for (const std::string& text : queries) {
      ExpectFrozenMatchesReference(
          *index, view, testing_util::MustParse(text, g.labels()), &scratch);
    }
  }
}

TEST(FrozenViewTest, NasaWorkloadMatchesReference) {
  NasaOptions opt;
  opt.scale = 0.08;
  DataGraph g = GenerateNasaGraph(opt).graph;
  std::vector<std::string> queries = MixedQueries(g, 13);

  LabelRequirements reqs =
      MineRequirementsFromText(queries, g.labels(), nullptr);
  DkIndex dk = DkIndex::Build(&g, reqs);
  AkIndex a1 = AkIndex::Build(&g, 1);

  for (const IndexGraph* index : {&dk.index(), &a1.index()}) {
    FrozenView view(*index, ReferenceBackend());
    FrozenScratch scratch;
    for (const std::string& text : queries) {
      ExpectFrozenMatchesReference(
          *index, view, testing_util::MustParse(text, g.labels()), &scratch);
    }
  }
}

TEST(FrozenViewTest, ScratchReusesAcrossViewsAndQueries) {
  // One scratch across different graphs, views, automaton sizes and label
  // universes: the per-query recompile key and the generation-stamped
  // arrays must never leak state between evaluations.
  Rng rng(23);
  FrozenScratch scratch;
  for (int round = 0; round < 4; ++round) {
    DataGraph g = testing_util::RandomGraph(
        /*n=*/60 + round * 40, /*num_labels=*/3 + round * 4,
        /*extra_edges=*/10, &rng);
    AkIndex ak = AkIndex::Build(&g, 1);
    FrozenView view(ak.index());
    for (int q = 0; q < 6; ++q) {
      std::string text = testing_util::RandomChainQuery(g, 3, &rng);
      PathExpression query = testing_util::MustParse(text, g.labels());
      EXPECT_EQ(EvaluateOnIndex(ak.index(), query),
                view.Evaluate(query, nullptr, true, &scratch))
          << text;
    }
  }
}

// One view plus the queries parsed against its graph's label table.
struct ViewCase {
  std::string name;
  const FrozenView* view;
  std::vector<PathExpression> queries;
};

// One evaluation's results and EvalStats, for one of two ways to
// evaluate: Evaluate with validation (way 0) and without (way 1).
struct Outcome {
  std::vector<NodeId> results;
  EvalStats stats;
};
constexpr int kWays = 2;

Outcome EvaluateWay(const FrozenView& view, const PathExpression& query,
                    int way, FrozenScratch* scratch) {
  Outcome out;
  out.results = view.Evaluate(query, &out.stats, way == 0, scratch);
  return out;
}

// Runs every case's queries in `ways` on the calling thread's own scratch
// (no explicit one), switching view on every query so that scratch keeps
// changing size, storage tier and label universe, and checks each outcome
// against want[view][query][way] (fresh-scratch outcomes).
void ExpectThreadScratchMatches(
    const std::vector<ViewCase>& cases,
    const std::vector<std::vector<std::vector<Outcome>>>& want,
    const std::vector<int>& ways) {
  size_t longest = 0;
  for (const ViewCase& c : cases) longest = std::max(longest, c.queries.size());
  for (size_t q = 0; q < longest; ++q) {
    for (size_t v = 0; v < cases.size(); ++v) {
      const ViewCase& c = cases[v];
      if (q >= c.queries.size()) continue;
      for (int way : ways) {
        const Outcome got = EvaluateWay(*c.view, c.queries[q], way, nullptr);
        const Outcome& expect = want[v][q][static_cast<size_t>(way)];
        const std::string ctx = c.name + " query " + c.queries[q].text() +
                                " way " + std::to_string(way);
        EXPECT_EQ(expect.results, got.results) << ctx;
        ExpectStatsEq(expect.stats, got.stats, ctx);
      }
    }
  }
}

// A thread's passes: validating Evaluate alone first (each validated
// candidate advances the data generation by one, so a generation that
// restarted on growth would collide with the visit stamps of earlier
// calls), then both ways.
void RunThreadScratchPasses(
    const std::vector<ViewCase>& cases,
    const std::vector<std::vector<std::vector<Outcome>>>& want) {
  ExpectThreadScratchMatches(cases, want, {0});
  ExpectThreadScratchMatches(cases, want, {0, 1});
}

// Evaluation without an explicit scratch runs on a thread-local one that
// only grows. Alternating it between a large and a small view, and a view
// before and after an AddSubgraph, must give exactly what a fresh explicit
// scratch gives — results and EvalStats, in both validate modes. The query
// mix includes a >64-state automaton (two mask words) so the mask width
// changes too, and at least 30 distinct texts per view.
TEST(FrozenViewTest, ThreadScratchMatchesFreshScratchAcrossViews) {
  XmarkOptions xopt;
  xopt.scale = 0.08;
  DataGraph xmark = GenerateXmarkGraph(xopt).graph;
  AkIndex xmark_a1 = AkIndex::Build(&xmark, 1);
  FrozenView large(xmark_a1.index(), ReferenceBackend());

  Rng rng(31);
  DataGraph small_graph = testing_util::RandomGraph(40, 4, 8, &rng);
  AkIndex small_a1 = AkIndex::Build(&small_graph, 1);
  FrozenView small(small_a1.index(), ReferenceBackend());

  DataGraph grown = testing_util::RandomGraph(150, 5, 30, &rng);
  LabelRequirements reqs;
  reqs[1] = 2;
  DkIndex dk = DkIndex::Build(&grown, reqs);
  std::string wide = "_";
  for (int i = 0; i < 69; ++i) wide += "._";
  std::string deep = "_";
  for (int i = 0; i < 11; ++i) deep += "._";
  // Each list opens with "_", which every node answers, so a stale index
  // stamp left on any node by an earlier call shows up as a missing result.
  // Next comes a 12-step wildcard chain (one mask word), whose validations
  // walk up to eleven levels of each candidate's ancestors, to the root in
  // these shallow graphs: right after the scratch grows they revisit the
  // node ids that the previous view's first validations stamped, so a data
  // generation restarted on growth reads stale visits. The list ends with
  // the 70-step chain (two mask words).
  auto parse_all = [&](const DataGraph& g, std::vector<std::string> texts) {
    texts.insert(texts.begin(), {"_", deep});
    texts.push_back(wide);
    std::vector<PathExpression> out;
    for (const std::string& t : texts) {
      out.push_back(testing_util::MustParse(t, g.labels()));
    }
    return out;
  };
  // Smallest first, so a thread's first pass grows its scratch three times
  // after stamping it; later passes alternate large -> small -> large.
  std::vector<ViewCase> cases;
  cases.push_back(
      {"small", &small, parse_all(small_graph, MixedQueries(small_graph, 43))});
  FrozenView before(dk.index(), ReferenceBackend());
  cases.push_back(
      {"before-subgraph", &before, parse_all(grown, MixedQueries(grown, 37))});
  dk.AddSubgraph(testing_util::RandomGraph(300, 7, 40, &rng));
  FrozenView after(dk.index(), ReferenceBackend());
  cases.push_back(
      {"after-subgraph", &after, parse_all(grown, MixedQueries(grown, 47))});
  cases.push_back({"xmark", &large, parse_all(xmark, MixedQueries(xmark, 41))});
  ASSERT_LT(small.num_data_nodes(), before.num_data_nodes());
  ASSERT_LT(before.num_data_nodes(), after.num_data_nodes());
  ASSERT_LT(after.num_data_nodes(), large.num_data_nodes());
  ASSERT_GE(cases.back().queries.size(), 30u);

  std::vector<std::vector<std::vector<Outcome>>> want(cases.size());
  for (size_t v = 0; v < cases.size(); ++v) {
    for (const PathExpression& q : cases[v].queries) {
      want[v].emplace_back();
      for (int way = 0; way < kWays; ++way) {
        FrozenScratch fresh;
        want[v].back().push_back(EvaluateWay(*cases[v].view, q, way, &fresh));
      }
    }
  }

  RunThreadScratchPasses(cases, want);

  // Four threads at once, each on its own (fresh) thread-local scratch,
  // over the same shared views.
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] { RunThreadScratchPasses(cases, want); });
  }
  for (std::thread& t : threads) t.join();
}

// An expression's move tables are compiled once, against the label table
// it was parsed with. Labels a graph appends later fall into the tables'
// "other" class, so evaluating the SAME expression on a view of the grown
// graph must still match the reference on that graph — and, for queries
// naming only labels that existed at parse time, a fresh parse too.
TEST(FrozenViewTest, ExpressionParsedBeforeLabelAppendsMatchesOnGrownView) {
  Rng rng(53);
  DataGraph g = testing_util::RandomGraph(200, 4, 30, &rng);  // labels a..d
  LabelRequirements reqs;
  reqs[g.labels().Find("b")] = 2;
  DkIndex dk = DkIndex::Build(&g, reqs);
  const LabelId labels_before = g.labels().size();
  const std::vector<std::string> texts = {
      "_.b",      "_._.c",   "_*.a",    "_*",  "_*.b._",
      "a.b",      "b.c.d",   "a.(b|c)", "_",   "(a|_).d",
      "a.h",  // h is appended below: unknown at parse time
  };
  std::vector<PathExpression> parsed;
  for (const std::string& t : texts) {
    parsed.push_back(testing_util::MustParse(t, g.labels()));
  }

  dk.AddSubgraph(testing_util::RandomGraph(300, 9, 40, &rng));  // a..i
  ASSERT_GT(g.labels().size(), labels_before);
  const LabelId appended = g.labels().Find("h");
  ASSERT_GE(appended, labels_before);
  ASSERT_GT(g.NodesWithLabel(appended).size(), 0u);

  FrozenView reference_view(dk.index(), ReferenceBackend());
  FrozenView default_view(dk.index());
  for (size_t i = 0; i < parsed.size(); ++i) {
    const PathExpression& old_parse = parsed[i];
    ExpectFrozenMatchesReference(dk.index(), reference_view, old_parse,
                                 nullptr);
    if (texts[i] == "a.h") continue;  // a fresh parse resolves h
    const PathExpression fresh = testing_util::MustParse(texts[i], g.labels());
    for (const FrozenView* view : {&reference_view, &default_view}) {
      for (bool validate : {true, false}) {
        EvalStats old_stats, fresh_stats;
        EXPECT_EQ(view->Evaluate(old_parse, &old_stats, validate),
                  view->Evaluate(fresh, &fresh_stats, validate))
            << texts[i];
        ExpectStatsEq(fresh_stats, old_stats, texts[i]);
      }
    }
  }
}

// Past 65,536 data nodes the result sort needs more than one 11-bit digit,
// so every radix pass runs; answers must still be the reference's.
TEST(FrozenViewTest, LargeIdResultsMatchReference) {
  Rng rng(59);
  DataGraph g = testing_util::RandomGraph(70000, 6, 5000, &rng);
  ASSERT_GT(g.NumNodes(), 65536);
  AkIndex a1 = AkIndex::Build(&g, 1);
  FrozenView view(a1.index(), ReferenceBackend());
  for (const char* text : {"_", "_.a", "_*.b.c", "a.b.c", "(c|d)._"}) {
    const PathExpression q = testing_util::MustParse(text, g.labels());
    ExpectFrozenMatchesReference(a1.index(), view, q, nullptr);
    EXPECT_EQ(view.Evaluate(q), EvaluateOnDataGraph(g, q)) << text;
  }
}

TEST(FrozenViewTest, RadixSortMatchesStdSortAtEveryWidth) {
  Rng rng(61);
  std::vector<NodeId> buffer;
  // Bounds giving 1, 2 and 3 digit passes; sizes on both sides of the
  // std::sort cutoff.
  for (int64_t bound : {int64_t{2}, int64_t{1000}, int64_t{70000},
                        int64_t{1} << 22, (int64_t{1} << 31) - 1}) {
    for (int size : {0, 1, 63, 64, 5000}) {
      std::vector<NodeId> ids;
      for (int i = 0; i < size; ++i) {
        ids.push_back(static_cast<NodeId>(rng.UniformInt(0, bound - 1)));
      }
      std::vector<NodeId> want = ids;
      std::sort(want.begin(), want.end());
      RadixSortNodeIds(&ids, bound, &buffer);
      EXPECT_EQ(ids, want) << "bound " << bound << " size " << size;
    }
  }
}

// The plan depends only on (view, query), so repeated evaluations of one
// shared PathExpression on a default (prefiltered) view report identical
// EvalStats, from one thread or several at once. "_*.item" keeps several
// automaton states live per index node, the shape on which traversal
// counters would differ if the plan could change between evaluations.
struct DeterminismCase {
  DataGraph graph;
  AkIndex index;
  FrozenView view;
  PathExpression query;

  DeterminismCase()
      : graph(GenerateXmarkGraph(Options()).graph),
        index(AkIndex::Build(&graph, 1)),
        view(index.index()),
        query(testing_util::MustParse("_*.item", graph.labels())) {}

  static XmarkOptions Options() {
    XmarkOptions opt;
    opt.scale = 0.08;
    return opt;
  }
};

constexpr int kDeterminismEvals = 5;

TEST(FrozenViewTest, DefaultViewStatsAreDeterministic) {
  DeterminismCase c;
  EvalStats want;
  const std::vector<NodeId> want_result = c.view.Evaluate(c.query, &want);
  ASSERT_FALSE(want_result.empty());
  for (int i = 1; i < kDeterminismEvals; ++i) {
    EvalStats got;
    EXPECT_EQ(c.view.Evaluate(c.query, &got), want_result) << "eval " << i;
    ExpectStatsEq(want, got, "eval " + std::to_string(i));
  }
}

TEST(FrozenViewTest, DefaultViewStatsAreDeterministicAcrossThreads) {
  DeterminismCase c;
  EvalStats want;
  const std::vector<NodeId> want_result = c.view.Evaluate(c.query, &want);
  constexpr int kThreads = 4;
  std::vector<std::vector<EvalStats>> got(
      kThreads, std::vector<EvalStats>(kDeterminismEvals));
  std::vector<std::vector<std::vector<NodeId>>> results(
      kThreads, std::vector<std::vector<NodeId>>(kDeterminismEvals));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kDeterminismEvals; ++i) {
        results[static_cast<size_t>(t)][static_cast<size_t>(i)] =
            c.view.Evaluate(c.query,
                            &got[static_cast<size_t>(t)][static_cast<size_t>(i)]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kDeterminismEvals; ++i) {
      const std::string ctx =
          "thread " + std::to_string(t) + " eval " + std::to_string(i);
      EXPECT_EQ(results[static_cast<size_t>(t)][static_cast<size_t>(i)],
                want_result)
          << ctx;
      ExpectStatsEq(want, got[static_cast<size_t>(t)][static_cast<size_t>(i)],
                    ctx);
    }
  }
}

// Satellite: the label inverted indexes behind the bucket-backed
// NodesWithLabel must agree with a full scan, on both graphs, including
// unknown/invalid labels.
TEST(FrozenViewTest, NodesWithLabelMatchesScan) {
  XmarkOptions opt;
  opt.scale = 0.05;
  DataGraph g = GenerateXmarkGraph(opt).graph;
  AkIndex ak = AkIndex::Build(&g, 2);
  const IndexGraph& index = ak.index();

  for (LabelId l = 0; l < static_cast<LabelId>(g.labels().size()); ++l) {
    std::vector<NodeId> scan;
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      if (g.label(v) == l) scan.push_back(v);
    }
    EXPECT_EQ(scan, g.NodesWithLabel(l)) << "data label " << l;

    std::vector<IndexNodeId> index_scan;
    for (IndexNodeId i = 0; i < index.NumIndexNodes(); ++i) {
      if (index.label(i) == l) index_scan.push_back(i);
    }
    EXPECT_EQ(index_scan, index.NodesWithLabel(l)) << "index label " << l;
  }
  EXPECT_TRUE(g.NodesWithLabel(kInvalidLabel).empty());
  EXPECT_TRUE(g.NodesWithLabel(static_cast<LabelId>(g.labels().size()))
                  .empty());
  EXPECT_TRUE(index.NodesWithLabel(kInvalidLabel).empty());
}

// Satellite: buckets stay correct through the Section 5 mutation paths
// (SplitOff via update algorithms, AppendNode via subgraph merges).
TEST(FrozenViewTest, NodesWithLabelSurvivesMutations) {
  Rng rng(29);
  DataGraph g = testing_util::RandomGraph(80, 5, 15, &rng);
  LabelRequirements reqs;
  for (LabelId l = 0; l < static_cast<LabelId>(g.labels().size()); ++l) {
    reqs[l] = 2;
  }
  DkIndex dk = DkIndex::Build(&g, reqs);
  for (int i = 0; i < 10; ++i) {
    NodeId u = static_cast<NodeId>(rng.UniformInt(1, g.NumNodes() - 1));
    NodeId v = static_cast<NodeId>(rng.UniformInt(1, g.NumNodes() - 1));
    dk.AddEdge(u, v);
  }
  const IndexGraph& index = dk.index();
  for (LabelId l = 0; l < static_cast<LabelId>(g.labels().size()); ++l) {
    std::vector<IndexNodeId> scan;
    for (IndexNodeId i = 0; i < index.NumIndexNodes(); ++i) {
      if (index.label(i) == l) scan.push_back(i);
    }
    EXPECT_EQ(scan, index.NodesWithLabel(l)) << "after updates, label " << l;
  }
}

// The constructor narrows every CSR offset through CheckedInt32: edge counts
// can pass 2^31 before node ids do, and a wrapped offset would index out of
// bounds, so one past INT32_MAX must abort instead.
TEST(FrozenViewDeathTest, CheckedInt32AbortsPastInt32Max) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  constexpr int32_t kMax = std::numeric_limits<int32_t>::max();
  EXPECT_EQ(CheckedInt32(0), 0);
  EXPECT_EQ(CheckedInt32(static_cast<size_t>(kMax)), kMax);
  EXPECT_DEATH(CheckedInt32(static_cast<size_t>(kMax) + 1), "CHECK failed");
}

}  // namespace
}  // namespace dki
