#include "query/evaluator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/random.h"
#include "index/ak_index.h"
#include "index/dk_index.h"
#include "index/one_index.h"
#include "tests/test_util.h"

namespace dki {
namespace {

class EvaluatorTest : public ::testing::Test {
 protected:
  EvaluatorTest() : g_(testing_util::BuildMovieGraph()) {}

  std::vector<NodeId> Eval(const std::string& text, EvalStats* stats = nullptr) {
    return EvaluateOnDataGraph(g_, testing_util::MustParse(text, g_.labels()),
                               stats);
  }

  std::vector<std::string> Labels(const std::vector<NodeId>& nodes) {
    std::vector<std::string> out;
    for (NodeId n : nodes) out.push_back(g_.label_name(n));
    return out;
  }

  DataGraph g_;
};

TEST_F(EvaluatorTest, SingleLabelReturnsAllNodesWithLabel) {
  auto result = Eval("movie");
  LabelId movie = g_.labels().Find("movie");
  EXPECT_EQ(result, g_.NodesWithLabel(movie));
}

TEST_F(EvaluatorTest, PaperChainQuery) {
  // director.movie.title: every title under a director's movie.
  auto result = Eval("director.movie.title");
  EXPECT_EQ(result.size(), 3u);  // three director movies carry titles
  for (NodeId n : result) EXPECT_EQ(g_.label_name(n), "title");
}

TEST_F(EvaluatorTest, PaperOptionalWildcardQuery) {
  // movieDB.(_)?.movie.actor.name — the paper's irregularity-tolerant query.
  auto result = Eval("movieDB.(_)?.movie.actor.name");
  EXPECT_EQ(result.size(), 1u);  // only the actor nested inside a movie
  EXPECT_EQ(g_.label_name(result[0]), "name");
}

TEST_F(EvaluatorTest, DescendantQuery) {
  auto all_titles = Eval("movieDB//title");
  EXPECT_EQ(all_titles, g_.NodesWithLabel(g_.labels().Find("title")));
}

TEST_F(EvaluatorTest, AlternationQuery) {
  auto result = Eval("(director|actor).name");
  // 3 director/actor names at top level + 1 nested actor name.
  EXPECT_EQ(result.size(), 5u);
}

TEST_F(EvaluatorTest, EmptyResultForUnknownLabel) {
  EvalStats stats;
  auto result = Eval("nosuchlabel.title", &stats);
  EXPECT_TRUE(result.empty());
  EXPECT_EQ(stats.result_size, 0);
}

TEST_F(EvaluatorTest, StatsCountVisits) {
  EvalStats stats;
  Eval("director.movie.title", &stats);
  // Direct evaluation pops *data* nodes: the data/index split in metrics
  // must reflect that (regression: these pops were booked as index visits,
  // leaving eval.data.data_nodes_visited permanently zero).
  EXPECT_GT(stats.data_nodes_visited, 0);
  EXPECT_EQ(stats.index_nodes_visited, 0);  // no index graph involved
  EXPECT_EQ(stats.cost(), stats.data_nodes_visited);
}

TEST_F(EvaluatorTest, ValidateCandidateAgreesWithForwardEvaluation) {
  PathExpression q =
      testing_util::MustParse("actor.movie.title", g_.labels());
  auto truth = EvaluateOnDataGraph(g_, q);
  std::set<NodeId> truth_set(truth.begin(), truth.end());
  const Automaton rev = q.forward().Reverse();
  int64_t visits = 0;
  for (NodeId n = 0; n < g_.NumNodes(); ++n) {
    EXPECT_EQ(ValidateCandidate(g_, rev, n, &visits),
              truth_set.count(n) > 0)
        << "node " << n;
  }
  EXPECT_GT(visits, 0);
}

TEST_F(EvaluatorTest, SharedScratchValidationMatchesFreshState) {
  // The scratch-reusing overload must agree with the allocate-per-call form
  // on verdicts AND on visited-pair counts, across many candidates and
  // several queries through the same scratch instance.
  Rng rng(907);
  DataGraph g = testing_util::RandomGraph(120, 4, 40, &rng);
  ValidationScratch scratch;
  for (int qi = 0; qi < 5; ++qi) {
    PathExpression q = testing_util::MustParse(
        testing_util::RandomChainQuery(g, 3, &rng), g.labels());
    const Automaton rev = q.forward().Reverse();
    for (NodeId n = 0; n < g.NumNodes(); ++n) {
      int64_t fresh_visits = 0, scratch_visits = 0;
      bool fresh = ValidateCandidate(g, rev, n, &fresh_visits);
      bool reused = ValidateCandidate(g, rev, n, &scratch_visits, &scratch);
      EXPECT_EQ(fresh, reused) << "query " << q.text() << " node " << n;
      EXPECT_EQ(fresh_visits, scratch_visits)
          << "query " << q.text() << " node " << n;
    }
  }
}

TEST_F(EvaluatorTest, IndexEvaluationMatchesTruthAcrossIndexKinds) {
  std::vector<std::string> queries = {
      "movie",
      "director.movie",
      "director.movie.title",
      "actor.movie.title",
      "movieDB.(_)?.movie.actor.name",
      "movieDB//name",
      "(director|actor).movie",
      "movie.title.VALUE",
  };
  IndexGraph one = OneIndex::Build(&g_);
  DataGraph g_ak = g_;
  std::vector<AkIndex> aks;
  for (int k = 0; k <= 3; ++k) aks.push_back(AkIndex::Build(&g_ak, k));
  LabelRequirements reqs;
  reqs[g_.labels().Find("title")] = 2;
  reqs[g_.labels().Find("name")] = 1;
  DataGraph g_dk = g_;
  DkIndex dk = DkIndex::Build(&g_dk, reqs);

  for (const auto& text : queries) {
    PathExpression q = testing_util::MustParse(text, g_.labels());
    auto truth = EvaluateOnDataGraph(g_, q);
    EXPECT_EQ(EvaluateOnIndex(one, q), truth) << "1-index: " << text;
    for (const auto& ak : aks) {
      EXPECT_EQ(EvaluateOnIndex(ak.index(), q), truth)
          << "A(" << ak.k() << "): " << text;
    }
    EXPECT_EQ(EvaluateOnIndex(dk.index(), q), truth) << "D(k): " << text;
  }
}

TEST_F(EvaluatorTest, UnvalidatedAnswerIsSafeSuperset) {
  DataGraph g = g_;
  AkIndex a0 = AkIndex::Build(&g, 0);
  PathExpression q =
      testing_util::MustParse("director.movie.title", g.labels());
  auto truth = EvaluateOnDataGraph(g, q);
  auto raw = EvaluateOnIndex(a0.index(), q, nullptr, /*validate=*/false);
  for (NodeId n : truth) {
    EXPECT_TRUE(std::binary_search(raw.begin(), raw.end(), n));
  }
  // A(0) cannot distinguish titles by provenance: the raw answer includes
  // all titles, strictly more than the truth... unless all titles match.
  EXPECT_GE(raw.size(), truth.size());
}

TEST_F(EvaluatorTest, ValidationChargesDataNodeVisits) {
  DataGraph g = g_;
  AkIndex a0 = AkIndex::Build(&g, 0);
  PathExpression q =
      testing_util::MustParse("actor.movie.title", g.labels());
  EvalStats stats;
  auto result = EvaluateOnIndex(a0.index(), q, &stats);
  EXPECT_EQ(result, EvaluateOnDataGraph(g, q));
  EXPECT_GT(stats.uncertain_index_nodes, 0);
  EXPECT_GT(stats.validated_candidates, 0);
  EXPECT_GT(stats.data_nodes_visited, 0);
  EXPECT_EQ(stats.cost(),
            stats.index_nodes_visited + stats.data_nodes_visited);
}

TEST_F(EvaluatorTest, CyclicGraphQueriesTerminate) {
  DataGraph g;
  NodeId a = g.AddNode("a");
  NodeId b = g.AddNode("b");
  g.AddEdge(g.root(), a);
  g.AddEdge(a, b);
  g.AddEdge(b, a);  // cycle
  PathExpression star = testing_util::MustParse("a.(b.a)*", g.labels());
  auto result = EvaluateOnDataGraph(g, star);
  EXPECT_EQ(result, (std::vector<NodeId>{a}));
  PathExpression digs = testing_util::MustParse("ROOT//b", g.labels());
  auto result2 = EvaluateOnDataGraph(g, digs);
  EXPECT_EQ(result2, (std::vector<NodeId>{b}));
}

}  // namespace
}  // namespace dki
