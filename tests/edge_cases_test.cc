// Edge-case and robustness coverage across modules: degenerate graphs,
// truncation fuzzing of the XML parser, Algorithm 4 bound properties, cost
// model accounting, and the empty/extreme configurations the main suites
// don't reach.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>

#include "common/random.h"
#include "common/string_util.h"
#include "datagen/xmark_generator.h"
#include "index/ak_index.h"
#include "index/dk_index.h"
#include "index/fb_index.h"
#include "index/one_index.h"
#include "query/evaluator.h"
#include "query/load_analyzer.h"
#include "query/workload.h"
#include "tests/test_util.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace dki {
namespace {

TEST(EdgeCaseTest, IndexFamilyOnRootOnlyGraph) {
  DataGraph g;  // just ROOT
  IndexGraph one = OneIndex::Build(&g);
  EXPECT_EQ(one.NumIndexNodes(), 1);
  AkIndex a2 = AkIndex::Build(&g, 2);
  EXPECT_EQ(a2.index().NumIndexNodes(), 1);
  DkIndex dk = DkIndex::Build(&g, {});
  EXPECT_EQ(dk.index().NumIndexNodes(), 1);
  IndexGraph fb = FbIndex::Build(&g);
  EXPECT_EQ(fb.NumIndexNodes(), 1);

  PathExpression q = testing_util::MustParse("ROOT", g.labels());
  EXPECT_EQ(EvaluateOnIndex(one, q), (std::vector<NodeId>{0}));
}

TEST(EdgeCaseTest, SingleChainGraph) {
  DataGraph g;
  NodeId prev = g.root();
  for (int i = 0; i < 10; ++i) {
    NodeId n = g.AddNode("x");
    g.AddEdge(prev, n);
    prev = n;
  }
  // All x nodes have distinct incoming path lengths: full bisimulation
  // separates them all.
  IndexGraph one = OneIndex::Build(&g);
  EXPECT_EQ(one.NumIndexNodes(), 11);
  // A(2) distinguishes only 3 levels of x (depth 1, 2, 3+).
  AkIndex a2 = AkIndex::Build(&g, 2);
  EXPECT_EQ(a2.index().NumIndexNodes(), 4);

  // D(k) with req(x)=2 equals A(2) here.
  LabelRequirements reqs;
  reqs[g.labels().Find("x")] = 2;
  DkIndex dk = DkIndex::Build(&g, reqs);
  EXPECT_EQ(dk.index().NumIndexNodes(), 4);
}

TEST(EdgeCaseTest, ParallelEdgesAndSelfLoops) {
  DataGraph g;
  NodeId a = g.AddNode("a");
  g.AddEdge(g.root(), a);
  g.AddEdge(a, a);  // self loop
  DkIndex dk = DkIndex::Build(&g, {{2, 3}});
  std::string error;
  EXPECT_TRUE(dk.index().ValidatePartition(&error)) << error;
  EXPECT_TRUE(dk.index().ValidateDkConstraint(&error)) << error;
  PathExpression q = testing_util::MustParse("a.a.a.a", g.labels());
  EXPECT_EQ(EvaluateOnIndex(dk.index(), q), (std::vector<NodeId>{a}));
}

TEST(EdgeCaseTest, XmlTruncationFuzz) {
  // Every prefix of a valid document must either parse or fail cleanly —
  // never crash or hang.
  XmarkOptions options;
  options.scale = 0.05;
  std::string xml = WriteXml(GenerateXmarkDocument(options));
  ASSERT_GT(xml.size(), 2000u);
  for (size_t len = 0; len < xml.size(); len += 97) {
    XmlDocument doc;
    std::string error;
    bool ok = ParseXml(xml.substr(0, len), &doc, &error);
    if (!ok) {
      EXPECT_FALSE(error.empty()) << "at length " << len;
    }
  }
  // And mutated bytes.
  Rng rng(31337);
  for (int i = 0; i < 200; ++i) {
    std::string mutated = xml.substr(0, 4000);
    size_t pos = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(mutated.size()) - 1));
    mutated[pos] = static_cast<char>(rng.UniformInt(32, 126));
    XmlDocument doc;
    std::string error;
    ParseXml(mutated, &doc, &error);  // must simply not crash
  }
}

TEST(EdgeCaseTest, UpdateLocalSimilarityRespectsItsBounds) {
  // Algorithm 4's result is always within [0, min(k_U + 1, k_V)].
  Rng rng(733);
  for (int trial = 0; trial < 5; ++trial) {
    DataGraph g = testing_util::RandomGraph(80, 4, 15, &rng);
    LabelRequirements reqs;
    reqs[static_cast<LabelId>(rng.UniformInt(2, g.labels().size() - 1))] = 4;
    DkIndex dk = DkIndex::Build(&g, reqs);
    const IndexGraph& index = dk.index();
    for (int i = 0; i < 40; ++i) {
      IndexNodeId u = static_cast<IndexNodeId>(
          rng.UniformInt(0, index.NumIndexNodes() - 1));
      IndexNodeId v = static_cast<IndexNodeId>(
          rng.UniformInt(0, index.NumIndexNodes() - 1));
      int k_n = dk.UpdateLocalSimilarity(u, v, nullptr);
      EXPECT_GE(k_n, 0);
      EXPECT_LE(k_n, std::min(index.k(u) + 1, index.k(v)));
    }
  }
}

TEST(EdgeCaseTest, ExistingParentEdgeKeepsFullSimilarity) {
  // Adding a data edge whose index edge already exists (and whose label
  // paths are thus already accounted for) must not demote the target below
  // the Algorithm 4 upbound.
  DataGraph g;
  NodeId a1 = g.AddNode("a");
  NodeId a2 = g.AddNode("a");
  NodeId b = g.AddNode("b");
  g.AddEdge(g.root(), a1);
  g.AddEdge(g.root(), a2);
  g.AddEdge(a1, b);
  LabelRequirements reqs;
  reqs[g.labels().Find("b")] = 2;
  DkIndex dk = DkIndex::Build(&g, reqs);
  IndexNodeId vb = dk.index().index_of(b);
  int k_before = dk.index().k(vb);
  ASSERT_EQ(k_before, 2);
  // a2 -> b: the a-block -> b-block index edge already exists; label paths
  // through it (a.b, ROOT.a.b) match b already.
  auto stats = dk.AddEdge(a2, b);
  EXPECT_EQ(stats.new_local_similarity, 2);
  EXPECT_EQ(dk.index().k(vb), 2);
}

TEST(EdgeCaseTest, CostModelAccounting) {
  DataGraph g = testing_util::BuildMovieGraph();
  DataGraph g2 = g;
  AkIndex a0 = AkIndex::Build(&g2, 0);
  AkIndex a4 = AkIndex::Build(&g, 4);
  PathExpression q =
      testing_util::MustParse("director.movie.title", g.labels());

  EvalStats cheap, expensive;
  EvaluateOnIndex(a4.index(), q, &cheap);
  EvaluateOnIndex(a0.index(), q, &expensive);
  // The sound index pays no validation; the label-split index pays a lot.
  EXPECT_EQ(cheap.data_nodes_visited, 0);
  EXPECT_GT(expensive.data_nodes_visited, 0);
  EXPECT_GT(expensive.cost(), 0);
  EXPECT_EQ(cheap.cost(), cheap.index_nodes_visited);
  // Accumulation adds up.
  EvalStats total;
  EvaluateOnIndex(a0.index(), q, &total);
  EvaluateOnIndex(a0.index(), q, &total);
  EXPECT_EQ(total.cost(), 2 * expensive.cost());
}

TEST(EdgeCaseTest, WorkloadOnTinyGraphs) {
  DataGraph g;
  NodeId a = g.AddNode("a");
  g.AddEdge(g.root(), a);
  Rng rng(3);
  WorkloadOptions options;
  options.num_queries = 5;
  Workload w = GenerateWorkload(g, options, &rng);
  // A one-element document cannot produce 2..5-label paths below the root;
  // the generator must cope (possibly returning fewer/no queries).
  for (const std::string& text : w.queries) {
    PathExpression q = testing_util::MustParse(text, g.labels());
    EXPECT_FALSE(EvaluateOnDataGraph(g, q).empty());
  }
}

TEST(EdgeCaseTest, RetuneToInfinityEqualsOneIndexRefinement) {
  // Retuning a label far beyond the graph's diameter refines it to its
  // full-bisimulation classes (never finer than the 1-index allows for that
  // label's nodes).
  Rng rng(739);
  DataGraph g = testing_util::RandomGraph(60, 3, 10, &rng);
  DkIndex dk = DkIndex::Build(&g, {});
  LabelId target = 2;
  dk.Demote({{target, 30}});
  IndexGraph one = OneIndex::Build(&g);
  // Every retuned extent sits inside a single 1-index class.
  for (IndexNodeId i = 0; i < dk.index().NumIndexNodes(); ++i) {
    if (dk.index().label(i) != target) continue;
    std::set<IndexNodeId> classes;
    for (NodeId n : dk.index().extent(i)) classes.insert(one.index_of(n));
    EXPECT_EQ(classes.size(), 1u);
  }
}

TEST(EdgeCaseTest, QueriesOverValueNodes) {
  DataGraph g = testing_util::BuildMovieGraph();
  PathExpression q = testing_util::MustParse("title.VALUE", g.labels());
  auto result = EvaluateOnDataGraph(g, q);
  EXPECT_EQ(result.size(), 4u);  // one VALUE per title
  DkIndex dk = DkIndex::Build(&g, {{LabelTable::kValueLabel, 1}});
  EXPECT_EQ(EvaluateOnIndex(dk.index(), q), result);
}

TEST(EdgeCaseTest, MineRequirementsEmptyWorkload) {
  LabelTable labels;
  EXPECT_TRUE(MineRequirements({}, labels).empty());
}

// The strict integer parser that replaced the blind std::atoi calls
// (DKI_NUM_THREADS, dkquery's a<k> mode): every malformed or overflowing
// input must be rejected, not silently read as 0 or truncated.
TEST(EdgeCaseTest, ParseInt64AcceptsExactlyWellFormedIntegers) {
  EXPECT_EQ(ParseInt64("0"), 0);
  EXPECT_EQ(ParseInt64("42"), 42);
  EXPECT_EQ(ParseInt64("+7"), 7);
  EXPECT_EQ(ParseInt64("-13"), -13);
  EXPECT_EQ(ParseInt64("007"), 7);
  EXPECT_EQ(ParseInt64("9223372036854775807"),
            std::numeric_limits<int64_t>::max());
  EXPECT_EQ(ParseInt64("-9223372036854775808"),
            std::numeric_limits<int64_t>::min());

  for (const char* bad :
       {"", "+", "-", " 4", "4 ", "4x", "x4", "1.5", "0x10", "1e3", "--4",
        "+-4", "4\n", "9223372036854775808", "+9223372036854775808",
        "-9223372036854775809", "99999999999999999999"}) {
    EXPECT_FALSE(ParseInt64(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(EdgeCaseTest, ParseInt64InRangeClampsNothing) {
  // In-range passes through; out-of-range is rejected, never clamped.
  EXPECT_EQ(ParseInt64InRange("5", 0, 9), 5);
  EXPECT_EQ(ParseInt64InRange("0", 0, 9), 0);
  EXPECT_EQ(ParseInt64InRange("9", 0, 9), 9);
  EXPECT_FALSE(ParseInt64InRange("10", 0, 9).has_value());
  EXPECT_FALSE(ParseInt64InRange("-1", 0, 9).has_value());
  EXPECT_FALSE(ParseInt64InRange("abc", 0, 9).has_value());
}

}  // namespace
}  // namespace dki
