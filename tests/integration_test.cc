// End-to-end pipeline over a realistic dataset: generate an XMark document,
// serialize to XML text, re-parse, convert to a data graph, generate the
// Section 6.1 workload, mine requirements, build all indexes, compare
// answers, run the Section 6.2 update storm, and tune with promote/demote.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "datagen/nasa_generator.h"
#include "datagen/xmark_generator.h"
#include "index/ak_index.h"
#include "index/dk_index.h"
#include "index/one_index.h"
#include "query/evaluator.h"
#include "query/load_analyzer.h"
#include "query/workload.h"
#include "serve/apply.h"
#include "tests/test_util.h"
#include "xml/xml_to_graph.h"
#include "xml/xml_writer.h"

namespace dki {
namespace {

TEST(IntegrationTest, XmarkXmlRoundTripPipeline) {
  // Generate -> serialize -> parse -> graph.
  XmarkOptions options;
  options.scale = 0.15;
  XmlDocument doc = GenerateXmarkDocument(options);
  std::string xml = WriteXml(doc);
  XmlToGraphResult loaded;
  std::string error;
  ASSERT_TRUE(LoadXmlAsGraph(xml, XmarkGraphOptions(), &loaded, &error))
      << error;
  DataGraph& g = loaded.graph;
  EXPECT_EQ(loaded.dangling_refs, 0);

  // The text round trip must agree with the direct conversion.
  XmlToGraphResult direct = GenerateXmarkGraph(options);
  EXPECT_EQ(g.NumNodes(), direct.graph.NumNodes());
  EXPECT_EQ(g.NumEdges(), direct.graph.NumEdges());

  // Workload + requirements.
  Rng rng(2003);
  WorkloadOptions wopts;
  wopts.num_queries = 40;
  Workload workload = GenerateWorkload(g, wopts, &rng);
  ASSERT_EQ(workload.queries.size(), 40u);
  LabelRequirements reqs =
      MineRequirementsFromText(workload.queries, g.labels(), nullptr);
  EXPECT_FALSE(reqs.empty());

  // Indexes.
  DataGraph g_dk = g;
  DkIndex dk = DkIndex::Build(&g_dk, reqs);
  DataGraph g_ak = g;
  AkIndex a2 = AkIndex::Build(&g_ak, 2);
  IndexGraph one = OneIndex::Build(&g);

  EXPECT_LT(dk.index().NumIndexNodes(), g.NumNodes());
  EXPECT_LE(dk.index().NumIndexNodes(), one.NumIndexNodes());

  // Every workload query: exact on all indexes, no validation on D(k).
  for (const std::string& text : workload.queries) {
    PathExpression q = testing_util::MustParse(text, g.labels());
    auto truth = EvaluateOnDataGraph(g, q);
    EXPECT_FALSE(truth.empty()) << text;
    EXPECT_EQ(EvaluateOnIndex(one, q), truth) << text;
    EXPECT_EQ(EvaluateOnIndex(a2.index(), q), truth) << text;
    EvalStats dk_stats;
    EXPECT_EQ(EvaluateOnIndex(dk.index(), q, &dk_stats), truth) << text;
    EXPECT_EQ(dk_stats.uncertain_index_nodes, 0) << text;
  }
}

TEST(IntegrationTest, XmarkUpdateStormAndPromotion) {
  XmarkOptions options;
  options.scale = 0.15;
  DataGraph g = GenerateXmarkGraph(options).graph;
  Rng rng(6);
  WorkloadOptions wopts;
  wopts.num_queries = 25;
  Workload workload = GenerateWorkload(g, wopts, &rng);
  LabelRequirements reqs =
      MineRequirementsFromText(workload.queries, g.labels(), nullptr);
  DkIndex dk = DkIndex::Build(&g, reqs);
  int64_t size_before = dk.index().NumIndexNodes();

  // Section 6.2 recipe: add edges between random ID/IDREF label pairs.
  auto pairs = XmarkRefLabelPairs();
  for (int i = 0; i < 50; ++i) {
    const auto& [from_label, to_label] =
        pairs[static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(pairs.size()) - 1))];
    auto froms = g.NodesWithLabel(g.labels().Find(from_label));
    auto tos = g.NodesWithLabel(g.labels().Find(to_label));
    dk.AddEdge(rng.Pick(froms), rng.Pick(tos));
  }
  EXPECT_EQ(dk.index().NumIndexNodes(), size_before);  // size is stable
  std::string error;
  ASSERT_TRUE(dk.index().ValidatePartition(&error)) << error;
  ASSERT_TRUE(dk.index().ValidateEdges(&error)) << error;
  ASSERT_TRUE(dk.index().ValidateDkConstraint(&error)) << error;

  // Queries remain exact (through validation where needed).
  int64_t validation_visits = 0;
  for (const std::string& text : workload.queries) {
    PathExpression q = testing_util::MustParse(text, g.labels());
    EvalStats stats;
    EXPECT_EQ(EvaluateOnIndex(dk.index(), q, &stats),
              EvaluateOnDataGraph(g, q))
        << text;
    validation_visits += stats.data_nodes_visited;
  }

  // A grow retune (Demote to the merged requirements) restores the
  // no-validation property for the workload.
  ASSERT_TRUE(ApplyUpdateOp(&dk, UpdateOp::Retune(reqs, /*shrink=*/false)));
  for (const std::string& text : workload.queries) {
    PathExpression q = testing_util::MustParse(text, g.labels());
    EvalStats stats;
    EXPECT_EQ(EvaluateOnIndex(dk.index(), q, &stats),
              EvaluateOnDataGraph(g, q))
        << text;
    EXPECT_EQ(stats.uncertain_index_nodes, 0) << text;
  }
  ASSERT_TRUE(dk.index().ValidateDkConstraint(&error)) << error;
}

TEST(IntegrationTest, NasaPipeline) {
  NasaOptions options;
  options.scale = 0.15;
  DataGraph g = GenerateNasaGraph(options).graph;
  Rng rng(8);
  WorkloadOptions wopts;
  wopts.num_queries = 25;
  Workload workload = GenerateWorkload(g, wopts, &rng);
  LabelRequirements reqs =
      MineRequirementsFromText(workload.queries, g.labels(), nullptr);
  DataGraph g_dk = g;
  DkIndex dk = DkIndex::Build(&g_dk, reqs);
  DataGraph g_ak = g;
  AkIndex a3 = AkIndex::Build(&g_ak, 3);

  for (const std::string& text : workload.queries) {
    PathExpression q = testing_util::MustParse(text, g.labels());
    auto truth = EvaluateOnDataGraph(g, q);
    EXPECT_EQ(EvaluateOnIndex(dk.index(), q), truth) << text;
    EXPECT_EQ(EvaluateOnIndex(a3.index(), q), truth) << text;
  }

  // Demote to half requirements: smaller index, still exact via validation.
  int64_t before = dk.index().NumIndexNodes();
  LabelRequirements halved;
  for (const auto& [label, k] : reqs) halved[label] = k / 2;
  dk.Demote(halved);
  EXPECT_LE(dk.index().NumIndexNodes(), before);
  for (const std::string& text : workload.queries) {
    PathExpression q = testing_util::MustParse(text, g.labels());
    EXPECT_EQ(EvaluateOnIndex(dk.index(), q), EvaluateOnDataGraph(g, q))
        << text;
  }
}

TEST(IntegrationTest, SubgraphAdditionOnXmark) {
  // Insert a second, smaller XMark document into an indexed one.
  XmarkOptions options;
  options.scale = 0.1;
  DataGraph g = GenerateXmarkGraph(options).graph;
  XmarkOptions hopts;
  hopts.scale = 0.05;
  hopts.seed = 99;
  DataGraph h = GenerateXmarkGraph(hopts).graph;

  Rng rng(10);
  WorkloadOptions wopts;
  wopts.num_queries = 15;
  Workload workload = GenerateWorkload(g, wopts, &rng);
  LabelRequirements reqs =
      MineRequirementsFromText(workload.queries, g.labels(), nullptr);
  DkIndex dk = DkIndex::Build(&g, reqs);
  int64_t nodes_before = g.NumNodes();
  dk.AddSubgraph(h);
  EXPECT_EQ(g.NumNodes(), nodes_before + h.NumNodes() - 1);

  std::string error;
  ASSERT_TRUE(dk.index().ValidatePartition(&error)) << error;
  ASSERT_TRUE(dk.index().ValidateEdges(&error)) << error;
  ASSERT_TRUE(dk.index().ValidateDkConstraint(&error)) << error;
  for (const std::string& text : workload.queries) {
    PathExpression q = testing_util::MustParse(text, g.labels());
    EXPECT_EQ(EvaluateOnIndex(dk.index(), q), EvaluateOnDataGraph(g, q))
        << text;
  }
}

}  // namespace
}  // namespace dki
