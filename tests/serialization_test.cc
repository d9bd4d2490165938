#include "io/serialization.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "datagen/xmark_generator.h"
#include "io/byte_sink.h"
#include "io/fs_util.h"
#include "io/varint.h"
#include "query/evaluator.h"
#include "query/load_analyzer.h"
#include "tests/test_util.h"

namespace dki {
namespace {

std::string EncodeGraph(const DataGraph& g) {
  std::string buf;
  StringSink sink(&buf);
  EXPECT_TRUE(SaveGraphV2(g, &sink));
  return buf;
}

std::string EncodeDkIndex(const DkIndex& dk) {
  std::string buf;
  StringSink sink(&buf);
  EXPECT_TRUE(SaveDkIndexPartsV2(dk.graph(), dk.index(),
                                 dk.effective_requirements(), &sink));
  return buf;
}

void ExpectSameGraph(const DataGraph& got, const DataGraph& want) {
  ASSERT_EQ(got.NumNodes(), want.NumNodes());
  ASSERT_EQ(got.NumEdges(), want.NumEdges());
  for (NodeId n = 0; n < want.NumNodes(); ++n) {
    EXPECT_EQ(got.label_name(n), want.label_name(n)) << "node " << n;
    EXPECT_EQ(got.children(n), want.children(n)) << "node " << n;
  }
}

// Hand-built v2 byte strings for the rejection tests.
std::string Varints(std::initializer_list<uint64_t> values) {
  std::string out;
  for (uint64_t v : values) AppendVarint(v, &out);
  return out;
}

std::string LabelTable(std::initializer_list<std::string_view> names) {
  std::string out = Varints({names.size()});
  for (std::string_view name : names) {
    AppendVarint(name.size(), &out);
    out.append(name);
  }
  return out;
}

TEST(SerializationTest, GraphRoundTrip) {
  Rng rng(501);
  DataGraph g = testing_util::RandomGraph(200, 5, 40, &rng);
  DataGraph loaded;
  std::string error;
  ASSERT_TRUE(LoadGraphV2Exact(EncodeGraph(g), &loaded, &error)) << error;
  ExpectSameGraph(loaded, g);

  // A whole-buffer load rejects bytes past the graph.
  DataGraph trailing;
  EXPECT_FALSE(LoadGraphV2Exact(EncodeGraph(g) + "x", &trailing, &error));
  EXPECT_NE(error.find("trailing"), std::string::npos) << error;
}

TEST(SerializationTest, RoundTripsLabelsWithWhitespace) {
  DataGraph g;
  NodeId a = g.AddNode("movie title");
  NodeId b = g.AddNode("  padded  ");
  NodeId c = g.AddNode("tab\there");
  NodeId d = g.AddNode("caf\xc3\xa9");  // UTF-8 bytes pass through verbatim
  g.AddEdge(g.root(), a);
  g.AddEdge(a, b);
  g.AddEdge(a, c);
  g.AddEdge(c, d);

  DataGraph loaded;
  std::string error;
  ASSERT_TRUE(LoadGraphV2Exact(EncodeGraph(g), &loaded, &error)) << error;
  ExpectSameGraph(loaded, g);
}

// Label names are length-prefixed, so line breaks are ordinary bytes.
TEST(SerializationTest, RoundTripsNewlineLabels) {
  DataGraph g;
  NodeId a = g.AddNode("bad\nlabel");
  NodeId b = g.AddNode("bad\rlabel");
  NodeId c = g.AddNode("\n");
  g.AddEdge(g.root(), a);
  g.AddEdge(a, b);
  g.AddEdge(b, c);

  DataGraph loaded;
  std::string error;
  ASSERT_TRUE(LoadGraphV2Exact(EncodeGraph(g), &loaded, &error)) << error;
  ExpectSameGraph(loaded, g);
  EXPECT_EQ(loaded.label_name(a), "bad\nlabel");
}

TEST(SerializationTest, LabelNameRoundTripProperty) {
  Rng rng(509);
  const std::string pieces[] = {"a",  "b c",  " d",           "e ",
                                "\t", "\xc2\xb5", "x\xe2\x80\xa6", "f  g",
                                "\n", "\r\n"};
  constexpr int kNumPieces = 10;
  for (int trial = 0; trial < 10; ++trial) {
    DataGraph g;
    int num_nodes = static_cast<int>(rng.UniformInt(3, 12));
    for (int i = 0; i < num_nodes; ++i) {
      std::string name;
      int len = static_cast<int>(rng.UniformInt(1, 3));
      for (int j = 0; j < len; ++j) {
        name += pieces[static_cast<size_t>(
            rng.UniformInt(0, kNumPieces - 1))];
      }
      NodeId n = g.AddNode(name);
      g.AddEdge(static_cast<NodeId>(rng.UniformInt(0, n - 1)), n);
    }

    DataGraph loaded;
    std::string error;
  ASSERT_TRUE(LoadGraphV2Exact(EncodeGraph(g), &loaded, &error)) << error;
    SCOPED_TRACE("trial " + std::to_string(trial));
    ExpectSameGraph(loaded, g);
  }
}

TEST(SerializationTest, IndexRoundTrip) {
  Rng rng(503);
  DataGraph g = testing_util::RandomGraph(150, 4, 25, &rng);
  LabelRequirements reqs;
  reqs[2] = 2;
  reqs[3] = 3;
  DkIndex dk = DkIndex::Build(&g, reqs);

  std::string buf;
  StringSink sink(&buf);
  ASSERT_TRUE(SaveIndexV2(dk.index(), &sink));
  IndexGraph loaded(&g);
  size_t pos = 0;
  std::string error;
  ASSERT_TRUE(LoadIndexV2(buf, &pos, &g, &loaded, &error)) << error;
  EXPECT_EQ(pos, buf.size());

  ASSERT_EQ(loaded.NumIndexNodes(), dk.index().NumIndexNodes());
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    EXPECT_EQ(loaded.index_of(n), dk.index().index_of(n));
  }
  for (IndexNodeId i = 0; i < loaded.NumIndexNodes(); ++i) {
    EXPECT_EQ(loaded.k(i), dk.index().k(i));
    EXPECT_EQ(loaded.label(i), dk.index().label(i));
  }
  EXPECT_TRUE(loaded.ValidateEdges(&error)) << error;  // adjacency rederived
}

TEST(SerializationTest, DkIndexRoundTripPreservesBehavior) {
  XmarkOptions options;
  options.scale = 0.1;
  DataGraph g = GenerateXmarkGraph(options).graph;
  Rng rng(505);
  std::vector<std::string> queries;
  for (int i = 0; i < 10; ++i) {
    queries.push_back(testing_util::RandomChainQuery(
        g, static_cast<int>(rng.UniformInt(2, 4)), &rng));
  }
  LabelRequirements reqs =
      MineRequirementsFromText(queries, g.labels(), nullptr);
  DkIndex dk = DkIndex::Build(&g, reqs);

  const std::string payload = EncodeDkIndex(dk);
  DataGraph loaded_graph;
  std::string error;
  auto loaded = LoadDkIndexV2Exact(payload, &loaded_graph, &error);
  ASSERT_TRUE(loaded.has_value()) << error;

  // Identical answers and identical tuning semantics after the round trip.
  for (const std::string& text : queries) {
    PathExpression q = testing_util::MustParse(text, loaded_graph.labels());
    PathExpression q0 = testing_util::MustParse(text, g.labels());
    EXPECT_EQ(EvaluateOnIndex(loaded->index(), q),
              EvaluateOnIndex(dk.index(), q0))
        << text;
  }
  for (LabelId l = 0; l < g.labels().size(); ++l) {
    EXPECT_EQ(loaded->effective_requirement(l), dk.effective_requirement(l));
  }
  // The loaded index keeps working as a live index: updates still apply.
  auto edges = loaded_graph.NodesWithLabel(
      loaded_graph.labels().Find("person"));
  ASSERT_FALSE(edges.empty());
  loaded->AddEdge(edges.front(), edges.back());
  std::string invariant;
  EXPECT_TRUE(loaded->index().ValidateDkConstraint(&invariant)) << invariant;
}

TEST(SerializationTest, FileRoundTrip) {
  Rng rng(507);
  DataGraph g = testing_util::RandomGraph(80, 3, 10, &rng);
  DkIndex dk = DkIndex::Build(&g, {{2, 2}});
  const std::string dir = ::testing::TempDir() + "dki_serialization_" +
                          std::to_string(::getpid());
  std::string error;
  ASSERT_TRUE(EnsureDir(dir, &error)) << error;
  const std::string path = dir + "/index.dki";
  ASSERT_TRUE(SaveDkIndexToFile(dk, path));

  // The file is exactly the v2 payload.
  std::string contents;
  ASSERT_TRUE(ReadFileToString(path, &contents, &error)) << error;
  EXPECT_EQ(contents, EncodeDkIndex(dk));

  DataGraph loaded_graph;
  auto loaded = LoadDkIndexFromFile(path, &loaded_graph, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->index().NumIndexNodes(), dk.index().NumIndexNodes());
  ExpectSameGraph(loaded_graph, g);

  // A complete file is exactly one payload: trailing bytes are rejected.
  ASSERT_TRUE(AtomicWriteFile(path, contents + "x", &error)) << error;
  DataGraph trailing_graph;
  EXPECT_FALSE(LoadDkIndexFromFile(path, &trailing_graph, &error));
  EXPECT_NE(error.find("trailing"), std::string::npos) << error;

  const std::string graph_path = dir + "/graph.dki";
  ASSERT_TRUE(SaveGraphToFile(g, graph_path));
  DataGraph graph_only;
  ASSERT_TRUE(LoadGraphFromFile(graph_path, &graph_only, &error)) << error;
  ExpectSameGraph(graph_only, g);

  DataGraph missing;
  EXPECT_FALSE(LoadGraphFromFile(dir + "/absent.dki", &missing, &error));
  std::remove(path.c_str());
  std::remove(graph_path.c_str());
  ::rmdir(dir.c_str());
}

TEST(SerializationTest, RejectsCorruptInput) {
  const std::string magic = "dki-graph v2\n";
  const std::string two_labels = LabelTable({"ROOT", "VALUE"});
  struct Case {
    const char* name;
    std::string data;
  };
  const Case cases[] = {
      {"empty", ""},
      {"bad magic", "dki-blob v2\n" + two_labels},
      {"other version", "dki-graph v3\n" + two_labels + Varints({1, 0, 0})},
      {"missing labels", magic},
      {"too few labels", magic + LabelTable({"ROOT"})},
      {"duplicate label", magic + LabelTable({"ROOT", "ROOT"})},
      {"root not ROOT",
       magic + LabelTable({"ROOT", "VALUE", "a"}) + Varints({1, 2, 0})},
      {"node label out of range", magic + two_labels + Varints({2, 0, 5})},
      {"edge out of range", magic + two_labels + Varints({1, 0, 1, 10})},
      {"truncated edges", magic + two_labels + Varints({1, 0, 1})},
  };
  for (const Case& c : cases) {
    DataGraph g;
    size_t pos = 0;
    std::string error;
    EXPECT_FALSE(LoadGraphV2(c.data, &pos, &g, &error)) << c.name;
    EXPECT_FALSE(error.empty()) << c.name;
  }
}

// Crash-safety sweep: a load from a buffer cut off at ANY byte boundary (a
// torn write, a partial copy) must fail with a non-empty error — every
// section is count-prefixed, so no strict prefix is a complete graph. It
// must never crash or yield a half-loaded hybrid.
TEST(SerializationTest, GraphPrefixTruncationSweep) {
  Rng rng(511);
  DataGraph g = testing_util::RandomGraph(60, 4, 10, &rng);
  const std::string full = EncodeGraph(g);

  for (size_t cut = 0; cut < full.size(); ++cut) {
    DataGraph loaded;
    size_t pos = 0;
    std::string error;
    EXPECT_FALSE(LoadGraphV2(full.substr(0, cut), &pos, &loaded, &error))
        << "cut=" << cut;
    EXPECT_FALSE(error.empty()) << "cut=" << cut;
  }
}

TEST(SerializationTest, DkIndexPrefixTruncationSweep) {
  Rng rng(513);
  DataGraph g = testing_util::RandomGraph(50, 3, 8, &rng);
  DkIndex dk = DkIndex::Build(&g, {{2, 2}});
  const std::string full = EncodeDkIndex(dk);

  for (size_t cut = 0; cut < full.size(); ++cut) {
    DataGraph loaded_graph;
    size_t pos = 0;
    std::string error;
    EXPECT_FALSE(
        LoadDkIndexV2(full.substr(0, cut), &pos, &loaded_graph, &error))
        << "cut=" << cut;
    EXPECT_FALSE(error.empty()) << "cut=" << cut;
  }
}

// Regression: any single-byte change to the magic line is fatal, never
// silently tolerated.
TEST(SerializationTest, GraphHeaderByteFlipsAreRejected) {
  DataGraph g = testing_util::BuildMovieGraph();
  const std::string full = EncodeGraph(g);
  const size_t header_len = full.find('\n');
  ASSERT_NE(header_len, std::string::npos);

  for (size_t i = 0; i < header_len; ++i) {
    std::string bad = full;
    bad[i] ^= 0x04;  // stays printable for every header character
    DataGraph loaded;
    size_t pos = 0;
    std::string error;
    EXPECT_FALSE(LoadGraphV2(bad, &pos, &loaded, &error)) << "byte " << i;
    EXPECT_FALSE(error.empty()) << "byte " << i;
  }
}

// Byte flips anywhere in a saved D(k)-index must never crash the decoder or
// produce an index that fails its own structural invariants: each flip
// either fails the load with an error, or yields an index whose extents
// still partition the graph (a flip inside a label name, say, is
// indistinguishable from a different valid payload — the checkpoint
// layer's CRC exists precisely because this format cannot detect those).
// The bare decoder is fed the flipped bytes; no CRC stands in front.
TEST(SerializationTest, DkIndexByteFlipSweepNeverCrashesOrHalfLoads) {
  Rng rng(515);
  DataGraph g = testing_util::RandomGraph(40, 3, 6, &rng);
  DkIndex dk = DkIndex::Build(&g, {{2, 2}});
  const std::string full = EncodeDkIndex(dk);
  int64_t rejected = 0;

  for (size_t i = 0; i < full.size(); ++i) {
    std::string bad = full;
    bad[i] ^= 0x11;
    DataGraph loaded_graph;
    size_t pos = 0;
    std::string error;
    auto loaded = LoadDkIndexV2(bad, &pos, &loaded_graph, &error);
    if (!loaded.has_value()) {
      EXPECT_FALSE(error.empty()) << "byte " << i;
      ++rejected;
      continue;
    }
    EXPECT_LE(pos, bad.size()) << "byte " << i;
    std::string invariant;
    EXPECT_TRUE(loaded->index().ValidatePartition(&invariant))
        << "byte " << i << ": " << invariant;
  }
  // Magic lines and structure bytes dominate a payload this small, so most
  // flips must be caught by the decoder itself.
  EXPECT_GT(rejected * 2, static_cast<int64_t>(full.size()));
}

TEST(SerializationTest, RejectsCorruptIndex) {
  DataGraph g;
  NodeId a = g.AddNode("a");
  ASSERT_EQ(g.label(a), 2);
  const std::string magic = "dki-index v2\n";
  const std::string bad_cases[] = {
      "",                                              // empty
      "dki-index v3\n" + Varints({1, 0, 0, 2, 0, 1}),  // other version
      magic + Varints({1}),                            // truncated
      magic + Varints({3}),                            // blocks > nodes
      magic + Varints({1, 0, 0, 1, 10}),               // member range
      magic + Varints({1, 0, 0, 2, 0, 0}),             // duplicate member
      magic + Varints({2, 0, 0, 1, 0, 1, 0, 1, 2}),    // label mismatch
      magic + Varints({1, 0, 0, 1, 0}),                // node 1 missing
  };
  for (const std::string& data : bad_cases) {
    IndexGraph index(&g);
    size_t pos = 0;
    std::string error;
    EXPECT_FALSE(LoadIndexV2(data, &pos, &g, &index, &error)) << data;
    EXPECT_FALSE(error.empty()) << data;
  }
}

}  // namespace
}  // namespace dki
