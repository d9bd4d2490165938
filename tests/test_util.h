#ifndef DKINDEX_TESTS_TEST_UTIL_H_
#define DKINDEX_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "common/random.h"
#include "graph/data_graph.h"
#include "graph/graph_builder.h"
#include "index/dk_index.h"
#include "index/index_graph.h"
#include "pathexpr/path_expression.h"

namespace dki {
namespace testing_util {

// A fresh, empty directory at `path` (leftovers of an earlier run are wiped
// first), removed with everything in it when the object dies — at the end
// of the test that made it. It stands in for its path string.
class ScopedTempDir {
 public:
  explicit ScopedTempDir(std::string path) : path_(std::move(path)) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScopedTempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::string& path() const { return path_; }
  operator const std::string&() const { return path_; }
  friend std::string operator+(const ScopedTempDir& dir,
                               std::string_view suffix) {
    return dir.path_ + std::string(suffix);
  }

 private:
  std::string path_;
};

// Builds a small movie database in the spirit of the paper's Figure 1:
// movieDB contains directors and actors; both contain movies (directors'
// movies carry titles), and reference edges make some movies shared between
// a director and an actor, so some `movie` nodes have an `actor` parent and
// others do not (the paper's running bisimilarity example).
inline DataGraph BuildMovieGraph() {
  DataGraph g;
  GraphBuilder b(&g);

  b.Open("movieDB");

  b.Open("director");  // director #1
  b.ValueLeaf("name");
  NodeId m1 = b.Open("movie");  // movie with actor link
  b.ValueLeaf("title");
  b.Close();
  b.Open("movie");  // movie only directed
  b.ValueLeaf("title");
  b.Close();
  b.Close();  // director #1

  b.Open("director");  // director #2
  b.ValueLeaf("name");
  b.Open("movie");
  b.ValueLeaf("title");
  b.Close();
  b.Close();  // director #2

  b.Open("actor");  // actor #1 references director #1's movie
  b.ValueLeaf("name");
  NodeId a1 = b.cursor();
  b.Close();

  b.Open("actor");  // actor #2 with an own movie subtree
  b.ValueLeaf("name");
  NodeId m4 = b.Open("movie");
  b.ValueLeaf("title");
  b.Open("actor");
  b.ValueLeaf("name");
  b.Close();
  b.Close();
  b.Close();

  b.Close();  // movieDB

  g.AddEdge(a1, m1);  // reference edge: actor #1 -> shared movie
  (void)m4;
  return g;
}

// Random document-shaped graph: `n` non-root nodes with labels drawn from an
// alphabet of `num_labels`, tree edges to random earlier nodes, plus
// `extra_edges` random cross edges. Always fully reachable from the root.
inline DataGraph RandomGraph(int n, int num_labels, int extra_edges,
                             Rng* rng) {
  DataGraph g;
  std::vector<std::string> labels;
  for (int i = 0; i < num_labels; ++i) {
    labels.push_back(std::string(1, static_cast<char>('a' + i % 26)) +
                     (i >= 26 ? std::to_string(i / 26) : ""));
  }
  for (int i = 0; i < n; ++i) {
    NodeId node = g.AddNode(labels[static_cast<size_t>(
        rng->UniformInt(0, num_labels - 1))]);
    NodeId parent = static_cast<NodeId>(rng->UniformInt(0, node - 1));
    g.AddEdge(parent, node);
  }
  for (int i = 0; i < extra_edges && g.NumNodes() > 2; ++i) {
    NodeId u = static_cast<NodeId>(rng->UniformInt(1, g.NumNodes() - 1));
    NodeId v = static_cast<NodeId>(rng->UniformInt(1, g.NumNodes() - 1));
    g.AddEdge(u, v);
  }
  return g;
}

// Random chain query over labels that actually occur in `g`, generated as an
// upward walk so it has a non-empty result.
inline std::string RandomChainQuery(const DataGraph& g, int len, Rng* rng) {
  NodeId target = static_cast<NodeId>(rng->UniformInt(1, g.NumNodes() - 1));
  std::vector<std::string> names = {g.label_name(target)};
  NodeId cur = target;
  for (int i = 1; i < len; ++i) {
    const auto& parents = g.parents(cur);
    if (parents.empty()) break;
    cur = parents[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(parents.size()) - 1))];
    if (g.label(cur) == LabelTable::kRootLabel) break;
    names.push_back(g.label_name(cur));
  }
  std::string out;
  for (auto it = names.rbegin(); it != names.rend(); ++it) {
    if (!out.empty()) out.push_back('.');
    out.append(*it);
  }
  return out;
}

// The A(k) partition of `g` through the library's one round loop: k on
// every label (IndexGraph::kInfiniteSimilarity gives the 1-index).
inline Partition UniformPartition(const DataGraph& g, int k,
                                  ThreadPool* pool = nullptr) {
  const std::vector<int> req(static_cast<size_t>(g.labels().size()), k);
  std::vector<int> block_k;
  return BuildDkPartition(g, req, &block_k, pool);
}

// Exact equality of two index graphs over equal data graphs, node by node:
// the same index node for every data node, and the same label, k, extent
// and adjacency for every index node. Every engine numbers its blocks in
// first-appearance order, so equal partitions compare equal here without
// any remapping.
inline void ExpectSameIndex(const IndexGraph& a, const IndexGraph& b) {
  ASSERT_EQ(a.graph().NumNodes(), b.graph().NumNodes());
  ASSERT_EQ(a.NumIndexNodes(), b.NumIndexNodes());
  for (NodeId n = 0; n < a.graph().NumNodes(); ++n) {
    ASSERT_EQ(a.index_of(n), b.index_of(n)) << "data node " << n;
  }
  for (IndexNodeId i = 0; i < a.NumIndexNodes(); ++i) {
    ASSERT_EQ(a.label(i), b.label(i)) << "index node " << i;
    ASSERT_EQ(a.k(i), b.k(i)) << "index node " << i;
    ASSERT_EQ(a.extent(i), b.extent(i)) << "index node " << i;
    ASSERT_EQ(a.children(i), b.children(i)) << "index node " << i;
    ASSERT_EQ(a.parents(i), b.parents(i)) << "index node " << i;
  }
}

inline PathExpression MustParse(const std::string& text,
                                const LabelTable& labels) {
  std::string error;
  auto expr = PathExpression::Parse(text, labels, &error);
  DKI_CHECK(expr.has_value());
  return std::move(*expr);
}

// True if every state of `a` is reachable from a start state and can reach
// an accept state (plain fixpoints, independent of Automaton's own code).
inline bool EveryStateUseful(const Automaton& a) {
  const int n = a.num_states();
  std::vector<bool> reach(static_cast<size_t>(n), false);
  std::vector<bool> coreach(static_cast<size_t>(n), false);
  for (int q : a.start_states()) reach[static_cast<size_t>(q)] = true;
  for (int q = 0; q < n; ++q) coreach[static_cast<size_t>(q)] = a.is_accept(q);
  for (bool changed = true; changed;) {
    changed = false;
    for (int q = 0; q < n; ++q) {
      for (const Automaton::Transition& t : a.transitions(q)) {
        const size_t from = static_cast<size_t>(q);
        const size_t to = static_cast<size_t>(t.to);
        if (reach[from] && !reach[to]) reach[to] = changed = true;
        if (coreach[to] && !coreach[from]) coreach[from] = changed = true;
      }
    }
  }
  for (int q = 0; q < n; ++q) {
    if (!reach[static_cast<size_t>(q)] || !coreach[static_cast<size_t>(q)]) {
      return false;
    }
  }
  return true;
}

}  // namespace testing_util
}  // namespace dki

#endif  // DKINDEX_TESTS_TEST_UTIL_H_
