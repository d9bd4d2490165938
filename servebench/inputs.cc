#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <unordered_set>

#include "common/random.h"
#include "common/string_util.h"
#include "datagen/xmark_generator.h"
#include "graph/label_table.h"
#include "query/load_analyzer.h"
#include "query/workload.h"
#include "xml/xml_to_graph.h"
#include "xml/xml_writer.h"

namespace servebench {

using dki::DataGraph;
using dki::LabelTable;
using dki::NodeId;
using dki::Rng;

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

bool LoadXmark(const std::string& xml_text, DataGraph* graph,
               std::string* error) {
  dki::XmlToGraphResult result;
  if (!dki::LoadXmlAsGraph(xml_text, dki::XmarkGraphOptions(), &result,
                           error)) {
    return false;
  }
  *graph = std::move(result.graph);
  return true;
}

namespace {

constexpr uint64_t kPoolSeed = 20030609;

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "servebench: %s\n", what.c_str());
  std::exit(2);
}

bool Queryable(const DataGraph& g, NodeId n) {
  const dki::LabelId l = g.label(n);
  return l != LabelTable::kRootLabel && l != LabelTable::kValueLabel;
}

// Distinct label chains of 2..5 labels read off random downward walks, so
// every chain occurs in the data.
std::vector<std::string> SampleChains(const DataGraph& g, Rng* rng) {
  std::set<std::string> chains;
  const int64_t walks = std::max<int64_t>(20000, 3 * g.NumNodes());
  std::vector<NodeId> eligible;
  for (int64_t i = 0; i < walks; ++i) {
    NodeId cur = static_cast<NodeId>(rng->UniformInt(1, g.NumNodes() - 1));
    if (!Queryable(g, cur)) continue;
    const int len = static_cast<int>(rng->UniformInt(2, 5));
    std::vector<std::string> labels = {g.label_name(cur)};
    while (static_cast<int>(labels.size()) < len) {
      eligible.clear();
      for (NodeId c : g.children(cur)) {
        if (Queryable(g, c)) eligible.push_back(c);
      }
      if (eligible.empty()) break;
      cur = rng->Pick(eligible);
      labels.push_back(g.label_name(cur));
    }
    if (labels.size() >= 2) chains.insert(dki::StrJoin(labels, "."));
  }
  return {chains.begin(), chains.end()};
}

std::vector<std::string> MakeWidePool(const DataGraph& g, Rng* rng) {
  std::vector<std::string> chains = SampleChains(g, rng);
  if (chains.size() < 2) Die("dataset too small for the wide pool");
  std::vector<std::string> pool;
  std::unordered_set<std::string> seen;
  auto add = [&](std::string text) {
    if (seen.insert(text).second) pool.push_back(std::move(text));
  };
  for (const std::string& c : chains) {
    add(c);
    add("_*." + c);
    add("_." + c);
    std::vector<std::string> parts = dki::StrSplit(c, '.');
    if (parts.size() >= 3) {
      const size_t mid = static_cast<size_t>(
          rng->UniformInt(1, static_cast<int64_t>(parts.size()) - 2));
      parts[mid] = std::string("_");
      add(dki::StrJoin(parts, "."));
    }
  }
  // Two-chain alternations fill the pool up to its target size.
  const int64_t last = static_cast<int64_t>(chains.size()) - 1;
  for (int64_t attempts = 0;
       static_cast<int>(pool.size()) < kWidePoolSize && attempts < 50 * kWidePoolSize;
       ++attempts) {
    const std::string& a = chains[static_cast<size_t>(rng->UniformInt(0, last))];
    const std::string& b = chains[static_cast<size_t>(rng->UniformInt(0, last))];
    if (a != b) add("(" + a + "|" + b + ")");
  }
  rng->Shuffle(&pool);
  if (static_cast<int>(pool.size()) > kWidePoolSize) pool.resize(kWidePoolSize);
  return pool;
}

// Section 6.2's recipe: a random ID/IDREF label pair, then one node of each
// label. Edges already in the data are skipped so every toggle starts with
// an add.
std::vector<std::pair<NodeId, NodeId>> MakeEdgePool(const DataGraph& g,
                                                    Rng* rng) {
  std::vector<std::pair<std::vector<NodeId>, std::vector<NodeId>>> groups;
  for (const auto& [from, to] : dki::XmarkRefLabelPairs()) {
    const auto& froms = g.NodesWithLabel(g.labels().Find(from));
    const auto& tos = g.NodesWithLabel(g.labels().Find(to));
    if (!froms.empty() && !tos.empty()) groups.emplace_back(froms, tos);
  }
  if (groups.empty()) Die("no ID/IDREF label pairs in the dataset");
  std::set<std::pair<NodeId, NodeId>> seen;
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (int attempts = 0;
       static_cast<int>(edges.size()) < kEdgePoolSize && attempts < 100 * kEdgePoolSize;
       ++attempts) {
    const auto& [froms, tos] = rng->Pick(groups);
    const NodeId u = rng->Pick(froms);
    const NodeId v = rng->Pick(tos);
    if (u == v || g.HasEdge(u, v) || !seen.insert({u, v}).second) continue;
    edges.emplace_back(u, v);
  }
  if (edges.empty()) Die("no candidate update edges");
  return edges;
}

// A copy of a small existing subtree (at most 8 nodes), so the insertion
// reuses known labels and leaves the label table unchanged.
DataGraph MakeSubgraph(const DataGraph& g, Rng* rng) {
  std::vector<NodeId> roots;
  for (const char* label : {"person", "item", "open_auction"}) {
    const auto& nodes = g.NodesWithLabel(g.labels().Find(label));
    roots.insert(roots.end(), nodes.begin(), nodes.end());
  }
  NodeId top = roots.empty()
                   ? static_cast<NodeId>(rng->UniformInt(1, g.NumNodes() - 1))
                   : rng->Pick(roots);
  DataGraph h;
  std::vector<std::pair<NodeId, NodeId>> queue = {
      {top, h.AddNode(g.labels().Name(g.label(top)))}};
  h.AddEdge(h.root(), queue[0].second);
  for (size_t head = 0; head < queue.size() && queue.size() < 8; ++head) {
    for (NodeId c : g.children(queue[head].first)) {
      if (queue.size() >= 8) break;
      const NodeId copy = h.AddNode(g.labels().Name(g.label(c)));
      h.AddEdge(queue[head].second, copy);
      queue.emplace_back(c, copy);
    }
  }
  return h;
}

dki::LabelRequirements Mine(const std::vector<std::string>& queries,
                            const LabelTable& labels) {
  dki::LoadAnalyzerOptions options;
  options.max_requirement = 4;  // A(4) is sound for the 2..5-label chains
  std::vector<std::string> errors;
  dki::LabelRequirements reqs =
      dki::MineRequirementsFromText(queries, labels, &errors, options);
  if (!errors.empty()) Die("hot pool query failed to parse: " + errors[0]);
  return reqs;
}

}  // namespace

Inputs MakeInputs(uint64_t seed, double scale, double seconds,
                  bool open_loop_writes) {
  Inputs in;
  dki::XmarkOptions xmark;
  xmark.scale = scale;
  // The dataset and the two query pools are fixed properties of the
  // benchmark, the same for every seed (XMark's own default seed); --seed
  // varies what is asked of them: the request streams, the write arrivals,
  // the order of edge toggles and the inserted subgraphs. Letting the seed redraw
  // the pools made run-to-run spread mostly a matter of which queries were
  // drawn (read_wide's read_qps spread 18% across seeds).
  xmark.seed = dki::XmarkOptions().seed;
  in.xml_text = dki::WriteXml(dki::GenerateXmarkDocument(xmark));

  DataGraph g;
  std::string error;
  if (!LoadXmark(in.xml_text, &g, &error)) Die("generated XML: " + error);

  Rng pool_rng(MixSeed(kPoolSeed, 2));
  dki::WorkloadOptions wl;
  wl.num_queries = kHotPoolSize;
  in.hot_pool = dki::GenerateWorkload(g, wl, &pool_rng).queries;
  if (in.hot_pool.size() < 2) Die("dataset too small for the hot pool");
  Rng wide_rng(MixSeed(kPoolSeed, 3));
  in.wide_pool = MakeWidePool(g, &wide_rng);

  const size_t half = in.hot_pool.size() / 2;
  in.build_reqs = Mine(in.hot_pool, g.labels());
  in.retune_a = Mine({in.hot_pool.begin(), in.hot_pool.begin() + half},
                     g.labels());
  in.retune_b = Mine({in.hot_pool.begin() + half, in.hot_pool.end()},
                     g.labels());

  // The candidate edges and NURand's hot-set constant are fixed too: which
  // edges are hot decides how much local similarity the index loses, and
  // with them drawn per seed the readers' cache misses cost 609 data pairs
  // per query under one seed and 935 under another.
  Rng edge_rng(MixSeed(kPoolSeed, 4));
  const std::vector<std::pair<NodeId, NodeId>> edges =
      MakeEdgePool(g, &edge_rng);
  const int64_t span = static_cast<int64_t>(edges.size());
  const int64_t nurand_a = Rng::DefaultNURandA(span);
  const int64_t nurand_c = edge_rng.UniformInt(0, nurand_a);
  Rng write_rng(MixSeed(seed, 4));
  std::vector<char> present(edges.size(), 0);
  auto toggle = [&](int64_t due_ns) {
    const size_t i = static_cast<size_t>(
        write_rng.NURand(nurand_a, 0, span - 1, nurand_c));
    const auto [u, v] = edges[i];
    present[i] ^= 1;
    WriteOp w;
    w.due_ns = due_ns;
    w.op = present[i] ? dki::UpdateOp::AddEdge(u, v)
                      : dki::UpdateOp::RemoveEdge(u, v);
    in.writes.push_back(std::move(w));
  };

  if (!open_loop_writes) {
    for (int i = 0; i < kProbeWrites; ++i) toggle(0);
    return in;
  }
  const double window_ns = seconds * 1e9;
  for (double t = 0;;) {
    t += -std::log(1.0 - write_rng.UniformDouble()) / kToggleRate * 1e9;
    if (t >= window_ns) break;
    toggle(static_cast<int64_t>(t));
  }
  bool use_a = true;
  for (double t = kRetunePeriodS; t < seconds; t += kRetunePeriodS) {
    WriteOp w;
    w.kind = WriteOp::Kind::kRetune;
    w.due_ns = static_cast<int64_t>(t * 1e9);
    w.op = dki::UpdateOp::Retune(use_a ? in.retune_a : in.retune_b,
                                 /*shrink=*/true);
    use_a = !use_a;
    in.writes.push_back(std::move(w));
  }
  for (double t = kSubgraphPeriodS / 4; t < seconds; t += kSubgraphPeriodS) {
    WriteOp w;
    w.kind = WriteOp::Kind::kSubgraph;
    w.due_ns = static_cast<int64_t>(t * 1e9);
    w.op = dki::UpdateOp::AddSubgraph(MakeSubgraph(g, &write_rng));
    in.writes.push_back(std::move(w));
  }
  std::stable_sort(in.writes.begin(), in.writes.end(),
                   [](const WriteOp& a, const WriteOp& b) {
                     return a.due_ns < b.due_ns;
                   });
  return in;
}

}  // namespace servebench
