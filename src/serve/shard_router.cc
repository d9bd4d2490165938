#include "serve/shard_router.h"

#include <algorithm>
#include <mutex>
#include <numeric>
#include <sstream>
#include <utility>

#include "common/logging.h"
#include "io/fs_util.h"

namespace dki {
namespace {

// Deterministic across platforms (std::hash is not), so a manifest written
// on one machine routes identically everywhere.
uint64_t Fnv1a(std::string_view s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// Union-find with path halving; plain functions over a parent vector.
int32_t Find(std::vector<int32_t>* parent, int32_t x) {
  while ((*parent)[static_cast<size_t>(x)] != x) {
    (*parent)[static_cast<size_t>(x)] =
        (*parent)[static_cast<size_t>((*parent)[static_cast<size_t>(x)])];
    x = (*parent)[static_cast<size_t>(x)];
  }
  return x;
}

void Unite(std::vector<int32_t>* parent, int32_t a, int32_t b) {
  a = Find(parent, a);
  b = Find(parent, b);
  if (a == b) return;
  // Deterministic representative: the smaller id wins.
  if (a < b) {
    (*parent)[static_cast<size_t>(b)] = a;
  } else {
    (*parent)[static_cast<size_t>(a)] = b;
  }
}

}  // namespace

ShardRouter ShardRouter::Partition(const DataGraph& graph, int num_shards) {
  DKI_CHECK_GE(num_shards, 1);
  ShardRouter r;
  r.num_shards_ = num_shards;
  r.base_labels_ = graph.labels();
  const NodeId n = static_cast<NodeId>(graph.NumNodes());

  // --- 1. provisional groups: one per subtree root (children of the global
  // root, in id order, BFS over child edges, first claim wins), plus
  // label-hash fallback groups for nodes the root cannot reach.
  std::vector<int32_t> group(static_cast<size_t>(n), -1);
  int32_t num_subtrees = 0;
  std::vector<NodeId> queue;
  for (NodeId c : graph.children(graph.root())) {
    if (c == graph.root() || group[static_cast<size_t>(c)] != -1) continue;
    const int32_t g = num_subtrees++;
    group[static_cast<size_t>(c)] = g;
    queue.assign(1, c);
    for (size_t head = 0; head < queue.size(); ++head) {
      for (NodeId v : graph.children(queue[head])) {
        if (v == graph.root() || group[static_cast<size_t>(v)] != -1) continue;
        group[static_cast<size_t>(v)] = g;
        queue.push_back(v);
      }
    }
  }
  for (NodeId u = 1; u < n; ++u) {
    if (group[static_cast<size_t>(u)] == -1) {
      group[static_cast<size_t>(u)] =
          num_subtrees +
          static_cast<int32_t>(Fnv1a(graph.labels().Name(graph.label(u))) %
                               static_cast<uint64_t>(num_shards));
    }
  }
  const int32_t num_groups = num_subtrees + num_shards;

  // --- 2. edge closure: any edge between two non-root nodes merges their
  // groups, so afterwards no edge crosses a group boundary (IDREF edges
  // included — exactness over balance). Edges INTO the root re-enable
  // downward paths THROUGH the replicated root (x -> 0 -> y), so if any
  // exist, their sources merge with every subtree hanging off the root.
  std::vector<int32_t> parent(static_cast<size_t>(num_groups));
  std::iota(parent.begin(), parent.end(), 0);
  bool edge_into_root = false;
  for (NodeId u = 1; u < n; ++u) {
    for (NodeId v : graph.children(u)) {
      if (v == graph.root()) {
        edge_into_root = true;
        continue;
      }
      Unite(&parent, group[static_cast<size_t>(u)],
            group[static_cast<size_t>(v)]);
    }
  }
  if (edge_into_root) {
    int32_t anchor = -1;
    auto merge = [&](NodeId node) {
      if (node == graph.root()) return;
      if (anchor == -1) {
        anchor = group[static_cast<size_t>(node)];
      } else {
        Unite(&parent, anchor, group[static_cast<size_t>(node)]);
      }
    };
    for (NodeId u = 1; u < n; ++u) {
      for (NodeId v : graph.children(u)) {
        if (v == graph.root()) merge(u);
      }
    }
    for (NodeId c : graph.children(graph.root())) merge(c);
  }

  // --- 3. pack closed groups onto shards: greedy longest-processing-time
  // (descending node count, ties to the earlier group), deterministic.
  std::vector<int64_t> group_size(static_cast<size_t>(num_groups), 0);
  for (NodeId u = 1; u < n; ++u) {
    ++group_size[static_cast<size_t>(Find(&parent, group[static_cast<size_t>(u)]))];
  }
  std::vector<int32_t> order;
  for (int32_t g = 0; g < num_groups; ++g) {
    if (group_size[static_cast<size_t>(g)] > 0) order.push_back(g);
  }
  std::stable_sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
    return group_size[static_cast<size_t>(a)] >
           group_size[static_cast<size_t>(b)];
  });
  std::vector<int32_t> shard_of_group(static_cast<size_t>(num_groups), 0);
  std::vector<int64_t> shard_load(static_cast<size_t>(num_shards), 0);
  for (int32_t g : order) {
    int best = 0;
    for (int s = 1; s < num_shards; ++s) {
      if (shard_load[static_cast<size_t>(s)] <
          shard_load[static_cast<size_t>(best)]) {
        best = s;
      }
    }
    shard_of_group[static_cast<size_t>(g)] = best;
    shard_load[static_cast<size_t>(best)] += group_size[static_cast<size_t>(g)];
  }

  // --- 4. build the shard graphs. Every shard pre-interns the FULL base
  // label table in id order, so label ids agree across shards (and with the
  // global graph). Nodes are copied in ascending global id, which makes
  // each shard's local->global list ascending — the property MapToGlobal's
  // sorted-merge contract rests on.
  r.shard_graphs_.resize(static_cast<size_t>(num_shards));
  for (DataGraph& sg : r.shard_graphs_) {
    for (LabelId l = 0; l < r.base_labels_.size(); ++l) {
      const LabelId got = sg.labels().Intern(r.base_labels_.Name(l));
      DKI_CHECK_EQ(got, l);
    }
  }
  r.global_shard_.assign(static_cast<size_t>(n), kHole);
  r.global_local_.assign(static_cast<size_t>(n), kInvalidNode);
  r.global_shard_[0] = kAllShards;
  r.global_local_[0] = 0;
  r.local_to_global_.assign(static_cast<size_t>(num_shards),
                            std::vector<NodeId>{0});
  for (NodeId u = 1; u < n; ++u) {
    const int32_t s = shard_of_group[static_cast<size_t>(
        Find(&parent, group[static_cast<size_t>(u)]))];
    DataGraph& sg = r.shard_graphs_[static_cast<size_t>(s)];
    const NodeId local = sg.AddNode(graph.label(u));
    DKI_CHECK_EQ(static_cast<size_t>(local),
                 r.local_to_global_[static_cast<size_t>(s)].size());
    r.global_shard_[static_cast<size_t>(u)] = s;
    r.global_local_[static_cast<size_t>(u)] = local;
    r.local_to_global_[static_cast<size_t>(s)].push_back(u);
  }
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : graph.children(u)) {
      if (u == graph.root() && v == graph.root()) {
        // A root self-loop is replicated: with no other edges into the
        // root, every path using it starts at the root and stays inside
        // one shard.
        for (DataGraph& sg : r.shard_graphs_) sg.AddEdgeUnchecked(0, 0);
      } else if (u == graph.root()) {
        const int32_t s = r.global_shard_[static_cast<size_t>(v)];
        r.shard_graphs_[static_cast<size_t>(s)].AddEdgeUnchecked(
            0, r.global_local_[static_cast<size_t>(v)]);
      } else if (v == graph.root()) {
        const int32_t s = r.global_shard_[static_cast<size_t>(u)];
        r.shard_graphs_[static_cast<size_t>(s)].AddEdgeUnchecked(
            r.global_local_[static_cast<size_t>(u)], 0);
      } else {
        const int32_t s = r.global_shard_[static_cast<size_t>(u)];
        DKI_CHECK_EQ(s, r.global_shard_[static_cast<size_t>(v)]);
        r.shard_graphs_[static_cast<size_t>(s)].AddEdgeUnchecked(
            r.global_local_[static_cast<size_t>(u)],
            r.global_local_[static_cast<size_t>(v)]);
      }
    }
  }
  return r;
}

std::optional<ShardRouter::EdgeRoute> ShardRouter::RouteEdge(
    NodeId global_u, NodeId global_v) const {
  std::shared_lock<std::shared_mutex> lock(*mu_);
  const NodeId limit = static_cast<NodeId>(global_shard_.size());
  if (global_u < 0 || global_u >= limit || global_v < 0 ||
      global_v >= limit) {
    return std::nullopt;
  }
  // Edges into the replicated root (self-loops included) would open
  // downward paths through the root that cross shard boundaries; they are
  // outside the single-shard ownership rule.
  if (global_v == 0) return std::nullopt;
  const int32_t sv = global_shard_[static_cast<size_t>(global_v)];
  if (sv == kHole) return std::nullopt;
  if (global_u == 0) {
    return EdgeRoute{sv, 0, global_local_[static_cast<size_t>(global_v)]};
  }
  const int32_t su = global_shard_[static_cast<size_t>(global_u)];
  if (su == kHole || su != sv) return std::nullopt;
  return EdgeRoute{su, global_local_[static_cast<size_t>(global_u)],
                   global_local_[static_cast<size_t>(global_v)]};
}

std::optional<ShardRouter::SubgraphRoute> ShardRouter::RouteSubgraph(
    const DataGraph& h) {
  // Edges back into h's root become edges into the replicated root —
  // rejected for the same reason as in RouteEdge.
  for (NodeId u = 0; u < h.NumNodes(); ++u) {
    for (NodeId v : h.children(u)) {
      if (v == h.root()) return std::nullopt;
    }
  }
  std::unique_lock<std::shared_mutex> lock(*mu_);
  SubgraphRoute route;
  route.new_nodes = h.NumNodes() - 1;
  route.first_global = static_cast<NodeId>(global_shard_.size());
  route.shard =
      route.new_nodes == 0
          ? 0
          : static_cast<int>(Fnv1a(h.label_name(1)) %
                             static_cast<uint64_t>(num_shards_));
  for (NodeId u = 0; u < h.NumNodes(); ++u) {
    if (u == h.root()) continue;
    if (base_labels_.Find(h.label_name(u)) == kInvalidLabel) {
      labels_diverged_ = true;  // sticky, even if the submit is rolled back
    }
  }
  std::vector<NodeId>& locals =
      local_to_global_[static_cast<size_t>(route.shard)];
  for (int64_t j = 0; j < route.new_nodes; ++j) {
    const NodeId global = route.first_global + static_cast<NodeId>(j);
    global_shard_.push_back(route.shard);
    global_local_.push_back(static_cast<NodeId>(locals.size()));
    locals.push_back(global);
  }
  return route;
}

void ShardRouter::RollbackSubgraph(const SubgraphRoute& route) {
  std::unique_lock<std::shared_mutex> lock(*mu_);
  DKI_CHECK_EQ(static_cast<size_t>(route.first_global + route.new_nodes),
               global_shard_.size());
  global_shard_.resize(static_cast<size_t>(route.first_global));
  global_local_.resize(static_cast<size_t>(route.first_global));
  std::vector<NodeId>& locals =
      local_to_global_[static_cast<size_t>(route.shard)];
  locals.resize(locals.size() - static_cast<size_t>(route.new_nodes));
}

int32_t ShardRouter::ShardOfNode(NodeId global) const {
  std::shared_lock<std::shared_mutex> lock(*mu_);
  if (global < 0 || static_cast<size_t>(global) >= global_shard_.size()) {
    return kHole;
  }
  return global_shard_[static_cast<size_t>(global)];
}

NodeId ShardRouter::ToGlobal(int shard, NodeId local) const {
  std::shared_lock<std::shared_mutex> lock(*mu_);
  return local_to_global_[static_cast<size_t>(shard)][static_cast<size_t>(
      local)];
}

void ShardRouter::MapToGlobal(int shard, const std::vector<NodeId>& locals,
                              std::vector<NodeId>* globals) const {
  std::shared_lock<std::shared_mutex> lock(*mu_);
  const std::vector<NodeId>& table =
      local_to_global_[static_cast<size_t>(shard)];
  globals->clear();
  globals->reserve(locals.size());
  for (NodeId l : locals) {
    globals->push_back(table[static_cast<size_t>(l)]);
  }
}

NodeId ShardRouter::next_global() const {
  std::shared_lock<std::shared_mutex> lock(*mu_);
  return static_cast<NodeId>(global_shard_.size());
}

bool ShardRouter::labels_diverged() const {
  std::shared_lock<std::shared_mutex> lock(*mu_);
  return labels_diverged_;
}

bool ShardRouter::SaveManifest(const std::string& path,
                               std::string* error) const {
  std::ostringstream out;
  {
    std::shared_lock<std::shared_mutex> lock(*mu_);
    out << "dkrouter v2\n";
    out << "num_shards " << num_shards_ << "\n";
    out << "labels_diverged " << (labels_diverged_ ? 1 : 0) << "\n";
    out << "next_global " << global_shard_.size() << "\n";
    out << "base_labels " << base_labels_.size() << "\n";
    // Length-prefixed, so a name may hold any byte, newlines included.
    for (LabelId l = 0; l < base_labels_.size(); ++l) {
      const std::string& name = base_labels_.Name(l);
      out << name.size() << ' ' << name << '\n';
    }
    for (int s = 0; s < num_shards_; ++s) {
      const std::vector<NodeId>& locals =
          local_to_global_[static_cast<size_t>(s)];
      out << "shard " << s << " " << locals.size() << "\n";
      for (NodeId g : locals) out << g << "\n";
    }
    out << "end\n";
  }
  return AtomicWriteFile(path, out.str(), error);
}

bool ShardRouter::LoadManifest(const std::string& path, ShardRouter* out,
                               std::string* error) {
  std::string contents;
  if (!ReadFileToString(path, &contents, error)) return false;
  std::istringstream in(contents);
  auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = "router manifest: " + what;
    return false;
  };
  std::string line;
  if (!std::getline(in, line)) return fail("bad header");
  if (line == "dkrouter v1") {
    // v1 wrote one label name per line, which a name holding '\n' broke.
    return fail(
        "unsupported manifest version: dkrouter v1 (newline-delimited label "
        "names), which this build cannot read; rewrite it as dkrouter v2 by "
        "prefixing each label-name line with its byte length and a space");
  }
  if (line != "dkrouter v2") return fail("bad header");
  ShardRouter r;
  std::string key;
  int64_t next_global = 0;
  int64_t num_labels = 0;
  int diverged = 0;
  if (!(in >> key >> r.num_shards_) || key != "num_shards" ||
      r.num_shards_ < 1) {
    return fail("bad num_shards");
  }
  if (!(in >> key >> diverged) || key != "labels_diverged") {
    return fail("bad labels_diverged");
  }
  r.labels_diverged_ = diverged != 0;
  if (!(in >> key >> next_global) || key != "next_global" || next_global < 1) {
    return fail("bad next_global");
  }
  if (!(in >> key >> num_labels) || key != "base_labels" || num_labels < 2) {
    return fail("bad base_labels");
  }
  for (int64_t l = 0; l < num_labels; ++l) {
    // "<length> <bytes>\n"; `>>` skips the previous line's newline.
    size_t length = 0;
    if (!(in >> length) || in.get() != ' ' || length > contents.size()) {
      return fail("bad label name length");
    }
    std::string name(length, '\0');
    if (!in.read(name.data(), static_cast<std::streamsize>(length)) ||
        in.get() != '\n') {
      return fail("truncated label names");
    }
    const LabelId got = r.base_labels_.Intern(name);
    if (got != static_cast<LabelId>(l)) {
      return fail("label names out of order (got '" + name + "')");
    }
  }
  r.global_shard_.assign(static_cast<size_t>(next_global), kHole);
  r.global_local_.assign(static_cast<size_t>(next_global), kInvalidNode);
  r.global_shard_[0] = kAllShards;
  r.global_local_[0] = 0;
  r.local_to_global_.assign(static_cast<size_t>(r.num_shards_), {});
  for (int s = 0; s < r.num_shards_; ++s) {
    int shard_id = -1;
    int64_t count = 0;
    if (!(in >> key >> shard_id >> count) || key != "shard" ||
        shard_id != s || count < 1) {
      return fail("bad shard block");
    }
    std::vector<NodeId>& locals = r.local_to_global_[static_cast<size_t>(s)];
    locals.reserve(static_cast<size_t>(count));
    for (int64_t i = 0; i < count; ++i) {
      int64_t g = -1;
      if (!(in >> g)) return fail("truncated shard id list");
      if (i == 0) {
        if (g != 0) return fail("shard list must start with the root");
        locals.push_back(0);
        continue;
      }
      if (g < 1 || g >= next_global ||
          r.global_shard_[static_cast<size_t>(g)] != kHole) {
        return fail("bad or duplicate global id");
      }
      r.global_shard_[static_cast<size_t>(g)] = s;
      r.global_local_[static_cast<size_t>(g)] =
          static_cast<NodeId>(locals.size());
      locals.push_back(static_cast<NodeId>(g));
    }
  }
  if (!(in >> key) || key != "end") return fail("missing end marker");
  // Partition-time ids are dense, but post-insert manifests may already
  // have holes from a previous reconcile; anything unclaimed stays kHole.
  r.shard_graphs_.clear();
  *out = std::move(r);
  return true;
}

bool ShardRouter::Reconcile(const std::vector<int64_t>& shard_node_counts,
                            std::string* error) {
  std::unique_lock<std::shared_mutex> lock(*mu_);
  if (shard_node_counts.size() != static_cast<size_t>(num_shards_)) {
    if (error != nullptr) *error = "reconcile: shard count mismatch";
    return false;
  }
  for (int s = 0; s < num_shards_; ++s) {
    std::vector<NodeId>& locals = local_to_global_[static_cast<size_t>(s)];
    const int64_t count = shard_node_counts[static_cast<size_t>(s)];
    if (count < 1 || count > static_cast<int64_t>(locals.size())) {
      if (error != nullptr) {
        *error = "reconcile: shard " + std::to_string(s) + " has " +
                 std::to_string(count) + " nodes but the manifest maps " +
                 std::to_string(locals.size());
      }
      return false;
    }
    // Reservations past the recovered node count belong to ops the crash
    // lost; their global ids become permanent holes.
    for (size_t i = static_cast<size_t>(count); i < locals.size(); ++i) {
      global_shard_[static_cast<size_t>(locals[i])] = kHole;
      global_local_[static_cast<size_t>(locals[i])] = kInvalidNode;
    }
    locals.resize(static_cast<size_t>(count));
  }
  return true;
}

}  // namespace dki
