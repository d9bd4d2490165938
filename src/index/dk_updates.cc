// Section 5.1 and 5.2 of the paper: D(k)-index maintenance under data
// changes — subgraph addition and edge addition (Algorithms 4 and 5).
// Subgraph addition no longer runs the paper's Algorithm 3 quotient
// construction: it marks the inserted nodes dirty and hands the partition to
// the incremental re-refinement engine (dk_incremental.cc), which yields the
// exact fresh-construction index instead of a conservative quotient.

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "index/dk_index.h"

namespace dki {

namespace {

// Label path keyed map: path (outermost label first) -> index nodes that
// start a matching node path. The paths in Algorithm 4 are short (bounded by
// the target's old local similarity), so ordered maps keep this simple and
// deterministic.
using PathMap = std::map<std::vector<LabelId>, std::set<IndexNodeId>>;

// One backward-expansion step of Algorithm 4: every path grows by one label
// on the left, fanning out over the parents of its start nodes.
PathMap ExpandBackwards(const IndexGraph& index, const PathMap& paths,
                        int64_t* expanded) {
  PathMap out;
  for (const auto& [path, starts] : paths) {
    for (IndexNodeId w : starts) {
      for (IndexNodeId x : index.parents(w)) {
        std::vector<LabelId> longer;
        longer.reserve(path.size() + 1);
        longer.push_back(index.label(x));
        longer.insert(longer.end(), path.begin(), path.end());
        out[std::move(longer)].insert(x);
        ++*expanded;
      }
    }
  }
  return out;
}

// True if every key (label path) of `sub` also occurs in `super`.
bool KeysSubset(const PathMap& sub, const PathMap& super) {
  for (const auto& [path, starts] : sub) {
    (void)starts;
    if (super.find(path) == super.end()) return false;
  }
  return true;
}

int64_t TotalStarts(const PathMap& m) {
  int64_t total = 0;
  for (const auto& [path, starts] : m) {
    (void)path;
    total += static_cast<int64_t>(starts.size());
  }
  return total;
}

}  // namespace

int DkIndex::UpdateLocalSimilarity(IndexNodeId u_node, IndexNodeId v_node,
                                   int64_t* label_paths_expanded,
                                   int64_t cap_paths) const {
  int64_t dummy = 0;
  if (label_paths_expanded == nullptr) label_paths_expanded = &dummy;

  // V's new local similarity can not exceed k_U + 1 (the D(k) constraint
  // along the new edge) or its old value k_V.
  const int upbound = std::min(index_.k(u_node) + 1, index_.k(v_node));
  if (upbound <= 0) return 0;

  // Paths of length 1: through the new edge it is just label(U); in the
  // original I_G, the labels of V's current parents.
  PathMap new_paths;
  new_paths[{index_.label(u_node)}] = {u_node};
  PathMap old_paths;
  for (IndexNodeId p : index_.parents(v_node)) {
    old_paths[{index_.label(p)}].insert(p);
  }

  int k_n = 0;
  while (k_n < upbound) {
    if (!KeysSubset(new_paths, old_paths)) break;
    ++k_n;
    if (k_n >= upbound) break;  // further expansion cannot raise the result
    new_paths = ExpandBackwards(index_, new_paths, label_paths_expanded);
    old_paths = ExpandBackwards(index_, old_paths, label_paths_expanded);
    if (new_paths.empty()) {
      // No longer paths arrive through the new edge; everything longer
      // trivially matches. The upbound still applies.
      k_n = upbound;
      break;
    }
    if (TotalStarts(new_paths) + TotalStarts(old_paths) > cap_paths) {
      break;  // defensive cap: stop with the (conservative) current k_n
    }
  }
  return k_n;
}

int64_t DkIndex::DemotionWave(IndexNodeId start) {
  // Algorithm 5, step 3: BFS from the target; crossing edge W -> X lowers
  // k(X) to k(W) + 1 when that is smaller, and stops the wave otherwise.
  // Each queue entry records the k that caused the enqueue; a node demoted
  // again while queued leaves a stale entry behind, which is skipped at pop
  // (its lower k already re-enqueued it). On a diamond DAG every node is
  // therefore expanded once per distinct k it reaches — not once per
  // converging path — and the returned count is the number of DISTINCT index
  // nodes the wave demoted (the start node included).
  std::unordered_set<IndexNodeId> demoted = {start};
  std::deque<std::pair<IndexNodeId, int>> queue;
  queue.emplace_back(start, index_.k(start));
  while (!queue.empty()) {
    auto [w, k_w] = queue.front();
    queue.pop_front();
    if (index_.k(w) != k_w) continue;  // stale: demoted further after enqueue
    for (IndexNodeId x : index_.children(w)) {
      if (k_w + 1 < index_.k(x)) {
        index_.set_k(x, k_w + 1);
        demoted.insert(x);
        queue.emplace_back(x, k_w + 1);
      }
    }
  }
  return static_cast<int64_t>(demoted.size());
}

DkIndex::EdgeUpdateStats DkIndex::AddEdge(NodeId u, NodeId v) {
  ScopedLatency latency(&DKI_METRIC_HISTOGRAM("index.dk.add_edge.latency"));
  EdgeUpdateStats stats;
  if (graph_->HasEdge(u, v)) {
    stats.new_local_similarity = index_.k(index_.index_of(v));
    return stats;
  }

  IndexNodeId u_node = index_.index_of(u);
  IndexNodeId v_node = index_.index_of(v);

  // Algorithm 4 runs against the *original* I_G, i.e. before the new edge is
  // inserted into either graph.
  int k_n =
      UpdateLocalSimilarity(u_node, v_node, &stats.label_paths_expanded);

  graph_->AddEdge(u, v);
  dirty_.push_back(v);  // v's parent set changed: re-refine it next rebuild
  index_.AddIndexEdge(u_node, v_node);
  // The data graph changed even when the index adjacency already carried
  // this edge (another member pair supported it) — validation answers can
  // differ, so cached results must go stale regardless.
  index_.BumpEpoch();

  if (k_n < index_.k(v_node)) index_.set_k(v_node, k_n);
  stats.new_local_similarity = index_.k(v_node);
  stats.index_nodes_touched = DemotionWave(v_node);
  DKI_METRIC_COUNTER("index.dk.add_edge.nodes_touched")
      .Increment(stats.index_nodes_touched);
  return stats;
}

int DkIndex::RemovalLocalSimilarity(IndexNodeId u_node, NodeId v, int k_old,
                                    int64_t* label_paths_expanded,
                                    int64_t cap_paths) const {
  int64_t dummy = 0;
  if (label_paths_expanded == nullptr) label_paths_expanded = &dummy;
  if (k_old <= 0) return 0;

  // Length-1 paths lost through the removed edge: just [label(u)]. Length-1
  // paths v still has: the labels of its surviving data parents (exact by
  // construction). Longer removed paths expand through u_node's incoming
  // index structure (an over-approximation of the lost paths — safe);
  // longer remaining paths expand through the surviving parents' index
  // nodes, which is exact only while the depth stays within those parents'
  // own local similarities (`parent_horizon`).
  PathMap removed;
  removed[{index_.label(u_node)}] = {u_node};
  PathMap remaining;
  int parent_horizon = k_old;
  for (NodeId p : graph_->parents(v)) {
    IndexNodeId p_node = index_.index_of(p);
    remaining[{index_.label(p_node)}].insert(p_node);
    parent_horizon = std::min(parent_horizon, index_.k(p_node));
  }

  int k_n = 0;
  while (k_n < k_old) {
    if (!KeysSubset(removed, remaining)) break;
    ++k_n;
    if (k_n >= k_old) break;
    // Next level is k_n + 1; remaining paths there need index paths of
    // length k_n into the surviving parents, exact only when
    // k_n <= parent_horizon.
    if (k_n > parent_horizon) break;
    removed = ExpandBackwards(index_, removed, label_paths_expanded);
    remaining = ExpandBackwards(index_, remaining, label_paths_expanded);
    if (removed.empty()) {
      // Nothing longer was lost through the removed edge.
      k_n = k_old;
      break;
    }
    if (TotalStarts(removed) + TotalStarts(remaining) > cap_paths) {
      break;  // defensive cap: stop with the (conservative) current k_n
    }
  }
  return k_n;
}

bool DkIndex::RemoveEdge(NodeId u, NodeId v) {
  if (!graph_->RemoveEdge(u, v)) return false;
  dirty_.push_back(v);  // v's parent set changed: re-refine it next rebuild
  ScopedLatency latency(&DKI_METRIC_HISTOGRAM("index.dk.remove_edge.latency"));
  IndexNodeId u_node = index_.index_of(u);
  IndexNodeId v_node = index_.index_of(v);
  // Drop the derived index edge iff no other data edge supports it.
  index_.RecomputeEdgesLocal({u_node, v_node});
  // Recompute a tight-but-sound local similarity for the target instead of
  // demoting to 0: v's extent stays k-similar at every level where the
  // removed edge's label paths are still realized by surviving parents.
  int k_new = RemovalLocalSimilarity(u_node, v, index_.k(v_node));
  if (k_new < index_.k(v_node)) {
    index_.set_k(v_node, k_new);
    DemotionWave(v_node);
  }
  // The data graph changed even when k and adjacency survived intact;
  // validation answers can differ, so cached results must go stale.
  index_.BumpEpoch();
  return true;
}

std::vector<NodeId> DkIndex::AddSubgraph(const DataGraph& h) {
  ScopedLatency latency(&DKI_METRIC_HISTOGRAM("index.dk.add_subgraph.latency"));
  // --- copy H into the data graph (H's root is identified with our root).
  std::vector<LabelId> label_map(static_cast<size_t>(h.labels().size()),
                                 kInvalidLabel);
  for (LabelId l = 0; l < h.labels().size(); ++l) {
    label_map[static_cast<size_t>(l)] =
        graph_->labels().Intern(h.labels().Name(l));
  }
  std::vector<NodeId> node_map(static_cast<size_t>(h.NumNodes()),
                               kInvalidNode);
  node_map[static_cast<size_t>(h.root())] = graph_->root();
  for (NodeId n = 0; n < h.NumNodes(); ++n) {
    if (n == h.root()) continue;
    node_map[static_cast<size_t>(n)] =
        graph_->AddNode(label_map[static_cast<size_t>(h.label(n))]);
  }
  for (NodeId a = 0; a < h.NumNodes(); ++a) {
    for (NodeId b : h.children(a)) {
      NodeId from = node_map[static_cast<size_t>(a)];
      NodeId to = node_map[static_cast<size_t>(b)];
      if (a == h.root()) {
        graph_->AddEdge(from, to);  // root may already have edges: dedup
      } else {
        graph_->AddEdgeUnchecked(from, to);
      }
      // The inserted nodes are implicitly dirty (they sit past the trace
      // watermark); the only pre-existing node whose parent set can change
      // is our root, when H carries an edge back into its own root.
      if (b == h.root()) dirty_.push_back(to);
    }
  }

  // --- refresh effective requirements over the combined label adjacency
  // (new labels start at 0; H's adjacency may re-broadcast old ones).
  std::vector<int> initial = effective_req_;
  initial.resize(static_cast<size_t>(graph_->labels().size()), 0);
  effective_req_ = BroadcastLabelRequirements(
      ComputeLabelParents(*graph_, graph_->labels().size()),
      std::move(initial));

  // Re-partition the combined graph. The incremental engine projects G's
  // old nodes straight through the refinement trace and re-refines only the
  // inserted cone, producing the exact fresh-construction index (this
  // replaces the paper's Algorithm 3 quotient, which could only approximate
  // it, and its requirement-raised special case, which the engine covers
  // by recomputing the rounds beyond the trace).
  Rebuild(effective_req_);
  return node_map;
}

}  // namespace dki
