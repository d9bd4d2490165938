#include "query/evaluator.h"

#include <algorithm>
#include <deque>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"
#include "common/metrics.h"

namespace dki {
namespace {

// Visited-set over (node, state) pairs: a bitmask per node when the
// automaton is small (the common case), a hash set otherwise.
class VisitedSet {
 public:
  VisitedSet(int64_t num_nodes, int num_states)
      : num_states_(num_states), use_masks_(num_states <= 64) {
    if (use_masks_) {
      masks_.assign(static_cast<size_t>(num_nodes), 0);
    }
  }

  // Marks (node, state); returns true if it was new.
  bool Insert(int32_t node, int state) {
    if (use_masks_) {
      uint64_t bit = uint64_t{1} << state;
      uint64_t& m = masks_[static_cast<size_t>(node)];
      if (m & bit) return false;
      m |= bit;
      return true;
    }
    return set_
        .insert(static_cast<int64_t>(node) * num_states_ + state)
        .second;
  }

 private:
  int num_states_;
  bool use_masks_;
  std::vector<uint64_t> masks_;
  std::unordered_set<int64_t> set_;
};

struct PendingPair {
  int32_t node;
  int state;
  int depth;  // matched path length in edges
};

}  // namespace

EvalCounters::EvalCounters(const std::string& prefix)
    : calls(MetricsRegistry::Global().GetCounter(prefix + ".calls")),
      index_nodes_visited(MetricsRegistry::Global().GetCounter(
          prefix + ".index_nodes_visited")),
      data_nodes_visited(MetricsRegistry::Global().GetCounter(
          prefix + ".data_nodes_visited")),
      validated_candidates(MetricsRegistry::Global().GetCounter(
          prefix + ".validated_candidates")),
      uncertain_index_nodes(MetricsRegistry::Global().GetCounter(
          prefix + ".uncertain_index_nodes")),
      results(MetricsRegistry::Global().GetCounter(prefix + ".results")) {}

void EvalCounters::Record(const EvalStats& s) {
  calls.Increment();
  index_nodes_visited.Increment(s.index_nodes_visited);
  data_nodes_visited.Increment(s.data_nodes_visited);
  validated_candidates.Increment(s.validated_candidates);
  uncertain_index_nodes.Increment(s.uncertain_index_nodes);
  results.Increment(s.result_size);
}


std::vector<NodeId> EvaluateOnDataGraph(const DataGraph& g,
                                        const PathExpression& query,
                                        EvalStats* stats) {
  EvalStats local;
  const Automaton& a = query.forward();
  VisitedSet visited(g.NumNodes(), a.num_states());
  std::deque<PendingPair> queue;
  std::vector<bool> in_result(static_cast<size_t>(g.NumNodes()), false);

  // The start-move table was precomputed at parse time (the expression is
  // immutable), so seeding pays no per-label hashing here.
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    for (int q : a.StartMovesFor(g.label(v))) {
      if (visited.Insert(v, q)) queue.push_back({v, q, 0});
    }
  }

  std::vector<int> next_states;
  while (!queue.empty()) {
    PendingPair p = queue.front();
    queue.pop_front();
    ++local.data_nodes_visited;  // this BFS pops *data* nodes
    if (a.is_accept(p.state)) in_result[static_cast<size_t>(p.node)] = true;
    for (NodeId w : g.children(p.node)) {
      next_states.clear();
      a.Move(p.state, g.label(w), &next_states);
      for (int q : next_states) {
        if (visited.Insert(w, q)) queue.push_back({w, q, p.depth + 1});
      }
    }
  }

  std::vector<NodeId> result;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    if (in_result[static_cast<size_t>(v)]) result.push_back(v);
  }
  local.result_size = static_cast<int64_t>(result.size());
  static EvalCounters& counters = *new EvalCounters("eval.data");
  counters.Record(local);
  if (stats != nullptr) stats->Accumulate(local);
  return result;
}

void ValidationScratch::Prepare(int64_t num_nodes, int num_states) {
  num_states_ = num_states;
  use_masks_ = num_states <= 64;
  if (use_masks_ &&
      masks_.size() != static_cast<size_t>(num_nodes)) {
    masks_.assign(static_cast<size_t>(num_nodes), 0);
    mask_generation_.assign(static_cast<size_t>(num_nodes), 0);
    generation_ = 0;  // generation 0 marks every slot stale
  }
}

void ValidationScratch::BeginCandidate() {
  queue_.clear();
  if (use_masks_) {
    ++generation_;  // lazily invalidates every per-node mask, O(1)
  } else {
    set_.clear();
  }
}

bool ValidationScratch::Insert(int32_t node, int state) {
  if (use_masks_) {
    size_t i = static_cast<size_t>(node);
    if (mask_generation_[i] != generation_) {
      mask_generation_[i] = generation_;
      masks_[i] = 0;
    }
    uint64_t bit = uint64_t{1} << state;
    if (masks_[i] & bit) return false;
    masks_[i] |= bit;
    return true;
  }
  return set_
      .insert(static_cast<int64_t>(node) * num_states_ + state)
      .second;
}

bool ValidateCandidate(const DataGraph& g, const Automaton& reverse,
                       NodeId node, int64_t* visited_pairs) {
  ValidationScratch scratch;
  return ValidateCandidate(g, reverse, node, visited_pairs, &scratch);
}

bool ValidateCandidate(const DataGraph& g, const Automaton& rev, NodeId node,
                       int64_t* visited_pairs, ValidationScratch* scratch) {
  scratch->Prepare(g.NumNodes(), rev.num_states());
  scratch->BeginCandidate();
  auto& queue = scratch->queue_;
  // The reversed automaton consumes the word back to front; the first symbol
  // it reads is label(node). StartMovesFor is the precomputed table — the
  // old per-call StartMove allocated a fresh vector per candidate.
  for (int q : rev.StartMovesFor(g.label(node))) {
    if (scratch->Insert(node, q)) queue.emplace_back(node, q);
  }
  auto& next_states = scratch->next_states_;
  while (!queue.empty()) {
    auto [v, state] = queue.front();
    queue.pop_front();
    ++*visited_pairs;
    if (rev.is_accept(state)) return true;
    for (NodeId p : g.parents(v)) {
      next_states.clear();
      rev.Move(state, g.label(p), &next_states);
      for (int q : next_states) {
        if (scratch->Insert(p, q)) queue.emplace_back(p, q);
      }
    }
  }
  return false;
}

std::vector<NodeId> EvaluateOnIndex(const IndexGraph& index,
                                    const PathExpression& query,
                                    EvalStats* stats, bool validate) {
  EvalStats local;
  const Automaton& a = query.forward();
  const DataGraph& g = index.graph();

  VisitedSet visited(index.NumIndexNodes(), a.num_states());
  std::deque<PendingPair> queue;

  for (IndexNodeId i = 0; i < index.NumIndexNodes(); ++i) {
    for (int q : a.StartMovesFor(index.label(i))) {
      if (visited.Insert(i, q)) queue.push_back({i, q, 0});
    }
  }

  // Minimal accepting depth per matched index node. BFS pops pairs in depth
  // order, so the first accepting visit of a pair carries its minimal depth;
  // the per-node minimum is taken across states.
  std::unordered_map<IndexNodeId, int> accept_depth;
  std::vector<int> next_states;
  while (!queue.empty()) {
    PendingPair p = queue.front();
    queue.pop_front();
    ++local.index_nodes_visited;
    if (a.is_accept(p.state)) {
      auto [it, inserted] = accept_depth.emplace(p.node, p.depth);
      if (!inserted) it->second = std::min(it->second, p.depth);
    }
    for (IndexNodeId c : index.children(p.node)) {
      next_states.clear();
      a.Move(p.state, index.label(c), &next_states);
      for (int q : next_states) {
        if (visited.Insert(c, q)) queue.push_back({c, q, p.depth + 1});
      }
    }
  }

  // Theorem 1: depth <= k(n) makes the whole extent a certain answer.
  // Uncertain extents share one validation scratch (its generation-stamped
  // visited set costs O(touched) per candidate, not O(|V|) zeroing) and one
  // reversed automaton, built on the first uncertain extent.
  ValidationScratch scratch;
  std::optional<Automaton> rev;
  std::vector<NodeId> result;
  for (const auto& [inode, depth] : accept_depth) {
    const std::vector<NodeId>& extent = index.extent(inode);
    if (depth <= index.k(inode)) {
      result.insert(result.end(), extent.begin(), extent.end());
      continue;
    }
    ++local.uncertain_index_nodes;
    if (!validate) {
      // Raw safe answer: keep the whole extent (may over-approximate).
      result.insert(result.end(), extent.begin(), extent.end());
      continue;
    }
    if (!rev.has_value()) rev = a.Reverse();
    for (NodeId member : extent) {
      ++local.validated_candidates;
      if (ValidateCandidate(g, *rev, member, &local.data_nodes_visited,
                            &scratch)) {
        result.push_back(member);
      }
    }
  }
  std::sort(result.begin(), result.end());
  // Extents partition the data nodes (IndexGraph::ValidatePartition), so
  // cross-extent duplicates are impossible and a dedup pass would be pure
  // waste; assert the invariant instead.
  DKI_DCHECK(std::adjacent_find(result.begin(), result.end()) ==
             result.end());
  local.result_size = static_cast<int64_t>(result.size());
  static EvalCounters& counters = *new EvalCounters("eval.index");
  counters.Record(local);
  if (stats != nullptr) stats->Accumulate(local);
  return result;
}

}  // namespace dki
