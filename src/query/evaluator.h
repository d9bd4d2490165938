#ifndef DKINDEX_QUERY_EVALUATOR_H_
#define DKINDEX_QUERY_EVALUATOR_H_

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "graph/data_graph.h"
#include "index/index_graph.h"
#include "pathexpr/path_expression.h"

namespace dki {

// The paper's in-memory cost model (Section 6.1): the cost of a query is the
// number of nodes visited in the index or data graph during evaluation. Data
// nodes inside the extents of matched index nodes are NOT counted; data
// nodes visited while validating uncertain answers ARE. We count each
// (node, automaton-state) expansion as one visit, uniformly across all index
// kinds, so comparisons are apples-to-apples.
struct EvalStats {
  int64_t index_nodes_visited = 0;  // product-BFS pops on an index graph
  int64_t data_nodes_visited = 0;   // data-graph pops: direct evaluation
                                    // and validation pairs touched
  int64_t validated_candidates = 0; // data nodes put through validation
  int64_t uncertain_index_nodes = 0;
  int64_t result_size = 0;

  int64_t cost() const { return index_nodes_visited + data_nodes_visited; }

  void Accumulate(const EvalStats& other) {
    index_nodes_visited += other.index_nodes_visited;
    data_nodes_visited += other.data_nodes_visited;
    validated_candidates += other.validated_candidates;
    uncertain_index_nodes += other.uncertain_index_nodes;
    result_size += other.result_size;
  }
};

class Counter;

// Cached counter references for one evaluation subsystem: "eval.data" and
// "eval.index" here, "eval.frozen.index" in query/frozen_view.cc. Resolved
// once, then every evaluation pays only the relaxed atomic adds of
// Record().
struct EvalCounters {
  explicit EvalCounters(const std::string& prefix);

  void Record(const EvalStats& s);

  Counter& calls;
  Counter& index_nodes_visited;
  Counter& data_nodes_visited;
  Counter& validated_candidates;
  Counter& uncertain_index_nodes;
  Counter& results;
};

// Ground-truth evaluation of `query` directly on the data graph: a product
// BFS of the forward automaton against child edges, seeded at every node
// whose label a start state can consume (path expressions may match paths
// starting anywhere, Section 3). Returns the matching nodes, sorted.
std::vector<NodeId> EvaluateOnDataGraph(const DataGraph& g,
                                        const PathExpression& query,
                                        EvalStats* stats = nullptr);

// Evaluation on an index graph (1-index, A(k) or D(k)), per Theorem 1:
// an index node reached in an accepting state along a matched path of d
// edges yields *certain* results when d <= k(n) (given the D(k) edge
// constraint, which all our indexes maintain). Other matched index nodes are
// uncertain: with `validate` set (the default), their extent members are
// checked against the data graph by a reverse-automaton walk over parent
// edges, and only true matches are returned — the final answer then equals
// the ground truth. With `validate` false the raw (safe, possibly
// over-approximate) index answer is returned.
std::vector<NodeId> EvaluateOnIndex(const IndexGraph& index,
                                    const PathExpression& query,
                                    EvalStats* stats = nullptr,
                                    bool validate = true);

class ValidationScratch;

// The validation primitive: true iff some node path ending in `node`
// matches a word of the query whose reversed automaton is `reverse`
// (query.forward().Reverse(), built once per query) — a BFS over parent
// edges. Visited (node, state) pairs are added to *visited_pairs.
//
// This form allocates fresh O(|V|) traversal state per call; validating many
// candidates of one query should share a ValidationScratch (below).
bool ValidateCandidate(const DataGraph& g, const Automaton& reverse,
                       NodeId node, int64_t* visited_pairs);

// Same, reusing `scratch` across candidates: the visited set is
// generation-stamped, so consecutive calls pay O(touched nodes) instead of
// O(|V|) zeroing each. EvaluateOnIndex validates every member of an
// uncertain extent through one scratch. The scratch may be reused across
// queries and graphs; it re-sizes itself as needed.
bool ValidateCandidate(const DataGraph& g, const Automaton& reverse,
                       NodeId node, int64_t* visited_pairs,
                       ValidationScratch* scratch);

// Reusable traversal state for ValidateCandidate: a per-node state bitmask
// invalidated lazily by a generation stamp (automata up to 64 states — the
// common case), a hash set otherwise, plus the BFS deque. One instance
// serves one thread.
class ValidationScratch {
 public:
  ValidationScratch() = default;

  ValidationScratch(const ValidationScratch&) = delete;
  ValidationScratch& operator=(const ValidationScratch&) = delete;

 private:
  friend bool ValidateCandidate(const DataGraph&, const Automaton&, NodeId,
                                int64_t*, ValidationScratch*);

  // Sizes the visited structures for a (graph, automaton) pair; cheap when
  // the sizes are unchanged from the previous call.
  void Prepare(int64_t num_nodes, int num_states);
  // Starts a candidate: clears the queue and invalidates the visited set
  // (O(1) via the generation stamp on the bitmask path).
  void BeginCandidate();
  // Marks (node, state); returns true if it was new this candidate.
  bool Insert(int32_t node, int state);

  int num_states_ = 0;
  bool use_masks_ = true;
  uint64_t generation_ = 0;
  std::vector<uint64_t> masks_;            // per-node state bitmask
  std::vector<uint64_t> mask_generation_;  // candidate that wrote masks_[i]
  std::unordered_set<int64_t> set_;        // fallback for > 64 states
  std::deque<std::pair<int32_t, int>> queue_;
  std::vector<int> next_states_;
};

}  // namespace dki

#endif  // DKINDEX_QUERY_EVALUATOR_H_
