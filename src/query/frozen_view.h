#ifndef DKINDEX_QUERY_FROZEN_VIEW_H_
#define DKINDEX_QUERY_FROZEN_VIEW_H_

#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "graph/data_graph.h"
#include "index/index_graph.h"
#include "pathexpr/path_expression.h"
#include "query/backend.h"
#include "query/evaluator.h"

namespace dki {

class FrozenScratch;

// Narrows a CSR array size to the view's int32 offset type, aborting past
// INT32_MAX instead of wrapping.
inline int32_t CheckedInt32(size_t n) {
  DKI_CHECK_LE(n, static_cast<size_t>(std::numeric_limits<int32_t>::max()));
  return static_cast<int32_t>(n);
}

// Construction knobs for FrozenView.
struct FrozenViewOptions {
  // Always 0: the view is stored flat. Kept read-only for callers that
  // still record it in their provenance.
  static constexpr int64_t memory_budget_bytes = 0;
  // Whether PlanQuery may answer {} without traversal and seed the index
  // BFS through the required-label prefilter (query/backend.h). Results are
  // bit-identical either way. false is the pure reference NFA, whose
  // EvalStats match EvaluateOnIndex exactly.
  bool prefilter = true;
};

// Memory accounting of one frozen view (see FrozenView::memory_stats).
struct FrozenMemoryStats {
  int64_t resident_bytes = 0;  // heap bytes the view holds (== ApproxBytes)
};

// The frozen read path: an immutable flat-memory snapshot of one
// (data graph, index graph) pair, built once per published state and shared
// by any number of reader threads. Evaluation against it is
// result-bit-identical to EvaluateOnIndex (query/evaluator.h) (and
// stats-bit-identical too with the prefilter off — see query/backend.h),
// running on cache-friendly arrays instead of the mutation-friendly
// representation. The view holds only what Evaluate and the checkpointer
// read:
//
//   * the index graph: labels, k, children (the BFS) and parents (the
//     prefilter's ancestor walk) as CSR, plus a label -> index nodes
//     inverted index seeding the BFS by label bucket;
//   * extents as one CSR over the data nodes (the Theorem-1 split);
//   * the data graph's labels and parent rows, which validation walks
//     bottom-up — no child rows and no data label buckets;
//   * the query's own label-class move tables, compiled once at parse time
//     (PathExpression::compiled), so the BFS inner loop is pure array
//     indexing — no hashing, no per-move allocation, no per-call compile;
//   * flat two-vector BFS frontiers and a generation-stamped dense
//     accept-depth array instead of deque + unordered_map.
//
// The view borrows nothing: every array is an owned copy, so the source
// graphs may mutate (or die) freely afterwards. `epoch()` records the index
// epoch at freeze time for result-cache keying. A published IndexSnapshot
// keeps no other copy of the index: the checkpointer reads its label, k and
// extent arrays (index_label / index_k / extent). The data-graph ground
// truth is EvaluateOnDataGraph over the mutable graph.
class FrozenView {
 public:
  // Freezes `index` and its data graph. O(|V| + |E|) flat copies. Every
  // CSR offset is int32: construction aborts if an edge, extent or label
  // bucket count exceeds INT32_MAX.
  explicit FrozenView(const IndexGraph& index,
                      const FrozenViewOptions& options = {});

  FrozenView(const FrozenView&) = delete;
  FrozenView& operator=(const FrozenView&) = delete;

  uint64_t epoch() const { return epoch_; }
  int64_t num_data_nodes() const {
    return static_cast<int64_t>(data_label_.size());
  }
  int64_t num_index_nodes() const {
    return static_cast<int64_t>(index_label_.size());
  }
  int32_t num_labels() const { return num_labels_; }

  // One index node's label, local similarity and extent (data node ids in
  // the source index's extent order): what the v2 index section stores, so
  // a published view is checkpointed straight from these arrays.
  LabelId index_label(IndexNodeId i) const {
    return index_label_[static_cast<size_t>(i)];
  }
  int index_k(IndexNodeId i) const { return index_k_[static_cast<size_t>(i)]; }
  std::span<const NodeId> extent(IndexNodeId i) const {
    const auto [begin, end] = ExtentRow(i);
    return {begin, end};
  }
  // Heap bytes of the view's arrays (capacity, not size).
  int64_t ApproxBytes() const;
  FrozenMemoryStats memory_stats() const { return {ApproxBytes()}; }

  // How many index nodes carry `label` in this view (0 for labels outside
  // the frozen universe, including kUnknownLabel). O(1), backed by the
  // label -> index nodes inverted index. The planner's population estimates
  // are built from this, and ShardedQueryServer's scatter phase prunes
  // shards where no label that can seed a query's start states has a node:
  // every index node has a non-empty extent of its own label, so this is
  // positive exactly when some data node carries `label`.
  int64_t IndexNodesWithLabel(LabelId label) const {
    if (label < 0 || label >= num_labels_) return 0;
    return index_bylabel_off_[static_cast<size_t>(label) + 1] -
           index_bylabel_off_[static_cast<size_t>(label)];
  }

  // The static plan (query/index_traversal.cc): whether Evaluate answers
  // {} without traversal and whether it seeds the NFA BFS through the
  // prefilter, from label populations and automaton start fanout. Depends
  // only on (view, query) — the same in both validate modes — so repeated
  // evaluations of a query on one view report identical EvalStats. Without
  // the view's prefilter, always plain kNfa. Exposed for tests and bench
  // introspection.
  EvalPlan PlanQuery(const PathExpression& query, bool validate) const;

  // Index-graph evaluation, result-identical to EvaluateOnIndex: certain
  // extents by Theorem 1, uncertain extents validated against the frozen
  // data graph (or kept whole with `validate` false). The traversal follows
  // PlanQuery (query/backend.h); EvalStats counters match the reference
  // exactly with the view's prefilter off, and count the prefiltered BFS's
  // smaller work otherwise. Without a `scratch` the calling thread's own
  // thread-local scratch is used, so traversal state is reused across
  // calls and views; pass one only to isolate a caller's state (one scratch
  // serves one thread).
  std::vector<NodeId> Evaluate(const PathExpression& query,
                               EvalStats* stats = nullptr,
                               bool validate = true,
                               FrozenScratch* scratch = nullptr) const;

 private:
  friend class FrozenScratch;

  bool ValidateFrozenCandidate(FrozenScratch* scratch,
                               const CompiledQuery& query, NodeId node,
                               int64_t* visited_pairs) const;

  // The index traversal (query/index_traversal.cc, next to PlanQuery):
  // fills the scratch's matched_/accept_depth_ state for the Theorem-1 +
  // validation tail in Evaluate. With `use_prefilter`, seeds outside the
  // ComputePrefilterSeeds marks are skipped.
  void RunNfaIndexBfs(FrozenScratch* s, const CompiledQuery& query,
                      bool use_prefilter, EvalStats* local) const;
  // Marks (in the scratch's prefilter stamp array) every index node that is
  // an ancestor-or-self, within the query's word-length bound, of a node
  // carrying `anchor` — a superset of the nodes that can start a match.
  void ComputePrefilterSeeds(FrozenScratch* s, LabelId anchor,
                             int max_word_length) const;

  // Row spans of the data parent CSR and the extent CSR.
  std::pair<const int32_t*, const int32_t*> ParentRow(int32_t node) const {
    return Row(data_parent_off_, data_parent_, node);
  }
  std::pair<const int32_t*, const int32_t*> ExtentRow(int32_t inode) const {
    return Row(extent_off_, extent_, inode);
  }
  static std::pair<const int32_t*, const int32_t*> Row(
      const std::vector<int32_t>& off, const std::vector<int32_t>& values,
      int32_t row) {
    const int32_t* base = values.data();
    return {base + off[static_cast<size_t>(row)],
            base + off[static_cast<size_t>(row) + 1]};
  }

  uint64_t epoch_ = 0;
  int32_t num_labels_ = 0;
  bool prefilter_ = true;

  // Data graph, flattened for validation's reverse walk. Offsets are
  // int32, checked at construction (edge counts can pass 2^31 before node
  // ids do).
  std::vector<LabelId> data_label_;
  std::vector<int32_t> data_parent_off_;  // size N+1
  std::vector<NodeId> data_parent_;

  // Index graph, flattened. Parent adjacency exists for the prefilter's
  // ancestor walk.
  std::vector<LabelId> index_label_;
  std::vector<int32_t> index_k_;
  std::vector<int32_t> index_child_off_;  // size M+1
  std::vector<IndexNodeId> index_child_;
  std::vector<int32_t> index_parent_off_;  // size M+1
  std::vector<IndexNodeId> index_parent_;
  std::vector<int32_t> extent_off_;  // size M+1
  std::vector<NodeId> extent_;       // concatenated extents, size N
  std::vector<int32_t> index_bylabel_off_;  // size L+1
  std::vector<IndexNodeId> index_bylabel_;
};

// Reusable per-thread traversal state for FrozenView evaluation: the
// two-vector BFS frontiers, the generation-stamped visited / accept-depth
// arrays (invalidated in O(1) per query; generations never reset, so the
// arrays only grow and switching views never re-zeroes them) and the result
// sort's buffer. The move tables are not here: each PathExpression carries
// its own, compiled once at parse time (pathexpr/compiled_query.h), so a
// scratch holds no per-query state between calls. One instance serves one
// thread; evaluation without an explicit scratch uses a thread-local one.
class FrozenScratch {
 public:
  FrozenScratch() = default;

  FrozenScratch(const FrozenScratch&) = delete;
  FrozenScratch& operator=(const FrozenScratch&) = delete;

 private:
  friend class FrozenView;

  struct Frontier {
    int32_t node;
    int32_t state;
  };

  // Grows the index-side traversal arrays (visited masks, accept depth) for
  // an automaton with `num_states` states and clears the frontiers. O(1)
  // amortized via generations.
  void BeginIndexTraversal(int64_t num_index_nodes, int num_states);
  // Same for the data-side arrays validation walks, for a reverse
  // automaton with `num_states` states.
  void BeginDataTraversal(int64_t num_data_nodes, int num_states);

  bool InsertIndexVisit(int32_t node, int32_t state);
  bool InsertDataVisit(int32_t node, int32_t state);

  // Prefilter membership: was `node` marked by the current prefilter pass?
  bool PfContains(int32_t node) const {
    return pf_mark_gen_[static_cast<size_t>(node)] == pf_gen_;
  }

  // Index-side traversal state (words_ = ceil(states/64) mask words/node).
  int index_words_ = 0;
  uint64_t index_gen_ = 0;
  std::vector<uint64_t> index_masks_;
  std::vector<uint64_t> index_mask_gen_;
  std::vector<int32_t> accept_depth_;
  std::vector<uint64_t> accept_gen_;
  std::vector<int32_t> matched_;  // index nodes, discovery order

  // Data-side traversal state (validation).
  int data_words_ = 0;
  uint64_t data_gen_ = 0;
  std::vector<uint64_t> data_masks_;
  std::vector<uint64_t> data_mask_gen_;

  // Flat two-vector frontiers (shared by both traversals; a validation
  // never interleaves with the index BFS that spawned it).
  std::vector<Frontier> cur_;
  std::vector<Frontier> next_;

  // Prefilter ancestor-walk state: generation-stamped marks over the index
  // nodes plus plain node frontiers (the walk carries no automaton state).
  uint64_t pf_gen_ = 0;
  std::vector<uint64_t> pf_mark_gen_;
  std::vector<int32_t> pf_cur_;
  std::vector<int32_t> pf_next_;

  // Uncertain-extent candidates of the current query, collected before any
  // is validated.
  std::vector<NodeId> candidates_;

  // The result sort's second buffer (see RadixSortNodeIds).
  std::vector<NodeId> sort_buffer_;
};

// Sorts node ids drawn from [0, id_bound) ascending, without comparisons:
// an LSD radix sort in ceil(bits / 11) passes of equal-width digits, where
// bits is the width of id_bound - 1 (two 9-bit passes for a 69k-node
// graph). `buffer` is the second array; it only grows. Inputs under 64 ids
// go to std::sort, which beats clearing the digit counts.
void RadixSortNodeIds(std::vector<NodeId>* ids, int64_t id_bound,
                      std::vector<NodeId>* buffer);

}  // namespace dki

#endif  // DKINDEX_QUERY_FROZEN_VIEW_H_
