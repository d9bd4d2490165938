#ifndef DKINDEX_QUERY_FROZEN_VIEW_H_
#define DKINDEX_QUERY_FROZEN_VIEW_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "graph/data_graph.h"
#include "index/index_graph.h"
#include "io/mmap_file.h"
#include "pathexpr/path_expression.h"
#include "query/backend.h"
#include "query/csr_codec.h"
#include "query/evaluator.h"

namespace dki {

class FrozenScratch;

// Construction knobs for FrozenView's storage tier.
struct FrozenViewOptions {
  // 0 (default) freezes everything flat — the fastest representation.
  // Positive: a resident-heap budget in bytes. The cold bulk arrays (data
  // adjacency in both directions, extents) are stored block-compressed
  // (query/csr_codec.h) and decoded through a per-scratch block cache; when
  // hot flat arrays + compressed bytes still exceed the budget, the
  // compressed bytes spill to an unlinked mmap'd temp file (io/mmap_file.h)
  // so the kernel can page them in and out on demand. Query answers are
  // bit-identical to the flat representation in every mode.
  int64_t memory_budget_bytes = 0;
  // Directory for the spill file ("" = /tmp). Unlinked at creation: the
  // space is reclaimed automatically when the view dies, crash included.
  std::string spill_dir;
  // Whether PlanQuery may answer {} without traversal and seed the index
  // BFS through the required-label prefilter (query/backend.h). Results are
  // bit-identical either way. false is the pure reference NFA, whose
  // EvalStats match EvaluateOnIndex exactly.
  bool prefilter = true;
};

// Memory accounting of one frozen view (see FrozenView::memory_stats).
struct FrozenMemoryStats {
  int64_t flat_bytes = 0;        // what the unbudgeted representation costs
  int64_t resident_bytes = 0;    // heap bytes this view actually holds
  int64_t compressed_bytes = 0;  // encoded cold-array payload bytes
  int64_t spilled_bytes = 0;     // of those, bytes living in the mmap spill
};

// The frozen read path: an immutable flat-memory snapshot of one
// (data graph, index graph) pair, built once per published state and shared
// by any number of reader threads. Evaluation against it is
// result-bit-identical to the reference evaluators (query/evaluator.h)
// (and stats-bit-identical too with the prefilter off — see
// query/backend.h), running on cache-friendly arrays instead of the
// mutation-friendly representation:
//
//   * children/parents of both graphs as CSR (offset + edge arrays);
//   * extents as one CSR over the data nodes;
//   * a label -> nodes inverted index on both graphs, so automaton start
//     states are seeded by label bucket instead of an O(|V|) full scan;
//   * per-query dense state×label transition tables (FrozenScratch), so the
//     BFS inner loop is pure array indexing — no hashing, no per-move
//     allocation;
//   * flat two-vector BFS frontiers and a generation-stamped dense
//     accept-depth array instead of deque + unordered_map.
//
// The view borrows nothing: every array is an owned copy, so the source
// graphs may mutate (or die) freely afterwards. `epoch()` records the index
// epoch at freeze time for result-cache keying.
//
// With FrozenViewOptions::memory_budget_bytes set, the bulk "cold" arrays
// (data adjacency both ways, extents) live block-compressed instead of
// flat, decoded on demand through a per-scratch BlockCache, and spill to an
// mmap'd temp file when the budget is still exceeded — evaluation results
// stay bit-identical, trading decode CPU for a ~3× smaller resident index.
class FrozenView {
 public:
  // EvaluateBatch caps its lane count so each lane gets at least this many
  // queries — fanning a tiny batch over many lanes costs more in wake-up
  // latency than the parallelism returns.
  static constexpr int64_t kMinQueriesPerLane = 8;

  // Freezes `index` and its data graph. O(|V| + |E|) flat copies; with a
  // memory budget the cold arrays are then compressed (and spilled when
  // still over budget) before the flat copies are dropped.
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
  // Bytes of the flat (unbudgeted) representation of this view — the
  // baseline the budgeted storage tier is measured against. Equals the
  // actual footprint when no budget is set.
  int64_t ApproxBytes() const;
  // Where the bytes actually live: flat baseline, resident heap,
  // compressed payload, spilled-to-mmap share.
  const FrozenMemoryStats& memory_stats() const { return memory_stats_; }
  bool budgeted() const { return budgeted_; }

  // How many data nodes carry `label` in this view (0 for labels outside
  // the frozen universe, including kUnknownLabel). O(1), backed by the
  // label->nodes inverted index. ShardedQueryServer's scatter phase uses
  // this to prune shards whose label population cannot seed a query's
  // automaton start states.
  int64_t DataNodesWithLabel(LabelId label) const {
    if (label < 0 || label >= num_labels_) return 0;
    return data_bylabel_off_[static_cast<size_t>(label) + 1] -
           data_bylabel_off_[static_cast<size_t>(label)];
  }

  // Same over the index graph: how many index nodes carry `label`. The
  // planner's population estimates are built from this.
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
  // thread-local scratch is used, so traversal state and compiled tables
  // are reused across calls and views; pass one only to isolate a caller's
  // state (one scratch serves one thread).
  std::vector<NodeId> Evaluate(const PathExpression& query,
                               EvalStats* stats = nullptr,
                               bool validate = true,
                               FrozenScratch* scratch = nullptr) const;

  // Ground-truth evaluation on the frozen data graph, equivalent to
  // EvaluateOnDataGraph: the NFA product-BFS over the data graph, never
  // prefiltered. Scratch as in Evaluate.
  std::vector<NodeId> EvaluateOnData(const PathExpression& query,
                                     EvalStats* stats = nullptr,
                                     FrozenScratch* scratch = nullptr) const;

  // Evaluates a batch of queries in parallel over the pool (queries split
  // into BatchLanes contiguous chunks, each lane evaluating on its thread's
  // own scratch). results[i] and stats[i] (when requested) are
  // bit-identical to a sequential Evaluate(queries[i]) regardless of thread
  // count. A null pool (or a single-lane one) runs inline. The pool must not
  // be running another job (ThreadPool is not reentrant), so concurrent
  // EvaluateBatch calls need distinct pools.
  std::vector<std::vector<NodeId>> EvaluateBatch(
      const std::vector<const PathExpression*>& queries, ThreadPool* pool,
      std::vector<EvalStats>* stats = nullptr, bool validate = true) const;
  std::vector<std::vector<NodeId>> EvaluateBatch(
      const std::vector<PathExpression>& queries, ThreadPool* pool,
      std::vector<EvalStats>* stats = nullptr, bool validate = true) const;

  // How many lanes EvaluateBatch splits `total` queries into on a pool of
  // `pool_threads` lanes: every lane gets at least kMinQueriesPerLane
  // queries, never more lanes than the pool has, at least one.
  static int BatchLanes(int64_t total, int pool_threads);

 private:
  friend class FrozenScratch;

  bool ValidateFrozenCandidate(FrozenScratch* scratch, NodeId node,
                               int64_t* visited_pairs) const;

  // The index traversal (query/index_traversal.cc, next to PlanQuery):
  // fills the scratch's matched_/accept_depth_ state for the Theorem-1 +
  // validation tail in Evaluate. With `use_prefilter`, seeds outside the
  // ComputePrefilterSeeds marks are skipped.
  void RunNfaIndexBfs(FrozenScratch* s, bool use_prefilter,
                      EvalStats* local) const;
  // Marks (in the scratch's prefilter stamp array) every index node that is
  // an ancestor-or-self, within the query's word-length bound, of a node
  // carrying `anchor` — a superset of the nodes that can start a match.
  void ComputePrefilterSeeds(FrozenScratch* s, LabelId anchor,
                             int max_word_length) const;

  // Row accessors over the three cold arrays, branching on storage mode:
  // flat mode returns spans into the owned arrays; budgeted mode decodes
  // through the scratch's block cache. The span is valid until the next
  // accessor call on the same scratch (callers copy out or finish iterating
  // before touching another row of the same cache slot's array).
  std::pair<const int32_t*, const int32_t*> ChildRow(FrozenScratch* scratch,
                                                     int32_t node) const;
  std::pair<const int32_t*, const int32_t*> ParentRow(FrozenScratch* scratch,
                                                      int32_t node) const;
  std::pair<const int32_t*, const int32_t*> ExtentRow(FrozenScratch* scratch,
                                                      int32_t inode) const;

  // Budgeted-mode construction tail: compress the cold arrays, drop their
  // flat copies, spill past the budget. Called at the end of the ctor.
  void ApplyMemoryBudget(const FrozenViewOptions& options);

  uint64_t epoch_ = 0;
  int32_t num_labels_ = 0;
  bool prefilter_ = true;

  // Data graph, flattened. Offsets are int32 (NodeId itself is int32, so
  // edge counts fit).
  std::vector<LabelId> data_label_;
  std::vector<int32_t> data_child_off_;   // size N+1
  std::vector<NodeId> data_child_;
  std::vector<int32_t> data_parent_off_;  // size N+1
  std::vector<NodeId> data_parent_;
  std::vector<int32_t> data_bylabel_off_;  // size L+1
  std::vector<NodeId> data_bylabel_;       // node ids, ascending per bucket

  // Index graph, flattened. Parent adjacency exists for the prefilter's
  // ancestor walk; like every index-side array it stays flat in budgeted
  // mode (the index graph is the hot, small side).
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

  // Budgeted storage tier. In budgeted mode the flat child/parent/extent
  // arrays above are empty and these hold the state instead; everything
  // else (labels, by-label buckets, the index-side arrays) stays flat — the
  // hot label-pruned paths (DataNodesWithLabel, automaton seeding) keep
  // their O(1) behavior.
  bool budgeted_ = false;
  uint64_t view_id_ = 0;  // unique per view: keys scratch block caches
  CompressedCsr comp_child_;
  CompressedCsr comp_parent_;
  CompressedCsr comp_extent_;
  SpillFile spill_;
  FrozenMemoryStats memory_stats_;
};

// Reusable per-thread traversal state for FrozenView evaluation: the dense
// per-query transition tables, the two-vector BFS frontiers, and the
// generation-stamped visited / accept-depth arrays (invalidated in O(1) per
// query; generations never reset, so the arrays only grow and switching
// views never re-zeroes them). One instance serves one thread; evaluation
// without an explicit scratch uses a thread-local one.
class FrozenScratch {
 public:
  FrozenScratch() = default;

  FrozenScratch(const FrozenScratch&) = delete;
  FrozenScratch& operator=(const FrozenScratch&) = delete;

  // Serving workloads cycle a bounded query set; past this many distinct
  // texts the whole cache is dropped (simple and O(1) amortized — an LRU
  // would buy little for a scratch-local cache). Small: a thread keeps its
  // scratch for life.
  static constexpr size_t kMaxCompiledQueries = 16;

 private:
  friend class FrozenView;

  // A query automaton compiled against a fixed label universe: for every
  // (state, label), the dense CSR span of successor states, in the exact
  // first-appearance order Automaton::Move produces (so frozen traversals
  // visit pairs in the reference order); for every label, the sorted-unique
  // start-move span; and the labels whose start span is non-empty (the BFS
  // seed set — with a wildcard start edge this is every label).
  struct DenseAutomaton {
    int num_states = 0;
    int32_t num_labels = 0;
    std::vector<uint8_t> accept;       // size S
    std::vector<int32_t> move_off;     // size S*L+1, row-major by state
    std::vector<int32_t> move_to;
    std::vector<int32_t> start_off;    // size L+1
    std::vector<int32_t> start_to;
    std::vector<LabelId> seed_labels;  // labels with a non-empty start span

    void Compile(const Automaton& a, int32_t num_labels);

    const int32_t* moves_begin(int state, LabelId label) const {
      return move_to.data() +
             move_off[static_cast<size_t>(state) *
                          static_cast<size_t>(num_labels) +
                      static_cast<size_t>(label)];
    }
    const int32_t* moves_end(int state, LabelId label) const {
      return move_to.data() +
             move_off[static_cast<size_t>(state) *
                          static_cast<size_t>(num_labels) +
                      static_cast<size_t>(label) + 1];
    }

   private:
    // Compile-time scratch (reused across queries).
    std::vector<uint8_t> seen_state_;
    std::vector<uint8_t> label_mark_;
    std::vector<LabelId> touched_labels_;
    std::vector<int32_t> wild_seq_;
  };

  struct Frontier {
    int32_t node;
    int32_t state;
  };

  // One query's compiled tables plus a fingerprint of (both automata,
  // label-universe size): the cache below is keyed by query text, and the
  // fingerprint catches the pathological aliasing cases (same text compiled
  // against a different label table) without storing the automata.
  struct CompiledQuery {
    uint64_t fingerprint = 0;  // 0 = never compiled
    DenseAutomaton fwd;
    DenseAutomaton rev;
  };

  // Looks up (or compiles) the query's dense tables and points fwd_/rev_ at
  // them. Repeat evaluations of a cycling workload hit the text-keyed cache
  // and pay one string hash + fingerprint check, no recompilation.
  void PrepareForQuery(const FrozenView& view, const PathExpression& query);
  // Grows the index-side traversal arrays (visited masks, accept depth) if
  // needed and clears the frontiers. O(1) amortized via generations.
  void BeginIndexTraversal(int64_t num_index_nodes);
  // Same for the data-side arrays (validation and EvaluateOnData), for an
  // automaton with `num_states` states (result_gen_ is grown by
  // EvaluateOnData, its only reader).
  void BeginDataTraversal(int64_t num_data_nodes, int num_states);

  bool InsertIndexVisit(int32_t node, int32_t state);
  bool InsertDataVisit(int32_t node, int32_t state);

  // Prefilter membership: was `node` marked by the current prefilter pass?
  bool PfContains(int32_t node) const {
    return pf_mark_gen_[static_cast<size_t>(node)] == pf_gen_;
  }

  // Compiled-query cache (see PrepareForQuery); fwd_/rev_ point into it.
  std::unordered_map<std::string, std::unique_ptr<CompiledQuery>> compiled_;
  const DenseAutomaton* fwd_ = nullptr;
  const DenseAutomaton* rev_ = nullptr;

  // Index-side traversal state (words_ = ceil(states/64) mask words/node).
  int index_words_ = 0;
  uint64_t index_gen_ = 0;
  std::vector<uint64_t> index_masks_;
  std::vector<uint64_t> index_mask_gen_;
  std::vector<int32_t> accept_depth_;
  std::vector<uint64_t> accept_gen_;
  std::vector<int32_t> matched_;  // index nodes, discovery order

  // Data-side traversal state.
  int data_words_ = 0;
  uint64_t data_gen_ = 0;
  std::vector<uint64_t> data_masks_;
  std::vector<uint64_t> data_mask_gen_;
  std::vector<uint64_t> result_gen_;  // EvaluateOnData in-result stamps
  std::vector<int32_t> matched_data_;

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
  // is validated: on a budgeted view validation decodes rows into the same
  // block cache that holds the extent row.
  std::vector<NodeId> candidates_;

  // Decoded-block cache for budgeted views (keyed per view, so one scratch
  // can serve successive snapshots without staleness).
  BlockCache cache_;
};

}  // namespace dki

#endif  // DKINDEX_QUERY_FROZEN_VIEW_H_
