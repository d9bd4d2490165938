#ifndef DKINDEX_INDEX_DK_INDEX_H_
#define DKINDEX_INDEX_DK_INDEX_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.h"
#include "graph/data_graph.h"
#include "index/build_options.h"
#include "index/index_graph.h"
#include "index/parallel_refine.h"
#include "index/partition.h"
#include "index/refinement_trace.h"

namespace dki {

// Per-label local similarity requirements, typically mined from the query
// load (see query/load_analyzer.h). Labels absent from the map default to 0
// (the paper's rule for labels that never appear in the query load).
using LabelRequirements = std::unordered_map<LabelId, int>;

// Algorithm 1 (Local Similarity Broadcast): lifts per-label requirements to
// the effective requirements the D(k) structural constraint forces —
// processing requirements in decreasing order, every parent label of a label
// with requirement k is raised to at least k-1.
//
// `label_parents[l]` lists the labels with an edge into label l in the
// label-split index graph; `initial` has one entry per label id (0 default).
// Returns the effective per-label requirement vector. O(label edges + kmax).
std::vector<int> BroadcastLabelRequirements(
    const std::vector<std::vector<LabelId>>& label_parents,
    std::vector<int> initial);

// Builds the label-adjacency (parents per label) of `g`'s label-split graph.
// Nodes are first bucketed by label (counting sort), so each label's nodes
// form one contiguous run and a single label-stamped scratch array dedups
// parent labels in O(1) per edge — O(nodes + edges + labels) total. (An
// earlier version kept one lazily-zeroed bitmap per child label: O(labels²)
// zeroing, which collapsed on wide alphabets — 10^5 distinct labels meant
// gigabytes of memset. This runs on every Demote/AddSubgraph requirement
// refresh, so it must stay linear.)
template <typename GraphT>
std::vector<std::vector<LabelId>> ComputeLabelParents(const GraphT& g,
                                                      int64_t num_labels) {
  std::vector<std::vector<LabelId>> parents(
      static_cast<size_t>(num_labels));
  const int64_t n_nodes = g.NumNodes();
  std::vector<int64_t> start(static_cast<size_t>(num_labels) + 1, 0);
  for (int64_t n = 0; n < n_nodes; ++n) {
    ++start[static_cast<size_t>(g.label(static_cast<int32_t>(n))) + 1];
  }
  for (size_t l = 1; l < start.size(); ++l) start[l] += start[l - 1];
  std::vector<int32_t> by_label(static_cast<size_t>(n_nodes));
  {
    std::vector<int64_t> cursor = start;
    for (int64_t n = 0; n < n_nodes; ++n) {
      by_label[static_cast<size_t>(cursor[static_cast<size_t>(
          g.label(static_cast<int32_t>(n)))]++)] = static_cast<int32_t>(n);
    }
  }
  // stamp[pl] = last child label that recorded pl; child labels are
  // processed in disjoint runs, so no clearing between them is needed.
  std::vector<LabelId> stamp(static_cast<size_t>(num_labels), kInvalidLabel);
  for (LabelId l = 0; l < num_labels; ++l) {
    auto& list = parents[static_cast<size_t>(l)];
    for (int64_t i = start[static_cast<size_t>(l)];
         i < start[static_cast<size_t>(l) + 1]; ++i) {
      int32_t n = by_label[static_cast<size_t>(i)];
      for (int32_t p : g.parents(n)) {
        LabelId pl = g.label(p);
        if (stamp[static_cast<size_t>(pl)] != l) {
          stamp[static_cast<size_t>(pl)] = l;
          list.push_back(pl);
        }
      }
    }
  }
  return parents;
}

// Algorithm 2's refinement loop: the one backward-refinement round loop of
// the library. Round r splits exactly the blocks whose label has effective
// requirement >= r. The A(k)-index is this loop with requirement k on every
// label and the 1-index with IndexGraph::kInfiniteSimilarity on every label;
// neither needs the broadcast. The loop stops at the first round that splits
// no block. That stop is exact: every later round would see the same
// partition and a subset of the active blocks, so it would split nothing
// either. Fills `block_k` with the achieved local similarity (= effective
// requirement of the block's label). The partition is numbered in
// first-appearance order. When `trace_rounds` is given, every round's
// partition up to the stop (round 0, the label split, included) is recorded
// into it: the raw material of a RefinementTrace, whose last round stands for
// every later one. With a `pool`, round r's signatures are computed in
// parallel (they read only round r-1's partition); ParallelRefineOnce
// produces the identical partition, block numbering included.
template <typename GraphT>
Partition BuildDkPartition(const GraphT& g,
                           const std::vector<int>& effective_req,
                           std::vector<int>* block_k,
                           ThreadPool* pool = nullptr,
                           std::vector<Partition>* trace_rounds = nullptr) {
  Partition p = LabelSplit(g);
  if (trace_rounds != nullptr) {
    trace_rounds->clear();
    trace_rounds->push_back(p);
  }
  for (int round = 1;; ++round) {
    std::vector<bool> refine(static_cast<size_t>(p.num_blocks));
    bool any = false;
    for (int32_t b = 0; b < p.num_blocks; ++b) {
      refine[static_cast<size_t>(b)] =
          effective_req[static_cast<size_t>(
              p.block_label[static_cast<size_t>(b)])] >= round;
      any |= refine[static_cast<size_t>(b)];
    }
    if (!any) break;
    Partition next = pool != nullptr ? ParallelRefineOnce(g, p, refine, *pool)
                                     : RefineOnce(g, p, refine);
    if (next.num_blocks == p.num_blocks) break;  // fixpoint
    p = std::move(next);
    if (trace_rounds != nullptr) trace_rounds->push_back(p);
  }
  block_k->clear();
  for (LabelId l : p.block_label) {
    block_k->push_back(effective_req[static_cast<size_t>(l)]);
  }
  return p;
}

// The D(k)-index (the paper's core contribution): an index graph whose nodes
// carry individual local similarities k(n), constrained by
// k(parent) >= k(child) - 1, constructed from query-load requirements
// (Algorithms 1+2) and maintained incrementally:
//   * AddEdge        — Algorithms 4+5 (edge addition; lowers similarities,
//                      never re-partitions against the data graph);
//   * RemoveEdge     — edge removal, built on Algorithms 4+5;
//   * AddSubgraph    — Algorithm 3 (file insertion via Theorem 2);
//   * Demote         — every retune, raising or lowering: re-partitions the
//                      data graph under the new requirements, incrementally
//                      when the retained RefinementTrace allows it.
// The paper's promoting process (Algorithm 6) is not a DkIndex operation:
// Demote already yields Build's index for raised requirements, and
// bench/algorithm6.h keeps Algorithm 6 as the promoting experiment's
// comparator.
class DkIndex {
 public:
  // How Demote / AddSubgraph re-partition. kIncremental projects unchanged
  // nodes through the retained RefinementTrace and re-refines only the
  // dirty nodes' forward cone and the rounds beyond the trace (falling back
  // to a full build only when there is no trace or more than a quarter of
  // the nodes are dirty); kFullRebuild always re-partitions the data graph
  // from scratch. Both produce the identical index, block numbering
  // included; kFullRebuild exists as the reference comparator for tests and
  // bench/maintenance.
  enum class MaintenanceMode { kIncremental, kFullRebuild };
  // Builds the D(k)-index over `*graph` for the given query-load
  // requirements. The graph is borrowed and mutable (updates insert into it).
  // `options.num_threads` selects the refinement engine (sequential or
  // parallel); both produce the identical index.
  static DkIndex Build(DataGraph* graph, const LabelRequirements& reqs,
                       const BuildOptions& options = {});

  DkIndex(const DkIndex&) = default;
  DkIndex& operator=(const DkIndex&) = default;
  DkIndex(DkIndex&&) = default;
  DkIndex& operator=(DkIndex&&) = default;

  const IndexGraph& index() const { return index_; }
  IndexGraph* mutable_index() { return &index_; }
  const DataGraph& graph() const { return *graph_; }

  // Update epoch of the underlying index (see IndexGraph::epoch): bumped by
  // every mutating operation routed through this class — AddEdge,
  // RemoveEdge, AddSubgraph, Demote — and kept monotonic across
  // the whole-index rebuilds those trigger. Cached query results are keyed
  // by it (query/result_cache.h).
  uint64_t epoch() const { return index_.epoch(); }

  // Effective (post-broadcast) requirement of a label; 0 if unknown.
  int effective_requirement(LabelId label) const;
  // All effective requirements, indexed by label id (serialization support).
  const std::vector<int>& effective_requirements() const {
    return effective_req_;
  }

  // Reassembles a D(k)-index from persisted parts (io/serialization.h). The
  // caller guarantees the parts belong together; invariants are validated by
  // the loader.
  static DkIndex FromParts(DataGraph* graph, IndexGraph index,
                           std::vector<int> effective_req);

  // Snapshot/fork support for the serving layer (src/serve/): a deep copy of
  // this index rebound onto `graph_copy`, which must be a copy of graph().
  // The fork and the original then evolve independently; the fork keeps the
  // source's update epoch, so epoch trajectories stay comparable across
  // forks that apply the same operations.
  DkIndex Fork(DataGraph* graph_copy) const;

  // --- Section 5.2: edge addition ---------------------------------------

  struct EdgeUpdateStats {
    int new_local_similarity = 0;     // Algorithm 4's k_N for the target
    // Distinct index nodes the demotion wave lowered (Algorithm 5). Counts
    // each demoted node once, however many wave fronts reach it — on
    // diamond-shaped DAGs the old pop count double-charged shared
    // descendants.
    int64_t index_nodes_touched = 0;
    int64_t label_paths_expanded = 0; // work inside Algorithm 4
  };

  // Adds the data edge u -> v and updates the index by adjusting local
  // similarities (Algorithms 4 and 5). Never splits extents.
  EdgeUpdateStats AddEdge(NodeId u, NodeId v);

  // Algorithm 4 in isolation (exposed for tests): the maximal k_N such that
  // every label path of length k_N into `v_node` through `u_node` matches
  // `v_node` in the current index graph. `cap_paths` bounds the label-path
  // sets defensively; on overflow the search stops at the current k_N
  // (conservative).
  int UpdateLocalSimilarity(IndexNodeId u_node, IndexNodeId v_node,
                            int64_t* label_paths_expanded,
                            int64_t cap_paths = 100000) const;

  // Edge *removal* — one of the "other update operations [that] can be
  // built on these two basic cases" (Section 5). The partition is kept (it
  // stays a safe index: removing an edge only removes label paths, and the
  // adjacency is re-derived), while the target's local similarity is
  // recomputed with the Algorithm 4 label-path machinery run in reverse
  // (RemovalLocalSimilarity): k(v) survives at level l as long as every
  // label path that arrived through the removed edge still arrives through
  // v's surviving parents, and drops (followed by the Algorithm 5 demotion
  // wave) only below the first level where a path is genuinely lost. A
  // later retune (Demote) recovers lost similarity. Returns false if the
  // edge did not exist.
  bool RemoveEdge(NodeId u, NodeId v);

  // RemoveEdge's analogue of Algorithm 4 (exposed for tests): the maximal
  // l <= k_old such that every label path of length <= l that reached data
  // node `v` through the removed edge (whose source lay in `u_node`) is
  // still realized through v's surviving data parents. Level 1 is checked
  // against the data graph directly; deeper levels expand through the index
  // graph, which is exact only up to the surviving parents' own local
  // similarities — beyond that horizon the search stops conservatively.
  // Call after the data edge is removed and adjacency recomputed.
  int RemovalLocalSimilarity(IndexNodeId u_node, NodeId v, int k_old,
                             int64_t* label_paths_expanded = nullptr,
                             int64_t cap_paths = 100000) const;

  // --- Section 5.1: subgraph addition ------------------------------------

  // Inserts document `h` under the root of the data graph (h's own ROOT node
  // is not copied; its children are attached to the root), then re-partitions
  // the combined graph under the refreshed effective requirements — the
  // result Algorithm 3 + Theorem 2 characterize, computed incrementally: the
  // inserted nodes are dirty, everything else projects through the
  // RefinementTrace, and the new blocks merge into existing ones exactly
  // where Hellings et al.'s composition property says they must. Returns the
  // mapping from h's node ids to the new ids in the combined graph (h's root
  // maps to the root).
  std::vector<NodeId> AddSubgraph(const DataGraph& h);

  // --- Section 5.4 and incremental maintenance (dk_incremental.cc) ------

  // The demoting process: re-broadcasts `new_reqs` on the current label
  // adjacency and re-partitions the data graph under them — the exact state
  // a fresh Build(graph, new_reqs) would produce (local similarities
  // included: the partition is refined against the CURRENT graph, so every
  // block genuinely earns k = effective requirement of its label; no
  // conservative min-member-k is needed). Computed through the
  // RefinementTrace on the common path; equivalent to the full rebuild by
  // the projection property. Requirements above the current ones raise k
  // the same way, so to raise k for some labels only, pass the targets
  // merged per label with effective_requirements() (a grow retune,
  // serve/apply.h).
  void Demote(const LabelRequirements& new_reqs);

  MaintenanceMode maintenance_mode() const { return maintenance_mode_; }
  void set_maintenance_mode(MaintenanceMode mode) { maintenance_mode_ = mode; }

  // The retained per-round hierarchy; null until the first Build/rebuild
  // captures one (e.g. after FromParts).
  std::shared_ptr<const RefinementTrace> trace() const { return trace_; }

  // Data nodes whose parent adjacency changed since the trace was captured
  // (exposed for tests; deduplicated lazily by the rebuild).
  const std::vector<NodeId>& dirty_nodes() const { return dirty_; }

 private:
  DkIndex(DataGraph* graph, IndexGraph index, std::vector<int> effective_req);

  // Re-derives effective requirements for the current graph + `reqs`.
  static std::vector<int> EffectiveRequirements(const DataGraph& g,
                                                const LabelRequirements& reqs);

  // Algorithm 5's breadth-first demotion wave from `start`. Returns the
  // number of distinct index nodes it demoted.
  int64_t DemotionWave(IndexNodeId start);

  // Shared by Demote and AddSubgraph: re-partition the data graph under
  // `effective_req`, dispatching on maintenance_mode_. Carries the epoch
  // forward, refreshes the trace, and clears the dirty set.
  void Rebuild(const std::vector<int>& effective_req);
  // The reference path: fresh BuildDkPartition over the whole data graph.
  void FullRebuild(const std::vector<int>& effective_req);
  // The trace path: projection for clean nodes, cone re-refinement for
  // dirty ones and for rounds beyond the trace. Falls back to FullRebuild
  // when the trace is absent or the dirty set is too large a fraction of
  // the graph to profit.
  void IncrementalRebuild(const std::vector<int>& effective_req);

  DataGraph* graph_;
  IndexGraph index_;
  std::vector<int> effective_req_;  // per label id

  // Shared, immutable once captured: Fork and serving snapshots alias it
  // instead of deep-copying O(nodes * kmax) state on every publish.
  std::shared_ptr<const RefinementTrace> trace_;
  std::vector<NodeId> dirty_;  // may contain duplicates
  MaintenanceMode maintenance_mode_ = MaintenanceMode::kIncremental;
};

}  // namespace dki

#endif  // DKINDEX_INDEX_DK_INDEX_H_
