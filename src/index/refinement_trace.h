#ifndef DKINDEX_INDEX_REFINEMENT_TRACE_H_
#define DKINDEX_INDEX_REFINEMENT_TRACE_H_

#include <cstdint>
#include <vector>

#include "index/partition.h"

namespace dki {

// The per-round signature/partition hierarchy produced by BuildDkPartition,
// retained alongside the IndexGraph so that Demote / AddSubgraph / large
// retunes can re-refine incrementally instead of re-partitioning the whole
// graph (the ROADMAP's "Incremental maintenance" item; the merge-based
// scheme of Blume/Rau et al., PAPERS.md 2111.12493).
//
// rounds[r] is the data-node partition after refinement round r (round 0 is
// the label split), captured under the effective requirements
// `req_at_capture`. The load-bearing projection property: for any new
// effective requirements req' that are pointwise <= req_at_capture, and an
// unchanged data graph, the fresh D(k) partition under req' groups node n of
// label l exactly by rounds[req'(l)].block_of[n]. Proof sketch (induction on
// rounds): while round r <= req'(l), label l's blocks refine identically in
// the traced and the fresh run because every parent of an "active" label is
// itself active at the previous round (Algorithm 1's broadcast guarantees
// req(parent) >= req(child) - 1 in BOTH requirement vectors), so parent
// block ids seen by signatures correspond 1:1; once r > req'(l) the fresh
// run freezes the block while the trace may refine further — which is why
// the projection reads round req'(l), not the final round. The same
// induction holds for any req' at rounds r <= min(req'(l), req_at_capture(l)).
//
// Nodes whose parent adjacency changed since capture (edge-update targets,
// AddSubgraph insertions) are excluded from the projection and re-refined
// through their forward cone instead (see DkIndex dirty tracking and
// dk_incremental.cc).
//
// The trace is immutable once captured and shared by reference
// (shared_ptr<const RefinementTrace> in DkIndex), so Fork / snapshotting
// never deep-copies it — publish latency must not pay O(nodes * kmax).
struct RefinementTrace {
  // Data-graph size at capture; nodes >= num_nodes are new since then and
  // have no projection.
  int64_t num_nodes = 0;
  // Effective per-label requirements the trace was refined under. Labels
  // interned after capture have no entry (all their nodes are new).
  std::vector<int> req_at_capture;
  // rounds[r]: partition after round r, from round 0 up to the last round
  // that split a block (or kmax at capture, if that came first). The last
  // entry stands for every later round: refinement had reached its fixpoint.
  std::vector<Partition> rounds;
};

}  // namespace dki

#endif  // DKINDEX_INDEX_REFINEMENT_TRACE_H_
