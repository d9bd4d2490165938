#ifndef DKINDEX_SERVE_APPLY_H_
#define DKINDEX_SERVE_APPLY_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "index/dk_index.h"
#include "serve/update_queue.h"

namespace dki {

// The pure validity half of ApplyUpdateOp: would `op` apply against dk's
// CURRENT state, or be dropped? Depends only on the graph's node count, the
// label table, and the op itself — never on the index partition or tuning
// state.
inline bool ValidateUpdateOp(const DkIndex& dk, const UpdateOp& op) {
  auto valid_node = [&](NodeId n) {
    return n >= 0 && n < dk.graph().NumNodes();
  };
  switch (op.kind) {
    case UpdateOp::Kind::kAddEdge:
    case UpdateOp::Kind::kRemoveEdge:
      return valid_node(op.u) && valid_node(op.v);
    case UpdateOp::Kind::kAddSubgraph:
      return op.subgraph != nullptr;
    case UpdateOp::Kind::kRetune:
      // Demote CHECK-fails on out-of-range labels, and a k beyond the node
      // count (refinement is stable by then) would allocate one broadcast
      // bucket per level: such an op must drop, not abort the server.
      for (const auto& [label, k] : op.retune_targets) {
        if (label < 0 || label >= dk.graph().labels().size() || k < 0 ||
            k > dk.graph().NumNodes()) {
          return false;
        }
      }
      return true;
  }
  return false;
}

// Applies one queued operation to a live D(k)-index, validating node ids
// against the index's CURRENT graph. Returns false iff the op was invalid
// and dropped (see ValidateUpdateOp) — never fatal.
//
// This is the single definition of apply semantics, shared by the serving
// writer thread (serve/query_server.cc) and log replay during recovery
// (serve/checkpoint.cc). Sharing it is load-bearing for the recovery
// invariant: replaying the WAL must take exactly the apply/drop decisions
// the writer took, and those decisions depend only on the op and the state
// at apply time — which replay reproduces by construction.
inline bool ApplyUpdateOp(DkIndex* dk, const UpdateOp& op) {
  if (!ValidateUpdateOp(*dk, op)) return false;
  switch (op.kind) {
    case UpdateOp::Kind::kAddEdge:
      dk->AddEdge(op.u, op.v);
      return true;
    case UpdateOp::Kind::kRemoveEdge:
      dk->RemoveEdge(op.u, op.v);
      return true;
    case UpdateOp::Kind::kAddSubgraph:
      dk->AddSubgraph(*op.subgraph);
      return true;
    case UpdateOp::Kind::kRetune: {
      // One Build-exact re-partition: a shrink to the targets alone, a grow
      // to the targets merged per label with the current requirements.
      LabelRequirements reqs = op.retune_targets;
      const std::vector<int>& current = dk->effective_requirements();
      for (size_t l = 0; !op.retune_shrink && l < current.size(); ++l) {
        int& k = reqs[static_cast<LabelId>(l)];
        k = std::max(k, current[l]);
      }
      dk->Demote(reqs);
      return true;
    }
  }
  return false;
}

// Marks retune ops that a later retune in the same batch makes unobservable,
// so overlapping retune waves collapse into one re-partition. skip[i] set
// means op i's apply (NOT its validation or WAL logging) may be elided.
//
// Op i is superseded iff a later op j in the batch is a shrink-retune that
// validates against the batch-START state. This is exact, not approximate:
//   * j's Demote rebuilds the partition, local similarities, and effective
//     requirements to exactly Build(current graph, targets_j) from the graph
//     and refinement trace alone — nothing op i (of either kind) would have
//     left behind survives op j. A grow reads the current requirements, so
//     only a shrink supersedes.
//   * No state between i and j is observable: the server publishes once per
//     batch, after the last op.
//   * Skipping i cannot flip any later op's apply/drop decision: validity
//     depends only on the node count and label table (ValidateUpdateOp),
//     which retunes never touch.
//   * j's own validity is checked against the batch-start state; ops in
//     between can only GROW the node count and label table (AddSubgraph),
//     so valid-at-start implies valid-at-apply. When j cannot be proven valid
//     up front, nothing is skipped — conservative, never wrong.
// Epoch trajectories do differ from the uncoalesced run (fewer bumps), which
// is fine: epochs are cache keys, required to be monotonic, not replayable.
inline std::vector<char> CoalesceSupersededRetunes(
    const DkIndex& dk, const std::vector<UpdateOp>& batch) {
  std::vector<char> skip(batch.size(), 0);
  size_t last_shrink = batch.size();
  for (size_t i = 0; i < batch.size(); ++i) {
    const UpdateOp& op = batch[i];
    if (op.kind == UpdateOp::Kind::kRetune && op.retune_shrink &&
        ValidateUpdateOp(dk, op)) {
      last_shrink = i;
    }
  }
  if (last_shrink == batch.size()) return skip;
  for (size_t i = 0; i < last_shrink; ++i) {
    if (batch[i].kind == UpdateOp::Kind::kRetune) skip[i] = 1;
  }
  return skip;
}

}  // namespace dki

#endif  // DKINDEX_SERVE_APPLY_H_
