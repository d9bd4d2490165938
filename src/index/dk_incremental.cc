// Incremental k-bisimulation maintenance (ROADMAP: "Incremental maintenance
// instead of quotient rebuild"). Demote and AddSubgraph need the D(k)
// partition of the CURRENT data graph under new effective requirements; a
// full BuildDkPartition re-hashes every node's signature every round. This
// engine instead reuses the RefinementTrace captured by the last full
// refinement:
//
//   * Clean nodes (parent adjacency unchanged since capture, not downstream
//     of a change) are grouped by pure projection — node n of label l goes
//     to trace.rounds[req'(l)].block_of[n] — an O(1) array read per node per
//     round, no hashing. Sound by the broadcast argument documented in
//     refinement_trace.h.
//   * Dirty nodes (edge-update targets, AddSubgraph insertions) and the
//     forward cone they influence are re-refined with the real signature
//     machinery (internal::AppendRefineSignature — byte-identical to the
//     full engines'), and matched against representative signatures of the
//     clean groups so they can merge back into existing blocks (the
//     merge-based scheme of Blume/Rau et al., PAPERS.md 2111.12493). A
//     recomputed node that lands exactly on its own projection stops
//     propagating, so the cone can shrink.
//
// The cone ("changed") invariant that makes representative matching exact:
// a node is recomputed at round r iff it is dirty, diverged from its
// projection at round r-1, or has a parent that did. Hence every clean
// node's parents sit exactly where the trace says they do, every clean
// group's signature is uniform across its members, and distinct clean
// groups keep distinct signatures — one member is a faithful
// representative.
//
// Raised requirements extend the trace: a label's nodes project up to the
// round it was captured at and are recomputed beyond it. The broadcast caps
// a child's captured round at its parents' + 1, so those nodes are closed
// under the children the next round reads and the cone invariant holds.
//
// A trace ends at the first round that split nothing (BuildDkPartition's
// fixpoint stop), and its last round stands for every later one, so round r
// projects from rounds[min(r, last)]. This engine stops the same way, at its
// own first round that splits nothing, and renumbers its final partition in
// first-appearance order, so it hands IndexGraph::FromPartition exactly the
// partition the full engine does.
//
// Fallbacks to the full engine: no trace (FromParts/recovery) or a dirty set
// too large to profit. Both paths end identically: fresh trace captured,
// dirty set cleared, epoch carried forward.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "index/dk_index.h"

namespace dki {

namespace {

// Dirty fraction of the graph above which projection stops paying for
// itself and the rebuild goes straight to the full engine.
constexpr double kMaxDirtyFraction = 0.25;

}  // namespace

void DkIndex::Demote(const LabelRequirements& new_reqs) {
  ScopedLatency latency(&DKI_METRIC_HISTOGRAM("index.dk.demote.latency"));
  // Re-partition under the new requirements. On the common path (unchanged
  // graph, requirements within the trace) this is a pure merge: every node
  // projects through the refinement trace in O(1), no signature hashing.
  // The result is exactly DkIndex::Build(graph, new_reqs).
  effective_req_ = EffectiveRequirements(*graph_, new_reqs);
  Rebuild(effective_req_);
}

void DkIndex::Rebuild(const std::vector<int>& effective_req) {
  // One histogram across both engines: the maintenance cost a Demote /
  // AddSubgraph pays before the writer can republish, minus the snapshot
  // copy that scales with the graph in either mode. bench/maintenance
  // reports its p50/p99 per mode.
  ScopedLatency latency(&DKI_METRIC_HISTOGRAM("index.dk.rebuild.latency"));
  if (maintenance_mode_ == MaintenanceMode::kFullRebuild) {
    FullRebuild(effective_req);
    return;
  }
  IncrementalRebuild(effective_req);
}

void DkIndex::FullRebuild(const std::vector<int>& effective_req) {
  ScopedLatency latency(&DKI_METRIC_HISTOGRAM("index.dk.full_rebuild.latency"));
  // The rebuilt IndexGraph starts life with a fresh epoch; carry the old one
  // forward (plus one for the rebuild itself) so the epoch never revisits a
  // value a cached result may still be stamped with.
  const uint64_t old_epoch = index_.epoch();
  auto trace = std::make_shared<RefinementTrace>();
  std::vector<int> block_k;
  Partition p = BuildDkPartition(*graph_, effective_req, &block_k, nullptr,
                                 &trace->rounds);
  trace->num_nodes = graph_->NumNodes();
  trace->req_at_capture = effective_req;
  index_ =
      IndexGraph::FromPartition(graph_, p.block_of, p.num_blocks, block_k);
  index_.set_epoch(old_epoch + 1);
  trace_ = std::move(trace);
  dirty_.clear();
}

void DkIndex::IncrementalRebuild(const std::vector<int>& effective_req) {
  const int64_t n = graph_->NumNodes();
  const RefinementTrace* tr = trace_.get();
  const int64_t watermark = tr != nullptr ? tr->num_nodes : 0;
  const int64_t fresh_nodes = n - watermark;
  const bool usable =
      tr != nullptr && !tr->rounds.empty() &&
      static_cast<double>(dirty_.size()) + static_cast<double>(fresh_nodes) <=
          kMaxDirtyFraction * static_cast<double>(n);
  if (!usable) {
    DKI_METRIC_COUNTER("index.dk.incremental_rebuild.fallback_full")
        .Increment();
    FullRebuild(effective_req);
    return;
  }
  ScopedLatency latency(
      &DKI_METRIC_HISTOGRAM("index.dk.incremental_rebuild.latency"));
  const uint64_t old_epoch = index_.epoch();
  auto next_trace = std::make_shared<RefinementTrace>();

  // Dirty nodes are recomputed every active round: their parent sets changed
  // in the graph, so even a coincidental round-r match with the trace says
  // nothing about round r+1.
  std::vector<char> dirty(static_cast<size_t>(n), 0);
  for (NodeId d : dirty_) dirty[static_cast<size_t>(d)] = 1;
  for (int64_t d = watermark; d < n; ++d) dirty[static_cast<size_t>(d)] = 1;

  // Round 0 is exact by construction: labels are immutable, so the label
  // split projects trivially and new nodes join (or open) label blocks.
  Partition cur = LabelSplit(*graph_);
  next_trace->rounds.push_back(cur);

  int kmax = 0;
  for (LabelId l : cur.block_label) {
    kmax = std::max(kmax, effective_req[static_cast<size_t>(l)]);
  }
  const int last_traced = static_cast<int>(tr->rounds.size()) - 1;
  // Last round each label can project from (-1: interned since capture).
  std::vector<int> captured = tr->req_at_capture;
  captured.resize(effective_req.size(), -1);

  // changed[x]: x's current block diverges from its trace projection (new
  // nodes count as diverged — they have no projection).
  std::vector<char> changed(static_cast<size_t>(n), 0);
  std::vector<NodeId> changed_list;
  for (int64_t d = watermark; d < n; ++d) {
    changed[static_cast<size_t>(d)] = 1;
    changed_list.push_back(static_cast<NodeId>(d));
  }

  int64_t projected = 0;
  int64_t recomputed = 0;
  std::vector<char> affected(static_cast<size_t>(n), 0);
  std::vector<NodeId> affected_list;
  std::vector<int32_t> key;

  for (int round = 1; round <= kmax; ++round) {
    // Affected = dirty ∪ changed ∪ children(changed): exactly the nodes
    // whose freshly computed signature could differ from the traced one.
    affected_list.clear();
    std::fill(affected.begin(), affected.end(), 0);
    auto mark = [&](NodeId x) {
      if (!affected[static_cast<size_t>(x)]) {
        affected[static_cast<size_t>(x)] = 1;
        affected_list.push_back(x);
      }
    };
    for (NodeId x = 0; x < n; ++x) {
      const size_t l = static_cast<size_t>(graph_->label(x));
      if (dirty[static_cast<size_t>(x)] || changed[static_cast<size_t>(x)] ||
          (effective_req[l] >= round && captured[l] < round)) {
        mark(x);
      }
    }
    for (NodeId c : changed_list) {
      for (NodeId child : graph_->children(c)) mark(child);
    }

    const Partition* trace_round =
        &tr->rounds[static_cast<size_t>(std::min(round, last_traced))];

    Partition next;
    next.block_of.assign(static_cast<size_t>(n), -1);
    // Frozen blocks (label requirement < round) keep their grouping; active
    // clean nodes group by the trace projection.
    std::vector<int32_t> remap_prev(static_cast<size_t>(cur.num_blocks), -1);
    std::vector<int32_t> remap_trace(
        static_cast<size_t>(trace_round->num_blocks), -1);
    // One clean member per trace block (the signature representative), and
    // the clean trace blocks found inside each current block — consulted
    // when an affected node might merge back.
    std::vector<NodeId> rep_of(remap_trace.size(), kInvalidNode);
    std::unordered_map<int32_t, std::vector<int32_t>> clean_groups_by_prev;

    // Pass A: frozen and clean nodes (O(1) each); affected active nodes are
    // deferred to pass B.
    for (NodeId x = 0; x < n; ++x) {
      const int32_t b = cur.block_of[static_cast<size_t>(x)];
      const LabelId l = cur.block_label[static_cast<size_t>(b)];
      if (effective_req[static_cast<size_t>(l)] < round) {
        // Frozen: identical to the full engine's identity signature. The
        // divergence flag persists — the block id still differs from any
        // projection, so children must keep recomputing.
        int32_t& id = remap_prev[static_cast<size_t>(b)];
        if (id == -1) {
          id = next.num_blocks++;
          next.block_label.push_back(l);
        }
        next.block_of[static_cast<size_t>(x)] = id;
        continue;
      }
      if (affected[static_cast<size_t>(x)]) continue;  // pass B
      const int32_t t = trace_round->block_of[static_cast<size_t>(x)];
      int32_t& id = remap_trace[static_cast<size_t>(t)];
      if (id == -1) {
        id = next.num_blocks++;
        next.block_label.push_back(l);
        rep_of[static_cast<size_t>(t)] = x;
        clean_groups_by_prev[b].push_back(t);
      }
      next.block_of[static_cast<size_t>(x)] = id;
      changed[static_cast<size_t>(x)] = 0;
      ++projected;
    }

    // Pass B: recompute affected active nodes with the real signature and
    // match them against clean-group representatives so they can merge back
    // into projected blocks.
    std::unordered_map<std::vector<int32_t>, int32_t, internal::VecHash>
        sig_to_block;
    std::unordered_set<int32_t> reps_inserted;
    changed_list.clear();
    for (NodeId x : affected_list) {
      const int32_t b = cur.block_of[static_cast<size_t>(x)];
      const LabelId l = cur.block_label[static_cast<size_t>(b)];
      if (effective_req[static_cast<size_t>(l)] < round) continue;  // frozen
      if (reps_inserted.insert(b).second) {
        auto it = clean_groups_by_prev.find(b);
        if (it != clean_groups_by_prev.end()) {
          for (int32_t t : it->second) {
            key.clear();
            internal::AppendRefineSignature(*graph_, cur.block_of,
                                            rep_of[static_cast<size_t>(t)],
                                            &key);
            sig_to_block.emplace(key, remap_trace[static_cast<size_t>(t)]);
          }
        }
      }
      key.clear();
      internal::AppendRefineSignature(*graph_, cur.block_of, x, &key);
      auto [it, inserted] = sig_to_block.emplace(key, next.num_blocks);
      if (inserted) {
        ++next.num_blocks;
        next.block_label.push_back(l);
      }
      next.block_of[static_cast<size_t>(x)] = it->second;
      ++recomputed;
      // Landed exactly on its own projection → stops propagating.
      bool matched_projection = false;
      if (x < watermark && captured[static_cast<size_t>(l)] >= round) {
        const int32_t t = trace_round->block_of[static_cast<size_t>(x)];
        matched_projection =
            remap_trace[static_cast<size_t>(t)] == it->second;
      }
      changed[static_cast<size_t>(x)] = matched_projection ? 0 : 1;
    }
    for (NodeId x = 0; x < n; ++x) {
      if (changed[static_cast<size_t>(x)]) changed_list.push_back(x);
    }

    if (next.num_blocks == cur.num_blocks) break;  // fixpoint
    cur = std::move(next);
    next_trace->rounds.push_back(cur);
  }
  RenumberByFirstAppearance(&cur);

  DKI_METRIC_COUNTER("index.dk.incremental_rebuild.projected_nodes")
      .Increment(projected);
  DKI_METRIC_COUNTER("index.dk.incremental_rebuild.recomputed_nodes")
      .Increment(recomputed);

  std::vector<int> block_k;
  block_k.reserve(static_cast<size_t>(cur.num_blocks));
  for (LabelId l : cur.block_label) {
    block_k.push_back(effective_req[static_cast<size_t>(l)]);
  }
  index_ = IndexGraph::FromPartition(graph_, cur.block_of, cur.num_blocks,
                                     block_k);
  index_.set_epoch(old_epoch + 1);
  next_trace->num_nodes = n;
  next_trace->req_at_capture = effective_req;
  trace_ = std::move(next_trace);
  dirty_.clear();
}

}  // namespace dki
