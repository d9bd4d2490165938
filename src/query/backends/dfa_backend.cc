// The DFA evaluation backend (EvalBackend::kDfa): on-the-fly subset
// construction over the frozen index graph. Where the NFA backend keeps one
// frontier entry per (node, state) pair, this one keeps one entry per node
// carrying the BITMASK of NFA states first discovered there this level, and
// memoizes (mask, label) -> successor-mask transitions. A node reached in 5
// automaton states costs the NFA five child scans and five move-span walks;
// here it costs one child scan and one hash probe per child — the win grows
// with automaton-state overlap (alternations, stars, wildcard starts).
//
// The memo has two tiers: a scratch-local DfaTransitionMap probed lock-free
// in the inner loop, and the query's shared DfaMemo (pathexpr/dfa_memo.h,
// one per parsed expression, shared across threads via the ParseCache's
// shared_ptr entry). The local map is seeded from the shared one on first
// use and new transitions merge back after every evaluation, so lane 0's
// first run warms lane 1's second. Both tiers are fingerprint-validated
// against (automata, label universe) and capped at DfaMemo::kMaxEntries.
//
// Exactness: a state q lands in a node's mask iff some path witnesses the
// NFA run — the same (node, state) pairs the NFA backend discovers, level
// by level (the delta mask holds exactly the states first reached this
// level, so nothing is expanded twice and nothing late). Matched nodes,
// minimal accept depths, and therefore the Theorem-1 split and results are
// bit-identical to the NFA backend; only index_nodes_visited differs (it
// counts popped (node, delta-mask) entries, of which there are fewer).

#include <algorithm>
#include <bit>
#include <utility>

#include "common/logging.h"
#include "query/frozen_view.h"

namespace dki {

void FrozenView::RunDfaIndexBfs(FrozenScratch* s, const PathExpression& query,
                                bool use_prefilter, EvalStats* local) const {
  const FrozenScratch::DenseAutomaton& fwd = *s->fwd_;
  DKI_CHECK(fwd.num_states <= 64);

  // Successor mask of `mask` consuming `label`, memoized in `memo` (skipped
  // past the cap: correctness never depends on a hit).
  const auto dfa_move = [&fwd](uint64_t mask, LabelId label,
                               DfaTransitionMap* memo) -> uint64_t {
    const DfaTransitionKey key{mask, label};
    auto it = memo->find(key);
    if (it != memo->end()) return it->second;
    uint64_t out = 0;
    uint64_t rest = mask;
    while (rest != 0) {
      const int q = std::countr_zero(rest);
      rest &= rest - 1;
      const int32_t* mb = fwd.moves_begin(q, label);
      const int32_t* me = fwd.moves_end(q, label);
      for (const int32_t* to = mb; to != me; ++to) {
        out |= uint64_t{1} << *to;
      }
    }
    if (memo->size() < DfaMemo::kMaxEntries) memo->emplace(key, out);
    return out;
  };
  FrozenScratch::CompiledQuery& entry = *s->cur_compiled_;
  const std::shared_ptr<DfaMemo>& shared = query.dfa_memo();
  if (!entry.dfa_synced) {
    if (shared != nullptr) {
      shared->Snapshot(entry.fingerprint, &entry.dfa_trans);
      entry.dfa_merged_size = entry.dfa_trans.size();
    }
    entry.dfa_synced = true;
  }

  uint64_t accept_mask = 0;
  for (int q = 0; q < fwd.num_states; ++q) {
    if (fwd.accept[static_cast<size_t>(q)]) accept_mask |= uint64_t{1} << q;
  }

  const int64_t m = num_index_nodes();
  s->BeginIndexTraversal(m);
  if (s->mslot_gen_.size() < static_cast<size_t>(m)) {  // grow-only
    s->mslot_gen_.resize(static_cast<size_t>(m));
    s->mslot_.resize(static_cast<size_t>(m));
  }
  s->mcur_.clear();
  s->mnext_.clear();

  // Seeding: one entry per seedable node (buckets are disjoint — a node has
  // one label — so no same-level merging is needed yet).
  for (LabelId lab : fwd.seed_labels) {
    const int32_t* qb =
        fwd.start_to.data() + fwd.start_off[static_cast<size_t>(lab)];
    const int32_t* qe =
        fwd.start_to.data() + fwd.start_off[static_cast<size_t>(lab) + 1];
    uint64_t start_mask = 0;
    for (const int32_t* q = qb; q != qe; ++q) {
      start_mask |= uint64_t{1} << *q;
    }
    const int32_t nb = index_bylabel_off_[static_cast<size_t>(lab)];
    const int32_t ne = index_bylabel_off_[static_cast<size_t>(lab) + 1];
    for (int32_t e = nb; e != ne; ++e) {
      const IndexNodeId node = index_bylabel_[static_cast<size_t>(e)];
      if (use_prefilter && !s->PfContains(node)) continue;
      const uint64_t fresh = s->InsertIndexMask(node, start_mask);
      if (fresh != 0) s->mcur_.push_back({node, fresh});
    }
  }

  int32_t depth = 0;
  while (!s->mcur_.empty()) {
    ++s->mslot_stamp_;  // invalidates every next-frontier slot, O(1)
    for (const FrozenScratch::MaskFrontier& f : s->mcur_) {
      ++local->index_nodes_visited;
      if ((f.mask & accept_mask) != 0) {
        // An accepting state first appears at this node this level, so this
        // depth is its minimal accept depth (earlier levels would have
        // carried the bit in their delta).
        const size_t i = static_cast<size_t>(f.node);
        if (s->accept_gen_[i] != s->index_gen_) {
          s->accept_gen_[i] = s->index_gen_;
          s->accept_depth_[i] = depth;
          s->matched_.push_back(f.node);
        } else {
          s->accept_depth_[i] = std::min(s->accept_depth_[i], depth);
        }
      }
      const int32_t cb = index_child_off_[static_cast<size_t>(f.node)];
      const int32_t ce = index_child_off_[static_cast<size_t>(f.node) + 1];
      for (int32_t e = cb; e != ce; ++e) {
        const IndexNodeId c = index_child_[static_cast<size_t>(e)];
        const LabelId clab = index_label_[static_cast<size_t>(c)];
        const uint64_t succ = dfa_move(f.mask, clab, &entry.dfa_trans);
        if (succ == 0) continue;
        const uint64_t fresh = s->InsertIndexMask(c, succ);
        if (fresh == 0) continue;
        // Merge same-level contributions to one child into one entry.
        const size_t ci = static_cast<size_t>(c);
        if (s->mslot_gen_[ci] == s->mslot_stamp_) {
          s->mnext_[static_cast<size_t>(s->mslot_[ci])].mask |= fresh;
        } else {
          s->mslot_gen_[ci] = s->mslot_stamp_;
          s->mslot_[ci] = static_cast<int32_t>(s->mnext_.size());
          s->mnext_.push_back({c, fresh});
        }
      }
    }
    std::swap(s->mcur_, s->mnext_);
    s->mnext_.clear();
    ++depth;
  }

  // Publish newly derived transitions for other scratches of this query.
  if (shared != nullptr && entry.dfa_trans.size() > entry.dfa_merged_size) {
    shared->Merge(entry.fingerprint, entry.dfa_trans);
    entry.dfa_merged_size = entry.dfa_trans.size();
  }
}

}  // namespace dki
