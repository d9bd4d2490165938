// Required-label prefilter (EvalBackend::kNfaPrefilter / kDfaPrefilter):
// Hyperscan-style literal prefiltering adapted to the structural summary.
// PathExpression::required_labels() lists labels occurring in EVERY word of
// the language; a matching index path must therefore pass through at least
// one index node of each. Two uses, both exactness-preserving:
//
//   1. Emptiness: a required label with zero index population means no path
//      can match — the planner answers {} without any traversal.
//   2. Seed shrinking (this file): every accepting path's start node is an
//      ancestor-or-self of some node carrying the anchor label (the rarest
//      required label), within max_word_length - 1 hops when the language
//      is finite. Walking the index PARENT CSR from the anchor's bucket
//      marks exactly that superset; the BFS backends then skip unmarked
//      seeds. Pruned seeds start no accepting path, so matched nodes,
//      accept depths, the Theorem-1 split, and results are unchanged in
//      both validate modes — the BFS just never wanders cones that cannot
//      contain the anchor.

#include <limits>
#include <utility>

#include "query/frozen_view.h"

namespace dki {

void FrozenView::ComputePrefilterSeeds(FrozenScratch* s, LabelId anchor,
                                       int max_word_length) const {
  const int64_t m = num_index_nodes();
  // Grow-only: new slots read 0, older than any live generation.
  if (s->pf_mark_gen_.size() < static_cast<size_t>(m)) {
    s->pf_mark_gen_.resize(static_cast<size_t>(m));
  }
  ++s->pf_gen_;
  s->pf_cur_.clear();
  s->pf_next_.clear();

  const int32_t nb = index_bylabel_off_[static_cast<size_t>(anchor)];
  const int32_t ne = index_bylabel_off_[static_cast<size_t>(anchor) + 1];
  for (int32_t e = nb; e != ne; ++e) {
    const IndexNodeId node = index_bylabel_[static_cast<size_t>(e)];
    s->pf_mark_gen_[static_cast<size_t>(node)] = s->pf_gen_;
    s->pf_cur_.push_back(node);
  }

  // The anchor can sit at most max_word_length - 1 symbols after the start
  // of a word, so deeper ancestors can be skipped for finite languages
  // (max_word_length -1 means unbounded: walk the full ancestor closure).
  const int bound = max_word_length < 0 ? std::numeric_limits<int>::max()
                                        : max_word_length - 1;
  int depth = 0;
  while (!s->pf_cur_.empty() && depth < bound) {
    for (const int32_t v : s->pf_cur_) {
      const int32_t pb = index_parent_off_[static_cast<size_t>(v)];
      const int32_t pe = index_parent_off_[static_cast<size_t>(v) + 1];
      for (int32_t e = pb; e != pe; ++e) {
        const IndexNodeId p = index_parent_[static_cast<size_t>(e)];
        if (s->pf_mark_gen_[static_cast<size_t>(p)] == s->pf_gen_) continue;
        s->pf_mark_gen_[static_cast<size_t>(p)] = s->pf_gen_;
        s->pf_next_.push_back(p);
      }
    }
    std::swap(s->pf_cur_, s->pf_next_);
    s->pf_next_.clear();
    ++depth;
  }
}

}  // namespace dki
