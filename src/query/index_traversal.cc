// The index traversal behind FrozenView::Evaluate (query/backend.h): the
// static plan, the required-label prefilter and the NFA product-BFS.
//
// PlanQuery reads only the view and the query — label populations from the
// view's inverted indexes and automaton start fanout — so the same
// (view, query) pair always gets the same plan, and EvalStats are
// deterministic for every evaluation on a view.
//
// The prefilter is Hyperscan-style literal prefiltering adapted to the
// structural summary. PathExpression::required_labels() lists labels
// occurring in EVERY word of the language; a matching index path must
// therefore pass through at least one index node of each. Two uses, both
// exactness-preserving:
//
//   1. Emptiness: a required label with zero index population means no path
//      can match — the planner answers {} without any traversal.
//   2. Seed shrinking: every accepting path's start node is an
//      ancestor-or-self of some node carrying the anchor label (the rarest
//      required label), within max_word_length - 1 hops when the language
//      is finite. Walking the index PARENT CSR from the anchor's bucket
//      marks exactly that superset; the BFS then skips unmarked seeds.
//      Pruned seeds start no accepting path, so matched nodes, accept
//      depths, the Theorem-1 split, and results are unchanged in both
//      validate modes — the BFS just never wanders cones that cannot
//      contain the anchor.

#include <algorithm>
#include <limits>
#include <utility>

#include "common/metrics.h"
#include "query/frozen_view.h"

namespace dki {
namespace {

Counter& EmptyShortcircuits() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "serve.eval.backend.planner.empty_shortcircuits");
  return c;
}

}  // namespace

EvalPlan FrozenView::PlanQuery(const PathExpression& query,
                               bool /*validate*/) const {
  EvalPlan plan;
  if (!prefilter_) return plan;
  const CompiledQuery& compiled = query.compiled();

  // Required-label scan: emptiness plus the anchor (rarest required label
  // by index population). kUnknownLabel entries (tags absent from the label
  // table) have population 0.
  bool empty = query.max_word_length() == -2;
  LabelId anchor = kInvalidLabel;
  int64_t anchor_pop = 0;
  for (LabelId lab : query.required_labels()) {
    const int64_t pop = IndexNodesWithLabel(lab);
    if (pop == 0) {
      empty = true;
      break;
    }
    if (anchor == kInvalidLabel || pop < anchor_pop) {
      anchor = lab;
      anchor_pop = pop;
    }
  }

  // How many index nodes can start a match, and how many can end one. Both
  // being non-zero is necessary for a non-empty answer: a matched index
  // node needs an accepting run, whose first and last symbols are real
  // index-node labels (so this holds in raw mode too).
  auto population = [&](const CompiledQuery::Tables& t) {
    if (t.HasStarts(compiled.other_class())) return num_index_nodes();
    int64_t nodes = 0;
    for (int32_t cls = 0; cls < compiled.other_class(); ++cls) {
      if (t.HasStarts(cls)) {
        nodes += IndexNodesWithLabel(compiled.ClassLabel(cls));
      }
    }
    return nodes;
  };
  const int64_t seed_nodes = population(compiled.forward());
  if (empty || seed_nodes == 0 || population(compiled.reverse()) == 0) {
    plan.backend = EvalBackend::kNfaPrefilter;
    plan.empty = true;
    EmptyShortcircuits().Increment();
    return plan;
  }

  // The ancestor walk pays only when there are many seeds and the anchor
  // bucket is much rarer than the seed set.
  if (anchor != kInvalidLabel && seed_nodes >= kPrefilterMinSeeds &&
      anchor_pop * kPrefilterFactor <= seed_nodes) {
    plan.backend = EvalBackend::kNfaPrefilter;
    plan.anchor_label = anchor;
  }
  return plan;
}

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

// NFA product-BFS over the frozen index graph. It reproduces
// query/evaluator.cc's EvaluateOnIndex pop-for-pop, so without the
// prefilter EvalStats match the reference exactly (the property
// tests/frozen_view_test.cc pins). With `use_prefilter` the seed set is
// intersected with the marks ComputePrefilterSeeds left in the scratch.
void FrozenView::RunNfaIndexBfs(FrozenScratch* s, const CompiledQuery& query,
                                bool use_prefilter, EvalStats* local) const {
  const CompiledQuery::Tables fwd = query.forward();
  s->BeginIndexTraversal(num_index_nodes(), fwd.num_states());
  query.ForEachStartLabel(num_labels_, [&](LabelId lab, int32_t cls) {
    const int32_t ne = index_bylabel_off_[static_cast<size_t>(lab) + 1];
    for (int32_t e = index_bylabel_off_[static_cast<size_t>(lab)]; e != ne;
         ++e) {
      const IndexNodeId node = index_bylabel_[static_cast<size_t>(e)];
      if (use_prefilter && !s->PfContains(node)) continue;
      for (const int32_t* q = fwd.starts_begin(cls); q != fwd.starts_end(cls);
           ++q) {
        if (s->InsertIndexVisit(node, *q)) s->cur_.push_back({node, *q});
      }
    }
  });
  int32_t depth = 0;
  while (!s->cur_.empty()) {
    for (const FrozenScratch::Frontier& f : s->cur_) {
      ++local->index_nodes_visited;
      if (fwd.accepts(f.state)) {
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
        const int32_t cls = query.ClassOf(index_label_[static_cast<size_t>(c)]);
        const int32_t* me = fwd.moves_end(f.state, cls);
        for (const int32_t* q = fwd.moves_begin(f.state, cls); q != me; ++q) {
          if (s->InsertIndexVisit(c, *q)) s->next_.push_back({c, *q});
        }
      }
    }
    std::swap(s->cur_, s->next_);
    s->next_.clear();
    ++depth;
  }
}

}  // namespace dki
