#ifndef DKINDEX_QUERY_BACKEND_H_
#define DKINDEX_QUERY_BACKEND_H_

#include <cstdint>

#include "graph/label_table.h"

namespace dki {

// The index traversal behind FrozenView::Evaluate is always the NFA
// product-BFS over the frozen index graph (query/index_traversal.cc),
// bit-identical to EvaluateOnIndex in results AND EvalStats when the view's
// prefilter is off. With it on (FrozenViewOptions::prefilter, the default),
// PlanQuery may put a required-label prefilter in front of the BFS:
//
//   kNfa          — the plain product-BFS, seeded from every index node whose
//                   label can start a word.
//   kNfaPrefilter — the same BFS, behind the prefilter: must-occur labels
//                   from the AST intersect the label->nodes inverted indexes;
//                   a query whose required label has no index population
//                   short-circuits to {}, and otherwise the BFS seed set
//                   shrinks to ancestors (within the query's length bound)
//                   of the rarest required label's bucket. Results are
//                   unchanged; only the traversal counters shrink.
enum class EvalBackend {
  kNfa = 0,
  kNfaPrefilter,
};
inline constexpr int kNumEvalBackends = 2;

// Metric name of a plan's traversal: "nfa" or "prefilter" (used in the
// serve.eval.backend.<name>.* metrics and bench/backends).
inline const char* EvalBackendName(EvalBackend backend) {
  return backend == EvalBackend::kNfaPrefilter ? "prefilter" : "nfa";
}

// One planned evaluation: the traversal to run plus the planner's prefilter
// decisions. Produced by FrozenView::PlanQuery.
struct EvalPlan {
  EvalBackend backend = EvalBackend::kNfa;
  // A required label has zero index population (or is unknown to the label
  // table), or no index node can start or end a match: the result is {}
  // with no traversal at all.
  bool empty = false;
  // Prefilter anchor: the required label with the smallest index
  // population; kInvalidLabel when the plan has no prefilter pass.
  LabelId anchor_label = kInvalidLabel;
};

// Prefilter gate, grounded by bench/micro's selectivity sweep and
// bench/backends (docs/BENCHMARKS.md):
//
//   kPrefilterMinSeeds   — below this many estimated seed nodes the BFS is
//                          already cheap; the ancestor walk would cost more
//                          than it saves.
//   kPrefilterFactor     — the anchor bucket must be at least this many
//                          times smaller than the seed estimate before the
//                          ancestor walk pays for itself.
inline constexpr int64_t kPrefilterMinSeeds = 256;
inline constexpr int64_t kPrefilterFactor = 8;

}  // namespace dki

#endif  // DKINDEX_QUERY_BACKEND_H_
