#ifndef DKINDEX_QUERY_LOAD_TRACKER_H_
#define DKINDEX_QUERY_LOAD_TRACKER_H_

#include <cmath>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "index/dk_index.h"
#include "pathexpr/path_expression.h"
#include "query/load_analyzer.h"

namespace dki {

// Online query-pattern mining — the paper's first future-work direction
// ("mine query patterns on query loads"). Records executed queries with
// frequencies and derives *coverage-aware* per-label requirements: instead
// of sizing the index for the single deepest query ever seen (the Section
// 6.1 rule, equivalent to coverage = 1.0), each target label gets the
// smallest local similarity that makes a chosen fraction of its recorded
// traffic sound on the index — rare deep queries then pay validation rather
// than inflating the summary for everyone.
//
// QueryServer's tuner feeds mined requirements back as shrink retunes
// (DkIndex::Demote to the mined map), keeping the index tracking a drifting
// workload.
class QueryLoadTracker {
 public:
  explicit QueryLoadTracker(LoadAnalyzerOptions options = {})
      : options_(options) {}

  // Records `count` executions of `query`.
  void Record(const PathExpression& query, const LabelTable& labels,
              int64_t count = 1);

  // Total live weight: the sum of all surviving bucket counts, rounded
  // once. Computed from the buckets on demand, so the invariant
  //   total_queries() == llround(sum of surviving bucket weights)
  // holds by construction after ANY Record/Decay interleaving. (An earlier
  // version kept a separate running total_ that Record bumped once per
  // query while multi-target queries fed several buckets; the first Decay
  // then recomputed the total from the buckets, silently jumping it — a
  // constant load could drift total_queries() upward. There is nothing to
  // drift now.) Note a query contributing T target buckets counts T times,
  // matching what Decay's survivor sweep preserves; queries with no
  // bucket at all (non-chain expressions without requirement targets) are
  // not counted.
  int64_t total_queries() const {
    double total = 0.0;
    for (const auto& [label, buckets] : per_label_) {
      (void)label;
      for (const auto& [k, count] : buckets) {
        (void)k;
        total += count;
      }
    }
    return static_cast<int64_t>(std::llround(total));
  }
  // Recorded executions targeting `label`.
  int64_t label_traffic(LabelId label) const;

  // Exponentially decays all recorded counts by `factor` in (0, 1]; call
  // periodically so old query patterns fade (drift tracking). Entries whose
  // count drops below 1 are removed.
  void Decay(double factor);

  // The smallest per-label requirements covering at least `coverage` of
  // each label's traffic (coverage in (0, 1]; 1.0 = the paper's rule).
  //
  // Given `held` (the requirements in force; absent labels hold 0), a
  // label's requirement rises as soon as its held value covers less than
  // `coverage` of its traffic, but falls only once the requirements below
  // the held one cover more than `coverage` by over kHoldStandardErrors
  // standard errors of the label's coverage estimate. Noise near the goal
  // can then raise a label a step, never drop it back, so a retune loop
  // cannot flap between two maps. A held label without recorded traffic
  // (never queried, or decayed away) covers nothing and falls to 0.
  static constexpr double kHoldStandardErrors = 3.0;
  LabelRequirements MineRequirements(
      double coverage, const LabelRequirements* held = nullptr) const;

  // Recorded executions targeting labels whose requirement differs between
  // `a` and `b` (absent labels count as 0).
  int64_t TrafficChangedBetween(const LabelRequirements& a,
                                const LabelRequirements& b) const;

 private:
  LoadAnalyzerOptions options_;
  // Per target label: required-k -> recorded executions needing exactly it.
  // The single source of truth — total_queries() and label_traffic() both
  // derive from it, so they can never disagree with the buckets.
  std::unordered_map<LabelId, std::map<int, double>> per_label_;
};

}  // namespace dki

#endif  // DKINDEX_QUERY_LOAD_TRACKER_H_
