#include "query/load_tracker.h"

#include <cmath>

#include "common/logging.h"

namespace dki {

void QueryLoadTracker::Record(const PathExpression& query,
                              const LabelTable& labels, int64_t count) {
  DKI_CHECK_GT(count, 0);
  auto targets = QueryRequirementTargets(query, labels, options_);
  if (targets.empty()) {
    // Queries needing no similarity (e.g. single labels) still count as
    // traffic so coverage fractions stay meaningful: requirement bucket 0.
    if (query.is_chain() && !query.chain_labels().empty() &&
        query.chain_labels().back() >= 0) {
      per_label_[query.chain_labels().back()][0] +=
          static_cast<double>(count);
    }
  } else {
    for (const auto& [label, k] : targets) {
      per_label_[label][k] += static_cast<double>(count);
    }
  }
}

int64_t QueryLoadTracker::label_traffic(LabelId label) const {
  auto it = per_label_.find(label);
  if (it == per_label_.end()) return 0;
  double total = 0;
  for (const auto& [k, count] : it->second) total += count;
  return static_cast<int64_t>(std::llround(total));
}

void QueryLoadTracker::Decay(double factor) {
  DKI_CHECK_GT(factor, 0.0);
  DKI_CHECK_LE(factor, 1.0);
  for (auto label_it = per_label_.begin(); label_it != per_label_.end();) {
    auto& buckets = label_it->second;
    for (auto it = buckets.begin(); it != buckets.end();) {
      it->second *= factor;
      it = it->second < 1.0 ? buckets.erase(it) : std::next(it);
    }
    label_it = buckets.empty() ? per_label_.erase(label_it)
                               : std::next(label_it);
  }
  // No separate total to fix up: total_queries() derives from the
  // surviving buckets, so the eviction sweep above is automatically
  // reflected and erased weight can never be counted again.
}

LabelRequirements QueryLoadTracker::MineRequirements(
    double coverage, const LabelRequirements* held) const {
  DKI_CHECK_GT(coverage, 0.0);
  DKI_CHECK_LE(coverage, 1.0);
  LabelRequirements reqs;
  auto held_k = [held](LabelId label) {
    if (held == nullptr) return 0;
    auto it = held->find(label);
    return it == held->end() ? 0 : it->second;
  };
  for (const auto& [label, buckets] : per_label_) {
    double total = 0;
    for (const auto& [k, count] : buckets) total += count;
    if (total <= 0) continue;
    // Smallest k whose cumulative traffic share reaches the coverage goal.
    double cumulative = 0;
    int chosen = 0;
    for (const auto& [k, count] : buckets) {
      cumulative += count;
      chosen = k;
      if (cumulative / total >= coverage) break;
    }
    // Rise at once; fall only once the requirements below the held one
    // clearly cover the goal.
    const int kept = held_k(label);
    if (chosen < kept) {
      double below = 0;
      for (const auto& [k, count] : buckets) {
        if (k < kept) below += count / total;
      }
      if (below < coverage + kHoldStandardErrors *
                                 std::sqrt(coverage * (1 - coverage) / total)) {
        chosen = kept;
      }
    }
    if (chosen > 0) reqs[label] = chosen;
  }
  return reqs;
}

int64_t QueryLoadTracker::TrafficChangedBetween(
    const LabelRequirements& a, const LabelRequirements& b) const {
  int64_t changed = 0;
  for (const auto& [label, k] : a) {
    auto it = b.find(label);
    if (it == b.end() || it->second != k) changed += label_traffic(label);
  }
  for (const auto& [label, k] : b) {
    if (a.count(label) == 0) changed += label_traffic(label);
  }
  return changed;
}

}  // namespace dki
