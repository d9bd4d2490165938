#ifndef DKINDEX_BENCH_ALGORITHM6_H_
#define DKINDEX_BENCH_ALGORITHM6_H_

// The paper's promoting process (Section 5.3, Algorithm 6), kept as the
// comparator of the promoting experiment (bench/promote_recovery,
// bench/update_sweep) and of tests/dk_tuning_test. It is not part of
// DkIndex: the library retunes with DkIndex::Demote, one re-partition that
// yields exactly DkIndex::Build's index for the new requirements.
//
// Algorithm 6 only raises local similarities and splits extents, through
// IndexGraph's public mutators, so these are free functions over an index
// graph (pass DkIndex::mutable_index()). They leave DkIndex's effective
// requirements as they were: a later AddSubgraph or grow retune
// re-partitions to those, not to the promoted targets.

#include "index/dk_index.h"
#include "index/index_graph.h"

namespace dki {
namespace bench {

// Raises node `v`'s local similarity to `k_target` by promoting its parents
// to k_target - 1 and splitting extent(v) by the promoted parents. No-op if
// k(v) >= k_target.
void Promote(IndexGraph* index, IndexNodeId v, int k_target);

// Promotes every index node with label `label` to `k_target`, split-off
// parts included.
void PromoteLabel(IndexGraph* index, LabelId label, int k_target);

// Batch promotion; the paper's heuristic processes higher target
// similarities first so ancestor promotions are shared.
void PromoteBatch(IndexGraph* index, const LabelRequirements& targets);

}  // namespace bench
}  // namespace dki

#endif  // DKINDEX_BENCH_ALGORITHM6_H_
