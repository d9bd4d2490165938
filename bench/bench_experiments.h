#ifndef DKINDEX_BENCH_BENCH_EXPERIMENTS_H_
#define DKINDEX_BENCH_BENCH_EXPERIMENTS_H_

// Drivers for the paper's experiments. Each figure/table binary calls one
// of these with its dataset; keeping the logic shared guarantees Figures
// 4-7 use the identical workload/update recipe, as in the paper.

#include <string>

#include "bench/bench_common.h"

namespace dki {
namespace bench {

// Figures 4 and 5: evaluation performance before updating. Builds A(0)..A(4)
// and the workload-tuned D(k), evaluates the 100-test-path workload on each,
// prints the size-vs-cost series and the paper-shape checks.
void RunEvalBeforeUpdating(Dataset dataset, const std::string& figure_name);

// Table 1: update efficiency. Adds the same 100 random ID/IDREF edges to
// A(1)..A(4) (propagate baseline) and to D(k) (Algorithms 4+5), printing the
// total running time per index, plus update-size side effects.
void RunUpdateEfficiency(Dataset xmark, Dataset nasa);

// Figures 6 and 7: evaluation performance after updating. Applies the 100
// edges to every index first, then reruns the Figure 4/5 measurement.
void RunEvalAfterUpdating(Dataset dataset, const std::string& figure_name);

// The promoting experiment the paper defers to its full version: D(k) cost
// before updates, after updates, and after the promoting process
// (Algorithm 6, bench/algorithm6.h).
void RunPromoteRecovery(Dataset dataset);

}  // namespace bench
}  // namespace dki

#endif  // DKINDEX_BENCH_BENCH_EXPERIMENTS_H_
