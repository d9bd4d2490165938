#ifndef DKINDEX_INDEX_BUILD_OPTIONS_H_
#define DKINDEX_INDEX_BUILD_OPTIONS_H_

namespace dki {

// Knobs of the A(k) and D(k) constructions (AkIndex::Build,
// DkIndex::Build). Passed by value; cheap to copy.
struct BuildOptions {
  // Lanes of parallelism for partition refinement (including the calling
  // thread).
  //   1   — the sequential engine (zero threading overhead).
  //   > 1 — the parallel engine with that many lanes.
  //   0   — auto (the default): the DKI_NUM_THREADS environment variable if
  //         set and > 0, else hardware concurrency. CI uses the variable to
  //         run the whole suite single-threaded and fully parallel from the
  //         same binaries.
  // Either engine produces the *identical* partition, including block
  // numbering (see src/index/parallel_refine.h), so the auto default is
  // safe: results never depend on the machine's core count.
  int num_threads = 0;

  // `num_threads` with 0 resolved per the rule above; always >= 1.
  int ResolvedNumThreads() const;
};

}  // namespace dki

#endif  // DKINDEX_INDEX_BUILD_OPTIONS_H_
