#ifndef SERVEBENCH_REPLAY_H_
#define SERVEBENCH_REPLAY_H_

// The traced replay (--trace 1): re-issues a run's inputs through each
// layer's public functions and records a span around every call, so a
// per-layer cost can be named for each end-to-end metric. Spans are kept in
// memory and reduced to quantiles at the end; nothing inside the library is
// instrumented.

#include <string>
#include <vector>

#include "graph/data_graph.h"
#include "index/dk_index.h"
#include "inputs.h"
#include "serve/query_server.h"
#include "stats.h"

namespace servebench {

struct ReplayInput {
  // Read side: `clients` threads replay their QueryStreams over `pool`
  // against the server's current snapshot for `read_seconds`, through a
  // private ParseCache and ResultCache of the server's default sizes.
  const dki::QueryServer* server = nullptr;
  const std::vector<std::string>* pool = nullptr;
  bool zipf = true;
  int clients = 1;
  uint64_t seed = 0;
  double read_seconds = 1.0;

  // Write side (skipped when `writes` is null): the schedule replayed one op
  // per publish onto a fork of the pre-write index, with a WAL and
  // checkpoints in `dir`, then recovered and checked against `check_pool`.
  const dki::DkIndex* base = nullptr;
  const std::vector<WriteOp>* writes = nullptr;
  const std::vector<std::string>* check_pool = nullptr;
  dki::DurabilityOptions durability;
  std::string dir;
  double write_seconds = 1.0;
};

struct ReplayResult {
  MetricList metrics;
  int64_t attempted = 0;
  int64_t failed = 0;  // parse errors + recovered-vs-replayed mismatches
};

ReplayResult RunReplay(const ReplayInput& in);

}  // namespace servebench

#endif  // SERVEBENCH_REPLAY_H_
