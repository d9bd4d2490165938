#ifndef SERVEBENCH_INPUTS_H_
#define SERVEBENCH_INPUTS_H_

// Everything a run feeds the server: the XMark document text, the two query
// pools, the requirement maps mined from them and the candidate update edges
// (all fixed), and the write schedule (drawn from --seed, like the readers'
// QueryStreams). The server
// only ever sees these generated inputs.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "graph/data_graph.h"
#include "index/dk_index.h"
#include "serve/update_queue.h"

namespace servebench {

// Sizes of the server's own caches that the pools are sized against
// (QueryServer::kMaxParsedQueries, ResultCache's default byte budget).
inline constexpr int kParseCacheEntries = 4096;
inline constexpr int64_t kResultCacheBytes = 8 * 1024 * 1024;

inline constexpr int kHotPoolSize = 64;
inline constexpr int kWidePoolSize = 4 * kParseCacheEntries;
inline constexpr int kEdgePoolSize = 1024;
inline constexpr int kProbeWrites = 300;

// write_mix's open-loop stream: Poisson edge toggles plus periodic retunes
// and subgraph insertions, kWriteRate ops/s in total. While two readers run
// one publish costs ~24 ms, so at this rate the writer is ~30% busy and the
// median op finds it idle, waiting only for its own publish. At 25 ops/s
// (~60% busy) the median op often queued behind another publish, and the
// write p50 moved by 17-42% between runs as the host's speed changed; at
// 50 ops/s the writer was ~86% busy.
inline constexpr double kToggleRate = 11.0;
inline constexpr double kRetunePeriodS = 1.0;
inline constexpr double kSubgraphPeriodS = 2.0;
inline constexpr double kWriteRate =
    kToggleRate + 1 / kRetunePeriodS + 1 / kSubgraphPeriodS;

uint64_t MixSeed(uint64_t seed, uint64_t salt);

struct WriteOp {
  enum class Kind { kEdge, kRetune, kSubgraph };
  Kind kind = Kind::kEdge;
  int64_t due_ns = 0;  // offset from the start of the timed window
  dki::UpdateOp op;
};

struct Inputs {
  std::string xml_text;
  std::vector<std::string> hot_pool;   // Section 6.1 chains
  std::vector<std::string> wide_pool;  // chains + wildcard/alternation forms
  dki::LabelRequirements build_reqs;   // mined from the whole hot pool
  dki::LabelRequirements retune_a;     // mined from the hot pool's halves
  dki::LabelRequirements retune_b;
  // write_mix: the timed schedule. Read-only workloads: the post-phase
  // closed-loop probe (due_ns unused).
  std::vector<WriteOp> writes;
};

// One reader client's sequence of pool indices: Zipf(s=1) over pool rank
// for the hot pool, uniform for the wide pool. Seeded per (seed, client),
// so the traced replay re-issues exactly the end-to-end run's requests.
class QueryStream {
 public:
  QueryStream(uint64_t seed, int client, size_t pool_size, bool zipf)
      : rng_(MixSeed(seed, 100 + static_cast<uint64_t>(client))),
        zipf_(zipf ? pool_size : 1, 1.0),
        uniform_(!zipf),
        pool_size_(pool_size) {}

  size_t Next() {
    return uniform_ ? static_cast<size_t>(rng_.UniformInt(
                          0, static_cast<int64_t>(pool_size_) - 1))
                    : zipf_.Sample(&rng_);
  }

 private:
  dki::Rng rng_;
  dki::ZipfSampler zipf_;
  bool uniform_;
  size_t pool_size_;
};

// The pools and the write schedule are drawn from the graph LoadXmark makes
// of xml_text, so their node ids match the served graph.
Inputs MakeInputs(uint64_t seed, double scale, double seconds,
                  bool open_loop_writes);

// Parses an XMark document with the XMark IDREF options (the set-up step
// the benchmark times as xml.load).
bool LoadXmark(const std::string& xml_text, dki::DataGraph* graph,
               std::string* error);

}  // namespace servebench

#endif  // SERVEBENCH_INPUTS_H_
