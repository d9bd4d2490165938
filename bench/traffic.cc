// Open-loop production-traffic benchmark (see docs/BENCHMARKS.md and the
// EXPERIMENTS.md "traffic simulator" section): Zipf-skewed queries and
// NURand-skewed edge toggles arrive on a Poisson tape against a live
// serving stack, swept across offered loads, with a drift phase that
// rotates the hot query set so the server's load-mining tuner
// promotes/demotes under fire. Emits the per-phase table to stdout and the
// machine-readable BENCH_traffic.json (schema version 3).
//
// Flags:
//   --small        CI smoke configuration (tiny dataset, short phases)
//   --json PATH    output path (default BENCH_traffic.json)
//   --seed N       base seed (default 20030609)
//   --shards N     serve through a ShardedQueryServer with N partitions
//                  (N=1 included, so "--shards 1" vs "--shards 4" compares
//                  one writer against four on the same stack). Sharded
//                  runs use the tree-mode XMark dataset: IDREF edges span
//                  arbitrary subtrees and would collapse the edge-closed
//                  partition into a single shard.
//   --update-fraction F   fraction of arrivals that are edge toggles
//                  (default 0.05; raise it to saturate the write path)

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>

#include "bench/bench_common.h"
#include "bench/traffic_lib.h"
#include "io/fs_util.h"

namespace dki {
namespace {

int Main(int argc, char** argv) {
  bool small = false;
  std::string json_path = "BENCH_traffic.json";
  uint64_t seed = 20030609;
  int num_shards = 0;
  double update_fraction = -1.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--small") {
      small = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = static_cast<uint64_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--shards" && i + 1 < argc) {
      num_shards = std::atoi(argv[++i]);
      if (num_shards < 1 || num_shards > 64) {
        std::fprintf(stderr, "--shards wants 1..64\n");
        return 2;
      }
    } else if (arg == "--update-fraction" && i + 1 < argc) {
      update_fraction = std::atof(argv[++i]);
      if (update_fraction < 0.0 || update_fraction > 1.0) {
        std::fprintf(stderr, "--update-fraction wants [0, 1]\n");
        return 2;
      }
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }

  const double scale = small ? 0.1 : bench::ScaleFromEnv();
  bench::Dataset dataset =
      num_shards > 0 ? bench::MakeXmarkTree(scale) : bench::MakeXmark(scale);
  bench::PrintDatasetBanner(dataset);

  bench::TrafficOptions opts;
  opts.seed = seed;
  opts.num_shards = num_shards;
  if (update_fraction >= 0.0) opts.update_fraction = update_fraction;
  if (small) {
    opts.query_pool = 32;
    opts.workers = 2;
    opts.phase_sec = 0.4;
    opts.warm_qps = 200.0;
    opts.sweep_qps = {200.0, 400.0};
    opts.drift_qps = 300.0;
    opts.tuning.period_ms = 80;
    opts.tuning.min_misses = 8;
  }
  // Durability on, in a per-run temp dir, so WAL deltas are real numbers.
  std::string wal_dir = "/tmp/dki_traffic_" + std::to_string(::getpid());
  std::string error;
  if (EnsureDir(wal_dir, &error)) {
    opts.durability_dir = wal_dir;
  } else {
    std::fprintf(stderr, "traffic: no WAL dir (%s); running in-memory\n",
                 error.c_str());
  }

  std::printf(
      "\nOpen-loop traffic: %d-query Zipf(s=%.2f) pool, %d workers, "
      "%.0f%% updates, deadline %.0fms, phases of %.1fs, shards=%d\n",
      opts.query_pool, opts.zipf_s, opts.workers,
      100.0 * opts.update_fraction, opts.deadline_ms, opts.phase_sec,
      opts.num_shards);

  bench::TrafficResult result = bench::RunTraffic(dataset, opts);
  // The server is stopped by now; its WAL and checkpoints were only there
  // to make the durability numbers real.
  if (!opts.durability_dir.empty()) {
    std::error_code ignored;
    std::filesystem::remove_all(opts.durability_dir, ignored);
  }
  bench::PrintTrafficResult(result);

  bench::Json json = bench::TrafficResultToJson(result, opts);
  if (!bench::Json::WriteFile(json_path, json, &error)) {
    std::fprintf(stderr, "traffic: %s\n", error.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace dki

int main(int argc, char** argv) { return dki::Main(argc, argv); }
