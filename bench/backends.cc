// The index traversal (query/backend.h) with and without its planner,
// across query shapes on the paper's two datasets: for each (dataset,
// query-shape class) this times the pure reference NFA ("nfa", prefilter
// off) against the default view ("auto": empty short-circuit plus the
// gated required-label prefilter) through persistent scratches (the
// serving configuration — compiled tables warm across repetitions exactly
// as they do across a server's request stream), and cross-checks an
// FNV-1a hash of auto's results against nfa's. ANY divergence is a
// correctness bug: the binary prints the offending class and exits
// nonzero, which is what the CI bench-smoke job gates on.
//
// Usage: backends [--small] [--json PATH] [--commit TEXT]
//   --small   CI smoke shape: tiny datasets, few repetitions
//   --json    also emit BENCH_backends.json (schema in docs/BENCHMARKS.md)
//   --commit  source revision recorded in the JSON provenance block
//
// The interesting column is auto's speedup_vs_nfa per class: the planner
// should ride the reference where the prefilter gate stays shut (literal
// chains, alternations) and beat it on selective anchors under wildcard
// starts (prefilter) and dead labels (empty shortcircuit).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_json.h"
#include "common/random.h"
#include "index/dk_index.h"
#include "query/frozen_view.h"
#include "tests/test_util.h"

namespace dki {
namespace {

// Row name and FrozenViewOptions::prefilter; the first row is the baseline
// every other row's speedup and result hash are measured against.
const struct {
  const char* name;
  bool prefilter;
} kModes[] = {{"nfa", false}, {"auto", true}};

struct ShapeClass {
  std::string name;
  std::vector<std::string> texts;
};

// Label of the smallest non-empty data population (skipping the document
// root) — the most selective prefilter anchor the dataset offers —
// and one from the largest, for unselective baselines.
std::pair<std::string, std::string> RareAndCommonLabels(const DataGraph& g) {
  LabelId rare = kInvalidLabel, common = kInvalidLabel;
  size_t rare_pop = 0, common_pop = 0;
  for (LabelId l = 1; l < static_cast<LabelId>(g.labels().size()); ++l) {
    const size_t pop = g.NodesWithLabel(l).size();
    if (pop == 0) continue;
    if (rare == kInvalidLabel || pop < rare_pop) {
      rare = l;
      rare_pop = pop;
    }
    if (common == kInvalidLabel || pop > common_pop) {
      common = l;
      common_pop = pop;
    }
  }
  return {g.labels().Name(rare), g.labels().Name(common)};
}

std::vector<ShapeClass> MakeClasses(const DataGraph& g, uint64_t seed) {
  Rng rng(seed);
  auto chain = [&](int len) {
    return testing_util::RandomChainQuery(g, len, &rng);
  };
  const auto [rare, common] = RareAndCommonLabels(g);

  std::vector<ShapeClass> classes;
  ShapeClass literal{"literal_chain", {}};
  for (int i = 0; i < 8; ++i) literal.texts.push_back(chain(3 + i % 3));
  classes.push_back(std::move(literal));

  // Wildcard/high-fanout starts: the NFA seeds every index node; a rare
  // required literal bounds the cone (prefilter bait).
  ShapeClass wild{"wildcard_start", {}};
  wild.texts.push_back("_." + rare);
  wild.texts.push_back("_._." + chain(1));
  wild.texts.push_back("_*." + rare);
  wild.texts.push_back("_*." + rare + "._");
  wild.texts.push_back("_." + rare + "." + "_");
  wild.texts.push_back("_*." + common);
  classes.push_back(std::move(wild));

  // Alternations and closures: shapes that keep several automaton states
  // live per index node.
  ShapeClass alt{"alternation_star", {}};
  alt.texts.push_back("(" + chain(2) + ")|(" + chain(2) + ")");
  alt.texts.push_back("(" + chain(3) + ")|(" + chain(3) + ")");
  alt.texts.push_back("(" + chain(2) + ")|(_._._)");
  alt.texts.push_back(chain(1) + "?._._");
  alt.texts.push_back("_*." + chain(2));
  alt.texts.push_back("(" + rare + "|" + common + ")._");
  classes.push_back(std::move(alt));

  // Labels absent from the graph (or unreachable combinations): the
  // required-label emptiness shortcircuit answers these without traversal.
  ShapeClass dead{"dead_label", {}};
  dead.texts.push_back("label_absent_from_this_dataset");
  dead.texts.push_back("_.label_absent_from_this_dataset");
  dead.texts.push_back("_*.label_absent_from_this_dataset._");
  dead.texts.push_back(common + ".label_absent_from_this_dataset");
  classes.push_back(std::move(dead));
  return classes;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Where the numbers came from. Every evaluation runs on the calling thread,
// so hardware_threads only describes the machine.
bench::Json Provenance(double scale, const std::string& commit) {
  bench::Json p = bench::Json::Object();
  p.Set("cpu_model", bench::Json::Str(CpuModel()));
  p.Set("hardware_threads", bench::Json::Int(static_cast<int64_t>(
                                std::thread::hardware_concurrency())));
  p.Set("eval_threads", bench::Json::Int(1));
  p.Set("build_type", bench::Json::Str(DKI_BENCH_BUILD_TYPE));
  p.Set("scale", bench::Json::Num(scale));
  p.Set("commit", bench::Json::Str(commit));
  return p;
}

uint64_t Fnv1aMix(uint64_t h, uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (b * 8)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t HashResults(const std::vector<std::vector<NodeId>>& results) {
  uint64_t h = 14695981039346656037ull;
  for (const auto& r : results) {
    h = Fnv1aMix(h, 0x9e3779b97f4a7c15ull + r.size());
    for (NodeId v : r) h = Fnv1aMix(h, static_cast<uint64_t>(v));
  }
  return h;
}

struct ModeRun {
  double ns_per_query = 0;
  uint64_t result_hash = 0;
  std::map<std::string, int> plans;  // auto only: backend -> queries
};

// Times `reps` passes of the class through each row's view, each view with
// a persistent scratch. The first pass per view (table compilation) is
// untimed and yields the row's result hash; the timed passes alternate
// between the rows, in alternating order, so machine drift lands on every
// row alike.
std::vector<ModeRun> RunModes(const IndexGraph& index,
                              const std::vector<PathExpression>& qs,
                              int reps) {
  constexpr size_t kRows = std::size(kModes);
  std::vector<std::unique_ptr<FrozenView>> views;
  std::vector<std::unique_ptr<FrozenScratch>> scratches;
  std::vector<ModeRun> runs(kRows);
  for (size_t m = 0; m < kRows; ++m) {
    FrozenViewOptions options;
    options.prefilter = kModes[m].prefilter;
    views.push_back(std::make_unique<FrozenView>(index, options));
    scratches.push_back(std::make_unique<FrozenScratch>());
    std::vector<std::vector<NodeId>> results;
    for (const PathExpression& q : qs) {
      results.push_back(views[m]->Evaluate(q, nullptr, /*validate=*/true,
                                           scratches[m].get()));
    }
    runs[m].result_hash = HashResults(results);
    if (kModes[m].prefilter) {
      // What the planner picked for each query.
      for (const PathExpression& q : qs) {
        const EvalPlan plan = views[m]->PlanQuery(q, /*validate=*/true);
        runs[m].plans[plan.empty ? "empty"
                                 : std::string(EvalBackendName(plan.backend))]++;
      }
    }
  }

  std::vector<double> elapsed_ns(kRows, 0);
  for (int rep = 0; rep < reps; ++rep) {
    for (size_t k = 0; k < kRows; ++k) {
      const size_t m = rep % 2 == 0 ? k : kRows - 1 - k;
      const auto start = std::chrono::steady_clock::now();
      for (const PathExpression& q : qs) {
        (void)views[m]->Evaluate(q, nullptr, /*validate=*/true,
                                 scratches[m].get());
      }
      elapsed_ns[m] += std::chrono::duration<double, std::nano>(
                           std::chrono::steady_clock::now() - start)
                           .count();
    }
  }
  for (size_t m = 0; m < kRows; ++m) {
    runs[m].ns_per_query =
        elapsed_ns[m] /
        (static_cast<double>(reps) * static_cast<double>(qs.size()));
  }
  return runs;
}

int Main(int argc, char** argv) {
  bool small = false;
  std::string json_path;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--small") small = true;
    if (arg == "--json" && i + 1 < argc) json_path = argv[++i];
    if (arg == "--commit" && i + 1 < argc) commit = argv[++i];
  }
  const double scale = small ? 0.15 : bench::ScaleFromEnv();
  const int reps = small ? 3 : 100;

  bench::Json datasets_json = bench::Json::Array();
  bool diverged = false;

  std::vector<bench::Dataset> datasets;
  datasets.push_back(bench::MakeXmark(scale));
  datasets.push_back(bench::MakeNasa(scale));
  for (bench::Dataset& dataset : datasets) {
    bench::PrintDatasetBanner(dataset);
    DataGraph& g = dataset.graph;

    // The serving index: D(k) mined from the literal chains, so chain
    // answers are mostly certain while wildcard/closure shapes exercise the
    // validate path — the mix the planner has to navigate.
    std::vector<ShapeClass> classes = MakeClasses(g, 20030609);
    auto mined = bench::MakeWorkload(g, 20, 20030609);
    LabelRequirements reqs =
        bench::MineWorkloadRequirements(mined, g.labels());
    DkIndex dk = DkIndex::Build(&g, reqs);

    bench::Json classes_json = bench::Json::Array();
    for (const ShapeClass& cls : classes) {
      std::vector<PathExpression> parsed;
      for (const std::string& t : cls.texts) {
        parsed.push_back(testing_util::MustParse(t, g.labels()));
      }
      bench::Json rows = bench::Json::Array();
      std::printf("\n%-10s %-18s %14s %12s\n", dataset.name.c_str(),
                  cls.name.c_str(), "ns/query", "vs nfa");
      double nfa_ns = 0;
      uint64_t want_hash = 0;
      const std::vector<ModeRun> runs = RunModes(dk.index(), parsed, reps);
      for (size_t m = 0; m < runs.size(); ++m) {
        const auto& mode = kModes[m];
        const ModeRun& run = runs[m];
        if (m == 0) {
          nfa_ns = run.ns_per_query;
          want_hash = run.result_hash;
        } else if (run.result_hash != want_hash) {
          std::fprintf(stderr,
                       "RESULT DIVERGENCE: %s/%s row %s hash %016llx != "
                       "nfa %016llx\n",
                       dataset.name.c_str(), cls.name.c_str(), mode.name,
                       static_cast<unsigned long long>(run.result_hash),
                       static_cast<unsigned long long>(want_hash));
          diverged = true;
        }
        const double speedup =
            run.ns_per_query > 0 ? nfa_ns / run.ns_per_query : 0;
        std::printf("%-10s %-18s %14.0f %11.2fx\n", "", mode.name,
                    run.ns_per_query, speedup);
        bench::Json row = bench::Json::Object();
        row.Set("backend", bench::Json::Str(mode.name));
        row.Set("ns_per_query", bench::Json::Num(run.ns_per_query));
        row.Set("speedup_vs_nfa", bench::Json::Num(speedup));
        if (!run.plans.empty()) {
          bench::Json plans = bench::Json::Object();
          for (const auto& [name, count] : run.plans) {
            plans.Set(name, bench::Json::Int(count));
          }
          row.Set("plans", std::move(plans));
        }
        rows.Push(std::move(row));
      }
      char hash_hex[20];
      std::snprintf(hash_hex, sizeof(hash_hex), "%016llx",
                    static_cast<unsigned long long>(want_hash));
      bench::Json cls_json = bench::Json::Object();
      cls_json.Set("name", bench::Json::Str(cls.name));
      cls_json.Set("queries", bench::Json::Int(
                                  static_cast<int64_t>(cls.texts.size())));
      cls_json.Set("result_hash", bench::Json::Str(hash_hex));
      cls_json.Set("rows", std::move(rows));
      classes_json.Push(std::move(cls_json));
    }

    bench::Json ds = bench::Json::Object();
    ds.Set("name", bench::Json::Str(dataset.name));
    ds.Set("nodes", bench::Json::Int(g.NumNodes()));
    ds.Set("edges", bench::Json::Int(g.NumEdges()));
    ds.Set("index_nodes", bench::Json::Int(dk.index().NumIndexNodes()));
    ds.Set("classes", std::move(classes_json));
    datasets_json.Push(std::move(ds));
  }

  if (!json_path.empty()) {
    bench::Json root = bench::Json::Object();
    root.Set("bench", bench::Json::Str("backends"));
    root.Set("version", bench::Json::Int(2));
    root.Set("small", bench::Json::Bool(small));
    root.Set("reps", bench::Json::Int(reps));
    root.Set("provenance", Provenance(scale, commit));
    root.Set("datasets", std::move(datasets_json));
    std::string error;
    if (!bench::Json::WriteFile(json_path, root, &error)) {
      std::fprintf(stderr, "backends: %s\n", error.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  if (diverged) {
    std::fprintf(stderr, "backends: auto vs nfa result divergence\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace dki

int main(int argc, char** argv) { return dki::Main(argc, argv); }
