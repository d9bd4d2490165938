// servebench: the serving benchmark. Drives a durable QueryServer over XMark
// through one named workload and prints, as its last stdout line, one JSON
// object {"correct", "attempted", "failed", "metrics"}. See README.md in this
// directory for the workloads, the metrics and how to run it.
//
//   servebench --workload read_hot|read_wide|write_mix --seed N --seconds S
//              --trace 0|1 --workdir DIR [--scale X] [--git-describe TEXT]
//              [--plant-wrong-answer]
//
// --trace 0 reports the end-to-end metrics; --trace 1 repeats the same run
// and then the traced replay (replay.h), and reports the per-layer metrics.
// Exits 1 when any answer is wrong or any operation failed, 2 on bad usage
// or an I/O error.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "graph/data_graph.h"
#include "index/dk_index.h"
#include "inputs.h"
#include "query/evaluator.h"
#include "query/frozen_view.h"
#include "replay.h"
#include "serve/query_server.h"
#include "stats.h"

#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE "unknown"
#endif

namespace servebench {
namespace {

using dki::NodeId;
using dki::QueryServer;

constexpr int kSetupReps = 5;
constexpr double kWarmupSeconds = 1.0;
constexpr double kWindowSeconds = 0.5;
// A reader verifies one response in this many against the expected answer.
constexpr int64_t kCheckEvery = 64;
// Seeded sample of read_wide's pool checked against the ground truth.
constexpr int kWideGateSample = 64;
constexpr double kVisibleTimeoutSeconds = 10.0;
// How often the open-loop generator looks for newly visible ops between
// submissions. Tighter polling wakes the generator's vCPU so often that it
// slows the writer thread when the scheduler places both together.
constexpr auto kPollInterval = std::chrono::milliseconds(1);

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double scale = 4.0;
  std::string workdir;
  std::string git_describe = "unknown";
  bool plant_wrong_answer = false;
};

struct WorkloadSpec {
  int readers = 3;
  bool hot_pool = true;          // else the wide pool
  bool open_loop_writes = false; // else the post-phase write probe
};

[[noreturn]] void Usage(const std::string& what) {
  std::fprintf(stderr, "servebench: %s\n", what.c_str());
  std::exit(2);
}

Config ParseArgs(int argc, char** argv) {
  Config c;
  bool have_workload = false, have_workdir = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      c.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      c.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      c.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      c.trace = value() == "1";
    } else if (arg == "--scale") {
      c.scale = std::atof(value().c_str());
    } else if (arg == "--workdir") {
      c.workdir = value();
      have_workdir = true;
    } else if (arg == "--git-describe") {
      c.git_describe = value();
    } else if (arg == "--plant-wrong-answer") {
      c.plant_wrong_answer = true;
    } else {
      Usage("unknown argument " + arg);
    }
  }
  if (!have_workload || !have_workdir) Usage("--workload and --workdir are required");
  if (c.seconds <= 0 || c.scale <= 0) Usage("--seconds and --scale must be > 0");
  return c;
}

WorkloadSpec SpecFor(const std::string& workload) {
  if (workload == "read_hot") return {3, true, false};
  if (workload == "read_wide") return {3, false, false};
  if (workload == "write_mix") return {2, true, true};
  Usage("unknown workload " + workload);
}

// Library defaults except: refusals instead of blocking, so they count as
// failures; durability on with the default flush policy.
QueryServer::Options ServerOptions(const std::string& dir) {
  QueryServer::Options o;
  o.full_policy = dki::UpdateQueue::FullPolicy::kReject;
  o.durability.dir = dir;
  return o;
}

uint64_t Fingerprint(const std::vector<NodeId>& nodes) {
  uint64_t h = 1469598103934665603ULL ^ nodes.size();
  for (NodeId n : nodes) {
    h ^= static_cast<uint64_t>(static_cast<uint32_t>(n));
    h *= 1099511628211ULL;
  }
  return h;
}

// ---------------------------------------------------------------- set-up

struct Served {
  std::unique_ptr<dki::DataGraph> graph;  // borrowed by dk
  std::unique_ptr<dki::DkIndex> dk;       // the pre-write index
  std::unique_ptr<QueryServer> server;

  // Stops the server and frees in reverse order of construction.
  void Reset() {
    server.reset();
    dk.reset();
    graph.reset();
  }
};

struct SetupTimes {
  std::vector<double> load_ms, build_ms, start_ms, total_s;
};

// One set-up as a user pays it: parse the XML into a graph, build the
// D(k)-index for the hot pool's requirements, start the durable server.
Served SetUp(const Config& cfg, const Inputs& in, int rep, SetupTimes* t) {
  Served s;
  s.graph = std::make_unique<dki::DataGraph>();
  std::string error;
  const int64_t t0 = NowNs();
  if (!LoadXmark(in.xml_text, s.graph.get(), &error)) Usage("xml: " + error);
  const int64_t t1 = NowNs();
  s.dk = std::make_unique<dki::DkIndex>(
      dki::DkIndex::Build(s.graph.get(), in.build_reqs));
  const int64_t t2 = NowNs();
  s.server = std::make_unique<QueryServer>(
      *s.dk, ServerOptions(cfg.workdir + "/server-" + std::to_string(rep)));
  const int64_t t3 = NowNs();
  t->load_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
  t->build_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
  t->start_ms.push_back(static_cast<double>(t3 - t2) / 1e6);
  t->total_s.push_back(static_cast<double>(t3 - t0) / 1e9);
  return s;
}

// ---------------------------------------------------------------- readers

struct ReaderResult {
  // Set (release) once the reader has seen the window end; the fields below
  // are final from then on.
  std::atomic<bool> left_window{false};
  // One histogram per measurement window, by completion time.
  std::vector<LatencyHist> windows;
  int64_t completed = 0;
  int64_t parse_errors = 0;
  int64_t checked = 0;
  int64_t mismatches = 0;
};

// Readers run unrecorded outside kMeasure: during warm-up, and on the
// read-only workloads also after the window (kAfter), during the gate and
// the write probe, so those see the same read load as the window.
enum Phase { kWarmup = 0, kMeasure = 1, kAfter = 2, kStop = 3 };

// A closed-loop client: the next request goes out when the previous answer
// is back. Only requests issued in the measured window are recorded.
void Reader(const QueryServer& server, const std::vector<std::string>& pool,
            bool zipf, uint64_t seed, int client,
            const std::vector<uint64_t>* expected,
            const std::atomic<int>* phase, const int64_t* start_ns,
            ReaderResult* out) {
  QueryStream stream(seed, client, pool.size(), zipf);
  std::string error;
  const int64_t last_window = static_cast<int64_t>(out->windows.size()) - 1;
  for (;;) {
    const int p = phase->load(std::memory_order_acquire);
    if (p >= kAfter) out->left_window.store(true, std::memory_order_release);
    if (p == kStop) break;
    const size_t idx = stream.Next();
    const int64_t t0 = NowNs();
    std::optional<std::vector<NodeId>> result =
        server.Evaluate(pool[idx], nullptr, &error);
    const int64_t t1 = NowNs();
    if (p != kMeasure) continue;
    const int64_t w =
        (t1 - *start_ns) / static_cast<int64_t>(kWindowSeconds * 1e9);
    if (w > last_window) continue;
    out->windows[static_cast<size_t>(w)].Record(t1 - t0);
    ++out->completed;
    if (!result.has_value()) {
      ++out->parse_errors;
    } else if (expected != nullptr && out->completed % kCheckEvery == 0) {
      ++out->checked;
      if (Fingerprint(*result) != (*expected)[idx]) ++out->mismatches;
    }
  }
}

// Every pool query's answer on the initial snapshot: fingerprints for the
// readers' sampled checks on the read-only workloads (the snapshot never
// changes during their window), and the pool's total answer bytes, the
// figure the result cache's byte budget is compared with. Computed on the
// frozen view directly, so the server's caches stay cold.
struct PoolAnswers {
  std::vector<uint64_t> fingerprints;
  int64_t result_bytes = 0;
};

PoolAnswers AnswerPool(const QueryServer& server,
                       const std::vector<std::string>& pool, int threads) {
  std::shared_ptr<const dki::IndexSnapshot> snap = server.snapshot();
  std::vector<uint64_t> out(pool.size());
  std::atomic<int64_t> bytes{0};
  std::atomic<size_t> next{0};
  std::atomic<bool> bad{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      dki::FrozenScratch scratch;
      std::string error;
      for (size_t i = next.fetch_add(1); i < pool.size();
           i = next.fetch_add(1)) {
        std::optional<dki::PathExpression> expr = dki::PathExpression::Parse(
            pool[i], snap->graph().labels(), &error);
        if (!expr.has_value()) {
          bad = true;
          continue;
        }
        const std::vector<NodeId> answer =
            snap->frozen().Evaluate(*expr, nullptr, true, &scratch);
        out[i] = Fingerprint(answer);
        bytes += static_cast<int64_t>(answer.size() * sizeof(NodeId));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  if (bad) Usage("a pool query failed to parse");
  return {std::move(out), bytes.load()};
}

// ---------------------------------------------------------------- writes

struct WriteResult {
  LatencyHist visible;  // due (or submit) -> visible
  LatencyHist late;     // how late each op was submitted
  int64_t attempted = 0;
  int64_t rejected = 0;
  int64_t never_visible = 0;
  double depth_sum = 0;
  int64_t depth_samples = 0;
};

bool Submit(QueryServer* server, const WriteOp& w) {
  const dki::UpdateOp& op = w.op;
  switch (op.kind) {
    case dki::UpdateOp::Kind::kAddEdge:
      return server->SubmitAddEdge(op.u, op.v);
    case dki::UpdateOp::Kind::kRemoveEdge:
      return server->SubmitRemoveEdge(op.u, op.v);
    case dki::UpdateOp::Kind::kAddSubgraph:
      return server->SubmitAddSubgraph(*op.subgraph);
    case dki::UpdateOp::Kind::kRetune:
      return server->SubmitRetune(op.retune_targets, op.retune_shrink);
  }
  return false;
}

// write_mix's open-loop generator: each op is submitted at its due time
// whatever the server's state, and its latency runs from that due time until
// a published snapshot's seq() covers it, so a stall is charged to every op
// it delays. How late the generator itself ran is recorded apart. The
// generator is the only submitter, so the k-th accepted op is WAL seq k.
void OpenLoopWriter(QueryServer* server, const std::vector<WriteOp>& tape,
                    int64_t start_ns, WriteResult* out) {
  std::deque<std::pair<uint64_t, int64_t>> pending;  // (seq, due)
  uint64_t seq = 0;
  auto poll = [&] {
    const uint64_t published = server->snapshot()->seq();
    const int64_t now = NowNs();
    for (; !pending.empty() && pending.front().first <= published;
         pending.pop_front()) {
      out->visible.Record(now - pending.front().second);
    }
  };
  for (const WriteOp& w : tape) {
    const int64_t due = start_ns + w.due_ns;
    for (int64_t now = NowNs(); now < due; now = NowNs()) {
      poll();
      std::this_thread::sleep_for(
          std::min<std::chrono::nanoseconds>(kPollInterval,
                                             std::chrono::nanoseconds(due - now)));
    }
    out->late.Record(NowNs() - due);
    ++out->attempted;
    if (!Submit(server, w)) {
      ++out->rejected;
      continue;
    }
    pending.emplace_back(++seq, due);
    const QueryServer::Stats s = server->stats();
    out->depth_sum += static_cast<double>(s.ops_accepted - s.ops_applied);
    ++out->depth_samples;
  }
  // Bounded wait for the tail; whatever is still pending never became
  // visible.
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(kVisibleTimeoutSeconds * 1e9);
  for (poll(); !pending.empty() && NowNs() < deadline; poll()) {
    std::this_thread::sleep_for(kPollInterval);
  }
  out->never_visible += static_cast<int64_t>(pending.size());
}

// The read-only workloads' write probe, after the measured window and with
// the readers still running: one op at a time, each timed from submit until
// Flush returns, i.e. until the op is applied and published. (On an idle
// server both threads sleep between ops, and the idle-vCPU wake-ups made
// the figure swing by 30% between runs.)
void ClosedLoopProbe(QueryServer* server, const std::vector<WriteOp>& ops,
                     WriteResult* out) {
  for (const WriteOp& w : ops) {
    ++out->attempted;
    const int64_t start = NowNs();
    if (!Submit(server, w)) {
      ++out->rejected;
      continue;
    }
    server->Flush();
    out->visible.Record(NowNs() - start);
  }
}

// ---------------------------------------------------------------- gate

// Every checked query's served answer on the final snapshot must equal the
// ground truth: EvaluateOnDataGraph over that snapshot's graph.
struct GateResult {
  int64_t checked = 0;
  int64_t mismatches = 0;
};

GateResult CorrectnessGate(const Config& cfg, const QueryServer& server,
                           const std::vector<std::string>& pool,
                           const std::vector<size_t>& indices,
                           const std::vector<uint64_t>* expected) {
  GateResult g;
  std::shared_ptr<const dki::IndexSnapshot> snap = server.snapshot();
  std::string error;
  bool planted = false;
  for (size_t idx : indices) {
    const std::string& text = pool[idx];
    ++g.checked;
    std::optional<std::vector<NodeId>> served =
        server.EvaluateOn(*snap, text, nullptr, &error);
    std::optional<dki::PathExpression> expr =
        dki::PathExpression::Parse(text, snap->graph().labels(), &error);
    if (!served.has_value() || !expr.has_value()) {
      ++g.mismatches;
      continue;
    }
    if (cfg.plant_wrong_answer && !planted) {
      // Smoke-test hook: corrupt one served answer to prove the gate trips.
      if (served->empty()) {
        served->push_back(0);
      } else {
        served->pop_back();
      }
      planted = true;
    }
    const std::vector<NodeId> truth =
        dki::EvaluateOnDataGraph(snap->graph(), *expr);
    bool ok = *served == truth;
    if (expected != nullptr && (*expected)[idx] != Fingerprint(truth)) ok = false;
    if (!ok) {
      ++g.mismatches;
      std::fprintf(stderr, "servebench: wrong answer for %s\n", text.c_str());
    }
  }
  return g;
}

// ---------------------------------------------------------------- counters

// Registry counters and server stats read around the measured window.
struct Counters {
  int64_t parse_hits = 0, parse_misses = 0, parse_evictions = 0;
  int64_t result_hits = 0, result_misses = 0, result_evictions = 0;
  int64_t projected = 0, recomputed = 0, fallbacks = 0;
  int64_t wal_appends = 0, wal_fsyncs = 0, wal_bytes = 0;
  int64_t ops_applied = 0, batches = 0;

  static Counters Read(const QueryServer& server) {
    auto c = [](const char* name) {
      return dki::MetricsRegistry::Global().GetCounter(name).value();
    };
    Counters r;
    r.parse_hits = c("serve.parse_cache.hits");
    r.parse_misses = c("serve.parse_cache.misses");
    r.parse_evictions = c("serve.parse_cache.evictions");
    const dki::ResultCache::Stats rc = server.cache_stats();
    r.result_hits = rc.hits;
    r.result_misses = rc.misses;
    r.result_evictions = rc.evictions;
    r.projected = c("index.dk.incremental_rebuild.projected_nodes");
    r.recomputed = c("index.dk.incremental_rebuild.recomputed_nodes");
    r.fallbacks = c("index.dk.incremental_rebuild.fallback_full");
    r.wal_appends = c("wal.appends");
    r.wal_fsyncs = c("wal.fsyncs");
    r.wal_bytes = c("wal.append_bytes");
    const QueryServer::Stats s = server.stats();
    r.ops_applied = s.ops_applied;
    r.batches = s.batches;
    return r;
  }

  Counters Minus(const Counters& b) const {
    Counters d;
    d.parse_hits = parse_hits - b.parse_hits;
    d.parse_misses = parse_misses - b.parse_misses;
    d.parse_evictions = parse_evictions - b.parse_evictions;
    d.result_hits = result_hits - b.result_hits;
    d.result_misses = result_misses - b.result_misses;
    d.result_evictions = result_evictions - b.result_evictions;
    d.projected = projected - b.projected;
    d.recomputed = recomputed - b.recomputed;
    d.fallbacks = fallbacks - b.fallbacks;
    d.wal_appends = wal_appends - b.wal_appends;
    d.wal_fsyncs = wal_fsyncs - b.wal_fsyncs;
    d.wal_bytes = wal_bytes - b.wal_bytes;
    d.ops_applied = ops_applied - b.ops_applied;
    d.batches = batches - b.batches;
    return d;
  }
};

// ---------------------------------------------------------------- report

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

std::string EnvOr(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : v;
}

std::string Provenance(const Config& cfg, const WorkloadSpec& spec,
                       const Inputs& in, const QueryServer::Options& o) {
  JsonObject durability;
  durability.Bool("enabled", !o.durability.dir.empty())
      .Int("sync_every_n", o.durability.sync_every_n)
      .Int("sync_interval_ms", o.durability.sync_interval_ms)
      .Int("checkpoint_interval_ms", o.durability.checkpoint_interval_ms);
  JsonObject server;
  server.Int("queue_capacity", static_cast<int64_t>(o.queue_capacity))
      .Str("full_policy", o.full_policy == dki::UpdateQueue::FullPolicy::kReject
                              ? "reject"
                              : "block")
      .Int("max_batch", static_cast<int64_t>(o.max_batch))
      .Int("cache_byte_budget", o.cache_byte_budget)
      .Int("parse_cache_entries", kParseCacheEntries)
      .Bool("validate", o.validate)
      .Int("batch_threads", o.batch_threads)
      .Int("frozen_memory_budget_bytes", o.frozen.memory_budget_bytes)
      .Raw("durability", durability.Encode());
  JsonObject workload;
  workload.Str("name", cfg.workload)
      .Int("reader_clients", spec.readers)
      .Str("reader_loop", "closed")
      .Str("pool", spec.hot_pool ? "hot (Section 6.1 chains, Zipf s=1)"
                                 : "wide (uniform)")
      .Int("pool_size", static_cast<int64_t>(spec.hot_pool
                                                 ? in.hot_pool.size()
                                                 : in.wide_pool.size()))
      .Str("writes", spec.open_loop_writes
                         ? "open-loop Poisson, " + JsonNumber(kWriteRate) +
                               " ops/s"
                         : std::string("closed-loop probe after the window"))
      .Int("write_ops", static_cast<int64_t>(in.writes.size()))
      .Num("seconds", cfg.seconds)
      .Num("warmup_seconds", kWarmupSeconds)
      .Int("setup_reps", kSetupReps);
  JsonObject p;
  p.Int("hardware_threads", std::thread::hardware_concurrency())
      .Str("cpu_model", CpuModel())
      .Str("compiler", "g++ " __VERSION__)
      .Str("build_type", SERVEBENCH_BUILD_TYPE)
      .Num("dki_scale", cfg.scale)
      .Int("seed", static_cast<int64_t>(cfg.seed))
      .Str("git_describe", cfg.git_describe)
      .Bool("trace", cfg.trace)
      .Str("DKI_NUM_THREADS", EnvOr("DKI_NUM_THREADS", "unset"))
      .Str("DKI_EVAL_BACKEND", EnvOr("DKI_EVAL_BACKEND", "unset"))
      .Raw("server_options", server.Encode())
      .Raw("workload", workload.Encode());
  return JsonObject().Raw("provenance", p.Encode()).Encode();
}

std::string ResultLine(bool correct, int64_t attempted, int64_t failed,
                       const MetricList& metrics) {
  JsonObject m;
  for (const auto& [name, metric] : metrics) {
    m.Raw(name, JsonObject()
                    .Num("value", metric.value)
                    .Str("unit", metric.unit)
                    .Encode());
  }
  return JsonObject()
      .Bool("correct", correct)
      .Int("attempted", attempted)
      .Int("failed", failed)
      .Raw("metrics", m.Encode())
      .Encode();
}

int Run(const Config& cfg) {
  const WorkloadSpec spec = SpecFor(cfg.workload);
  std::error_code ec;
  std::filesystem::remove_all(cfg.workdir, ec);
  std::filesystem::create_directories(cfg.workdir, ec);
  if (ec) Usage("cannot create " + cfg.workdir + ": " + ec.message());

  const Inputs in =
      MakeInputs(cfg.seed, cfg.scale, cfg.seconds, spec.open_loop_writes);
  const std::vector<std::string>& pool =
      spec.hot_pool ? in.hot_pool : in.wide_pool;

  // Set-up, several times; the last one is served.
  SetupTimes setup;
  Served served;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    served.Reset();
    served = SetUp(cfg, in, rep, &setup);
  }
  QueryServer& server = *served.server;
  std::printf("%s\n", Provenance(cfg, spec, in, server.options()).c_str());
  std::fflush(stdout);

  const PoolAnswers answers = AnswerPool(server, pool, spec.readers);
  // On write_mix the snapshot moves under the readers; only the gate checks.
  const std::vector<uint64_t>* expected =
      spec.open_loop_writes ? nullptr : &answers.fingerprints;

  // The measured window, cut into fixed windows. The read metrics are
  // medians over windows, which a short stall on a shared machine moves
  // less than whole-run figures.
  const int windows =
      std::max(1, static_cast<int>(cfg.seconds / kWindowSeconds + 0.5));
  std::atomic<int> phase{kWarmup};
  int64_t start = 0;  // published to the readers by the phase store
  std::vector<ReaderResult> readers(static_cast<size_t>(spec.readers));
  std::vector<std::thread> threads;
  for (int c = 0; c < spec.readers; ++c) {
    readers[static_cast<size_t>(c)].windows.resize(
        static_cast<size_t>(windows));
    threads.emplace_back(Reader, std::cref(server), std::cref(pool),
                         spec.hot_pool, cfg.seed, c,
                         expected, &phase,
                         &start, &readers[static_cast<size_t>(c)]);
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));
  const Counters before = Counters::Read(server);
  start = NowNs();
  phase.store(kMeasure, std::memory_order_release);
  WriteResult writes;
  std::thread writer;
  if (spec.open_loop_writes) {
    writer = std::thread(OpenLoopWriter, &server, std::cref(in.writes), start,
                         &writes);
  }
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(start + static_cast<int64_t>(
                                           windows * kWindowSeconds * 1e9))));
  auto stop_readers = [&] {
    phase.store(kStop, std::memory_order_release);
    for (std::thread& t : threads) t.join();
    threads.clear();
  };
  if (spec.open_loop_writes) {
    stop_readers();
    writer.join();
  } else {
    phase.store(kAfter, std::memory_order_release);
    for (const ReaderResult& r : readers) {
      while (!r.left_window.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
  }
  const Counters delta = Counters::Read(server).Minus(before);
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  const double rss_peak_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  ReaderResult reads;
  reads.windows.resize(static_cast<size_t>(windows));
  for (const ReaderResult& r : readers) {
    for (int w = 0; w < windows; ++w) {
      reads.windows[static_cast<size_t>(w)].Merge(
          r.windows[static_cast<size_t>(w)]);
    }
    reads.completed += r.completed;
    reads.parse_errors += r.parse_errors;
    reads.checked += r.checked;
    reads.mismatches += r.mismatches;
  }
  std::vector<double> window_qps, window_p50_us, window_p99_us;
  for (const LatencyHist& h : reads.windows) {
    window_qps.push_back(static_cast<double>(h.count()) / kWindowSeconds);
    window_p50_us.push_back(h.Quantile(0.50) / 1e3);
    window_p99_us.push_back(h.Quantile(0.99) / 1e3);
  }

  // Correctness gate on the final published snapshot.
  std::vector<size_t> gate_indices;
  if (spec.hot_pool) {
    for (size_t i = 0; i < pool.size(); ++i) gate_indices.push_back(i);
  } else {
    dki::Rng rng(MixSeed(cfg.seed, 5));
    std::vector<size_t> all(pool.size());
    for (size_t i = 0; i < all.size(); ++i) all[i] = i;
    rng.Shuffle(&all);
    all.resize(std::min<size_t>(all.size(), kWideGateSample));
    gate_indices = all;
  }
  // On the read-only workloads the final snapshot is the one the readers
  // were checked against, so the gate runs before the write probe moves it.
  const GateResult gate = CorrectnessGate(
      cfg, server, pool, gate_indices, expected);
  if (!spec.open_loop_writes) {
    ClosedLoopProbe(&server, in.writes, &writes);
    stop_readers();
  }
  const double frozen_bytes = static_cast<double>(
      server.snapshot()->frozen().memory_stats().resident_bytes);

  const QueryServer::Stats final_stats = server.stats();
  int64_t attempted = reads.completed + writes.attempted + gate.checked;
  int64_t failed = reads.parse_errors + reads.mismatches + gate.mismatches +
                   writes.rejected + writes.never_visible +
                   final_stats.ops_invalid;

  const double read_qps = Median(window_qps);
  const double read_p50_us = Median(window_p50_us);
  const double read_p99_us = Median(window_p99_us);
  MetricList metrics;
  if (!cfg.trace) {
    AddMetric(&metrics, "setup_s", Median(setup.total_s), "s");
    AddMetric(&metrics, "read_qps", read_qps, "1/s");
    AddMetric(&metrics, "read_p50_us", read_p50_us, "us");
    AddMetric(&metrics, "read_p99_us", read_p99_us, "us");
  } else {
    AddMetric(&metrics, "xml.load_ms", Median(setup.load_ms), "ms");
    AddMetric(&metrics, "index.build_ms", Median(setup.build_ms), "ms");
    AddMetric(&metrics, "serve.start_ms", Median(setup.start_ms), "ms");
    const double parse_lookups =
        static_cast<double>(delta.parse_hits + delta.parse_misses);
    const double result_lookups =
        static_cast<double>(delta.result_hits + delta.result_misses);
    AddMetric(&metrics, "query.parse_cache.lookups", parse_lookups, "count");
    AddMetric(&metrics, "query.parse_cache.hit_ratio",
              Ratio(static_cast<double>(delta.parse_hits), parse_lookups),
              "ratio");
    AddMetric(&metrics, "query.parse_cache.evictions",
              static_cast<double>(delta.parse_evictions), "count");
    AddMetric(&metrics, "query.result_cache.lookups", result_lookups, "count");
    AddMetric(&metrics, "query.result_cache.hit_ratio",
              Ratio(static_cast<double>(delta.result_hits), result_lookups),
              "ratio");
    AddMetric(&metrics, "query.result_cache.evictions",
              static_cast<double>(delta.result_evictions), "count");
    AddMetric(&metrics, "query.frozen.bytes", frozen_bytes, "bytes");
    AddMetric(&metrics, "index.rebuild.recomputed_share",
              Ratio(static_cast<double>(delta.recomputed),
                    static_cast<double>(delta.projected + delta.recomputed)),
              "ratio");
    AddMetric(&metrics, "index.rebuild.fallbacks",
              static_cast<double>(delta.fallbacks), "count");
    AddMetric(&metrics, "serve.writer.batch_size_mean",
              Ratio(static_cast<double>(delta.ops_applied),
                    static_cast<double>(delta.batches)),
              "ops");
    AddMetric(&metrics, "serve.queue.depth_mean",
              Ratio(writes.depth_sum, static_cast<double>(writes.depth_samples)),
              "ops");
    AddMetric(&metrics, "serve.wal.bytes_per_op",
              Ratio(static_cast<double>(delta.wal_bytes),
                    static_cast<double>(delta.wal_appends)),
              "bytes");
    AddMetric(&metrics, "serve.wal.fsyncs_per_op",
              Ratio(static_cast<double>(delta.wal_fsyncs),
                    static_cast<double>(delta.wal_appends)),
              "ratio");
    AddMetric(&metrics, "bench.gen_late_p99_ms",
              spec.open_loop_writes ? writes.late.Quantile(0.99) / 1e6 : 0.0,
              "ms");
    AddMetric(&metrics, "bench.untraced.read_qps", read_qps, "1/s");
    AddMetric(&metrics, "bench.untraced.read_p50_us", read_p50_us, "us");
    AddMetric(&metrics, "bench.untraced.read_p99_us", read_p99_us, "us");
    AddMetric(&metrics, "bench.read_samples",
              static_cast<double>(reads.completed), "count");
    AddMetric(&metrics, "bench.write_samples",
              static_cast<double>(writes.visible.count()), "count");
    // Write visibility tracks the host's memory speed: over 10 seeds the
    // write_mix p50 spread 17-42% and the tail (2-5 samples beyond p99)
    // up to 25%, past any regression bound, so both are reported here.
    AddMetric(&metrics, "write_visible_p50_ms",
              writes.visible.Quantile(0.50) / 1e6, "ms");
    AddMetric(&metrics, "write_visible_p99_ms",
              writes.visible.Quantile(0.99) / 1e6, "ms");

    ReplayInput rin;
    rin.server = &server;
    rin.pool = &pool;
    rin.zipf = spec.hot_pool;
    rin.clients = spec.readers;
    rin.seed = cfg.seed;
    rin.read_seconds = std::clamp(cfg.seconds / 4, 1.0, 5.0);
    if (spec.open_loop_writes) {
      rin.base = served.dk.get();
      rin.writes = &in.writes;
      rin.check_pool = &in.hot_pool;
      rin.durability = server.options().durability;
      rin.dir = cfg.workdir + "/replay";
      rin.write_seconds = std::clamp(cfg.seconds / 2, 1.0, 10.0);
    }
    const ReplayResult replay = RunReplay(rin);
    metrics.insert(metrics.end(), replay.metrics.begin(), replay.metrics.end());
    attempted += replay.attempted;
    failed += replay.failed;
  }
  // ok_frac rather than a failed fraction: a failure-free run must not
  // report 0, and the raw counts are in "attempted" / "failed".
  if (!cfg.trace) {
    AddMetric(&metrics, "ok_frac",
              1.0 - Ratio(static_cast<double>(failed),
                          static_cast<double>(attempted)),
              "ratio");
    AddMetric(&metrics, "rss_peak_mb", rss_peak_mb, "MB");
  }

  JsonObject summary;
  JsonObject setup_reps;
  for (size_t i = 0; i < setup.total_s.size(); ++i) {
    setup_reps.Num(std::to_string(i), setup.total_s[i]);
  }
  summary.Int("pool_result_bytes", answers.result_bytes)
      .Int("read_samples", reads.completed)
      .Int("read_checked_in_loop", reads.checked)
      .Int("read_mismatches_in_loop", reads.mismatches)
      .Int("parse_errors", reads.parse_errors)
      .Int("write_samples", writes.visible.count())
      .Int("writes_rejected", writes.rejected)
      .Int("writes_never_visible", writes.never_visible)
      .Int("ops_invalid", final_stats.ops_invalid)
      .Int("gate_checked", gate.checked)
      .Int("gate_mismatches", gate.mismatches)
      .Int("windows", windows)
      .Num("window_qps_min", *std::min_element(window_qps.begin(), window_qps.end()))
      .Num("window_qps_max", *std::max_element(window_qps.begin(), window_qps.end()))
      .Raw("setup_reps_s", setup_reps.Encode());
  std::printf("%s\n", JsonObject().Raw("summary", summary.Encode()).Encode().c_str());

  served.Reset();
  std::filesystem::remove_all(cfg.workdir, ec);

  const bool correct = failed == 0;
  std::printf("%s\n", ResultLine(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  return servebench::Run(servebench::ParseArgs(argc, argv));
}
