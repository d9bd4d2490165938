// Crash-safety tests for the durability pipeline (serve/wal.h,
// serve/checkpoint.h, QueryServer wiring): WAL encode/append/torn-tail
// units, checkpoint fallback, deterministic simulated crash states for
// every kill point in the pipeline, and randomized fork+SIGKILL trials on
// the paper's two workloads asserting that Recover + replay reproduces
// query results bit-identical to an uncrashed replica of the durable
// prefix.
//
// Why SIGKILL is an honest crash model here: killing the process discards
// user-space state but NOT the OS page cache, so everything the server
// write()'d — synced or not — survives. That is exactly the guarantee the
// WAL's "logged before applied" invariant is defined over; fsync cadence
// only matters for machine-level crashes, which the deterministic
// torn-file tests model instead by truncating/corrupting files directly.

#include <gtest/gtest.h>

#include <chrono>
#include <climits>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/crc32.h"
#include "common/random.h"
#include "datagen/nasa_generator.h"
#include "datagen/xmark_generator.h"
#include "graph/data_graph.h"
#include "index/dk_index.h"
#include "io/fs_util.h"
#include "io/serialization.h"
#include "query/evaluator.h"
#include "serve/apply.h"
#include "serve/checkpoint.h"
#include "serve/query_server.h"
#include "serve/wal.h"
#include "tests/test_util.h"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DKI_UNDER_TSAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define DKI_UNDER_TSAN 1
#endif

namespace dki {
namespace {

// A fresh directory for one test, removed when the test ends.
testing_util::ScopedTempDir FreshDir(const std::string& name) {
  return testing_util::ScopedTempDir(::testing::TempDir() + "dki_recovery_" +
                                     name + "_" +
                                     std::to_string(::getpid()));
}

std::string MustRead(const std::string& path) {
  std::string contents, error;
  EXPECT_TRUE(ReadFileToString(path, &contents, &error)) << error;
  return contents;
}

void MustWriteRaw(const std::string& path, const std::string& contents) {
  std::string error;
  ASSERT_TRUE(AtomicWriteFile(path, contents, &error)) << error;
}

// ---------------------------------------------------------------------------
// WriteAheadLog units.
// ---------------------------------------------------------------------------

TEST(WalTest, EncodeDecodeRoundTripsAllKinds) {
  DataGraph h;
  NodeId x = h.AddNode("studio");
  h.AddEdge(h.root(), x);

  std::vector<UpdateOp> ops = {UpdateOp::AddEdge(3, 9),
                               UpdateOp::RemoveEdge(-1, 1 << 20),
                               UpdateOp::AddSubgraph(std::move(h))};
  for (size_t i = 0; i < ops.size(); ++i) {
    std::string encoded = WriteAheadLog::EncodeRecord(ops[i], 100 + i);
    ASSERT_GE(encoded.size(), 8u);
    WriteAheadLog::Record record;
    // DecodePayload takes the payload, i.e. everything after the
    // length+crc prefix.
    ASSERT_TRUE(WriteAheadLog::DecodePayload(
        std::string_view(encoded).substr(8), &record));
    EXPECT_EQ(record.seq, 100 + i);
    EXPECT_EQ(record.op.kind, ops[i].kind);
    EXPECT_EQ(record.op.u, ops[i].u);
    EXPECT_EQ(record.op.v, ops[i].v);
    if (ops[i].kind == UpdateOp::Kind::kAddSubgraph) {
      ASSERT_NE(record.op.subgraph, nullptr);
      EXPECT_EQ(record.op.subgraph->NumNodes(), 2);
    }
  }
}

TEST(WalTest, AppendReadAllRoundTrip) {
  const auto dir = FreshDir("wal_roundtrip");
  WriteAheadLog wal(dir + "/wal.log", /*sync_every_n=*/2,
                    /*sync_interval_ms=*/1000);
  std::string error;
  ASSERT_TRUE(wal.Open(&error)) << error;
  for (uint64_t seq = 1; seq <= 5; ++seq) {
    ASSERT_TRUE(wal.Append(UpdateOp::AddEdge(static_cast<NodeId>(seq), 0),
                           seq, &error))
        << error;
  }
  ASSERT_TRUE(wal.Sync(/*force=*/true, &error)) << error;

  std::vector<WriteAheadLog::Record> records;
  bool clean = false;
  ASSERT_TRUE(WriteAheadLog::ReadAll(dir + "/wal.log", &records, &clean,
                                     &error))
      << error;
  EXPECT_TRUE(clean);
  ASSERT_EQ(records.size(), 5u);
  for (uint64_t seq = 1; seq <= 5; ++seq) {
    EXPECT_EQ(records[seq - 1].seq, seq);
    EXPECT_EQ(records[seq - 1].op.u, static_cast<NodeId>(seq));
  }
}

TEST(WalTest, MissingFileIsAnEmptyLog) {
  const auto dir = FreshDir("wal_missing");
  std::vector<WriteAheadLog::Record> records;
  bool clean = false;
  std::string error;
  ASSERT_TRUE(WriteAheadLog::ReadAll(dir + "/nope.log", &records, &clean,
                                     &error));
  EXPECT_TRUE(clean);
  EXPECT_TRUE(records.empty());
}

TEST(WalTest, TornTailYieldsCleanPrefixAndOpenRepairsIt) {
  const auto dir = FreshDir("wal_torn");
  const std::string path = dir + "/wal.log";
  std::string bytes;
  for (uint64_t seq = 1; seq <= 3; ++seq) {
    bytes += WriteAheadLog::EncodeRecord(UpdateOp::AddEdge(1, 2), seq);
  }
  std::string full_record =
      WriteAheadLog::EncodeRecord(UpdateOp::AddEdge(3, 4), 4);
  // Every strict prefix of the 4th record is a torn tail; the reader must
  // return exactly records 1..3 and report the file as not clean.
  for (size_t cut = 1; cut < full_record.size(); ++cut) {
    MustWriteRaw(path, bytes + full_record.substr(0, cut));
    std::vector<WriteAheadLog::Record> records;
    bool clean = true;
    std::string error;
    ASSERT_TRUE(WriteAheadLog::ReadAll(path, &records, &clean, &error))
        << "cut=" << cut << ": " << error;
    EXPECT_FALSE(clean) << "cut=" << cut;
    ASSERT_EQ(records.size(), 3u) << "cut=" << cut;
    EXPECT_EQ(records[2].seq, 3u);
  }

  // Open() truncates the torn tail so subsequent appends extend a clean log.
  MustWriteRaw(path, bytes + full_record.substr(0, full_record.size() / 2));
  WriteAheadLog wal(path, 1, 1000);
  std::string error;
  ASSERT_TRUE(wal.Open(&error)) << error;
  ASSERT_TRUE(wal.Append(UpdateOp::AddEdge(5, 6), 4, &error)) << error;
  ASSERT_TRUE(wal.Sync(true, &error)) << error;
  std::vector<WriteAheadLog::Record> records;
  bool clean = false;
  ASSERT_TRUE(WriteAheadLog::ReadAll(path, &records, &clean, &error));
  EXPECT_TRUE(clean);
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[3].op.u, 5);
}

TEST(WalTest, CorruptMiddleRecordStopsTheCleanPrefix) {
  const auto dir = FreshDir("wal_corrupt");
  const std::string path = dir + "/wal.log";
  std::string r1 = WriteAheadLog::EncodeRecord(UpdateOp::AddEdge(1, 2), 1);
  std::string r2 = WriteAheadLog::EncodeRecord(UpdateOp::AddEdge(3, 4), 2);
  std::string r3 = WriteAheadLog::EncodeRecord(UpdateOp::AddEdge(5, 6), 3);
  std::string bytes = r1 + r2 + r3;
  bytes[r1.size() + 9] ^= 0x40;  // flip a payload bit inside record 2
  MustWriteRaw(path, bytes);

  std::vector<WriteAheadLog::Record> records;
  bool clean = true;
  std::string error;
  ASSERT_TRUE(WriteAheadLog::ReadAll(path, &records, &clean, &error));
  EXPECT_FALSE(clean);
  ASSERT_EQ(records.size(), 1u);  // record 3 is unreachable past the damage
  EXPECT_EQ(records[0].seq, 1u);
}

TEST(WalTest, TruncateThroughKeepsOnlyNewerRecords) {
  const auto dir = FreshDir("wal_trunc");
  WriteAheadLog wal(dir + "/wal.log", 1, 1000);
  std::string error;
  ASSERT_TRUE(wal.Open(&error)) << error;
  for (uint64_t seq = 1; seq <= 6; ++seq) {
    ASSERT_TRUE(wal.Append(UpdateOp::AddEdge(static_cast<NodeId>(seq), 0),
                           seq, &error));
  }
  ASSERT_TRUE(wal.TruncateThrough(4, &error)) << error;
  // The append handle survives the rewrite.
  ASSERT_TRUE(wal.Append(UpdateOp::AddEdge(7, 0), 7, &error)) << error;
  ASSERT_TRUE(wal.Sync(true, &error)) << error;

  std::vector<WriteAheadLog::Record> records;
  bool clean = false;
  ASSERT_TRUE(WriteAheadLog::ReadAll(dir + "/wal.log", &records, &clean,
                                     &error));
  EXPECT_TRUE(clean);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].seq, 5u);
  EXPECT_EQ(records[1].seq, 6u);
  EXPECT_EQ(records[2].seq, 7u);
}

// A write that fails partway through a record must not leave the partial
// record in the log: the reader stops at it, so every record appended after
// it — synced or not — would be lost to recovery. A soft RLIMIT_FSIZE a few
// bytes past the end of the log makes the next write() short and the one
// after it fail with EFBIG. Limits are per process, so a forked child runs
// the appends and reports each step through its exit code.
TEST(WalTest, FailedAppendLeavesNoPartialRecord) {
#ifdef DKI_UNDER_TSAN
  GTEST_SKIP() << "fork-based fault injection is not TSan-compatible";
#endif
  const auto dir = FreshDir("wal_efbig");
  const std::string path = dir + "/wal.log";
  ::pid_t pid = ::fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    std::signal(SIGXFSZ, SIG_IGN);  // EFBIG instead of death
    WriteAheadLog wal(path, 1, 1000);
    std::string error;
    if (!wal.Open(&error) ||
        !wal.Append(UpdateOp::AddEdge(1, 2), 1, &error)) {
      ::_exit(2);
    }
    struct stat st;
    struct rlimit unlimited;
    if (::stat(path.c_str(), &st) != 0 ||
        ::getrlimit(RLIMIT_FSIZE, &unlimited) != 0) {
      ::_exit(3);
    }
    struct rlimit capped = unlimited;
    capped.rlim_cur = static_cast<rlim_t>(st.st_size) + 6;
    if (::setrlimit(RLIMIT_FSIZE, &capped) != 0) ::_exit(4);
    DataGraph h;
    h.AddEdge(h.root(), h.AddNode("studio"));
    const bool appended =
        wal.Append(UpdateOp::AddSubgraph(std::move(h)), 2, &error);
    if (::setrlimit(RLIMIT_FSIZE, &unlimited) != 0) ::_exit(5);
    if (appended) ::_exit(6);  // the cap did not bite: nothing was tested
    // The writer drops the op and hands its seq to the next one.
    if (!wal.Append(UpdateOp::AddEdge(3, 4), 2, &error)) ::_exit(7);
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "status " << status;
  ASSERT_EQ(WEXITSTATUS(status), 0) << "child failed at step "
                                    << WEXITSTATUS(status);

  std::vector<WriteAheadLog::Record> records;
  bool clean = false;
  std::string error;
  ASSERT_TRUE(WriteAheadLog::ReadAll(path, &records, &clean, &error))
      << error;
  EXPECT_TRUE(clean);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].seq, 1u);
  EXPECT_EQ(records[0].op.u, 1);
  EXPECT_EQ(records[1].seq, 2u);
  EXPECT_EQ(records[1].op.kind, UpdateOp::Kind::kAddEdge);
  EXPECT_EQ(records[1].op.u, 3);
  EXPECT_EQ(records[1].op.v, 4);
}

// ---------------------------------------------------------------------------
// CheckpointStore units.
// ---------------------------------------------------------------------------

DkIndex BuildMovieIndex(DataGraph* g) {
  LabelRequirements reqs;
  reqs[g->labels().Find("title")] = 2;
  return DkIndex::Build(g, reqs);
}

TEST(CheckpointTest, WriteLoadRoundTrip) {
  const auto dir = FreshDir("ckpt_roundtrip");
  DataGraph g = testing_util::BuildMovieGraph();
  DkIndex dk = BuildMovieIndex(&g);

  CheckpointStore store(dir);
  std::string error;
  ASSERT_TRUE(store.Write(g, dk.index(), dk.effective_requirements(), 17,
                          &error))
      << error;

  DataGraph loaded_graph;
  uint64_t seq = 0;
  bool used_fallback = true;
  auto loaded = store.LoadNewestValid(&loaded_graph, &seq, &used_fallback,
                                      &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(seq, 17u);
  EXPECT_FALSE(used_fallback);
  EXPECT_EQ(loaded_graph.NumNodes(), g.NumNodes());
  EXPECT_EQ(loaded->index().NumIndexNodes(), dk.index().NumIndexNodes());
}

TEST(CheckpointTest, RetainsNewestTwoAndExposesSafeTruncationSeq) {
  const auto dir = FreshDir("ckpt_retention");
  DataGraph g = testing_util::BuildMovieGraph();
  DkIndex dk = BuildMovieIndex(&g);
  CheckpointStore store(dir);
  std::string error;
  EXPECT_EQ(store.SafeTruncationSeq(), 0u);
  for (uint64_t seq : {5u, 9u, 14u}) {
    ASSERT_TRUE(store.Write(g, dk.index(), dk.effective_requirements(), seq,
                            &error))
        << error;
  }
  std::vector<CheckpointStore::Info> all = store.List();
  ASSERT_EQ(all.size(), 2u);  // pruned to the newest two
  EXPECT_EQ(all[0].seq, 14u);
  EXPECT_EQ(all[1].seq, 9u);
  // Truncation must preserve the fallback's log suffix: only records the
  // OLDER retained checkpoint already contains may go.
  EXPECT_EQ(store.SafeTruncationSeq(), 9u);
}

TEST(CheckpointTest, CorruptNewestFallsBackToPrevious) {
  const auto dir = FreshDir("ckpt_fallback");
  DataGraph g = testing_util::BuildMovieGraph();
  DkIndex dk = BuildMovieIndex(&g);
  CheckpointStore store(dir);
  std::string error;
  ASSERT_TRUE(store.Write(g, dk.index(), dk.effective_requirements(), 3,
                          &error));
  ASSERT_TRUE(store.Write(g, dk.index(), dk.effective_requirements(), 8,
                          &error));

  // Flip one payload byte in the newest checkpoint: its CRC check must fail
  // and recovery must fall back to seq 3.
  std::vector<CheckpointStore::Info> all = store.List();
  ASSERT_EQ(all[0].seq, 8u);
  std::string contents = MustRead(all[0].path);
  contents[contents.size() - 10] ^= 0x01;
  MustWriteRaw(all[0].path, contents);

  DataGraph loaded_graph;
  uint64_t seq = 0;
  bool used_fallback = false;
  auto loaded = store.LoadNewestValid(&loaded_graph, &seq, &used_fallback,
                                      &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_TRUE(used_fallback);
  EXPECT_EQ(seq, 3u);
  EXPECT_EQ(loaded->index().NumIndexNodes(), dk.index().NumIndexNodes());

  // Both corrupt: recovery reports failure rather than serving garbage.
  std::string c2 = MustRead(all[1].path);
  c2[c2.size() - 10] ^= 0x01;
  MustWriteRaw(all[1].path, c2);
  auto none = store.LoadNewestValid(&loaded_graph, &seq, &used_fallback,
                                    &error);
  EXPECT_FALSE(none.has_value());
  EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------------------
// Deterministic crash-state recovery: one test per kill point.
// ---------------------------------------------------------------------------

// Runs a durable server session over `ops`, stops it cleanly, and returns
// the answers to `probe` on the final state. The durability directory is
// left behind for the test to mutate into a crash state.
std::vector<NodeId> RunDurableSession(const std::string& dir,
                                      const DataGraph& original,
                                      const LabelRequirements& reqs,
                                      const std::vector<UpdateOp>& ops,
                                      const std::string& probe) {
  DataGraph g = original;
  DkIndex dk = DkIndex::Build(&g, reqs);
  QueryServer::Options options;
  options.durability.dir = dir;
  options.durability.sync_every_n = 1;
  QueryServer server(dk, options);
  for (const UpdateOp& op : ops) {
    EXPECT_TRUE(op.kind == UpdateOp::Kind::kAddEdge
                    ? server.SubmitAddEdge(op.u, op.v)
                    : server.SubmitRemoveEdge(op.u, op.v));
  }
  server.Flush();
  auto result = server.Evaluate(probe);
  EXPECT_TRUE(result.has_value());
  server.Stop();
  return result.value_or(std::vector<NodeId>{});
}

struct CrashFixture {
  DataGraph original;
  LabelRequirements reqs;
  std::vector<UpdateOp> ops;
  std::string probe;

  static CrashFixture Make(uint64_t seed) {
    CrashFixture f;
    Rng rng(seed);
    f.original = testing_util::RandomGraph(120, 4, 20, &rng);
    f.reqs[static_cast<LabelId>(
        rng.UniformInt(2, f.original.labels().size() - 1))] = 2;
    f.probe = testing_util::RandomChainQuery(f.original, 3, &rng);
    DataGraph track = f.original;
    for (int i = 0; i < 30; ++i) {
      NodeId u =
          static_cast<NodeId>(rng.UniformInt(1, track.NumNodes() - 1));
      NodeId v =
          static_cast<NodeId>(rng.UniformInt(1, track.NumNodes() - 1));
      if (u == v) continue;
      if (track.HasEdge(u, v)) {
        f.ops.push_back(UpdateOp::RemoveEdge(u, v));
        track.RemoveEdge(u, v);
      } else {
        f.ops.push_back(UpdateOp::AddEdge(u, v));
        track.AddEdge(u, v);
      }
    }
    return f;
  }

  // The ground truth after the first `n` ops, via the same apply path.
  std::vector<NodeId> AnswerAfter(size_t n) const {
    DataGraph g = original;
    DkIndex dk = DkIndex::Build(&g, reqs);
    for (size_t i = 0; i < n && i < ops.size(); ++i) {
      ApplyUpdateOp(&dk, ops[i]);
    }
    return EvaluateOnIndex(dk.index(),
                           testing_util::MustParse(probe, g.labels()));
  }
};

TEST(CrashStateTest, CleanShutdownRecoversWithNoReplay) {
  CrashFixture f = CrashFixture::Make(7001);
  const auto dir = FreshDir("crash_clean");
  std::vector<NodeId> served =
      RunDurableSession(dir, f.original, f.reqs, f.ops, f.probe);

  DataGraph g;
  RecoveryStats stats;
  std::string error;
  auto dk = RecoverDkIndex(dir, &g, &stats, &error);
  ASSERT_TRUE(dk.has_value()) << error;
  // Clean shutdown checkpoints the final state, so nothing replays.
  EXPECT_EQ(stats.replayed_ops, 0);
  EXPECT_FALSE(stats.used_fallback);
  EXPECT_EQ(stats.last_seq, f.ops.size());
  EXPECT_EQ(EvaluateOnIndex(dk->index(),
                            testing_util::MustParse(f.probe, g.labels())),
            served);
  std::string invariant_error;
  EXPECT_TRUE(dk->index().ValidatePartition(&invariant_error))
      << invariant_error;
}

// Kill point: mid-log-append. The log ends in a torn record; recovery uses
// the clean prefix.
TEST(CrashStateTest, TornLogTailRecoversThePrefix) {
  CrashFixture f = CrashFixture::Make(7002);
  const auto dir = FreshDir("crash_torn_log");

  // Build a crash state by hand: checkpoint at seq 0, then a log holding
  // ops 1..20 with a torn 21st record.
  DataGraph g = f.original;
  DkIndex dk = DkIndex::Build(&g, f.reqs);
  CheckpointStore store(dir);
  std::string error;
  ASSERT_TRUE(store.Write(g, dk.index(), dk.effective_requirements(), 0,
                          &error))
      << error;
  std::string bytes;
  for (size_t i = 0; i < 20; ++i) {
    bytes += WriteAheadLog::EncodeRecord(f.ops[i], i + 1);
  }
  std::string torn = WriteAheadLog::EncodeRecord(f.ops[20], 21);
  bytes += torn.substr(0, torn.size() - 3);
  MustWriteRaw(dir + "/wal.log", bytes);

  DataGraph rg;
  RecoveryStats stats;
  auto recovered = RecoverDkIndex(dir, &rg, &stats, &error);
  ASSERT_TRUE(recovered.has_value()) << error;
  EXPECT_TRUE(stats.log_tail_torn);
  EXPECT_EQ(stats.replayed_ops + stats.invalid_ops, 20);
  EXPECT_EQ(stats.last_seq, 20u);
  EXPECT_EQ(EvaluateOnIndex(recovered->index(),
                            testing_util::MustParse(f.probe, rg.labels())),
            f.AnswerAfter(20));
}

// Kill point: mid-checkpoint-write. The torn temp file must be ignored.
TEST(CrashStateTest, PartialCheckpointTempIsIgnored) {
  CrashFixture f = CrashFixture::Make(7003);
  const auto dir = FreshDir("crash_ckpt_tmp");
  std::vector<NodeId> served =
      RunDurableSession(dir, f.original, f.reqs, f.ops, f.probe);

  // A crashed checkpointer leaves a half-written temp file behind.
  MustWriteRaw(dir + "/checkpoint-999.dki.tmp",
               "dki-checkpoint v1\nseq 999\npayload_byt");

  DataGraph g;
  RecoveryStats stats;
  std::string error;
  auto dk = RecoverDkIndex(dir, &g, &stats, &error);
  ASSERT_TRUE(dk.has_value()) << error;
  EXPECT_EQ(stats.last_seq, f.ops.size());
  EXPECT_EQ(EvaluateOnIndex(dk->index(),
                            testing_util::MustParse(f.probe, g.labels())),
            served);
}

// Kill point: complete checkpoint written but the rename never happened.
// Same outcome: the .tmp name is not a checkpoint.
TEST(CrashStateTest, UnrenamedCompleteCheckpointIsIgnored) {
  CrashFixture f = CrashFixture::Make(7004);
  const auto dir = FreshDir("crash_ckpt_unrenamed");
  std::vector<NodeId> served =
      RunDurableSession(dir, f.original, f.reqs, f.ops, f.probe);

  std::vector<CheckpointStore::Info> all = CheckpointStore(dir).List();
  ASSERT_FALSE(all.empty());
  MustWriteRaw(dir + "/checkpoint-999.dki.tmp", MustRead(all[0].path));

  DataGraph g;
  RecoveryStats stats;
  std::string error;
  auto dk = RecoverDkIndex(dir, &g, &stats, &error);
  ASSERT_TRUE(dk.has_value()) << error;
  EXPECT_EQ(stats.last_seq, f.ops.size());
  EXPECT_EQ(EvaluateOnIndex(dk->index(),
                            testing_util::MustParse(f.probe, g.labels())),
            served);
}

// Kill point: between checkpoint rename and log truncation. The log still
// holds records the checkpoint already contains; they must be skipped, and
// applying the remainder must land on the same state.
TEST(CrashStateTest, StaleLogRecordsBelowCheckpointAreSkipped) {
  CrashFixture f = CrashFixture::Make(7005);
  const auto dir = FreshDir("crash_stale_log");

  DataGraph g = f.original;
  DkIndex dk = DkIndex::Build(&g, f.reqs);
  // Apply 1..12 and checkpoint there; the log holds 1..25 (no truncation).
  for (size_t i = 0; i < 12; ++i) ApplyUpdateOp(&dk, f.ops[i]);
  CheckpointStore store(dir);
  std::string error;
  ASSERT_TRUE(store.Write(g, dk.index(), dk.effective_requirements(), 12,
                          &error))
      << error;
  std::string bytes;
  for (size_t i = 0; i < 25; ++i) {
    bytes += WriteAheadLog::EncodeRecord(f.ops[i], i + 1);
  }
  MustWriteRaw(dir + "/wal.log", bytes);

  DataGraph rg;
  RecoveryStats stats;
  auto recovered = RecoverDkIndex(dir, &rg, &stats, &error);
  ASSERT_TRUE(recovered.has_value()) << error;
  EXPECT_EQ(stats.skipped_ops, 12);
  EXPECT_EQ(stats.replayed_ops + stats.invalid_ops, 13);
  EXPECT_EQ(stats.last_seq, 25u);
  EXPECT_EQ(EvaluateOnIndex(recovered->index(),
                            testing_util::MustParse(f.probe, rg.labels())),
            f.AnswerAfter(25));
}

// Kill point: bit rot / torn write on the NEWEST checkpoint, discovered at
// recovery. Fallback to the previous checkpoint plus its longer log suffix
// must land on the same state the newest checkpoint would have given.
TEST(CrashStateTest, CorruptNewestCheckpointFallsBackAndReplays) {
  CrashFixture f = CrashFixture::Make(7006);
  const auto dir = FreshDir("crash_ckpt_corrupt");

  DataGraph g = f.original;
  DkIndex dk = DkIndex::Build(&g, f.reqs);
  CheckpointStore store(dir);
  std::string error;
  // Checkpoints at 10 and 22; log covers 11..30 (truncated through the
  // OLDER checkpoint's seq, exactly as the server's protocol would).
  for (size_t i = 0; i < 10; ++i) ApplyUpdateOp(&dk, f.ops[i]);
  ASSERT_TRUE(store.Write(g, dk.index(), dk.effective_requirements(), 10,
                          &error));
  for (size_t i = 10; i < 22; ++i) ApplyUpdateOp(&dk, f.ops[i]);
  ASSERT_TRUE(store.Write(g, dk.index(), dk.effective_requirements(), 22,
                          &error));
  std::string bytes;
  for (size_t i = 10; i < 30; ++i) {
    bytes += WriteAheadLog::EncodeRecord(f.ops[i], i + 1);
  }
  MustWriteRaw(dir + "/wal.log", bytes);

  std::vector<CheckpointStore::Info> all = store.List();
  ASSERT_EQ(all[0].seq, 22u);
  std::string contents = MustRead(all[0].path);
  contents[contents.size() / 2] ^= 0x20;
  MustWriteRaw(all[0].path, contents);

  DataGraph rg;
  RecoveryStats stats;
  auto recovered = RecoverDkIndex(dir, &rg, &stats, &error);
  ASSERT_TRUE(recovered.has_value()) << error;
  EXPECT_TRUE(stats.used_fallback);
  EXPECT_EQ(stats.checkpoint_seq, 10u);
  EXPECT_EQ(stats.last_seq, 30u);
  EXPECT_EQ(EvaluateOnIndex(recovered->index(),
                            testing_util::MustParse(f.probe, rg.labels())),
            f.AnswerAfter(30));
  std::string invariant_error;
  EXPECT_TRUE(recovered->index().ValidatePartition(&invariant_error))
      << invariant_error;
}

// A gap in the log (lost middle record) must stop replay at the consistent
// prefix rather than apply later ops to the wrong state.
TEST(CrashStateTest, SequenceGapStopsReplayAtConsistentPrefix) {
  CrashFixture f = CrashFixture::Make(7007);
  const auto dir = FreshDir("crash_gap");

  DataGraph g = f.original;
  DkIndex dk = DkIndex::Build(&g, f.reqs);
  CheckpointStore store(dir);
  std::string error;
  ASSERT_TRUE(store.Write(g, dk.index(), dk.effective_requirements(), 0,
                          &error));
  std::string bytes;
  for (size_t i = 0; i < 20; ++i) {
    if (i == 8) continue;  // record 9 lost
    bytes += WriteAheadLog::EncodeRecord(f.ops[i], i + 1);
  }
  MustWriteRaw(dir + "/wal.log", bytes);

  DataGraph rg;
  RecoveryStats stats;
  auto recovered = RecoverDkIndex(dir, &rg, &stats, &error);
  ASSERT_TRUE(recovered.has_value()) << error;
  EXPECT_TRUE(stats.log_tail_torn);
  EXPECT_EQ(stats.last_seq, 8u);
  EXPECT_EQ(EvaluateOnIndex(recovered->index(),
                            testing_util::MustParse(f.probe, rg.labels())),
            f.AnswerAfter(8));
}

// A log written by a build that stored subgraph bodies as v1 text (record
// kind 2): the record is whole and CRC-valid, so this build must refuse the
// directory rather than treat it as a torn tail, which would drop it and
// every record after it and let Open() rewrite the log without them.
TEST(CrashStateTest, V1TextSubgraphRecordFailsRecoveryAndKeepsTheLog) {
  CrashFixture f = CrashFixture::Make(7008);
  const auto dir = FreshDir("crash_v1_subgraph");

  DataGraph g = f.original;
  DkIndex dk = DkIndex::Build(&g, f.reqs);
  CheckpointStore store(dir);
  std::string error;
  ASSERT_TRUE(store.Write(g, dk.index(), dk.effective_requirements(), 0,
                          &error))
      << error;

  auto append_le = [](std::string* out, uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  };
  const std::string v1_text =
      "dki-graph v1\nlabels 2\nROOT\nstudio\nnodes 2\n0\n1\nedges 1\n"
      "0 1\n";
  std::string payload;
  append_le(&payload, 2, 8);  // seq
  payload.push_back(2);       // kind: v1 text subgraph
  append_le(&payload, v1_text.size(), 4);
  payload += v1_text;
  std::string v1_record;
  append_le(&v1_record, payload.size(), 4);
  append_le(&v1_record, Crc32(payload), 4);
  v1_record += payload;

  const std::string path = dir + "/wal.log";
  const std::string bytes = WriteAheadLog::EncodeRecord(f.ops[0], 1) +
                            v1_record +
                            WriteAheadLog::EncodeRecord(f.ops[1], 3);
  MustWriteRaw(path, bytes);

  std::vector<WriteAheadLog::Record> records;
  bool clean = true;
  EXPECT_FALSE(WriteAheadLog::ReadAll(path, &records, &clean, &error));
  EXPECT_NE(error.find("v1 text"), std::string::npos) << error;

  DataGraph rg;
  RecoveryStats stats;
  error.clear();
  EXPECT_FALSE(RecoverDkIndex(dir, &rg, &stats, &error).has_value());
  EXPECT_NE(error.find("cannot be decoded"), std::string::npos) << error;
  EXPECT_EQ(MustRead(path), bytes);

  WriteAheadLog wal(path, 1, 1000);
  error.clear();
  EXPECT_FALSE(wal.Open(&error));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(MustRead(path), bytes);
}

// ---------------------------------------------------------------------------
// Randomized fork+SIGKILL fault injection on the paper's two workloads.
// ---------------------------------------------------------------------------

struct Workload {
  std::string name;
  DataGraph original;
  LabelRequirements reqs;
  std::vector<UpdateOp> ops;
  std::vector<std::string> probes;
};

Workload MakeWorkload(const std::string& name, DataGraph graph,
                      uint64_t seed, int num_ops) {
  Workload w;
  w.name = name;
  w.original = std::move(graph);
  Rng rng(seed);
  w.reqs[static_cast<LabelId>(
      rng.UniformInt(2, w.original.labels().size() - 1))] = 2;
  for (int i = 0; i < 3; ++i) {
    w.probes.push_back(testing_util::RandomChainQuery(w.original, 3, &rng));
  }
  DataGraph track = w.original;
  for (int i = 0; i < num_ops; ++i) {
    NodeId u = static_cast<NodeId>(rng.UniformInt(1, track.NumNodes() - 1));
    NodeId v = static_cast<NodeId>(rng.UniformInt(1, track.NumNodes() - 1));
    if (u == v) continue;
    if (track.HasEdge(u, v)) {
      w.ops.push_back(UpdateOp::RemoveEdge(u, v));
      track.RemoveEdge(u, v);
    } else {
      w.ops.push_back(UpdateOp::AddEdge(u, v));
      track.AddEdge(u, v);
    }
  }
  return w;
}

// One trial: fork a child that serves the op stream durably, SIGKILL it at
// a random point, recover in the parent, and assert the recovered state is
// bit-identical (query results + partition validity) to an uncrashed
// replica that applied exactly the durable prefix.
void RunKillTrial(const Workload& w, const std::string& dir,
                  int64_t kill_after_us) {
  ::pid_t pid = ::fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // Child: serve the whole stream, then spin so the parent's SIGKILL is
    // the only way out — the child process must never run gtest teardown.
    {
      DataGraph g = w.original;
      DkIndex dk = DkIndex::Build(&g, w.reqs);
      QueryServer::Options options;
      options.durability.dir = dir;
      options.durability.sync_every_n = 8;
      options.durability.checkpoint_interval_ms = 5;
      options.max_batch = 4;
      QueryServer server(dk, options);
      for (const UpdateOp& op : w.ops) {
        bool ok = op.kind == UpdateOp::Kind::kAddEdge
                      ? server.SubmitAddEdge(op.u, op.v)
                      : server.SubmitRemoveEdge(op.u, op.v);
        if (!ok) ::_exit(2);
        // Pace the stream so the kill lands at a nontrivial point.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      server.Flush();
      // Deliberately no Stop(): park until killed, mid-flight state intact.
      for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
    }
  }
  std::this_thread::sleep_for(std::chrono::microseconds(kill_after_us));
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
      << "child exited on its own (status " << status
      << ") — kill landed too late to test anything";

  DataGraph g;
  RecoveryStats stats;
  std::string error;
  auto recovered = RecoverDkIndex(dir, &g, &stats, &error);
  if (!recovered.has_value() && CheckpointStore(dir).List().empty()) {
    // The kill landed before the server finished writing its initial
    // checkpoint: nothing was durable yet, so there is nothing to compare —
    // a correct "recover to empty" outcome, not a durability violation.
    return;
  }
  ASSERT_TRUE(recovered.has_value()) << w.name << ": " << error;
  size_t durable = static_cast<size_t>(stats.last_seq);
  ASSERT_LE(durable, w.ops.size()) << w.name;

  // The uncrashed replica of exactly the durable prefix.
  DataGraph replica_graph = w.original;
  DkIndex replica = DkIndex::Build(&replica_graph, w.reqs);
  for (size_t i = 0; i < durable; ++i) {
    ApplyUpdateOp(&replica, w.ops[i]);
  }

  for (const std::string& probe : w.probes) {
    EXPECT_EQ(
        EvaluateOnIndex(recovered->index(),
                        testing_util::MustParse(probe, g.labels())),
        EvaluateOnIndex(replica.index(), testing_util::MustParse(
                                             probe, replica_graph.labels())))
        << w.name << " probe '" << probe << "' diverged at durable prefix "
        << durable;
  }
  std::string invariant_error;
  EXPECT_TRUE(recovered->index().ValidatePartition(&invariant_error))
      << w.name << ": " << invariant_error;
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
#ifdef DKI_UNDER_TSAN
    GTEST_SKIP() << "fork-based fault injection is not TSan-compatible";
#endif
  }
};

TEST_F(FaultInjectionTest, XmarkKillsRecoverBitIdentical) {
  XmarkOptions options;
  options.scale = 0.03;
  Workload w = MakeWorkload("xmark", GenerateXmarkGraph(options).graph,
                            8101, 150);
  Rng rng(8102);
  for (int trial = 0; trial < 4; ++trial) {
    const auto dir = FreshDir("xmark_kill_" + std::to_string(trial));
    RunKillTrial(w, dir, rng.UniformInt(1000, 30000));
    if (HasFatalFailure()) return;
  }
}

TEST_F(FaultInjectionTest, NasaKillsRecoverBitIdentical) {
  NasaOptions options;
  options.scale = 0.03;
  Workload w = MakeWorkload("nasa", GenerateNasaGraph(options).graph,
                            8201, 150);
  Rng rng(8202);
  for (int trial = 0; trial < 4; ++trial) {
    const auto dir = FreshDir("nasa_kill_" + std::to_string(trial));
    RunKillTrial(w, dir, rng.UniformInt(1000, 30000));
    if (HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// Durability under concurrency (the TSan target): readers race the writer,
// the background checkpointer, and explicit CheckpointNow/SyncWal calls.
// ---------------------------------------------------------------------------

TEST(DurableServerRaceTest, ReadersWriterAndCheckpointerRace) {
  Rng rng(9001);
  DataGraph original = testing_util::RandomGraph(150, 4, 25, &rng);
  LabelRequirements reqs;
  reqs[static_cast<LabelId>(
      rng.UniformInt(2, original.labels().size() - 1))] = 2;
  std::string probe = testing_util::RandomChainQuery(original, 3, &rng);

  std::vector<UpdateOp> ops;
  DataGraph track = original;
  for (int i = 0; i < 80; ++i) {
    NodeId u = static_cast<NodeId>(rng.UniformInt(1, track.NumNodes() - 1));
    NodeId v = static_cast<NodeId>(rng.UniformInt(1, track.NumNodes() - 1));
    if (u == v) continue;
    if (track.HasEdge(u, v)) {
      ops.push_back(UpdateOp::RemoveEdge(u, v));
      track.RemoveEdge(u, v);
    } else {
      ops.push_back(UpdateOp::AddEdge(u, v));
      track.AddEdge(u, v);
    }
  }

  const auto dir = FreshDir("race");
  DataGraph g = original;
  DkIndex dk = DkIndex::Build(&g, reqs);
  QueryServer::Options options;
  options.durability.dir = dir;
  options.durability.sync_every_n = 4;
  options.durability.checkpoint_interval_ms = 1;  // checkpoint aggressively
  options.max_batch = 8;
  QueryServer server(dk, options);

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      for (int i = 0; i < 30; ++i) {
        auto result = server.Evaluate(probe);
        EXPECT_TRUE(result.has_value());
      }
    });
  }
  std::thread checkpoint_caller([&] {
    for (int i = 0; i < 10; ++i) {
      server.CheckpointNow();
      server.SyncWal();
    }
  });
  for (const UpdateOp& op : ops) {
    ASSERT_TRUE(op.kind == UpdateOp::Kind::kAddEdge
                    ? server.SubmitAddEdge(op.u, op.v)
                    : server.SubmitRemoveEdge(op.u, op.v));
  }
  server.Flush();
  for (std::thread& t : readers) t.join();
  checkpoint_caller.join();
  auto served = server.Evaluate(probe);
  server.Stop();
  ASSERT_TRUE(served.has_value());

  // And the durable state round-trips through recovery.
  DataGraph rg;
  RecoveryStats stats;
  std::string error;
  auto recovered = RecoverDkIndex(dir, &rg, &stats, &error);
  ASSERT_TRUE(recovered.has_value()) << error;
  EXPECT_EQ(stats.last_seq, ops.size());
  EXPECT_EQ(EvaluateOnIndex(recovered->index(),
                            testing_util::MustParse(probe, rg.labels())),
            *served);
}

// ---------------------------------------------------------------------------
// The adaptive tuner's retunes are ordinary kRetune records.
// ---------------------------------------------------------------------------

using testing_util::ExpectSameIndex;

TEST(CrashStateTest, AutoRetunesReplayFromTheLog) {
  const DataGraph original = testing_util::BuildMovieGraph();
  const std::vector<std::string> texts = {"director.movie.title",
                                          "actor.movie.title"};
  const auto dir = FreshDir("auto_retune");
  const auto crashed = FreshDir("auto_retune_crashed");
  std::vector<std::vector<NodeId>> served;
  {
    DataGraph g = original;
    DkIndex dk = DkIndex::Build(&g, {});
    QueryServer::Options options;
    options.durability.dir = dir;
    options.durability.sync_every_n = 1;
    options.durability.checkpoint_interval_ms = 60000;  // keep it in the log
    options.cache_byte_budget = 1;  // every query misses
    options.tuning.period_ms = 2;
    options.tuning.min_misses = 8;
    QueryServer server(dk, options);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server.stats().tuner_last_index_nodes == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      for (const std::string& text : texts) server.Evaluate(text);
    }
    ASSERT_EQ(server.stats().auto_retunes, 1);
    for (const std::string& text : texts) {
      served.push_back(server.Evaluate(text).value());
    }
    // The crash image: the initial checkpoint plus a log whose records were
    // each fsynced before they were applied. Stop would checkpoint them.
    namespace fs = std::filesystem;
    fs::copy(dir.path(), crashed.path(),
             fs::copy_options::recursive |
                 fs::copy_options::overwrite_existing);
  }

  DataGraph rg;
  RecoveryStats stats;
  std::string error;
  std::optional<DkIndex> recovered =
      RecoverDkIndex(crashed, &rg, &stats, &error);
  ASSERT_TRUE(recovered.has_value()) << error;
  EXPECT_EQ(stats.checkpoint_seq, 0u);
  EXPECT_EQ(stats.replayed_ops, 1);
  LabelRequirements reqs;
  const std::vector<int>& eff = recovered->effective_requirements();
  for (size_t l = 0; l < eff.size(); ++l) {
    if (eff[l] > 0) reqs[static_cast<LabelId>(l)] = eff[l];
  }
  EXPECT_EQ(reqs[rg.labels().Find("title")], 2);  // the mined target
  DataGraph fresh_graph = original;
  DkIndex fresh = DkIndex::Build(&fresh_graph, reqs);
  ExpectSameIndex(recovered->index(), fresh.index());

  // A restart on the recovered state serves the same answers.
  QueryServer::Options pinned;
  pinned.tuning.period_ms = 0;
  QueryServer restarted(*recovered, pinned);
  for (size_t i = 0; i < texts.size(); ++i) {
    EXPECT_EQ(EvaluateOnIndex(recovered->index(),
                              testing_util::MustParse(texts[i], rg.labels())),
              served[i])
        << texts[i];
    EXPECT_EQ(restarted.Evaluate(texts[i]).value(), served[i]) << texts[i];
  }
}

// Explicit retunes of both kinds, and one no refinement can honour, replay
// from the log to exactly the index the live server published.
TEST(CrashStateTest, ExplicitRetunesReplayFromTheLog) {
  Rng rng(9301);
  const DataGraph original = testing_util::RandomGraph(120, 4, 20, &rng);
  const LabelId a = 2, b = 3;
  std::vector<UpdateOp> ops;
  for (UpdateOp retune : {UpdateOp::Retune({{a, 2}}, /*shrink=*/false),
                          UpdateOp::Retune({{a, INT_MAX}}, true),  // dropped
                          UpdateOp::Retune({{b, 1}}, /*shrink=*/true),
                          UpdateOp::Retune({{a, 3}}, /*shrink=*/false)}) {
    for (int i = 0; i < 3; ++i) {
      ops.push_back(UpdateOp::AddEdge(
          static_cast<NodeId>(rng.UniformInt(1, original.NumNodes() - 1)),
          static_cast<NodeId>(rng.UniformInt(1, original.NumNodes() - 1))));
    }
    ops.push_back(std::move(retune));
  }
  const auto dir = FreshDir("explicit_retune");
  const auto crashed = FreshDir("explicit_retune_crashed");
  std::shared_ptr<const IndexSnapshot> live;
  {
    DataGraph g = original;
    DkIndex dk = DkIndex::Build(&g, {{b, 2}});
    QueryServer::Options options;
    options.durability.dir = dir;
    options.durability.sync_every_n = 1;
    options.durability.checkpoint_interval_ms = 60000;  // keep it in the log
    options.tuning.period_ms = 0;
    options.max_batch = 1;  // no coalescing: every retune applies
    QueryServer server(dk, options);
    for (const UpdateOp& op : ops) {
      ASSERT_TRUE(op.kind == UpdateOp::Kind::kRetune
                      ? server.SubmitRetune(op.retune_targets,
                                            op.retune_shrink)
                      : server.SubmitAddEdge(op.u, op.v));
    }
    server.Flush();
    EXPECT_EQ(server.stats().ops_invalid, 1);
    EXPECT_EQ(server.stats().ops_logged, static_cast<int64_t>(ops.size()));
    EXPECT_TRUE(server.Evaluate(testing_util::RandomChainQuery(
                                    original, 3, &rng))
                    .has_value());
    live = server.snapshot();
    namespace fs = std::filesystem;
    fs::copy(dir.path(), crashed.path(),
             fs::copy_options::recursive |
                 fs::copy_options::overwrite_existing);
  }

  DataGraph rg;
  RecoveryStats stats;
  std::string error;
  std::optional<DkIndex> recovered =
      RecoverDkIndex(crashed, &rg, &stats, &error);
  ASSERT_TRUE(recovered.has_value()) << error;
  EXPECT_EQ(stats.checkpoint_seq, 0u);
  EXPECT_EQ(stats.replayed_ops, static_cast<int64_t>(ops.size()) - 1);
  EXPECT_EQ(stats.invalid_ops, 1);
  EXPECT_EQ(recovered->effective_requirements(),
            live->effective_requirements());
  // Same partition and k as the live snapshot's frozen view.
  const FrozenView& view = live->frozen();
  ASSERT_EQ(recovered->index().NumIndexNodes(), view.num_index_nodes());
  for (IndexNodeId i = 0; i < view.num_index_nodes(); ++i) {
    const IndexNodeId r = recovered->index().index_of(view.extent(i)[0]);
    EXPECT_EQ(recovered->index().k(r), view.index_k(i)) << "index node " << i;
    ASSERT_EQ(recovered->index().extent(r).size(), view.extent(i).size());
    for (NodeId n : view.extent(i)) {
      ASSERT_EQ(recovered->index().index_of(n), r) << "node " << n;
    }
  }
}

// A subgraph whose label holds a line break is logged and applied like any
// other op, and replaying the log reproduces it.
TEST(CrashStateTest, NewlineLabelSubgraphLogsAndReplays) {
  const DataGraph original = testing_util::BuildMovieGraph();
  const std::string label = "line\nbreak";
  const auto dir = FreshDir("newline_label");
  const auto crashed = FreshDir("newline_label_crashed");
  DataGraph served_graph;
  {
    DataGraph g = original;
    DkIndex dk = DkIndex::Build(&g, {});
    QueryServer::Options options;
    options.durability.dir = dir;
    options.durability.sync_every_n = 1;
    options.durability.checkpoint_interval_ms = 60000;  // keep it in the log
    options.tuning.period_ms = 0;
    QueryServer server(dk, options);
    DataGraph h;
    NodeId top = h.AddNode(label);
    h.AddEdge(h.root(), top);
    h.AddEdge(top, h.AddNode("title"));
    ASSERT_TRUE(server.SubmitAddSubgraph(std::move(h)));
    server.Flush();
    const QueryServer::Stats stats = server.stats();
    EXPECT_EQ(stats.ops_applied, 1);
    EXPECT_EQ(stats.ops_logged, 1);
    EXPECT_EQ(stats.ops_invalid, 0);
    served_graph = server.snapshot()->graph();
    ASSERT_EQ(served_graph.NumNodes(), original.NumNodes() + 2);
    // The crash image: the initial checkpoint plus the logged subgraph.
    namespace fs = std::filesystem;
    fs::copy(dir.path(), crashed.path(),
             fs::copy_options::recursive |
                 fs::copy_options::overwrite_existing);
  }

  DataGraph rg;
  RecoveryStats stats;
  std::string error;
  std::optional<DkIndex> recovered =
      RecoverDkIndex(crashed, &rg, &stats, &error);
  ASSERT_TRUE(recovered.has_value()) << error;
  EXPECT_EQ(stats.checkpoint_seq, 0u);
  EXPECT_EQ(stats.replayed_ops, 1);
  EXPECT_EQ(stats.invalid_ops, 0);
  ASSERT_EQ(rg.NumNodes(), served_graph.NumNodes());
  for (NodeId n = 0; n < rg.NumNodes(); ++n) {
    ASSERT_EQ(rg.label_name(n), served_graph.label_name(n)) << "node " << n;
    ASSERT_EQ(rg.children(n), served_graph.children(n)) << "node " << n;
  }
  EXPECT_EQ(rg.NodesWithLabel(rg.labels().Find(label)).size(), 1u);
}

}  // namespace
}  // namespace dki
