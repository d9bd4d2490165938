// Tests of the binary v2 persistence format (io/serialization.h) and the
// checkpoint pipeline built on it: random graphs plus the paper's two
// workloads round-trip bit-identically, the checkpoint writer streams with
// O(1) transient memory, corruption (truncation, byte flips, trailing
// bytes) is always detected, and a SIGKILL landing mid-checkpoint-write
// never damages recovery.

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/crc32.h"
#include "common/random.h"
#include "datagen/nasa_generator.h"
#include "datagen/xmark_generator.h"
#include "graph/data_graph.h"
#include "index/dk_index.h"
#include "io/byte_sink.h"
#include "io/fs_util.h"
#include "io/serialization.h"
#include "query/evaluator.h"
#include "serve/checkpoint.h"
#include "serve/query_server.h"
#include "serve/snapshot.h"
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
  return testing_util::ScopedTempDir(::testing::TempDir() + "dki_v2_" +
                                     name + "_" +
                                     std::to_string(::getpid()));
}

void ExpectSameGraph(const DataGraph& got, const DataGraph& want) {
  ASSERT_EQ(got.NumNodes(), want.NumNodes());
  ASSERT_EQ(got.NumEdges(), want.NumEdges());
  for (NodeId n = 0; n < want.NumNodes(); ++n) {
    ASSERT_EQ(got.label_name(n), want.label_name(n)) << "node " << n;
    ASSERT_EQ(got.children(n), want.children(n)) << "node " << n;
    // The format emits edges in ascending source-node order, so a loaded
    // graph's parent lists are canonicalized even when the original was
    // built with interleaved insertions. Parent order never affects
    // evaluation, so compare as multisets.
    std::vector<NodeId> gp(got.parents(n).begin(), got.parents(n).end());
    std::vector<NodeId> wp(want.parents(n).begin(), want.parents(n).end());
    std::sort(gp.begin(), gp.end());
    std::sort(wp.begin(), wp.end());
    ASSERT_EQ(gp, wp) << "node " << n;
  }
}

using testing_util::ExpectSameIndex;

std::string V2Payload(const DkIndex& dk, const DataGraph& g) {
  std::string payload;
  StringSink sink(&payload);
  EXPECT_TRUE(
      SaveDkIndexPartsV2(g, dk.index(), dk.effective_requirements(), &sink));
  return payload;
}

// The same payload as a server checkpoints it: from a published snapshot,
// whose index section is read off its FrozenView.
std::string SnapshotPayload(const DkIndex& dk, const DataGraph& g) {
  const IndexSnapshot snap(std::make_shared<const DataGraph>(g), dk.index(),
                           dk.effective_requirements(), 0, {});
  std::string payload;
  StringSink sink(&payload);
  EXPECT_TRUE(SaveDkIndexPartsV2(snap.graph(), snap.index_section(),
                                 snap.effective_requirements(), &sink));
  return payload;
}

TEST(SerializationV2Test, GraphRoundTripsRandomGraphs) {
  Rng rng(71);
  for (int trial = 0; trial < 20; ++trial) {
    DataGraph g = testing_util::RandomGraph(
        static_cast<int>(rng.UniformInt(1, 400)),
        static_cast<int>(rng.UniformInt(2, 12)),
        static_cast<int>(rng.UniformInt(0, 80)), &rng);
    std::string buf;
    StringSink sink(&buf);
    ASSERT_TRUE(SaveGraphV2(g, &sink));
    EXPECT_EQ(buf.substr(0, 13), "dki-graph v2\n");

    DataGraph loaded;
    std::string error;
    ASSERT_TRUE(LoadGraphV2Exact(buf, &loaded, &error)) << error;
    ExpectSameGraph(loaded, g);
  }
}

TEST(SerializationV2Test, DkIndexRoundTripsRandom) {
  Rng rng(73);
  for (int trial = 0; trial < 10; ++trial) {
    DataGraph g = testing_util::RandomGraph(300, 6, 60, &rng);
    LabelRequirements reqs;
    // Require extra depth on labels that actually occur in this graph.
    for (int i = 0; i < 2; ++i) {
      const NodeId n =
          static_cast<NodeId>(rng.UniformInt(1, g.NumNodes() - 1));
      reqs[g.label(n)] = static_cast<int>(rng.UniformInt(0, 3));
    }
    DkIndex dk = DkIndex::Build(&g, reqs);

    DataGraph g_v2;
    std::string error;
    auto dk_v2 = LoadDkIndexV2Exact(V2Payload(dk, g), &g_v2, &error);
    ASSERT_TRUE(dk_v2.has_value()) << error;

    ExpectSameGraph(g_v2, g);
    ExpectSameIndex(dk_v2->index(), dk.index());
    EXPECT_EQ(dk_v2->effective_requirements(),
              dk.effective_requirements());
    std::string invariant;
    EXPECT_TRUE(dk_v2->index().ValidatePartition(&invariant)) << invariant;
  }
}

// The paper's workloads: the recovered state is identical to the source.
void RunWorkloadRoundTrip(DataGraph g, const std::string& name) {
  LabelRequirements reqs;  // defaults: a 1-index-style baseline
  DkIndex dk = DkIndex::Build(&g, reqs);

  DataGraph g_v2;
  std::string error;
  auto dk_v2 = LoadDkIndexV2Exact(V2Payload(dk, g), &g_v2, &error);
  ASSERT_TRUE(dk_v2.has_value()) << name << ": " << error;
  ExpectSameGraph(g_v2, g);
  ExpectSameIndex(dk_v2->index(), dk.index());
  EXPECT_EQ(SnapshotPayload(dk, g), V2Payload(dk, g)) << name;
}

TEST(SerializationV2Test, XmarkRoundTrip) {
  XmarkOptions options;
  options.scale = 0.25;
  RunWorkloadRoundTrip(GenerateXmarkGraph(options).graph, "xmark");
}

TEST(SerializationV2Test, NasaRoundTrip) {
  NasaOptions options;
  options.scale = 0.25;
  RunWorkloadRoundTrip(GenerateNasaGraph(options).graph, "nasa");
}

// Checkpoints encode a published snapshot's FrozenView, `dkquery build` an
// IndexGraph, through one index-section encoder: the bytes are identical,
// also once Section-5 updates have split extents and left them unsorted.
TEST(SerializationV2Test, SnapshotSectionMatchesIndexGraphBytes) {
  Rng rng(79);
  for (int trial = 0; trial < 8; ++trial) {
    DataGraph g = testing_util::RandomGraph(200, 5, 40, &rng);
    LabelRequirements reqs;
    reqs[g.label(static_cast<NodeId>(rng.UniformInt(1, g.NumNodes() - 1)))] =
        static_cast<int>(rng.UniformInt(1, 3));
    DkIndex dk = DkIndex::Build(&g, reqs);
    for (int i = 0; i < 4 * trial; ++i) {
      const NodeId u =
          static_cast<NodeId>(rng.UniformInt(1, g.NumNodes() - 1));
      const NodeId v =
          static_cast<NodeId>(rng.UniformInt(1, g.NumNodes() - 1));
      if (u != v && !g.HasEdge(u, v)) dk.AddEdge(u, v);
    }
    const std::string want = V2Payload(dk, g);
    EXPECT_EQ(SnapshotPayload(dk, g), want) << "trial " << trial;

    // Loading re-derives index adjacency (in its own order), so compare
    // what the section stores: the loaded index re-encodes to the bytes.
    DataGraph loaded;
    std::string error;
    auto dk_v2 = LoadDkIndexV2Exact(want, &loaded, &error);
    ASSERT_TRUE(dk_v2.has_value()) << error;
    EXPECT_EQ(V2Payload(*dk_v2, loaded), want) << "trial " << trial;
  }
}

TEST(SerializationV2Test, TruncationSweepNeverLoads) {
  Rng rng(83);
  DataGraph g = testing_util::RandomGraph(120, 5, 25, &rng);
  DkIndex dk = DkIndex::Build(&g, {});
  const std::string payload = V2Payload(dk, g);
  // Every strict prefix must be rejected (malformed, never a crash). Sweep
  // densely near the start and the end, sparsely through the middle.
  for (size_t cut = 0; cut < payload.size();
       cut += (cut < 64 || cut + 64 > payload.size()) ? 1 : 37) {
    DataGraph out;
    size_t pos = 0;
    std::string error;
    EXPECT_FALSE(LoadDkIndexV2(payload.substr(0, cut), &pos, &out, &error)
                     .has_value())
        << "prefix of " << cut << " bytes unexpectedly loaded";
  }
}

// ---------------------------------------------------------------------------
// v2 checkpoint pipeline (serve/checkpoint.h).
// ---------------------------------------------------------------------------

TEST(CheckpointV2Test, WritesV2AndRoundTrips) {
  const auto dir = FreshDir("roundtrip");
  DataGraph g = testing_util::BuildMovieGraph();
  LabelRequirements reqs;
  reqs[g.labels().Find("title")] = 2;
  DkIndex dk = DkIndex::Build(&g, reqs);

  CheckpointStore store(dir);
  std::string error;
  ASSERT_TRUE(
      store.Write(g, dk.index(), dk.effective_requirements(), 17, &error))
      << error;

  // The file on disk is the v2 layout.
  auto files = store.List();
  ASSERT_EQ(files.size(), 1u);
  std::string contents;
  ASSERT_TRUE(ReadFileToString(files[0].path, &contents, &error)) << error;
  EXPECT_EQ(contents.substr(0, 18), "dki-checkpoint v2\n");

  DataGraph loaded;
  uint64_t seq = 0;
  bool fallback = true;
  auto recovered = store.LoadNewestValid(&loaded, &seq, &fallback, &error);
  ASSERT_TRUE(recovered.has_value()) << error;
  EXPECT_EQ(seq, 17u);
  EXPECT_FALSE(fallback);
  ExpectSameGraph(loaded, g);
  ExpectSameIndex(recovered->index(), dk.index());
}

// A durable server checkpoints its published snapshots (the initial one at
// start, the final one at Stop): byte for byte the file CheckpointStore
// writes from the DkIndex itself.
TEST(CheckpointV2Test, ServerCheckpointsMatchIndexGraphCheckpoint) {
  const auto served = FreshDir("served");
  const auto direct = FreshDir("direct");
  XmarkOptions options;
  options.scale = 0.1;
  DataGraph g = GenerateXmarkGraph(options).graph;
  LabelRequirements reqs;
  reqs[g.labels().Find("item")] = 2;
  DkIndex dk = DkIndex::Build(&g, reqs);

  CheckpointStore store(direct.path());
  std::string error;
  ASSERT_TRUE(
      store.Write(g, dk.index(), dk.effective_requirements(), 0, &error))
      << error;
  std::string want;
  ASSERT_TRUE(ReadFileToString(store.List()[0].path, &want, &error)) << error;

  QueryServer::Options server_options;
  server_options.durability.dir = served.path();
  server_options.tuning.period_ms = 0;
  QueryServer server(dk, server_options);
  const std::string path = served + "/checkpoint-0.dki";
  std::string at_start;
  ASSERT_TRUE(ReadFileToString(path, &at_start, &error)) << error;
  EXPECT_EQ(at_start, want);
  server.Stop();
  std::string at_stop;
  ASSERT_TRUE(ReadFileToString(path, &at_stop, &error)) << error;
  EXPECT_EQ(at_stop, want);
}

// A checkpoint whose CRC-valid payload carries bytes past the DkIndex
// sections is damaged, not a longer valid state: the loader rejects it and
// falls back to the previous checkpoint.
TEST(CheckpointV2Test, TrailingPayloadBytesRejected) {
  const auto dir = FreshDir("trailing");
  DataGraph g = testing_util::BuildMovieGraph();
  DkIndex dk = DkIndex::Build(&g, {});
  CheckpointStore store(dir);
  std::string error;
  ASSERT_TRUE(
      store.Write(g, dk.index(), dk.effective_requirements(), 4, &error))
      << error;

  // checkpoint-9 in the writer's layout, with one extra payload byte that
  // the footer's length and CRC both cover.
  std::string payload = V2Payload(dk, g);
  payload.push_back('\0');
  std::string file = "dki-checkpoint v2\nseq 9\n" + payload + "DKCK";
  for (int i = 0; i < 8; ++i) {
    file.push_back(static_cast<char>((payload.size() >> (8 * i)) & 0xFF));
  }
  const uint32_t crc = Crc32(payload);
  for (int i = 0; i < 4; ++i) {
    file.push_back(static_cast<char>((crc >> (8 * i)) & 0xFF));
  }
  ASSERT_TRUE(AtomicWriteFile(dir + "/checkpoint-9.dki", file, &error))
      << error;

  DataGraph loaded;
  uint64_t seq = 0;
  bool fallback = false;
  auto recovered = store.LoadNewestValid(&loaded, &seq, &fallback, &error);
  ASSERT_TRUE(recovered.has_value()) << error;
  EXPECT_EQ(seq, 4u);
  EXPECT_TRUE(fallback);

  // Without the fallback, the error names the trailing bytes.
  ASSERT_TRUE(RemoveFileIfExists(store.List()[1].path, &error)) << error;
  EXPECT_FALSE(
      store.LoadNewestValid(&loaded, &seq, &fallback, &error).has_value());
  EXPECT_NE(error.find("trailing"), std::string::npos) << error;
}

TEST(CheckpointV2Test, StreamingWriteHasBoundedTransientMemory) {
  const auto dir = FreshDir("o1peak");
  // Large enough that the encoded checkpoint spans many buffer-fulls even
  // after varint/delta compression (scale 4 encodes to ~350 KB).
  XmarkOptions options;
  options.scale = 4.0;
  DataGraph g = GenerateXmarkGraph(options).graph;
  DkIndex dk = DkIndex::Build(&g, {});

  CheckpointStore store(dir);
  std::string error;
  ASSERT_TRUE(
      store.Write(g, dk.index(), dk.effective_requirements(), 1, &error))
      << error;

  // The checkpoint is many buffer-fulls long, yet the writer's buffer
  // high-water mark stays at one fixed buffer — the O(1) transient-memory
  // guarantee that replaced the old serialize-whole-state-into-a-string
  // path (whose peak was ~4x the state size).
  auto files = store.List();
  ASSERT_EQ(files.size(), 1u);
  std::string contents;
  ASSERT_TRUE(ReadFileToString(files[0].path, &contents, &error)) << error;
  ASSERT_GT(contents.size(), 4 * AtomicFileWriter::kBufferBytes);
  EXPECT_GT(store.last_write_peak_buffer_bytes(), 0);
  EXPECT_LE(store.last_write_peak_buffer_bytes(),
            static_cast<int64_t>(AtomicFileWriter::kBufferBytes));
}

TEST(CheckpointV2Test, TruncationSweepNeverValidates) {
  const auto dir = FreshDir("trunc");
  DataGraph g = testing_util::BuildMovieGraph();
  DkIndex dk = DkIndex::Build(&g, {});
  CheckpointStore store(dir);
  std::string error;
  ASSERT_TRUE(
      store.Write(g, dk.index(), dk.effective_requirements(), 3, &error))
      << error;
  const std::string path = store.List()[0].path;
  std::string good;
  ASSERT_TRUE(ReadFileToString(path, &good, &error)) << error;

  for (size_t keep = 0; keep < good.size();
       keep += (keep < 40 || keep + 40 > good.size()) ? 1 : 13) {
    ASSERT_TRUE(AtomicWriteFile(path, good.substr(0, keep), &error)) << error;
    DataGraph out;
    uint64_t seq = 0;
    bool fallback = false;
    EXPECT_FALSE(
        store.LoadNewestValid(&out, &seq, &fallback, &error).has_value())
        << "truncation to " << keep << " bytes validated";
  }
  // Restoring the full bytes validates again (the sweep itself is sound).
  ASSERT_TRUE(AtomicWriteFile(path, good, &error)) << error;
  DataGraph out;
  uint64_t seq = 0;
  bool fallback = false;
  EXPECT_TRUE(
      store.LoadNewestValid(&out, &seq, &fallback, &error).has_value())
      << error;
}

TEST(CheckpointV2Test, ByteFlipSweepNeverValidates) {
  const auto dir = FreshDir("flip");
  DataGraph g = testing_util::BuildMovieGraph();
  DkIndex dk = DkIndex::Build(&g, {});
  CheckpointStore store(dir);
  std::string error;
  ASSERT_TRUE(
      store.Write(g, dk.index(), dk.effective_requirements(), 3, &error))
      << error;
  const std::string path = store.List()[0].path;
  std::string good;
  ASSERT_TRUE(ReadFileToString(path, &good, &error)) << error;

  // Flip one bit at a time from the payload start through the footer (the
  // CRC's coverage; the seq header line is consciously outside it). Every
  // flip must be caught.
  const size_t header_end = good.find('\n', good.find('\n') + 1) + 1;
  ASSERT_GT(header_end, 18u);  // past "dki-checkpoint v2\nseq ...\n"
  Rng rng(89);
  for (size_t at = header_end; at < good.size();
       at += static_cast<size_t>(rng.UniformInt(1, 7))) {
    std::string bad = good;
    bad[at] = static_cast<char>(bad[at] ^ (1 << rng.UniformInt(0, 7)));
    ASSERT_TRUE(AtomicWriteFile(path, bad, &error)) << error;
    DataGraph out;
    uint64_t seq = 0;
    bool fallback = false;
    EXPECT_FALSE(
        store.LoadNewestValid(&out, &seq, &fallback, &error).has_value())
        << "bit flip at offset " << at << " validated";
  }
}

// SIGKILL landing inside CheckpointStore::Write must never damage what was
// durable before, and whatever survives must validate or be skipped.
TEST(CheckpointV2Test, KillMidWriteNeverCorruptsRecovery) {
#ifdef DKI_UNDER_TSAN
  GTEST_SKIP() << "fork-based fault injection is not TSan-compatible";
#endif
  const auto dir = FreshDir("midwrite");
  XmarkOptions options;
  options.scale = 0.25;
  DataGraph g = GenerateXmarkGraph(options).graph;
  DkIndex dk = DkIndex::Build(&g, {});

  CheckpointStore store(dir);
  std::string error;
  ASSERT_TRUE(
      store.Write(g, dk.index(), dk.effective_requirements(), 1, &error))
      << error;

  Rng rng(97);
  for (int trial = 0; trial < 8; ++trial) {
    ::pid_t pid = ::fork();
    ASSERT_GE(pid, 0) << "fork failed";
    if (pid == 0) {
      // Child: rewrite checkpoints forever; the parent's SIGKILL lands at
      // an arbitrary point inside some Write (header, payload, footer,
      // fsync, or rename).
      CheckpointStore child_store(dir);
      std::string child_error;
      for (uint64_t seq = 2;; ++seq) {
        if (!child_store.Write(g, dk.index(), dk.effective_requirements(),
                               seq, &child_error)) {
          ::_exit(2);
        }
      }
    }
    ::usleep(static_cast<useconds_t>(rng.UniformInt(500, 40000)));
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

    // Recovery after the kill: some retained checkpoint must validate
    // (seq 1 is always durable) and decode to the exact source state.
    DataGraph loaded;
    uint64_t seq = 0;
    bool fallback = false;
    auto recovered =
        store.LoadNewestValid(&loaded, &seq, &fallback, &error);
    ASSERT_TRUE(recovered.has_value())
        << "trial " << trial << ": " << error;
    ASSERT_GE(seq, 1u);
    ExpectSameGraph(loaded, g);
    ExpectSameIndex(recovered->index(), dk.index());
  }
}

}  // namespace
}  // namespace dki
