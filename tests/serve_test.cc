#include "serve/query_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <climits>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "index/dk_index.h"
#include "query/evaluator.h"
#include "query/load_tracker.h"
#include "serve/snapshot.h"
#include "serve/update_queue.h"
#include "serve/wal.h"
#include "tests/test_util.h"

namespace dki {
namespace {

// ---------------------------------------------------------------------------
// UpdateQueue: ordering, batching, backpressure, shutdown.
// ---------------------------------------------------------------------------

TEST(UpdateQueueTest, FifoOrderAndBatchBound) {
  UpdateQueue q(16, UpdateQueue::FullPolicy::kBlock);
  for (NodeId i = 0; i < 5; ++i) {
    ASSERT_EQ(q.Push(UpdateOp::AddEdge(i, i + 1)),
              UpdateQueue::PushResult::kOk);
  }
  EXPECT_EQ(q.size(), 5u);

  std::vector<UpdateOp> batch;
  ASSERT_TRUE(q.PopBatch(3, &batch));
  ASSERT_EQ(batch.size(), 3u);
  for (NodeId i = 0; i < 3; ++i) EXPECT_EQ(batch[static_cast<size_t>(i)].u, i);

  ASSERT_TRUE(q.PopBatch(100, &batch));
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].u, 3);
  EXPECT_EQ(batch[1].u, 4);
}

TEST(UpdateQueueTest, RejectPolicyWhenFull) {
  UpdateQueue q(2, UpdateQueue::FullPolicy::kReject);
  EXPECT_EQ(q.Push(UpdateOp::AddEdge(1, 2)), UpdateQueue::PushResult::kOk);
  EXPECT_EQ(q.Push(UpdateOp::AddEdge(2, 3)), UpdateQueue::PushResult::kOk);
  // Full: rejected (retryably), not lost.
  EXPECT_EQ(q.Push(UpdateOp::AddEdge(3, 4)), UpdateQueue::PushResult::kFull);
  std::vector<UpdateOp> batch;
  ASSERT_TRUE(q.PopBatch(10, &batch));
  EXPECT_EQ(batch.size(), 2u);
  // Space freed: the retry succeeds.
  EXPECT_EQ(q.Push(UpdateOp::AddEdge(3, 4)), UpdateQueue::PushResult::kOk);
}

TEST(UpdateQueueTest, BlockPolicyWaitsForConsumer) {
  UpdateQueue q(1, UpdateQueue::FullPolicy::kBlock);
  constexpr int kOps = 32;
  std::thread consumer([&] {
    std::vector<UpdateOp> batch;
    int seen = 0;
    while (seen < kOps && q.PopBatch(4, &batch)) {
      for (const UpdateOp& op : batch) {
        EXPECT_EQ(op.u, seen);  // FIFO survives the blocking producer
        ++seen;
      }
    }
    EXPECT_EQ(seen, kOps);
  });
  for (NodeId i = 0; i < kOps; ++i) {
    // Blocks when full.
    EXPECT_EQ(q.Push(UpdateOp::AddEdge(i, i)), UpdateQueue::PushResult::kOk);
  }
  consumer.join();
}

TEST(UpdateQueueTest, CloseDrainsThenUnblocks) {
  UpdateQueue q(8, UpdateQueue::FullPolicy::kBlock);
  ASSERT_EQ(q.Push(UpdateOp::AddEdge(7, 8)), UpdateQueue::PushResult::kOk);
  q.Close();
  // Closed: terminally rejected.
  EXPECT_EQ(q.Push(UpdateOp::AddEdge(9, 10)),
            UpdateQueue::PushResult::kClosed);
  std::vector<UpdateOp> batch;
  ASSERT_TRUE(q.PopBatch(10, &batch));  // queued op still drains
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].u, 7);
  EXPECT_FALSE(q.PopBatch(10, &batch));  // closed and empty: consumer exits
}

// ---------------------------------------------------------------------------
// QueryServer: serving correctness.
// ---------------------------------------------------------------------------

DkIndex BuildMovieIndex(DataGraph* g) {
  LabelRequirements reqs;
  reqs[g->labels().Find("title")] = 2;
  return DkIndex::Build(g, reqs);
}

// An edge that grows the answer of "actor.movie.title": a movie-less actor
// to an actor-less movie.
std::pair<NodeId, NodeId> AnswerGrowingEdge(const DataGraph& g) {
  LabelId actor = g.labels().Find("actor");
  LabelId movie = g.labels().Find("movie");
  NodeId lone_actor = kInvalidNode, unshared_movie = kInvalidNode;
  for (NodeId a : g.NodesWithLabel(actor)) {
    bool has_movie_child = false;
    for (NodeId c : g.children(a)) {
      if (g.label(c) == movie) has_movie_child = true;
    }
    if (!has_movie_child) lone_actor = a;
  }
  for (NodeId m : g.NodesWithLabel(movie)) {
    bool has_actor_parent = false;
    for (NodeId p : g.parents(m)) {
      if (g.label(p) == actor) has_actor_parent = true;
    }
    if (!has_actor_parent) unshared_movie = m;
  }
  return {lone_actor, unshared_movie};
}

TEST(QueryServerTest, ServesGroundTruthAnswers) {
  DataGraph g = testing_util::BuildMovieGraph();
  DataGraph truth_graph = g;
  DkIndex dk = BuildMovieIndex(&g);
  QueryServer server(dk);

  for (const char* text :
       {"director.movie.title", "actor.movie.title", "movieDB//title"}) {
    auto result = server.Evaluate(text);
    ASSERT_TRUE(result.has_value()) << text;
    EXPECT_EQ(*result,
              EvaluateOnDataGraph(
                  truth_graph,
                  testing_util::MustParse(text, truth_graph.labels())))
        << text;
  }
  // Repeats hit the shared cache.
  auto repeat = server.Evaluate("director.movie.title");
  ASSERT_TRUE(repeat.has_value());
  EXPECT_GT(server.cache_stats().hits, 0);
}

TEST(QueryServerTest, ResultCacheHitVisitsNothing) {
  DataGraph g = testing_util::BuildMovieGraph();
  DataGraph truth_graph = g;
  DkIndex dk = BuildMovieIndex(&g);
  QueryServer server(dk);
  const std::string text = "director.movie.title";

  EvalStats miss_stats;
  auto first = server.Evaluate(text, &miss_stats);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first,
            EvaluateOnDataGraph(truth_graph, testing_util::MustParse(
                                                 text, truth_graph.labels())));
  EXPECT_EQ(server.cache_stats().misses, 1);
  EXPECT_EQ(server.cache_stats().hits, 0);
  EXPECT_GT(miss_stats.index_nodes_visited, 0);

  // A spacing variant hits the same entry, visits nothing, and keeps the
  // result size; so does a probe through a held snapshot.
  EvalStats hit_stats;
  auto second = server.Evaluate("director . movie . title", &hit_stats);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, *first);
  EvalStats held_stats;
  auto third = server.EvaluateOn(*server.snapshot(), text, &held_stats);
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(*third, *first);
  EXPECT_EQ(server.cache_stats().hits, 2);
  EXPECT_EQ(server.cache_stats().misses, 1);
  for (const EvalStats& hit : {hit_stats, held_stats}) {
    EXPECT_EQ(hit.index_nodes_visited, 0);
    EXPECT_EQ(hit.data_nodes_visited, 0);
    EXPECT_EQ(hit.result_size, miss_stats.result_size);
  }
}

// Regression: the canonical key used to drop all whitespace, so "a b" (two
// labels, a parse error) shared the key of the label "ab". Once "ab" was
// cached, the probe-first read paths served its answer for "a b".
TEST(QueryServerTest, AdjacentLabelsNeverShareACacheKey) {
  DataGraph g = testing_util::BuildMovieGraph();
  DkIndex dk = BuildMovieIndex(&g);
  QueryServer server(dk);
  const std::pair<const char*, const char*> cases[] = {
      {"movietitle", "movie title"},
      {"movie_", "movie _"},
      {"_movie", "_ movie"},
  };
  for (const auto& [word, split] : cases) {
    // Unknown labels parse and match nothing: the joined word is cached.
    ASSERT_TRUE(server.Evaluate(word).has_value()) << word;

    std::string error;
    EXPECT_FALSE(server.Evaluate(split, nullptr, &error).has_value())
        << split;
    EXPECT_FALSE(error.empty()) << split;
    // Same through a held snapshot, whose probe keys on its own epoch.
    error.clear();
    EXPECT_FALSE(server.EvaluateOn(*server.snapshot(), split, nullptr, &error)
                     .has_value())
        << split;
    EXPECT_FALSE(error.empty()) << split;
  }
}

TEST(QueryServerTest, ParseErrorsAreReportedNotServed) {
  DataGraph g = testing_util::BuildMovieGraph();
  DkIndex dk = BuildMovieIndex(&g);
  QueryServer server(dk);
  std::string error;
  EXPECT_FALSE(server.Evaluate("movie..", nullptr, &error).has_value());
  EXPECT_FALSE(error.empty());
  // Without an error pointer, and again: a miss re-parses every time.
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(server.Evaluate("movie..").has_value());
    EXPECT_FALSE(server.EvaluateOn(*server.snapshot(), "movie..").has_value());
  }
}

TEST(QueryServerTest, AppliesUpdatesInSubmissionOrder) {
  Rng rng(4001);
  DataGraph original = testing_util::RandomGraph(150, 4, 25, &rng);
  LabelRequirements reqs;
  reqs[static_cast<LabelId>(rng.UniformInt(2, original.labels().size() - 1))] =
      2;

  // Offline reference: apply the ops sequentially to a private copy.
  DataGraph offline_graph = original;
  DkIndex offline = DkIndex::Build(&offline_graph, reqs);
  std::string probe = testing_util::RandomChainQuery(original, 3, &rng);

  std::vector<UpdateOp> ops;
  for (int i = 0; i < 40; ++i) {
    NodeId u = static_cast<NodeId>(
        rng.UniformInt(1, offline_graph.NumNodes() - 1));
    NodeId v = static_cast<NodeId>(
        rng.UniformInt(1, offline_graph.NumNodes() - 1));
    if (u == v) continue;
    if (offline_graph.HasEdge(u, v)) {
      ops.push_back(UpdateOp::RemoveEdge(u, v));
      offline.RemoveEdge(u, v);
    } else {
      ops.push_back(UpdateOp::AddEdge(u, v));
      offline.AddEdge(u, v);
    }
  }
  auto expected = EvaluateOnIndex(
      offline.index(),
      testing_util::MustParse(probe, offline_graph.labels()));

  // Online: same initial state, same ops through the queue.
  DataGraph online_graph = original;
  DkIndex dk = DkIndex::Build(&online_graph, reqs);
  QueryServer server(dk);
  for (const UpdateOp& op : ops) {
    ASSERT_TRUE(op.kind == UpdateOp::Kind::kAddEdge
                    ? server.SubmitAddEdge(op.u, op.v)
                    : server.SubmitRemoveEdge(op.u, op.v));
  }
  server.Flush();

  QueryServer::Stats stats = server.stats();
  EXPECT_EQ(stats.ops_accepted, static_cast<int64_t>(ops.size()));
  EXPECT_EQ(stats.ops_applied, static_cast<int64_t>(ops.size()));
  EXPECT_EQ(stats.ops_invalid, 0);

  auto served = server.Evaluate(probe);
  ASSERT_TRUE(served.has_value());
  EXPECT_EQ(*served, expected);
  // Same op sequence, same epoch trajectory: the served snapshot's epoch
  // matches the sequential run exactly.
  EXPECT_EQ(server.snapshot()->epoch(), offline.epoch());
}

TEST(QueryServerTest, SnapshotIsolationAcrossRepublish) {
  DataGraph g = testing_util::BuildMovieGraph();
  DkIndex dk = BuildMovieIndex(&g);
  QueryServer server(dk);
  const std::string text = "actor.movie.title";

  const auto [lone_actor, unshared_movie] = AnswerGrowingEdge(g);
  ASSERT_NE(lone_actor, kInvalidNode);
  ASSERT_NE(unshared_movie, kInvalidNode);

  std::shared_ptr<const IndexSnapshot> held = server.snapshot();
  auto before = server.EvaluateOn(*held, text);
  ASSERT_TRUE(before.has_value());

  ASSERT_TRUE(server.SubmitAddEdge(lone_actor, unshared_movie));
  server.Flush();

  // The held snapshot is bit-identical to its pre-update self...
  auto held_again = server.EvaluateOn(*held, text);
  ASSERT_TRUE(held_again.has_value());
  EXPECT_EQ(*held_again, *before);

  // ...while the fresh snapshot serves the new answer at a later epoch.
  std::shared_ptr<const IndexSnapshot> fresh = server.snapshot();
  EXPECT_GT(fresh->epoch(), held->epoch());
  auto after = server.EvaluateOn(*fresh, text);
  ASSERT_TRUE(after.has_value());
  EXPECT_NE(*after, *before);
  EXPECT_EQ(*after,
            EvaluateOnDataGraph(fresh->graph(),
                                testing_util::MustParse(
                                    text, fresh->graph().labels())));
}

TEST(QueryServerTest, AddSubgraphServesNewLabels) {
  DataGraph g = testing_util::BuildMovieGraph();
  DkIndex dk = BuildMovieIndex(&g);
  QueryServer server(dk);

  DataGraph h;
  NodeId x = h.AddNode("studio");
  NodeId y = h.AddNode("lot");
  h.AddEdge(h.root(), x);
  h.AddEdge(x, y);

  // Unknown labels evaluate to empty (not an error) before the update.
  auto before = server.Evaluate("studio.lot");
  ASSERT_TRUE(before.has_value());
  EXPECT_TRUE(before->empty());

  ASSERT_TRUE(server.SubmitAddSubgraph(std::move(h)));
  server.Flush();

  auto after = server.Evaluate("studio.lot");
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->size(), 1u);
}

TEST(QueryServerTest, InvalidOpsAreDroppedNotFatal) {
  DataGraph g = testing_util::BuildMovieGraph();
  DkIndex dk = BuildMovieIndex(&g);
  QueryServer server(dk);
  ASSERT_TRUE(server.SubmitAddEdge(1, static_cast<NodeId>(1 << 20)));
  ASSERT_TRUE(server.SubmitRemoveEdge(-3, 1));
  server.Flush();
  QueryServer::Stats stats = server.stats();
  EXPECT_EQ(stats.ops_applied, 2);
  EXPECT_EQ(stats.ops_invalid, 2);
  EXPECT_TRUE(server.Evaluate("director.movie.title").has_value());
}

TEST(QueryServerTest, StopRejectsFurtherSubmissions) {
  DataGraph g = testing_util::BuildMovieGraph();
  DkIndex dk = BuildMovieIndex(&g);
  QueryServer server(dk);
  ASSERT_TRUE(server.SubmitAddEdge(1, 2));
  server.Stop();
  EXPECT_FALSE(server.SubmitAddEdge(2, 3));
  QueryServer::Stats stats = server.stats();
  EXPECT_EQ(stats.ops_rejected, 1);
  EXPECT_EQ(stats.ops_rejected_closed, 1);  // shutdown, not backpressure
  EXPECT_EQ(stats.ops_rejected_full, 0);
  EXPECT_EQ(stats.ops_applied, 1);  // pre-stop op drained before the join
  // The read path survives shutdown.
  EXPECT_TRUE(server.Evaluate("director.movie.title").has_value());
}

// The acceptance-criteria test: concurrent readers + one update stream must
// observe ONLY states produced by a sequential interleaving of the same
// ops — every (epoch, result) pair a reader records must match the answer
// the offline sequential run computed at that exact epoch.
TEST(QueryServerTest, ConcurrentReadersSeeOnlySequentialStates) {
  Rng rng(4003);
  DataGraph original = testing_util::RandomGraph(200, 4, 30, &rng);
  LabelRequirements reqs;
  reqs[static_cast<LabelId>(rng.UniformInt(2, original.labels().size() - 1))] =
      2;
  std::string probe = testing_util::RandomChainQuery(original, 3, &rng);

  // Offline: map every epoch the op stream can produce to its exact answer.
  DataGraph offline_graph = original;
  DkIndex offline = DkIndex::Build(&offline_graph, reqs);
  std::map<uint64_t, std::vector<NodeId>> expected;
  auto record = [&] {
    expected[offline.epoch()] = EvaluateOnIndex(
        offline.index(),
        testing_util::MustParse(probe, offline_graph.labels()));
  };
  record();  // the initial published state
  std::vector<UpdateOp> ops;
  for (int i = 0; i < 60; ++i) {
    NodeId u = static_cast<NodeId>(
        rng.UniformInt(1, offline_graph.NumNodes() - 1));
    NodeId v = static_cast<NodeId>(
        rng.UniformInt(1, offline_graph.NumNodes() - 1));
    if (u == v) continue;
    if (offline_graph.HasEdge(u, v)) {
      ops.push_back(UpdateOp::RemoveEdge(u, v));
      offline.RemoveEdge(u, v);
    } else {
      ops.push_back(UpdateOp::AddEdge(u, v));
      offline.AddEdge(u, v);
    }
    record();  // a snapshot may be published after any op boundary
  }

  DataGraph online_graph = original;
  DkIndex dk = DkIndex::Build(&online_graph, reqs);
  QueryServer::Options options;
  options.max_batch = 4;  // several republishes along the stream
  QueryServer server(dk, options);

  constexpr int kReaders = 4;
  constexpr int kReadsPerReader = 40;
  std::vector<std::vector<std::pair<uint64_t, std::vector<NodeId>>>> seen(
      kReaders);
  std::atomic<bool> start{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < kReadsPerReader; ++i) {
        std::shared_ptr<const IndexSnapshot> snap = server.snapshot();
        auto result = server.EvaluateOn(*snap, probe);
        ASSERT_TRUE(result.has_value());
        seen[static_cast<size_t>(r)].emplace_back(snap->epoch(),
                                                  std::move(*result));
      }
    });
  }

  start.store(true, std::memory_order_release);
  for (const UpdateOp& op : ops) {
    ASSERT_TRUE(op.kind == UpdateOp::Kind::kAddEdge
                    ? server.SubmitAddEdge(op.u, op.v)
                    : server.SubmitRemoveEdge(op.u, op.v));
  }
  server.Flush();
  for (std::thread& t : readers) t.join();

  int64_t observations = 0;
  for (const auto& reader_log : seen) {
    for (const auto& [epoch, result] : reader_log) {
      auto it = expected.find(epoch);
      ASSERT_NE(it, expected.end())
          << "reader observed epoch " << epoch
          << " that no sequential prefix produces";
      EXPECT_EQ(result, it->second) << "at epoch " << epoch;
      ++observations;
    }
  }
  EXPECT_EQ(observations, kReaders * kReadsPerReader);
  // And the final state agrees with the full sequential run.
  EXPECT_EQ(server.snapshot()->epoch(), offline.epoch());
}

// ---------------------------------------------------------------------------
// kRetune: load-driven promote/demote through the update pipeline.
// ---------------------------------------------------------------------------

TEST(QueryServerTest, RetunePromotesThroughThePipeline) {
  DataGraph g = testing_util::BuildMovieGraph();
  DataGraph truth_graph = g;
  // Start maximally coarse (no requirements): answers need validation.
  DkIndex dk = DkIndex::Build(&g, {});
  QueryServer server(dk);
  const LabelId title = server.snapshot()->graph().labels().Find("title");
  ASSERT_GE(title, 0);

  ASSERT_TRUE(server.SubmitRetune({{title, 2}}, /*shrink=*/false));
  server.Flush();
  // The published snapshot now carries the promoted requirement...
  const auto& eff = server.snapshot()->effective_requirements();
  ASSERT_LT(static_cast<size_t>(title), eff.size());
  EXPECT_GE(eff[static_cast<size_t>(title)], 2);
  // ...and still serves ground truth.
  for (const char* text : {"director.movie.title", "actor.movie.title"}) {
    auto result = server.Evaluate(text);
    ASSERT_TRUE(result.has_value()) << text;
    EXPECT_EQ(*result,
              EvaluateOnDataGraph(
                  truth_graph,
                  testing_util::MustParse(text, truth_graph.labels())))
        << text;
  }
  EXPECT_EQ(server.stats().ops_applied, 1);
  EXPECT_EQ(server.stats().ops_invalid, 0);
}

TEST(QueryServerTest, RetuneOnlyBatchesShareThePublishedGraph) {
  DataGraph g = testing_util::BuildMovieGraph();
  DkIndex dk = DkIndex::Build(&g, {});
  QueryServer server(dk);
  const std::shared_ptr<const IndexSnapshot> before = server.snapshot();
  const LabelId title = g.labels().Find("title");
  ASSERT_TRUE(server.SubmitRetune({{title, 2}}, /*shrink=*/true));
  server.Flush();
  const std::shared_ptr<const IndexSnapshot> retuned = server.snapshot();
  EXPECT_NE(retuned.get(), before.get());
  EXPECT_EQ(retuned->shared_graph(), before->shared_graph());
  // An edge op changes the graph: the next publish copies it.
  const auto [u, v] = AnswerGrowingEdge(g);
  ASSERT_TRUE(server.SubmitAddEdge(u, v));
  server.Flush();
  EXPECT_NE(server.snapshot()->shared_graph(), before->shared_graph());
  EXPECT_TRUE(server.snapshot()->graph().HasEdge(u, v));
  EXPECT_FALSE(before->graph().HasEdge(u, v));
}

TEST(QueryServerTest, RetuneShrinkDemotesAndKeepsAnswersExact) {
  DataGraph g = testing_util::BuildMovieGraph();
  DataGraph truth_graph = g;
  LabelRequirements generous;
  generous[g.labels().Find("title")] = 3;
  generous[g.labels().Find("movie")] = 2;
  DkIndex dk = DkIndex::Build(&g, generous);
  QueryServer server(dk);
  const int64_t nodes_before = server.snapshot()->frozen().num_index_nodes();

  // Shrink to a much weaker target: the quotienting demote must coarsen the
  // index (or at least not grow it) without breaking validated answers.
  const LabelId title = truth_graph.labels().Find("title");
  ASSERT_TRUE(server.SubmitRetune({{title, 1}}, /*shrink=*/true));
  server.Flush();
  EXPECT_LE(server.snapshot()->frozen().num_index_nodes(), nodes_before);
  const auto& eff = server.snapshot()->effective_requirements();
  EXPECT_EQ(eff[static_cast<size_t>(title)], 1);
  for (const char* text :
       {"director.movie.title", "actor.movie.title", "movieDB//title"}) {
    auto result = server.Evaluate(text);
    ASSERT_TRUE(result.has_value()) << text;
    EXPECT_EQ(*result,
              EvaluateOnDataGraph(
                  truth_graph,
                  testing_util::MustParse(text, truth_graph.labels())))
        << text;
  }
}

TEST(QueryServerTest, RetuneWithInvalidTargetIsDroppedNotFatal) {
  DataGraph g = testing_util::BuildMovieGraph();
  DkIndex dk = BuildMovieIndex(&g);
  QueryServer server(dk);
  const LabelId title = g.labels().Find("title");
  const int nodes = static_cast<int>(g.NumNodes());
  ASSERT_TRUE(server.SubmitRetune({{9999, 2}}, /*shrink=*/true));
  // No refinement honours a k beyond the node count; broadcasting INT_MAX
  // would allocate one bucket per level. Both retune kinds drop it.
  ASSERT_TRUE(server.SubmitRetune({{title, INT_MAX}}, /*shrink=*/true));
  ASSERT_TRUE(server.SubmitRetune({{title, nodes + 1}}, /*shrink=*/false));
  server.Flush();
  EXPECT_EQ(server.stats().ops_invalid, 3);
  EXPECT_TRUE(server.Evaluate("director.movie.title").has_value());
  // k == node count is the largest k that still applies.
  ASSERT_TRUE(server.SubmitRetune({{title, nodes}}, /*shrink=*/true));
  server.Flush();
  EXPECT_EQ(server.stats().ops_invalid, 3);
  EXPECT_EQ(server.snapshot()->effective_requirements()[
                static_cast<size_t>(title)],
            nodes);
}

TEST(QueryServerTest, MinedRequirementsDriveRetune) {
  // The tuner's cycle by hand: record traffic, mine requirements, submit
  // them, observe the promoted snapshot.
  DataGraph g = testing_util::BuildMovieGraph();
  DkIndex dk = DkIndex::Build(&g, {});
  QueryServer server(dk);
  const LabelTable& labels = server.snapshot()->graph().labels();

  QueryLoadTracker tracker;
  tracker.Record(testing_util::MustParse("director.movie.title", labels),
                 labels, 100);
  LabelRequirements mined = tracker.MineRequirements(1.0);
  ASSERT_FALSE(mined.empty());
  ASSERT_TRUE(server.SubmitRetune(mined, /*shrink=*/true));
  server.Flush();
  const auto& eff = server.snapshot()->effective_requirements();
  for (const auto& [label, k] : mined) {
    ASSERT_LT(static_cast<size_t>(label), eff.size());
    EXPECT_GE(eff[static_cast<size_t>(label)], k) << "label " << label;
  }
}

// ---------------------------------------------------------------------------
// The adaptive tuner (Options::tuning): result-cache misses mined into
// WAL-logged retunes.
// ---------------------------------------------------------------------------

// Every query misses (a 1-byte result cache stores nothing) and the tuner
// ticks every 2 ms.
QueryServer::Options EagerTunerOptions() {
  QueryServer::Options options;
  options.cache_byte_budget = 1;
  options.tuning.period_ms = 2;
  options.tuning.min_misses = 8;
  return options;
}

// Serves `texts` round-robin until `done()` holds; false after 10 s.
template <typename Done>
bool ServeUntil(const QueryServer& server,
                const std::vector<std::string>& texts, Done done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    for (const std::string& text : texts) {
      EXPECT_TRUE(server.Evaluate(text).has_value()) << text;
    }
  }
  return true;
}

// Serves `texts` while the tuner ticks `ticks` more times.
void ServeForTicks(const QueryServer& server,
                   const std::vector<std::string>& texts, int ticks) {
  Counter& tick_counter =
      MetricsRegistry::Global().GetCounter("serve.tuner.ticks");
  const int64_t target = tick_counter.value() + ticks;
  EXPECT_TRUE(ServeUntil(server, texts,
                         [&] { return tick_counter.value() >= target; }));
}

int EffectiveRequirement(const QueryServer& server, LabelId label) {
  const std::shared_ptr<const IndexSnapshot> snap = server.snapshot();
  const std::vector<int>& eff = snap->effective_requirements();
  return static_cast<size_t>(label) < eff.size()
             ? eff[static_cast<size_t>(label)]
             : 0;
}

TEST(QueryServerTunerTest, CacheHitsRecordNothingAndNeverRetune) {
  DataGraph g = testing_util::BuildMovieGraph();
  DkIndex dk = DkIndex::Build(&g, {});
  QueryServer::Options options;
  options.tuning.period_ms = 2;
  options.tuning.min_misses = 2;
  QueryServer server(dk, options);
  const std::vector<std::string> texts = {"director.movie.title"};
  ServeForTicks(server, texts, 20);  // one miss, then only hits
  const QueryServer::Stats s = server.stats();
  EXPECT_EQ(server.cache_stats().misses, 1);
  EXPECT_EQ(s.tuner_recorded_misses, 1);
  EXPECT_EQ(s.tuner_dropped_misses, 0);
  EXPECT_EQ(s.auto_retunes, 0);
  EXPECT_EQ(s.ops_accepted, 0);
}

TEST(QueryServerTunerTest, StableTrafficRetunesOnceThenStaysPut) {
  DataGraph g = testing_util::BuildMovieGraph();
  DataGraph truth_graph = g;
  DkIndex dk = DkIndex::Build(&g, {});
  Counter& retunes =
      MetricsRegistry::Global().GetCounter("serve.tuner.retunes");
  const int64_t retunes_before = retunes.value();
  const int64_t sizes_before = MetricsRegistry::Global()
                                   .GetHistogram("serve.tuner.index_nodes")
                                   .snapshot()
                                   .count;
  QueryServer server(dk, EagerTunerOptions());
  const std::vector<std::string> texts = {"director.movie.title",
                                          "actor.movie.title"};
  ASSERT_TRUE(ServeUntil(server, texts, [&] {
    return server.stats().tuner_last_index_nodes > 0;
  }));
  ServeForTicks(server, texts, 20);

  const QueryServer::Stats s = server.stats();
  EXPECT_EQ(s.auto_retunes, 1);
  EXPECT_EQ(s.ops_applied, 1);
  EXPECT_GT(s.tuner_recorded_misses, 0);
  EXPECT_EQ(s.tuner_last_index_nodes,
            server.snapshot()->frozen().num_index_nodes());
  EXPECT_EQ(retunes.value() - retunes_before, 1);
  EXPECT_EQ(MetricsRegistry::Global()
                    .GetHistogram("serve.tuner.index_nodes")
                    .snapshot()
                    .count -
                sizes_before,
            1);
  // Both chains end at title two steps down: the mined map is {title: 2}.
  EXPECT_EQ(EffectiveRequirement(server, truth_graph.labels().Find("title")),
            2);
  for (const std::string& text : texts) {
    EXPECT_EQ(*server.Evaluate(text),
              EvaluateOnDataGraph(truth_graph, testing_util::MustParse(
                                                   text, truth_graph.labels())))
        << text;
  }
}

TEST(QueryServerTunerTest, ExplicitRetuneHoldsUntilTheTrafficMoves) {
  DataGraph g = testing_util::BuildMovieGraph();
  DkIndex dk = DkIndex::Build(&g, {});
  QueryServer server(dk, EagerTunerOptions());
  const LabelId title = g.labels().Find("title");
  const std::vector<std::string> texts = {"director.movie.title"};
  ASSERT_TRUE(ServeUntil(server, texts,
                         [&] { return server.stats().auto_retunes == 1; }));

  // The operator's override survives while the mined map stays {title: 2}.
  ASSERT_TRUE(server.SubmitRetune({{title, 1}}, /*shrink=*/true));
  server.Flush();
  ServeForTicks(server, texts, 20);
  EXPECT_EQ(EffectiveRequirement(server, title), 1);
  EXPECT_EQ(server.stats().auto_retunes, 1);

  // Deeper traffic moves the mined map to {title: 3}: the tuner acts again.
  const std::vector<std::string> deeper = {"movieDB.director.movie.title"};
  EXPECT_TRUE(ServeUntil(server, deeper, [&] {
    return EffectiveRequirement(server, title) == 3 &&
           server.stats().auto_retunes == 2;
  }));
}

TEST(QueryServerTunerTest, MovedTrafficDemotesTheOldLabel) {
  DataGraph g = testing_util::BuildMovieGraph();
  DkIndex dk = DkIndex::Build(&g, {});
  QueryServer server(dk, EagerTunerOptions());
  const LabelId title = g.labels().Find("title");
  const LabelId name = g.labels().Find("name");
  ASSERT_TRUE(ServeUntil(server, {"director.movie.title"}, [&] {
    return EffectiveRequirement(server, title) == 2;
  }));
  // The traffic moves to another chain: name rises at once, and title falls
  // back to 0 once its misses have decayed away.
  EXPECT_TRUE(ServeUntil(server, {"actor.name"}, [&] {
    return EffectiveRequirement(server, name) == 1 &&
           EffectiveRequirement(server, title) == 0;
  }));
  EXPECT_GE(server.stats().auto_retunes, 2);
}

TEST(QueryServerTunerTest, MissesWithoutIndexedLabelsNeverRetune) {
  // Single unknown labels parse, match nothing and give the tracker no
  // traffic; the source index's requirements must survive the misses.
  DataGraph g = testing_util::BuildMovieGraph();
  const LabelId title = g.labels().Find("title");
  DkIndex dk = DkIndex::Build(&g, {{title, 2}});
  QueryServer server(dk, EagerTunerOptions());
  int next = 0;
  Counter& tick_counter =
      MetricsRegistry::Global().GetCounter("serve.tuner.ticks");
  const int64_t target = tick_counter.value() + 20;
  while (tick_counter.value() < target) {
    ASSERT_TRUE(server.Evaluate("cold" + std::to_string(next++)).has_value());
  }
  EXPECT_GT(server.stats().tuner_recorded_misses, 8);
  EXPECT_EQ(server.stats().auto_retunes, 0);
  EXPECT_EQ(EffectiveRequirement(server, title), 2);
}

TEST(QueryServerTunerTest, OneReaderRetunesAtTheDefaultSettings) {
  // One thread's misses all land in one stripe, whose buffer keeps at most
  // kMissesPerStripe per tick; min_misses counts the misses seen, so the
  // default minimum is still reached.
  DataGraph g = testing_util::BuildMovieGraph();
  DkIndex dk = DkIndex::Build(&g, {});
  QueryServer::Options options;
  options.cache_byte_budget = 1;  // every query misses
  ASSERT_GT(options.tuning.period_ms, 0);
  QueryServer server(dk, options);
  ASSERT_TRUE(ServeUntil(server, {"director.movie.title"}, [&] {
    return server.stats().tuner_last_index_nodes > 0;
  }));
  EXPECT_EQ(server.stats().auto_retunes, 1);
  EXPECT_GT(server.stats().tuner_dropped_misses, 0);
  EXPECT_EQ(EffectiveRequirement(server, g.labels().Find("title")), 2);
}

TEST(QueryServerTunerTest, StopJoinsTheTunerBeforeClosingTheQueue) {
  DataGraph g = testing_util::BuildMovieGraph();
  DkIndex dk = DkIndex::Build(&g, {});
  QueryServer server(dk, EagerTunerOptions());
  // Shallow and deep traffic alternating every 50 ms keeps the mined map
  // moving (up at once, down once the deep misses have decayed), so the
  // tuner is likely mid-submit when Stop lands.
  std::atomic<bool> done{false};
  std::thread reader([&] {
    const auto start = std::chrono::steady_clock::now();
    while (!done.load()) {
      const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
      EXPECT_TRUE(server
                      .Evaluate(ms / 50 % 2 == 0
                                    ? "director.movie.title"
                                    : "movieDB.director.movie.title")
                      .has_value());
    }
  });
  EXPECT_TRUE(ServeUntil(server, {}, [&] {
    return server.stats().auto_retunes >= 2;
  }));
  server.Stop();
  const QueryServer::Stats stopped = server.stats();
  // The reader keeps missing for a while after Stop.
  auto misses = [&] {
    const QueryServer::Stats s = server.stats();
    return s.tuner_recorded_misses + s.tuner_dropped_misses;
  };
  const int64_t target = misses() + 100;
  while (misses() < target) std::this_thread::yield();
  done = true;
  reader.join();

  const QueryServer::Stats after = server.stats();
  EXPECT_EQ(stopped.ops_rejected_closed, 0);  // nothing submitted after close
  EXPECT_EQ(stopped.ops_applied, stopped.ops_accepted);
  EXPECT_EQ(after.auto_retunes, stopped.auto_retunes);
  EXPECT_EQ(after.ops_accepted, stopped.ops_accepted);
}

// ---------------------------------------------------------------------------
// The server's read path parses each result-cache miss afresh: it keeps no
// parse cache (query/parse_cache.h has its own suite,
// tests/parse_cache_test.cc).
// ---------------------------------------------------------------------------

Counter& TestCounter(const std::string& name) {
  Counter& c = MetricsRegistry::Global().GetCounter(name);
  c.Reset();
  return c;
}

TEST(QueryServerTest, ColdQueryCyclingParsesMissesWithoutAParseCache) {
  // 5000 distinct cold texts cycle past a hot one. The hot text is answered
  // by the result cache before any parse; each cold text misses and is
  // parsed without touching a parse cache.
  Counter& hits = TestCounter("serve.parse_cache.hits");
  Counter& misses = TestCounter("serve.parse_cache.misses");
  Counter& evictions = TestCounter("serve.parse_cache.evictions");

  DataGraph g = testing_util::BuildMovieGraph();
  DkIndex dk = BuildMovieIndex(&g);
  // Pinned: 5000 misses would let the tuner retune mid-loop, and its
  // publish turns one hot hit into a miss.
  QueryServer::Options options;
  options.tuning.period_ms = 0;
  QueryServer server(dk, options);
  const std::string hot = "director.movie.title";
  const std::vector<NodeId> hot_answer =
      EvaluateOnDataGraph(g, testing_util::MustParse(hot, g.labels()));
  // Each cold text alternates a distinct unknown tag (matches nothing) with
  // "movie.title", so its answer is that chain's.
  const std::vector<NodeId> cold_answer = EvaluateOnDataGraph(
      g, testing_util::MustParse("movie.title", g.labels()));
  ASSERT_FALSE(hot_answer.empty());
  ASSERT_FALSE(cold_answer.empty());
  const int kCold = 5000;
  for (int i = 0; i < kCold; ++i) {
    ASSERT_EQ(server.Evaluate(hot), hot_answer);
    ASSERT_EQ(
        server.Evaluate("(cold" + std::to_string(i) + "|movie.title)"),
        cold_answer);
  }
  EXPECT_EQ(hits.value(), 0);
  EXPECT_EQ(misses.value(), 0);
  EXPECT_EQ(evictions.value(), 0);
  EXPECT_GE(server.cache_stats().hits, kCold - 1);
}

// Probe-first hits read the published epoch, not the snapshot: while the
// writer flips an edge that changes one query's answer, every hit must be
// one of that query's two answers, and after Flush the final one.
TEST(QueryServerTest, ConcurrentHitsFollowTheWriter) {
  DataGraph g = testing_util::BuildMovieGraph();
  const auto [u, v] = AnswerGrowingEdge(g);
  ASSERT_NE(u, kInvalidNode);
  ASSERT_NE(v, kInvalidNode);
  const std::vector<std::string> texts = {
      "actor.movie.title", "director.movie.title", "movieDB//title",
      "director.name"};
  auto answers = [&texts](const DataGraph& graph) {
    std::vector<std::vector<NodeId>> out;
    for (const std::string& text : texts) {
      out.push_back(EvaluateOnDataGraph(
          graph, testing_util::MustParse(text, graph.labels())));
    }
    return out;
  };
  const std::vector<std::vector<NodeId>> without = answers(g);
  DataGraph grown = g;
  grown.AddEdge(u, v);
  const std::vector<std::vector<NodeId>> with = answers(grown);
  ASSERT_NE(with[0], without[0]);
  for (size_t i = 1; i < texts.size(); ++i) ASSERT_EQ(with[i], without[i]);

  DkIndex dk = BuildMovieIndex(&g);
  QueryServer server(dk);
  std::atomic<bool> stop{false};
  std::atomic<int64_t> reads{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      for (size_t i = static_cast<size_t>(r);
           !stop.load(std::memory_order_relaxed); ++i) {
        const size_t q = i % texts.size();
        auto result = server.Evaluate(texts[q]);
        if (!result.has_value() ||
            (*result != without[q] && *result != with[q])) {
          failures.fetch_add(1);
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // The toggles take milliseconds: on a loaded host they could all finish
  // before any reader ran, so wait until the readers are reading.
  while (reads.load() < 3) std::this_thread::yield();
  constexpr int kToggles = 41;  // odd: the edge ends up present
  for (int t = 0; t < kToggles; ++t) {
    ASSERT_TRUE(t % 2 == 0 ? server.SubmitAddEdge(u, v)
                           : server.SubmitRemoveEdge(u, v));
    server.Flush();
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(reads.load(), 0);

  for (size_t q = 0; q < texts.size(); ++q) {
    auto result = server.Evaluate(texts[q]);
    ASSERT_TRUE(result.has_value()) << texts[q];
    EXPECT_EQ(*result, with[q]) << texts[q];
  }
}

TEST(WalCodecTest, RetuneRecordRoundTrips) {
  LabelRequirements targets{{3, 2}, {1, 4}, {7, 0}};
  const UpdateOp op = UpdateOp::Retune(targets, /*shrink=*/true);
  const std::string record = WriteAheadLog::EncodeRecord(op, 42);
  ASSERT_GT(record.size(), 8u);  // u32 len + u32 crc header
  WriteAheadLog::Record decoded;
  ASSERT_TRUE(WriteAheadLog::DecodePayload(
      std::string_view(record).substr(8), &decoded));
  EXPECT_EQ(decoded.seq, 42u);
  EXPECT_EQ(decoded.op.kind, UpdateOp::Kind::kRetune);
  EXPECT_TRUE(decoded.op.retune_shrink);
  EXPECT_EQ(decoded.op.retune_targets, targets);
  // Deterministic encoding: re-encoding the decoded op is byte-identical
  // (the WAL rewrite path depends on this).
  EXPECT_EQ(WriteAheadLog::EncodeRecord(decoded.op, 42), record);

  const UpdateOp no_shrink = UpdateOp::Retune({{0, 1}}, /*shrink=*/false);
  const std::string record2 = WriteAheadLog::EncodeRecord(no_shrink, 7);
  WriteAheadLog::Record decoded2;
  ASSERT_TRUE(WriteAheadLog::DecodePayload(
      std::string_view(record2).substr(8), &decoded2));
  EXPECT_FALSE(decoded2.op.retune_shrink);
}

TEST(WalCodecTest, RetuneCountThatWrapsIsMalformed) {
  // An empty retune with its count patched to 2^29: 8 * count wraps to 0 in
  // 32 bits, which matches the empty remainder. The decoder must reject it
  // before reserving 2^29 buckets and looping 2^29 times.
  std::string payload =
      WriteAheadLog::EncodeRecord(UpdateOp::Retune({}, true), 5).substr(8);
  ASSERT_EQ(payload.size(), 14u);  // u64 seq | u8 kind | u8 shrink | u32
  const uint32_t count = 0x20000000u;
  for (int i = 0; i < 4; ++i) {
    payload[10 + i] = static_cast<char>((count >> (8 * i)) & 0xFF);
  }
  WriteAheadLog::Record decoded;
  std::string error;
  EXPECT_FALSE(WriteAheadLog::DecodePayload(payload, &decoded, &error));
  EXPECT_NE(error.find("malformed retune record"), std::string::npos)
      << error;
}

}  // namespace
}  // namespace dki
