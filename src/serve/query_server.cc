#include "serve/query_server.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>
#include <utility>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "common/logging.h"
#include "common/metrics.h"
#include "io/fs_util.h"
#include "query/load_tracker.h"
#include "serve/apply.h"

namespace dki {
namespace {

// Hands the pages of blocks the allocator keeps after free() back to the
// OS. A retune builds a new master index, refinement trace and frozen view
// while the old ones live; glibc keeps the replaced ones resident in the
// writer's arena, where the readers' allocations cannot reuse them.
void ReleaseFreePages() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

}  // namespace

QueryServer::QueryServer(const DkIndex& source, Options options)
    : options_(options),
      master_graph_(source.graph()),
      master_(source.Fork(&master_graph_)),
      seq_(options.durability.start_seq),
      queue_(options.queue_capacity, options.full_policy),
      cache_(ResultCache::Options{options.cache_byte_budget}) {
  Publish();  // readers have a snapshot before the writer even starts
  if (!options_.durability.dir.empty()) InitDurability();
  if (options_.tuning.period_ms > 0) {
    tuner_ = std::thread(&QueryServer::TunerLoop, this,
                         master_.effective_requirements());
  }
  writer_ = std::thread(&QueryServer::WriterLoop, this);
  if (wal_ != nullptr) {
    checkpointer_ = std::thread(&QueryServer::CheckpointerLoop, this);
  }
}

QueryServer::~QueryServer() { Stop(); }

void QueryServer::InitDurability() {
  const DurabilityOptions& d = options_.durability;
  std::string error;
  auto give_up = [&](const char* what) {
    std::fprintf(stderr,
                 "QueryServer: durability DISABLED (%s: %s); serving "
                 "in-memory only\n",
                 what, error.c_str());
    wal_ = nullptr;
    checkpoints_ = nullptr;
  };
  if (!EnsureDir(d.dir, &error)) {
    give_up("cannot create wal dir");
    return;
  }
  wal_ = std::make_unique<WriteAheadLog>(d.dir + "/wal.log", d.sync_every_n,
                                         d.sync_interval_ms);
  checkpoints_ = std::make_unique<CheckpointStore>(d.dir);
  if (!wal_->Open(&error)) {
    give_up("cannot open wal");
    return;
  }
  // Establish the recovery base: the initial snapshot IS the durable state
  // at start_seq (a fresh build, or the result RecoverDkIndex handed back),
  // so checkpoint it and start from an empty log. Every op the server ever
  // applies is then reachable as checkpoint + log suffix.
  const IndexSnapshot& snap = *snapshot_;
  if (!checkpoints_->Write(snap.graph(), snap.index_section(),
                           snap.effective_requirements(), snap.seq(),
                           &error)) {
    give_up("cannot write initial checkpoint");
    return;
  }
  last_checkpoint_seq_ = seq_;
  ++checkpoints_written_;  // pre-thread: no lock needed
  if (!wal_->Reset(&error)) {
    give_up("cannot reset wal");
    return;
  }
}

std::shared_ptr<const IndexSnapshot> QueryServer::snapshot() const {
  std::shared_lock<std::shared_mutex> lock(snapshot_mu_);
  return snapshot_;
}

std::optional<std::vector<NodeId>> QueryServer::Evaluate(
    const std::string& query_text, EvalStats* stats,
    std::string* error) const {
  return Serve(nullptr, query_text, stats, error);
}

std::optional<std::vector<NodeId>> QueryServer::EvaluateOn(
    const IndexSnapshot& snap, const std::string& query_text,
    EvalStats* stats, std::string* error) const {
  return Serve(&snap, query_text, stats, error);
}

std::optional<std::vector<NodeId>> QueryServer::Serve(
    const IndexSnapshot* held, const std::string& query_text,
    EvalStats* stats, std::string* error) const {
  ScopedLatency latency(&DKI_METRIC_HISTOGRAM("serve.query.latency"));
  // Probe before parsing: the canonical key is injective on token streams,
  // so a hit is the answer to this very query and needs no parse. Without a
  // held snapshot the probe uses the published epoch alone, so a hit takes
  // neither snapshot_mu_ nor the snapshot's refcount.
  const std::string key = CanonicalizeQuery(query_text);
  const uint64_t epoch =
      held != nullptr ? held->frozen().epoch()
                      : published_epoch_.load(std::memory_order_acquire);
  std::vector<NodeId> result;
  if (cache_.TryGet(key, epoch, &result)) {
    if (stats != nullptr) {
      EvalStats hit;
      hit.result_size = static_cast<int64_t>(result.size());
      stats->Accumulate(hit);
    }
    return result;
  }
  std::shared_ptr<const IndexSnapshot> latest;
  if (held == nullptr) {
    latest = snapshot();
    held = latest.get();
  }
  // Parse against the snapshot's own label table: labels added by a queued
  // AddSubgraph become queryable exactly when a snapshot containing them is
  // published. Caching parses would cost more than it saves: a miss is
  // mostly a text not seen lately (EXPERIMENTS.md, "Parse each miss").
  std::optional<PathExpression> parsed =
      PathExpression::Parse(query_text, held->graph().labels(), error);
  if (!parsed.has_value()) {
    DKI_METRIC_COUNTER("serve.query.parse_errors").Increment();
    return std::nullopt;
  }
  auto query = std::make_shared<const PathExpression>(std::move(*parsed));
  const FrozenView& view = held->frozen();
  result = view.Evaluate(*query, stats);
  cache_.Put(key, view.epoch(), result);
  RecordMiss(std::move(query));
  return result;
}

void QueryServer::RecordMiss(
    std::shared_ptr<const PathExpression> query) const {
  if (options_.tuning.period_ms <= 0) return;
  MissStripe& stripe = miss_stripes_[static_cast<size_t>(
      metrics_internal::ThisThreadStripe())];
  bool kept = false;
  {
    std::lock_guard<std::mutex> lock(stripe.mu);
    kept = stripe.queries.size() < kMissesPerStripe;
    if (kept) {
      stripe.queries.push_back(std::move(query));
      ++stripe.recorded;
    } else {
      ++stripe.dropped;
    }
  }
  if (kept) {
    DKI_METRIC_COUNTER("serve.tuner.recorded_misses").Increment();
  } else {
    DKI_METRIC_COUNTER("serve.tuner.dropped_misses").Increment();
  }
}

void QueryServer::TunerLoop(std::vector<int> initial_requirements) {
  QueryLoadTracker tracker;
  // The requirements in force: the source index's, until the tuner's own.
  LabelRequirements last_submitted;
  for (size_t label = 0; label < initial_requirements.size(); ++label) {
    if (initial_requirements[label] > 0) {
      last_submitted[static_cast<LabelId>(label)] =
          initial_requirements[label];
    }
  }
  // The misses each label of last_submitted carried when the tuner
  // submitted it (0 for the source index's labels).
  std::unordered_map<LabelId, int64_t> submitted_traffic;
  std::vector<std::shared_ptr<const PathExpression>> drained;
  // Misses seen (buffered or dropped), decayed like the tracker: a single
  // stripe's buffer caps what the tracker keeps, not what reaches
  // min_misses.
  double seen = 0;
  int64_t seen_counted = 0;  // the stripes' recorded + dropped last tick
  bool trim_due = false;
  while (WaitBackgroundTick(std::chrono::milliseconds(
      options_.tuning.period_ms))) {
    DKI_METRIC_COUNTER("serve.tuner.ticks").Increment();
    // By now readers have let go of what the last retune replaced.
    if (std::exchange(trim_due, false)) ReleaseFreePages();
    int64_t seen_now = 0;
    for (MissStripe& stripe : miss_stripes_) {
      std::lock_guard<std::mutex> lock(stripe.mu);
      drained.insert(drained.end(),
                     std::make_move_iterator(stripe.queries.begin()),
                     std::make_move_iterator(stripe.queries.end()));
      stripe.queries.clear();
      seen_now += stripe.recorded + stripe.dropped;
    }
    const int64_t seen_new = seen_now - std::exchange(seen_counted, seen_now);
    seen = seen * TuningOptions::kDecay + static_cast<double>(seen_new);
    tracker.Decay(TuningOptions::kDecay);
    {
      // Every expression was parsed against this label table or a prefix
      // of it (the writer only appends labels).
      const std::shared_ptr<const IndexSnapshot> snap = snapshot();
      for (const auto& query : drained) {
        tracker.Record(*query, snap->graph().labels());
      }
    }
    drained.clear();
    if (seen < static_cast<double>(options_.tuning.min_misses)) continue;
    LabelRequirements mined =
        tracker.MineRequirements(TuningOptions::kCoverage, &last_submitted);
    // An explicit retune since the last auto-retune is left alone until the
    // traffic moves the mined map, and a move only counts once the labels
    // it changes carry the traffic share coverage leaves to validation
    // anyway: a trickle of rarely queried labels is not worth a
    // re-partition. A label whose misses decayed away counts with the
    // misses it carried when submitted, so a label raised by a few misses
    // (or held from the source index) falls only alongside a larger move,
    // not on its own. No changed traffic means no evidence at all, e.g.
    // misses on labels the graph does not have.
    int64_t changed = tracker.TrafficChangedBetween(mined, last_submitted);
    for (const auto& [label, k] : last_submitted) {
      if (tracker.label_traffic(label) == 0) {
        changed += submitted_traffic[label];
      }
    }
    if (changed == 0 || static_cast<double>(changed) <
                            (1 - TuningOptions::kCoverage) *
                                static_cast<double>(tracker.total_queries())) {
      continue;
    }
    if (!SubmitRetune(mined, /*shrink=*/true)) continue;
    last_submitted = std::move(mined);
    submitted_traffic.clear();
    for (const auto& [label, k] : last_submitted) {
      submitted_traffic[label] = tracker.label_traffic(label);
    }
    DKI_METRIC_COUNTER("serve.tuner.retunes").Increment();
    // Wait for the snapshot that publishes the retune (the writer runs
    // until Stop has joined this thread) and log its size. `submitted`
    // counts every op queued ahead of the retune, and maybe concurrent
    // Submits that roll back — hence the min with the live count.
    {
      std::unique_lock<std::mutex> lock(state_mu_);
      ++auto_retunes_;
      const int64_t submitted = accepted_;
      state_cv_.wait(lock, [&] {
        return applied_published_ >= std::min(submitted, accepted_);
      });
    }
    const int64_t nodes = snapshot()->frozen().num_index_nodes();
    DKI_METRIC_HISTOGRAM("serve.tuner.index_nodes").Record(nodes);
    trim_due = true;
    std::lock_guard<std::mutex> lock(state_mu_);
    tuner_last_index_nodes_ = nodes;
  }
}

bool QueryServer::WaitBackgroundTick(std::chrono::milliseconds period) {
  std::unique_lock<std::mutex> lock(background_mu_);
  background_cv_.wait_for(lock, period, [&] { return background_stop_; });
  return !background_stop_;
}

bool QueryServer::SubmitAddEdge(NodeId u, NodeId v) {
  return Submit(UpdateOp::AddEdge(u, v));
}

bool QueryServer::SubmitRemoveEdge(NodeId u, NodeId v) {
  return Submit(UpdateOp::RemoveEdge(u, v));
}

bool QueryServer::SubmitAddSubgraph(DataGraph h) {
  return Submit(UpdateOp::AddSubgraph(std::move(h)));
}

bool QueryServer::SubmitRetune(LabelRequirements targets, bool shrink) {
  DKI_METRIC_COUNTER("serve.retune.submitted").Increment();
  return Submit(UpdateOp::Retune(std::move(targets), shrink));
}

bool QueryServer::Submit(UpdateOp op) {
  {
    // Counted before the push so a Flush racing with this Submit waits for
    // the op; rolled back below if the queue rejects it.
    std::lock_guard<std::mutex> lock(state_mu_);
    ++accepted_;
  }
  UpdateQueue::PushResult result = queue_.Push(std::move(op));
  if (result == UpdateQueue::PushResult::kOk) {
    DKI_METRIC_COUNTER("serve.update.submitted").Increment();
    return true;
  }
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    --accepted_;
    if (result == UpdateQueue::PushResult::kFull) {
      ++rejected_full_;
    } else {
      ++rejected_closed_;
    }
  }
  state_cv_.notify_all();  // the rollback may complete a pending Flush
  // Split by cause so dashboards can tell backpressure (retry/back off)
  // from shutdown-time rejects (terminal).
  if (result == UpdateQueue::PushResult::kFull) {
    DKI_METRIC_COUNTER("serve.update.rejected_full").Increment();
  } else {
    DKI_METRIC_COUNTER("serve.update.rejected_closed").Increment();
  }
  return false;
}

void QueryServer::Flush() {
  std::unique_lock<std::mutex> lock(state_mu_);
  state_cv_.wait(lock, [&] { return applied_published_ >= accepted_; });
}

bool QueryServer::SyncWal() {
  if (wal_ == nullptr) return true;
  std::string error;
  if (wal_->Sync(/*force=*/true, &error)) return true;
  std::fprintf(stderr, "QueryServer: wal sync failed: %s\n", error.c_str());
  return false;
}

bool QueryServer::CheckpointNow() {
  if (checkpoints_ == nullptr) return true;
  std::shared_ptr<const IndexSnapshot> snap = snapshot();
  return WriteCheckpoint(*snap);
}

bool QueryServer::WriteCheckpoint(const IndexSnapshot& snap) {
  std::lock_guard<std::mutex> lock(checkpoint_mu_);
  std::string error;
  // The log must be durable through the snapshot's seq BEFORE the
  // checkpoint claims to include it: if the checkpoint write tears, the
  // fallback path needs those records.
  if (wal_ != nullptr && !wal_->Sync(/*force=*/true, &error)) {
    std::fprintf(stderr, "QueryServer: wal sync failed: %s\n", error.c_str());
    return false;
  }
  if (!checkpoints_->Write(snap.graph(), snap.index_section(),
                           snap.effective_requirements(), snap.seq(),
                           &error)) {
    std::fprintf(stderr, "QueryServer: checkpoint failed: %s\n",
                 error.c_str());
    return false;
  }
  last_checkpoint_seq_ = snap.seq();
  {
    std::lock_guard<std::mutex> state_lock(state_mu_);
    ++checkpoints_written_;
  }
  // Truncate only through the OLDER retained checkpoint: if this one turns
  // out corrupt at recovery, the previous one still has its full log
  // suffix.
  if (wal_ != nullptr &&
      !wal_->TruncateThrough(checkpoints_->SafeTruncationSeq(), &error)) {
    std::fprintf(stderr, "QueryServer: wal truncation failed: %s\n",
                 error.c_str());
  }
  return true;
}

void QueryServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  {
    std::lock_guard<std::mutex> lock(background_mu_);
    background_stop_ = true;
  }
  background_cv_.notify_all();
  // The tuner goes first: once the queue is closed it must submit nothing.
  if (tuner_.joinable()) tuner_.join();
  queue_.Close();  // writer drains the remainder, publishes, and exits
  if (writer_.joinable()) writer_.join();
  if (checkpointer_.joinable()) checkpointer_.join();
  // Clean shutdown leaves a checkpoint of the final state and an empty log
  // tail, so the next start (or a recovery) replays nothing.
  if (wal_ != nullptr) {
    SyncWal();
    CheckpointNow();
  }
}

QueryServer::Stats QueryServer::stats() const {
  std::unique_lock<std::mutex> lock(state_mu_);
  Stats s;
  s.ops_accepted = accepted_;
  s.ops_rejected = rejected_full_ + rejected_closed_;
  s.ops_rejected_full = rejected_full_;
  s.ops_rejected_closed = rejected_closed_;
  s.ops_applied = applied_published_;
  s.ops_invalid = invalid_;
  s.ops_coalesced = coalesced_;
  s.ops_logged = logged_;
  s.batches = batches_;
  s.publishes = publishes_;
  s.checkpoints = checkpoints_written_;
  s.auto_retunes = auto_retunes_;
  s.tuner_last_index_nodes = tuner_last_index_nodes_;
  lock.unlock();
  for (MissStripe& stripe : miss_stripes_) {
    std::lock_guard<std::mutex> stripe_lock(stripe.mu);
    s.tuner_recorded_misses += stripe.recorded;
    s.tuner_dropped_misses += stripe.dropped;
  }
  return s;
}

void QueryServer::WriterLoop() {
  std::vector<UpdateOp> batch;
  while (queue_.PopBatch(options_.max_batch, &batch)) {
    // Write-ahead: log the whole batch, then make it as durable as the
    // group-commit policy demands, BEFORE any op mutates the master. An op
    // that cannot be logged must not be applied either — recovery replays
    // exactly the logged prefix, so applying an unlogged op would fork the
    // recovered state from the served one.
    std::vector<bool> loggable(batch.size(), true);
    if (wal_ != nullptr) {
      int64_t batch_logged = 0;
      for (size_t i = 0; i < batch.size(); ++i) {
        std::string error;
        if (wal_->Append(batch[i], seq_ + 1, &error)) {
          ++seq_;
          ++batch_logged;
        } else {
          loggable[i] = false;
          DKI_METRIC_COUNTER("wal.append_failures").Increment();
          std::fprintf(stderr, "QueryServer: dropping unloggable op: %s\n",
                       error.c_str());
        }
      }
      std::string error;
      if (!wal_->Sync(/*force=*/false, &error)) {
        std::fprintf(stderr, "QueryServer: wal sync failed: %s\n",
                     error.c_str());
      }
      if (batch_logged > 0) {
        std::lock_guard<std::mutex> lock(state_mu_);
        logged_ += batch_logged;
      }
    }
    // End-to-end writer cost of the batch: apply (index rebuilds included)
    // plus the snapshot republish. bench/maintenance reads this histogram's
    // p99 — it is what a submitter waits for before its update is visible.
    ScopedLatency publish_latency(
        &DKI_METRIC_HISTOGRAM("serve.writer.publish.latency"));
    {
      ScopedLatency batch_latency(
          &DKI_METRIC_HISTOGRAM("serve.writer.batch.latency"));
      // Overlapping retune waves in one batch collapse into the final
      // shrink-retune's re-partition (exactness argument in apply.h). The
      // WAL above logged every op uncoalesced — replay redoes the skipped
      // work but converges to the same partition — and skipped ops are
      // still VALIDATED so ops_invalid matches the uncoalesced run.
      std::vector<char> skip = CoalesceSupersededRetunes(master_, batch);
      int64_t coalesced = 0;
      for (size_t i = 0; i < batch.size(); ++i) {
        if (!loggable[i]) {
          std::lock_guard<std::mutex> lock(state_mu_);
          ++invalid_;
          continue;
        }
        if (skip[i]) {
          if (!ValidateUpdateOp(master_, batch[i])) {
            std::lock_guard<std::mutex> lock(state_mu_);
            ++invalid_;
            DKI_METRIC_COUNTER("serve.update.invalid").Increment();
          } else {
            ++coalesced;
          }
          continue;
        }
        ScopedLatency op_latency(
            &DKI_METRIC_HISTOGRAM("serve.writer.op.latency"));
        if (batch[i].kind != UpdateOp::Kind::kRetune) graph_changed_ = true;
        if (!ApplyUpdateOp(&master_, batch[i])) {
          std::lock_guard<std::mutex> lock(state_mu_);
          ++invalid_;
          DKI_METRIC_COUNTER("serve.update.invalid").Increment();
        }
      }
      if (coalesced > 0) {
        DKI_METRIC_COUNTER("serve.writer.coalesced_retunes")
            .Increment(coalesced);
        std::lock_guard<std::mutex> lock(state_mu_);
        coalesced_ += coalesced;
      }
    }
    DKI_METRIC_COUNTER("serve.writer.batches").Increment();
    DKI_METRIC_COUNTER("serve.update.applied")
        .Increment(static_cast<int64_t>(batch.size()));
    Publish();
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      ++batches_;
      applied_published_ += static_cast<int64_t>(batch.size());
    }
    state_cv_.notify_all();
  }
}

void QueryServer::CheckpointerLoop() {
  const DurabilityOptions& d = options_.durability;
  const auto tick = std::chrono::milliseconds(
      std::max<int64_t>(1, std::min(d.sync_interval_ms > 0
                                        ? d.sync_interval_ms
                                        : d.checkpoint_interval_ms,
                                    d.checkpoint_interval_ms)));
  auto last_checkpoint = std::chrono::steady_clock::now();
  while (WaitBackgroundTick(tick)) {
    // Time-based side of the group-commit policy: ops the writer appended
    // but did not sync become durable once they are sync_interval_ms old,
    // even if the writer has gone idle since.
    std::string error;
    if (!wal_->Sync(/*force=*/false, &error)) {
      std::fprintf(stderr, "QueryServer: wal sync failed: %s\n",
                   error.c_str());
    }
    auto now = std::chrono::steady_clock::now();
    if (now - last_checkpoint <
        std::chrono::milliseconds(d.checkpoint_interval_ms)) {
      continue;
    }
    std::shared_ptr<const IndexSnapshot> snap = snapshot();
    bool due;
    {
      std::lock_guard<std::mutex> lock(checkpoint_mu_);
      due = snap->seq() > last_checkpoint_seq_;
    }
    if (due && WriteCheckpoint(*snap)) last_checkpoint = now;
  }
}

void QueryServer::Publish() {
  std::shared_ptr<const IndexSnapshot> next;
  {
    ScopedLatency latency(
        &DKI_METRIC_HISTOGRAM("serve.writer.republish.latency"));
    // A batch of retunes only leaves the graph as published: share it.
    std::shared_ptr<const DataGraph> graph =
        graph_changed_ ? std::make_shared<const DataGraph>(master_graph_)
                       : snapshot_->shared_graph();
    graph_changed_ = false;
    // Freezes the master's index directly, on this thread: the view is the
    // snapshot's only copy of the index.
    next = std::make_shared<const IndexSnapshot>(
        std::move(graph), master_.index(), master_.effective_requirements(),
        seq_, options_.frozen);
  }
  {
    // Swap, not assign: the old snapshot is then freed after the lock is
    // released instead of while every reader's snapshot() waits.
    std::unique_lock<std::shared_mutex> lock(snapshot_mu_);
    snapshot_.swap(next);
    published_epoch_.store(snapshot_->frozen().epoch(),
                           std::memory_order_release);
  }
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    ++publishes_;
  }
  DKI_METRIC_COUNTER("serve.snapshot.publishes").Increment();
}

}  // namespace dki
