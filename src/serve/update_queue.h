#ifndef DKINDEX_SERVE_UPDATE_QUEUE_H_
#define DKINDEX_SERVE_UPDATE_QUEUE_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "graph/data_graph.h"
#include "index/dk_index.h"

namespace dki {

// One queued mutation for the serving pipeline: the Section 5 update
// operations plus load-driven retuning (Sections 5.3-5.4), expressed as
// data so producers never touch the index. The subgraph payload is shared
// (not copied) between the queue and any caller that keeps it.
struct UpdateOp {
  enum class Kind { kAddEdge, kRemoveEdge, kAddSubgraph, kRetune };

  Kind kind = Kind::kAddEdge;
  NodeId u = kInvalidNode;  // kAddEdge / kRemoveEdge
  NodeId v = kInvalidNode;
  std::shared_ptr<const DataGraph> subgraph;  // kAddSubgraph
  // kRetune: mined per-label similarity targets, applied as one Demote
  // (serve/apply.h): with retune_shrink to the targets alone (absent labels
  // fall back to requirement 0), without it to the targets merged per label
  // with the index's current requirements.
  LabelRequirements retune_targets;
  bool retune_shrink = false;

  static UpdateOp AddEdge(NodeId u, NodeId v) {
    return UpdateOp{Kind::kAddEdge, u, v, nullptr, {}, false};
  }
  static UpdateOp RemoveEdge(NodeId u, NodeId v) {
    return UpdateOp{Kind::kRemoveEdge, u, v, nullptr, {}, false};
  }
  static UpdateOp AddSubgraph(DataGraph h) {
    return UpdateOp{Kind::kAddSubgraph, kInvalidNode, kInvalidNode,
                    std::make_shared<const DataGraph>(std::move(h)),
                    {},
                    false};
  }
  static UpdateOp Retune(LabelRequirements targets, bool shrink) {
    return UpdateOp{Kind::kRetune, kInvalidNode, kInvalidNode, nullptr,
                    std::move(targets), shrink};
  }
};

// A bounded multi-producer / single-consumer queue of UpdateOps — the only
// channel through which mutations reach QueryServer's writer thread. The
// bound is the backpressure mechanism: when the writer falls behind,
// producers either block until space frees (kBlock) or get an immediate
// rejection to handle upstream (kReject).
//
// All operations are mutex-guarded; the consumer drains in batches so the
// writer amortizes one snapshot republish over many ops.
class UpdateQueue {
 public:
  enum class FullPolicy {
    kBlock,   // Push waits for the consumer to free space
    kReject,  // Push fails immediately when full
  };

  // Why Push failed — the two cases demand opposite reactions from a
  // producer, so they must be distinguishable: kFull is transient
  // backpressure (retry/back off and the op may yet be accepted), kClosed is
  // terminal shutdown (retrying is pointless). Collapsing both into `false`
  // also made the serve.* metrics misattribute shutdown-time rejects as
  // backpressure.
  enum class PushResult {
    kOk,      // enqueued
    kFull,    // kReject policy and the queue was at capacity (retryable)
    kClosed,  // Close() was called; no op will ever be accepted again
  };

  UpdateQueue(size_t capacity, FullPolicy policy)
      : capacity_(capacity == 0 ? 1 : capacity), policy_(policy) {}

  UpdateQueue(const UpdateQueue&) = delete;
  UpdateQueue& operator=(const UpdateQueue&) = delete;

  // Enqueues `op`. Under kBlock the only failure is kClosed; under kReject a
  // full queue returns kFull without blocking. Close-ness wins: a closed
  // queue reports kClosed even when it is also full.
  PushResult Push(UpdateOp op);

  // Consumer side: blocks until at least one op is available or the queue
  // is closed, then moves up to `max_batch` ops (in FIFO order) into *out.
  // Returns false only when the queue is closed AND fully drained — the
  // consumer's signal to exit.
  bool PopBatch(size_t max_batch, std::vector<UpdateOp>* out);

  // Unblocks every producer and the consumer; subsequent pushes fail.
  // Already-queued ops remain poppable (graceful drain).
  void Close();

  size_t size() const;
  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  const FullPolicy policy_;

  mutable std::mutex mu_;
  std::condition_variable not_full_cv_;
  std::condition_variable not_empty_cv_;
  std::deque<UpdateOp> queue_;
  bool closed_ = false;
};

}  // namespace dki

#endif  // DKINDEX_SERVE_UPDATE_QUEUE_H_
