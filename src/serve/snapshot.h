#ifndef DKINDEX_SERVE_SNAPSHOT_H_
#define DKINDEX_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "graph/data_graph.h"
#include "index/index_graph.h"
#include "io/serialization.h"
#include "query/frozen_view.h"

namespace dki {

// An immutable, epoch-stamped copy of the servable state: a data graph copy
// and the FrozenView of the index over it. Published by QueryServer as
// shared_ptr<const IndexSnapshot>, so any number of reader threads evaluate
// against a consistent state with no locking — the snapshot never changes
// after construction, and the shared_ptr keeps it alive for as long as any
// reader holds it, across any number of republishes.
//
// The view is the snapshot's only copy of the index: readers evaluate on
// it, and the checkpointer writes its label, k and extent arrays
// (index_section). The graph copy serves parse-time label lookup and the
// checkpoint's graph section. Readers holding a snapshot are therefore
// fully isolated from the writer's private master, which keeps mutating.
// Consecutive snapshots share one immutable graph copy when the writer's
// batch left the graph untouched (a retune).
class IndexSnapshot {
 public:
  // Shares `graph`, an immutable copy equal to `index.graph()` (the writer
  // hands the previous snapshot's copy on when a batch left the graph
  // untouched), and freezes `index` — the writer's master, read on the
  // writer thread and not referenced afterwards. `effective_requirements`
  // and `seq` carry the durability metadata the background checkpointer
  // needs to persist this state without touching the writer's master: the
  // per-label requirements (part of the checkpoint format) and the
  // write-ahead-log sequence number of the last op the snapshot includes.
  // `frozen_options` configures the frozen view.
  IndexSnapshot(std::shared_ptr<const DataGraph> graph,
                const IndexGraph& index,
                std::vector<int> effective_requirements, uint64_t seq,
                const FrozenViewOptions& frozen_options)
      : graph_(std::move(graph)),
        frozen_(index, frozen_options),
        effective_requirements_(std::move(effective_requirements)),
        seq_(seq) {}

  IndexSnapshot(const IndexSnapshot&) = delete;
  IndexSnapshot& operator=(const IndexSnapshot&) = delete;

  const DataGraph& graph() const { return *graph_; }
  const std::shared_ptr<const DataGraph>& shared_graph() const {
    return graph_;
  }

  // The flat-memory read path over this snapshot (query/frozen_view.h):
  // built once here, at publish time, then shared read-only by every reader
  // evaluating against the snapshot.
  const FrozenView& frozen() const { return frozen_; }

  // The index as a checkpoint stores it, read from the frozen view's
  // arrays; valid while the snapshot lives.
  IndexSection index_section() const {
    return {frozen_.num_index_nodes(), [this](IndexNodeId i) {
              return IndexNodeRecord{frozen_.index_label(i),
                                     frozen_.index_k(i), frozen_.extent(i)};
            }};
  }

  // The update epoch the snapshot was taken at (IndexGraph::epoch).
  uint64_t epoch() const { return frozen_.epoch(); }

  // WAL sequence number of the last update this snapshot includes (0 when
  // the server runs without durability).
  uint64_t seq() const { return seq_; }

  // Effective per-label requirements at snapshot time, indexed by label id
  // (QueryServer::Publish always forwards the master's; load-driven retune
  // controllers diff mined requirements against these).
  const std::vector<int>& effective_requirements() const {
    return effective_requirements_;
  }

 private:
  std::shared_ptr<const DataGraph> graph_;
  FrozenView frozen_;
  std::vector<int> effective_requirements_;
  uint64_t seq_;
};

}  // namespace dki

#endif  // DKINDEX_SERVE_SNAPSHOT_H_
