#ifndef DKINDEX_SERVE_CHECKPOINT_H_
#define DKINDEX_SERVE_CHECKPOINT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "graph/data_graph.h"
#include "index/dk_index.h"
#include "io/serialization.h"

namespace dki {

// Atomic, CRC-guarded checkpoints of the servable D(k)-index state, one file
// per checkpoint. Write emits the compact binary v2 layout:
//
//   dki-checkpoint v2
//   seq <n>              ── WAL sequence number the state includes
//   <payload: SaveDkIndexPartsV2 binary (graph + index + requirements)>
//   DKCK <payload_bytes: 8 LE> <payload_crc32: 4 LE>   ── 16-byte footer
//
// The length + CRC live in a trailing footer (not the header) so the writer
// can STREAM the payload to the temp file in one pass — chunks flow through
// a fixed-size buffer with an incremental CRC32, never materializing the
// serialized state in memory (peak transient allocation is O(1) in the
// state size; last_write_peak_buffer_bytes() exposes the high-water mark).
//
// Files are named checkpoint-<seq>.dki and written via write-temp + fsync +
// atomic-rename (io/fs_util.h), so a canonical checkpoint file is either
// complete or absent — a torn write dies as checkpoint.tmp. The CRC +
// length check catches silent corruption after the fact (bit rot, truncated
// copies); a newest checkpoint failing it is skipped in favor of the
// previous one, which is why the store retains the newest TWO checkpoints
// and the WAL is truncated only up to the OLDER retained checkpoint's seq —
// the fallback checkpoint always has the complete log suffix it needs.
class CheckpointStore {
 public:
  explicit CheckpointStore(std::string dir);

  struct Info {
    uint64_t seq = 0;
    std::string path;
  };

  // Existing checkpoint files, newest (highest seq) first.
  std::vector<Info> List() const;

  // Persists the state atomically as checkpoint-<seq>.dki, then prunes to
  // the newest two files. `index` must partition `graph`: an IndexGraph
  // over it, or a published snapshot's IndexSnapshot::index_section().
  bool Write(const DataGraph& graph, const IndexSection& index,
             const std::vector<int>& reqs, uint64_t seq, std::string* error);

  // Loads the newest checkpoint whose CRC/format validates, falling back to
  // older ones on failure. On success fills *graph (borrowed by the
  // returned index), *seq, and *used_fallback (true iff the newest file was
  // skipped). nullopt if no checkpoint validates.
  std::optional<DkIndex> LoadNewestValid(DataGraph* graph, uint64_t* seq,
                                         bool* used_fallback,
                                         std::string* error) const;

  // Seq through which the WAL may safely be truncated: the OLDER of the two
  // retained checkpoints (== the newest when only one exists, 0 when none).
  uint64_t SafeTruncationSeq() const;

  const std::string& dir() const { return dir_; }

  // High-water mark of the stream buffer during the most recent Write —
  // bounded by AtomicFileWriter::kBufferBytes regardless of state size
  // (the O(1) transient-memory guarantee tests assert).
  int64_t last_write_peak_buffer_bytes() const {
    return last_write_peak_buffer_bytes_;
  }

 private:
  const std::string dir_;
  int64_t last_write_peak_buffer_bytes_ = 0;
};

// Result of RecoverDkIndex, for logging and for seeding a restarted server.
struct RecoveryStats {
  uint64_t checkpoint_seq = 0;   // seq of the checkpoint actually loaded
  uint64_t last_seq = 0;         // highest op seq in the recovered state
  int64_t replayed_ops = 0;      // log records applied on top
  int64_t skipped_ops = 0;       // records with seq <= checkpoint_seq
  int64_t invalid_ops = 0;       // records dropped by apply-time validation
  bool used_fallback = false;    // newest checkpoint was corrupt
  bool log_tail_torn = false;    // log ended in a torn/corrupt record
};

// Crash recovery: loads the newest valid checkpoint from `dir` and replays
// the WAL tail (records with seq > checkpoint seq, in order) through the
// normal Section-5 update machinery. The result is bit-identical — same
// partition, same extents, same local similarities, same query answers — to
// the state an uncrashed server held after applying the same logged prefix.
// Pass stats.last_seq as DurabilityOptions::start_seq when restarting a
// QueryServer on the recovered state. nullopt + error if no usable
// checkpoint exists or the log is unreadable.
std::optional<DkIndex> RecoverDkIndex(const std::string& dir,
                                      DataGraph* graph, RecoveryStats* stats,
                                      std::string* error);

}  // namespace dki

#endif  // DKINDEX_SERVE_CHECKPOINT_H_
