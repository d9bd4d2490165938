#ifndef DKINDEX_SERVE_WAL_H_
#define DKINDEX_SERVE_WAL_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "serve/update_queue.h"

namespace dki {

// Durability knobs for QueryServer (serve/query_server.h). Durability is
// enabled iff `dir` is non-empty; everything else tunes the fsync/checkpoint
// cadence.
struct DurabilityOptions {
  // Directory holding wal.log and checkpoint-<seq>.dki. Empty (the default)
  // disables the durability pipeline entirely — the server behaves exactly
  // as the purely in-memory PR-3 version.
  std::string dir;

  // Group-commit policy: fsync the log once at least `sync_every_n` ops are
  // unsynced (1 = fsync before every apply, the strongest setting), or once
  // the oldest unsynced op is `sync_interval_ms` old — whichever comes
  // first. The interval is enforced by the checkpointer thread's tick, so
  // its resolution is bounded below by that thread's wakeups.
  int64_t sync_every_n = 64;
  int64_t sync_interval_ms = 50;

  // The background checkpointer persists the newest published snapshot and
  // truncates the log at most this often (and always on clean shutdown).
  int64_t checkpoint_interval_ms = 500;

  // First sequence number this server will assign minus one — pass
  // RecoveryStats::last_seq after RecoverDkIndex so log sequence numbers
  // stay monotonic across restarts. 0 for a fresh start.
  uint64_t start_seq = 0;
};

// Append-only write-ahead log of UpdateOps. Binary format, one record per
// op:
//
//   u32 payload_len (LE)  u32 crc32(payload)  payload
//   payload := u64 seq | u8 kind | kind-specific body
//     kAddEdge/kRemoveEdge: i32 u | i32 v
//     kAddSubgraph:         u32 graph_len | SaveGraphV2 bytes
//     kRetune:              u8 shrink | u32 count | count x (u32 label, u32 k)
//                           (entries sorted by label id)
//   kind bytes: kAddEdge 0, kRemoveEdge 1, kRetune 3, kAddSubgraph 4; 2 was
//   the retired v1-text subgraph body and is rejected, never reused.
//
// The reader is truncation-safe by construction: it stops at the first
// record whose length prefix overruns the file or whose CRC fails, and
// reports the clean prefix. Open() physically truncates such a torn tail so
// later appends never interleave with garbage. A record whose CRC holds but
// which does not decode (a retired or unknown format) is an error, not a
// torn tail: the reader fails and Open() leaves the file untouched.
//
// Thread safety: Append/Sync/TruncateThrough/Reset are mutex-guarded — the
// writer thread appends while the checkpointer truncates and time-syncs.
class WriteAheadLog {
 public:
  struct Record {
    uint64_t seq = 0;
    UpdateOp op;
  };

  WriteAheadLog(std::string path, int64_t sync_every_n,
                int64_t sync_interval_ms);
  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  // Opens (creating if absent) the log for appending. An existing file is
  // scanned and its torn tail, if any, truncated away. False + error on I/O
  // failure or an undecodable record (see ReadAll).
  bool Open(std::string* error);

  // Appends one record (buffered in the OS; durability comes from Sync).
  // False on I/O error or an unserializable op (a subgraph op without a
  // graph) — the caller must then NOT apply the op, preserving the "logged
  // before applied" invariant. A write that fails partway is cut back off
  // the file, so the log stays a whole-record prefix; if that cut fails
  // too, every later Append fails until Open() or a log rewrite
  // (TruncateThrough, Reset) replaces the tail.
  bool Append(const UpdateOp& op, uint64_t seq, std::string* error);

  // fsyncs now if `force`, or if the group-commit policy says an fsync is
  // due. True if nothing was pending or the fsync succeeded.
  bool Sync(bool force, std::string* error);

  // Drops every record with seq <= `through_seq` by atomically rewriting the
  // log (write temp, rename, fsync dir) and re-opening the append handle.
  // Called by the checkpointer after a checkpoint lands.
  bool TruncateThrough(uint64_t through_seq, std::string* error);

  // Empties the log (the state it covers is fully contained in a checkpoint
  // just written). Same crash-safety as TruncateThrough.
  bool Reset(std::string* error);

  const std::string& path() const { return path_; }

  // Standalone reader used by recovery: decodes the clean record prefix of
  // the log at `path`. A missing file yields ok + zero records (an empty log
  // is a valid log). Torn/corrupt tails are not errors — `*clean` reports
  // whether the whole file parsed. Unreadable files fail, and so does a
  // CRC-valid record that does not decode.
  static bool ReadAll(const std::string& path, std::vector<Record>* records,
                      bool* clean, std::string* error);

  // Encoding helpers (exposed for tests and fault injection).
  static std::string EncodeRecord(const UpdateOp& op, uint64_t seq);
  static bool DecodePayload(std::string_view payload, Record* out,
                            std::string* error = nullptr);

 private:
  bool OpenLocked(std::string* error);
  bool SyncLocked(bool force, std::string* error);
  bool RewriteLocked(const std::vector<Record>& keep, std::string* error);

  const std::string path_;
  const int64_t sync_every_n_;
  const int64_t sync_interval_ms_;

  std::mutex mu_;
  int fd_ = -1;
  int64_t unsynced_ops_ = 0;
  int64_t oldest_unsynced_ms_ = 0;  // steady-clock stamp of first unsynced op
  // The file may end in a partial record that could not be cut off: a
  // record appended after it would be unreachable to the reader.
  bool torn_ = false;
};

}  // namespace dki

#endif  // DKINDEX_SERVE_WAL_H_
