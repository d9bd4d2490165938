#include "serve/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/metrics.h"
#include "io/fs_util.h"
#include "io/serialization.h"

namespace dki {
namespace {

int64_t NowMillis() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

bool ReadU32(std::string_view* in, uint32_t* v) {
  if (in->size() < 4) return false;
  *v = 0;
  for (int i = 0; i < 4; ++i) {
    *v |= static_cast<uint32_t>(static_cast<unsigned char>((*in)[
              static_cast<size_t>(i)]))
          << (8 * i);
  }
  in->remove_prefix(4);
  return true;
}

bool ReadU64(std::string_view* in, uint64_t* v) {
  if (in->size() < 8) return false;
  *v = 0;
  for (int i = 0; i < 8; ++i) {
    *v |= static_cast<uint64_t>(static_cast<unsigned char>((*in)[
              static_cast<size_t>(i)]))
          << (8 * i);
  }
  in->remove_prefix(8);
  return true;
}

constexpr uint8_t kKindAddEdge = 0;
constexpr uint8_t kKindRemoveEdge = 1;
// Retired: a subgraph as v1 text, which this build no longer decodes. Kind
// bytes are never reused, so such a record fails loudly (ReadAll) instead of
// being misread.
constexpr uint8_t kKindAddSubgraphV1Text = 2;
constexpr uint8_t kKindRetune = 3;
constexpr uint8_t kKindAddSubgraph = 4;

// Defensive bound on a single record's payload: no op this project can
// produce is anywhere near it, so a larger length prefix means corruption.
constexpr uint32_t kMaxPayload = 1u << 30;

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

bool FailErrno(std::string* error, const std::string& message) {
  return Fail(error, message + ": " + std::strerror(errno));
}

}  // namespace

WriteAheadLog::WriteAheadLog(std::string path, int64_t sync_every_n,
                             int64_t sync_interval_ms)
    : path_(std::move(path)),
      sync_every_n_(sync_every_n < 1 ? 1 : sync_every_n),
      sync_interval_ms_(sync_interval_ms < 0 ? 0 : sync_interval_ms) {}

WriteAheadLog::~WriteAheadLog() {
  if (fd_ >= 0) ::close(fd_);
}

std::string WriteAheadLog::EncodeRecord(const UpdateOp& op, uint64_t seq) {
  std::string payload;
  AppendU64(&payload, seq);
  switch (op.kind) {
    case UpdateOp::Kind::kAddEdge:
    case UpdateOp::Kind::kRemoveEdge:
      payload.push_back(static_cast<char>(
          op.kind == UpdateOp::Kind::kAddEdge ? kKindAddEdge
                                              : kKindRemoveEdge));
      AppendU32(&payload, static_cast<uint32_t>(op.u));
      AppendU32(&payload, static_cast<uint32_t>(op.v));
      break;
    case UpdateOp::Kind::kAddSubgraph: {
      if (op.subgraph == nullptr) return std::string();
      std::string body;
      StringSink sink(&body);
      if (!SaveGraphV2(*op.subgraph, &sink)) return std::string();
      payload.push_back(static_cast<char>(kKindAddSubgraph));
      AppendU32(&payload, static_cast<uint32_t>(body.size()));
      payload.append(body);
      break;
    }
    case UpdateOp::Kind::kRetune: {
      payload.push_back(static_cast<char>(kKindRetune));
      payload.push_back(static_cast<char>(op.retune_shrink ? 1 : 0));
      // Sorted by label so re-encoding a decoded record (log rewrite after
      // truncation) is byte-identical.
      std::vector<std::pair<LabelId, int>> sorted(op.retune_targets.begin(),
                                                  op.retune_targets.end());
      std::sort(sorted.begin(), sorted.end());
      AppendU32(&payload, static_cast<uint32_t>(sorted.size()));
      for (const auto& [label, k] : sorted) {
        AppendU32(&payload, static_cast<uint32_t>(label));
        AppendU32(&payload, static_cast<uint32_t>(k));
      }
      break;
    }
  }
  std::string record;
  AppendU32(&record, static_cast<uint32_t>(payload.size()));
  AppendU32(&record, Crc32(payload));
  record.append(payload);
  return record;
}

bool WriteAheadLog::DecodePayload(std::string_view payload, Record* out,
                                  std::string* error) {
  if (!ReadU64(&payload, &out->seq) || payload.empty()) {
    return Fail(error, "record shorter than its header");
  }
  uint8_t kind = static_cast<uint8_t>(payload.front());
  payload.remove_prefix(1);
  switch (kind) {
    case kKindAddEdge:
    case kKindRemoveEdge: {
      uint32_t u = 0, v = 0;
      if (!ReadU32(&payload, &u) || !ReadU32(&payload, &v) ||
          !payload.empty()) {
        return Fail(error, "malformed edge record");
      }
      out->op = kind == kKindAddEdge
                    ? UpdateOp::AddEdge(static_cast<NodeId>(u),
                                        static_cast<NodeId>(v))
                    : UpdateOp::RemoveEdge(static_cast<NodeId>(u),
                                           static_cast<NodeId>(v));
      return true;
    }
    case kKindAddSubgraph: {
      uint32_t len = 0;
      if (!ReadU32(&payload, &len) || payload.size() != len) {
        return Fail(error, "malformed subgraph record");
      }
      DataGraph h;
      std::string graph_error;
      if (!LoadGraphV2Exact(payload, &h, &graph_error)) {
        return Fail(error, "malformed subgraph record: " + graph_error);
      }
      out->op = UpdateOp::AddSubgraph(std::move(h));
      return true;
    }
    case kKindAddSubgraphV1Text:
      return Fail(error,
                  "v1 text subgraph record, which this build cannot read; "
                  "recover the directory with a build that reads it and "
                  "stop that server cleanly (final checkpoint, empty log) "
                  "before upgrading");
    case kKindRetune: {
      if (payload.empty()) return Fail(error, "malformed retune record");
      const bool shrink = payload.front() != 0;
      payload.remove_prefix(1);
      uint32_t count = 0;
      if (!ReadU32(&payload, &count) || payload.size() != uint64_t{8} * count) {
        return Fail(error, "malformed retune record");
      }
      LabelRequirements targets;
      targets.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        uint32_t label = 0, k = 0;
        ReadU32(&payload, &label);
        ReadU32(&payload, &k);
        targets[static_cast<LabelId>(label)] = static_cast<int>(k);
      }
      out->op = UpdateOp::Retune(std::move(targets), shrink);
      return true;
    }
    default:
      return Fail(error, "unknown record kind " + std::to_string(kind));
  }
}

bool WriteAheadLog::ReadAll(const std::string& path,
                            std::vector<Record>* records, bool* clean,
                            std::string* error) {
  records->clear();
  if (clean != nullptr) *clean = true;
  if (!PathExists(path)) return true;  // no log yet: empty is valid
  std::string contents;
  if (!ReadFileToString(path, &contents, error)) return false;

  const std::string_view all = contents;
  std::string_view rest = all;
  while (!rest.empty()) {
    uint32_t len = 0, crc = 0;
    std::string_view header = rest;
    if (!ReadU32(&header, &len) || !ReadU32(&header, &crc) ||
        len > kMaxPayload || header.size() < len) {
      if (clean != nullptr) *clean = false;  // torn tail
      break;
    }
    std::string_view payload = header.substr(0, len);
    if (Crc32(payload) != crc) {
      if (clean != nullptr) *clean = false;  // corrupt record
      break;
    }
    // A record whose CRC holds was written whole: if it does not decode, it
    // is not a torn tail but a format this build cannot read. Fail instead
    // of reporting a clean prefix, so neither recovery nor Open() drops it
    // and every record after it.
    Record record;
    std::string decode_error;
    if (!DecodePayload(payload, &record, &decode_error)) {
      return Fail(error, "wal " + path + ": record at byte " +
                             std::to_string(all.size() - rest.size()) +
                             " has a valid CRC but cannot be decoded: " +
                             decode_error);
    }
    records->push_back(std::move(record));
    rest = header.substr(len);
  }
  return true;
}

bool WriteAheadLog::Open(std::string* error) {
  std::lock_guard<std::mutex> lock(mu_);
  return OpenLocked(error);
}

bool WriteAheadLog::OpenLocked(std::string* error) {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  // Scan for a torn tail and cut it off before appending: a record appended
  // after garbage would be unreachable to the truncation-safe reader.
  if (PathExists(path_)) {
    std::vector<Record> records;
    bool clean = true;
    if (!ReadAll(path_, &records, &clean, error)) return false;
    if (!clean) {
      DKI_METRIC_COUNTER("wal.torn_tail_repairs").Increment();
      if (!RewriteLocked(records, error)) return false;
    }
  }
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) return FailErrno(error, "cannot open wal " + path_);
  unsynced_ops_ = 0;
  torn_ = false;
  return true;
}

bool WriteAheadLog::Append(const UpdateOp& op, uint64_t seq,
                           std::string* error) {
  std::string record = EncodeRecord(op, seq);
  if (record.empty()) {
    return Fail(error, "wal: subgraph op without a graph");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) return Fail(error, "wal not open");
  if (torn_) return Fail(error, "wal ends in a partial record");
  // A write that fails partway leaves part of the record in the file, and
  // the reader stops at it: every later record, synced or not, would be
  // lost. Cut the file back to where the record began.
  struct stat st;
  if (::fstat(fd_, &st) != 0) return FailErrno(error, "wal append: fstat");
  const char* data = record.data();
  size_t remaining = record.size();
  while (remaining > 0) {
    ssize_t n = ::write(fd_, data, remaining);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string cause = std::strerror(errno);
      if (::ftruncate(fd_, st.st_size) != 0) {
        torn_ = true;
        return FailErrno(error, "wal append failed (" + cause +
                                    "); cannot cut the partial record");
      }
      return Fail(error, "wal append: " + cause);
    }
    data += n;
    remaining -= static_cast<size_t>(n);
  }
  if (unsynced_ops_ == 0) oldest_unsynced_ms_ = NowMillis();
  ++unsynced_ops_;
  DKI_METRIC_COUNTER("wal.appends").Increment();
  DKI_METRIC_COUNTER("wal.append_bytes")
      .Increment(static_cast<int64_t>(record.size()));
  return true;
}

bool WriteAheadLog::Sync(bool force, std::string* error) {
  std::lock_guard<std::mutex> lock(mu_);
  return SyncLocked(force, error);
}

bool WriteAheadLog::SyncLocked(bool force, std::string* error) {
  if (fd_ < 0 || unsynced_ops_ == 0) return true;
  if (!force && unsynced_ops_ < sync_every_n_ &&
      NowMillis() - oldest_unsynced_ms_ < sync_interval_ms_) {
    return true;  // group commit: not due yet
  }
  {
    ScopedLatency latency(&DKI_METRIC_HISTOGRAM("wal.fsync.latency"));
    if (::fdatasync(fd_) != 0) return FailErrno(error, "wal fsync");
  }
  DKI_METRIC_COUNTER("wal.fsyncs").Increment();
  unsynced_ops_ = 0;
  return true;
}

bool WriteAheadLog::RewriteLocked(const std::vector<Record>& keep,
                                  std::string* error) {
  std::string contents;
  for (const Record& r : keep) {
    std::string record = EncodeRecord(r.op, r.seq);
    if (record.empty()) return Fail(error, "wal: unserializable record");
    contents.append(record);
  }
  if (!AtomicWriteFile(path_, contents, error)) return false;
  // The append handle (if any) now points at the unlinked old file; reopen.
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd_ < 0) return FailErrno(error, "cannot reopen wal " + path_);
  }
  unsynced_ops_ = 0;
  torn_ = false;  // the rewrite holds whole records only
  return true;
}

bool WriteAheadLog::TruncateThrough(uint64_t through_seq, std::string* error) {
  std::lock_guard<std::mutex> lock(mu_);
  // Flush buffered appends first so ReadAll sees every record.
  if (!SyncLocked(/*force=*/true, error)) return false;
  std::vector<Record> records;
  if (!ReadAll(path_, &records, nullptr, error)) return false;
  std::vector<Record> keep;
  for (Record& r : records) {
    if (r.seq > through_seq) keep.push_back(std::move(r));
  }
  if (keep.size() == records.size()) return true;  // nothing to drop
  if (!RewriteLocked(keep, error)) return false;
  DKI_METRIC_COUNTER("wal.truncations").Increment();
  return true;
}

bool WriteAheadLog::Reset(std::string* error) {
  std::lock_guard<std::mutex> lock(mu_);
  return RewriteLocked({}, error);
}

}  // namespace dki
