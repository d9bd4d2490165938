#include "serve/checkpoint.h"

#include <dirent.h>

#include <algorithm>

#include "common/crc32.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "io/fs_util.h"
#include "io/serialization.h"
#include "serve/apply.h"
#include "serve/wal.h"

namespace dki {
namespace {

constexpr char kCheckpointPrefix[] = "checkpoint-";
constexpr char kCheckpointSuffix[] = ".dki";

// v2 trailing footer: magic + payload length + payload CRC, fixed-width LE.
constexpr std::string_view kFooterMagic = "DKCK";
constexpr size_t kFooterBytes = 4 + 8 + 4;

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

void PutFixed64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutFixed32(uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

uint64_t GetFixed64(std::string_view data) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(data[i])) << (8 * i);
  }
  return v;
}

uint32_t GetFixed32(std::string_view data) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(data[i])) << (8 * i);
  }
  return v;
}

// Forwards to the file writer while tracking the payload's running CRC and
// byte count — the footer's two fields — without buffering the payload.
class CrcCountingSink : public ByteSink {
 public:
  explicit CrcCountingSink(ByteSink* inner) : inner_(inner) {}

  bool Append(std::string_view data) override {
    crc_.Update(data);
    bytes_ += static_cast<uint64_t>(data.size());
    return inner_->Append(data);
  }

  uint64_t bytes() const { return bytes_; }
  uint32_t crc() const { return crc_.value(); }

 private:
  ByteSink* inner_;
  Crc32Stream crc_;
  uint64_t bytes_ = 0;
};

// Parses "checkpoint-<seq>.dki"; nullopt for any other name (including the
// in-flight "*.tmp" a crashed checkpointer leaves behind).
std::optional<uint64_t> SeqFromName(const std::string& name) {
  std::string_view v = name;
  if (!StartsWith(v, kCheckpointPrefix)) return std::nullopt;
  v.remove_prefix(sizeof(kCheckpointPrefix) - 1);
  size_t suffix = v.rfind(kCheckpointSuffix);
  if (suffix == std::string_view::npos ||
      suffix + sizeof(kCheckpointSuffix) - 1 != v.size()) {
    return std::nullopt;
  }
  std::optional<int64_t> seq = ParseInt64(v.substr(0, suffix));
  if (!seq.has_value() || *seq < 0) return std::nullopt;
  return static_cast<uint64_t>(*seq);
}

// Parses and validates one checkpoint file: "dki-checkpoint v2\nseq <n>\n"
// header, binary payload, 16-byte footer carrying the payload length + CRC.
// On success *payload holds the serialized DkIndex parts and *seq its
// sequence number.
bool ReadCheckpointPayload(const std::string& path, uint64_t* seq,
                           std::string* payload, std::string* error) {
  std::string contents;
  if (!ReadFileToString(path, &contents, error)) return false;
  constexpr std::string_view kMagicLine = "dki-checkpoint v2\n";
  if (!StartsWith(contents, kMagicLine)) {
    return Fail(error, path + ": bad checkpoint header");
  }
  std::string_view rest(contents);
  rest.remove_prefix(kMagicLine.size());
  constexpr std::string_view kSeqPrefix = "seq ";
  if (rest.substr(0, kSeqPrefix.size()) != kSeqPrefix) {
    return Fail(error, path + ": bad seq line");
  }
  rest.remove_prefix(kSeqPrefix.size());
  const size_t newline = rest.find('\n');
  if (newline == std::string_view::npos) {
    return Fail(error, path + ": bad seq line");
  }
  std::optional<int64_t> seq_value = ParseInt64(rest.substr(0, newline));
  if (!seq_value.has_value() || *seq_value < 0) {
    return Fail(error, path + ": bad seq line");
  }
  rest.remove_prefix(newline + 1);
  if (rest.size() < kFooterBytes) {
    return Fail(error, path + ": truncated checkpoint");
  }
  std::string_view footer = rest.substr(rest.size() - kFooterBytes);
  if (footer.substr(0, kFooterMagic.size()) != kFooterMagic) {
    return Fail(error, path + ": bad checkpoint footer");
  }
  const uint64_t payload_bytes = GetFixed64(footer.substr(4, 8));
  const uint32_t crc = GetFixed32(footer.substr(12, 4));
  std::string_view body = rest.substr(0, rest.size() - kFooterBytes);
  if (body.size() != payload_bytes) {
    return Fail(error, path + ": payload length mismatch");
  }
  if (Crc32(body) != crc) {
    return Fail(error, path + ": payload CRC mismatch");
  }
  *seq = static_cast<uint64_t>(*seq_value);
  payload->assign(body);
  return true;
}

}  // namespace

CheckpointStore::CheckpointStore(std::string dir) : dir_(std::move(dir)) {}

std::vector<CheckpointStore::Info> CheckpointStore::List() const {
  std::vector<Info> out;
  DIR* d = ::opendir(dir_.c_str());
  if (d == nullptr) return out;
  while (struct dirent* entry = ::readdir(d)) {
    std::optional<uint64_t> seq = SeqFromName(entry->d_name);
    if (!seq.has_value()) continue;
    out.push_back(Info{*seq, dir_ + "/" + entry->d_name});
  }
  ::closedir(d);
  std::sort(out.begin(), out.end(),
            [](const Info& a, const Info& b) { return a.seq > b.seq; });
  return out;
}

bool CheckpointStore::Write(const DataGraph& graph, const IndexSection& index,
                            const std::vector<int>& reqs, uint64_t seq,
                            std::string* error) {
  ScopedLatency latency(&DKI_METRIC_HISTOGRAM("checkpoint.write.latency"));
  const std::string path =
      dir_ + "/" + kCheckpointPrefix + std::to_string(seq) + kCheckpointSuffix;
  AtomicFileWriter file;
  std::string werror;
  if (!file.Open(path, &werror)) {
    DKI_METRIC_COUNTER("checkpoint.failures").Increment();
    return Fail(error, werror);
  }
  // Header, then the payload streamed through the CRC/byte counter, then the
  // footer those counts fill in. Append failures are sticky inside the
  // writer, so one Finish() check at the end covers the whole sequence.
  file.Append("dki-checkpoint v2\nseq " + std::to_string(seq) + "\n");
  CrcCountingSink payload_sink(&file);
  const bool serialized = SaveDkIndexPartsV2(graph, index, reqs, &payload_sink);
  std::string footer(kFooterMagic);
  PutFixed64(payload_sink.bytes(), &footer);
  PutFixed32(payload_sink.crc(), &footer);
  file.Append(footer);
  if (!serialized || !file.Finish(&werror)) {
    file.Abandon();
    DKI_METRIC_COUNTER("checkpoint.failures").Increment();
    return Fail(error, serialized ? werror
                                  : "checkpoint: state not serializable");
  }
  last_write_peak_buffer_bytes_ = file.peak_buffer_bytes();
  DKI_METRIC_COUNTER("checkpoint.writes").Increment();
  DKI_METRIC_COUNTER("checkpoint.bytes").Increment(file.bytes_written());
  // Prune to the newest two AFTER the new one is durable; a failure to
  // delete old files is harmless (they are skipped-over extras).
  std::vector<Info> all = List();
  for (size_t i = 2; i < all.size(); ++i) {
    std::string ignored;
    RemoveFileIfExists(all[i].path, &ignored);
  }
  return true;
}

std::optional<DkIndex> CheckpointStore::LoadNewestValid(
    DataGraph* graph, uint64_t* seq, bool* used_fallback,
    std::string* error) const {
  if (used_fallback != nullptr) *used_fallback = false;
  std::vector<Info> all = List();
  if (all.empty()) {
    Fail(error, "no checkpoint found in " + dir_);
    return std::nullopt;
  }
  std::string first_error;
  for (size_t i = 0; i < all.size(); ++i) {
    uint64_t file_seq = 0;
    std::string payload;
    std::string attempt_error;
    if (ReadCheckpointPayload(all[i].path, &file_seq, &payload,
                              &attempt_error)) {
      // Loads directly into the caller's graph; the returned index borrows
      // it.
      auto dk = LoadDkIndexV2Exact(payload, graph, &attempt_error);
      if (dk.has_value()) {
        *seq = file_seq;
        if (i > 0) {
          if (used_fallback != nullptr) *used_fallback = true;
          DKI_METRIC_COUNTER("checkpoint.fallbacks").Increment();
        }
        return dk;
      }
    }
    if (first_error.empty()) {
      first_error = all[i].path + ": " + attempt_error;
    }
  }
  Fail(error, "no valid checkpoint in " + dir_ + " (newest failure: " +
                  first_error + ")");
  return std::nullopt;
}

uint64_t CheckpointStore::SafeTruncationSeq() const {
  std::vector<Info> all = List();
  if (all.empty()) return 0;
  // The older of the two retained checkpoints: if the newest turns out
  // corrupt at recovery, the fallback still has its full log suffix.
  return all.size() >= 2 ? all[1].seq : all[0].seq;
}

std::optional<DkIndex> RecoverDkIndex(const std::string& dir,
                                      DataGraph* graph, RecoveryStats* stats,
                                      std::string* error) {
  ScopedLatency latency(&DKI_METRIC_HISTOGRAM("recovery.total.latency"));
  RecoveryStats local;
  CheckpointStore store(dir);
  uint64_t checkpoint_seq = 0;
  std::optional<DkIndex> dk = store.LoadNewestValid(
      graph, &checkpoint_seq, &local.used_fallback, error);
  if (!dk.has_value()) return std::nullopt;
  local.checkpoint_seq = checkpoint_seq;
  local.last_seq = checkpoint_seq;

  std::vector<WriteAheadLog::Record> records;
  bool clean = true;
  if (!WriteAheadLog::ReadAll(dir + "/wal.log", &records, &clean, error)) {
    return std::nullopt;
  }
  local.log_tail_torn = !clean;
  for (const WriteAheadLog::Record& record : records) {
    if (record.seq <= checkpoint_seq) {
      // Pre-truncation leftovers (crash between checkpoint rename and log
      // truncation): already contained in the checkpoint.
      ++local.skipped_ops;
      continue;
    }
    if (record.seq != local.last_seq + 1) {
      // A gap means the log lost records the state needs; applying anything
      // beyond it would diverge from every state the server ever served.
      // Stop at the consistent prefix instead.
      local.log_tail_torn = true;
      break;
    }
    if (ApplyUpdateOp(&*dk, record.op)) {
      ++local.replayed_ops;
    } else {
      ++local.invalid_ops;  // writer dropped it too: same decision replayed
    }
    local.last_seq = record.seq;
  }
  DKI_METRIC_COUNTER("recovery.replayed_ops").Increment(local.replayed_ops);
  DKI_METRIC_COUNTER("recovery.skipped_ops").Increment(local.skipped_ops);
  DKI_METRIC_COUNTER("recovery.runs").Increment();
  if (stats != nullptr) *stats = local;
  return dk;
}

}  // namespace dki
