#ifndef SERVEBENCH_STATS_H_
#define SERVEBENCH_STATS_H_

// Measurement helpers shared by the end-to-end run and the traced replay:
// a monotonic clock, a fine-grained latency histogram, medians, and a
// minimal JSON writer for the result line.

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Log-linear histogram of non-negative nanosecond values: exact below 128,
// then 64 linear sub-buckets per power of two, so a reported quantile is
// within 1/128 of the true sample. Single-writer; merge per-thread copies.
// Bucket counts are 32-bit: one histogram holds at most 2^32 - 1 samples.
class LatencyHist {
 public:
  void Record(int64_t ns) {
    ++buckets_[Index(ns <= 0 ? 0 : static_cast<uint64_t>(ns))];
    ++count_;
  }
  void Merge(const LatencyHist& other) {
    for (size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
    count_ += other.count_;
  }
  int64_t count() const { return count_; }

  // Nearest-rank quantile, reported at the containing bucket's midpoint.
  // 0 when empty.
  double Quantile(double q) const {
    if (count_ == 0) return 0.0;
    int64_t rank = static_cast<int64_t>(q * static_cast<double>(count_));
    rank = std::clamp<int64_t>(rank, 1, count_);
    int64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      seen += buckets_[i];
      if (seen >= rank) return Midpoint(i);
    }
    return Midpoint(kBuckets - 1);
  }

 private:
  static constexpr size_t kBuckets = 60 * 64;

  static size_t Index(uint64_t v) {
    if (v < 128) return static_cast<size_t>(v);
    const int msb = 63 - __builtin_clzll(v);
    const int shift = msb - 6;  // keeps 7 significant bits: v >> shift in [64, 128)
    return static_cast<size_t>(shift + 1) * 64 + static_cast<size_t>(v >> shift);
  }
  static double Midpoint(size_t index) {
    if (index < 128) return static_cast<double>(index);
    // Inverse of Index: index = (shift + 2) * 64 + (v >> shift) - 64.
    const int shift = static_cast<int>(index / 64) - 2;
    const double lower =
        static_cast<double>((index % 64 + 64) << static_cast<unsigned>(shift));
    return lower + static_cast<double>(uint64_t{1} << shift) / 2.0;
  }

  std::array<uint32_t, kBuckets> buckets_{};
  int64_t count_ = 0;
};

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

inline double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// Shortest round-trip decimal form of a double.
inline std::string JsonNumber(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

inline std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// An ordered JSON object built from already-encoded values.
class JsonObject {
 public:
  JsonObject& Raw(const std::string& key, const std::string& encoded) {
    fields_.emplace_back(key, encoded);
    return *this;
  }
  JsonObject& Num(const std::string& key, double v) {
    return Raw(key, JsonNumber(v));
  }
  JsonObject& Int(const std::string& key, int64_t v) {
    return Raw(key, std::to_string(v));
  }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Raw(key, JsonString(v));
  }
  JsonObject& Bool(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  std::string Encode() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += JsonString(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// Named metrics with units, in emission order.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricList = std::vector<std::pair<std::string, Metric>>;

inline void AddMetric(MetricList* out, const std::string& name, double value,
                      const std::string& unit) {
  out->emplace_back(name, Metric{value, unit});
}

}  // namespace servebench

#endif  // SERVEBENCH_STATS_H_
