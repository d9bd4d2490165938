#include "io/varint.h"

#include <limits>

namespace dki {

size_t EncodeVarint(uint64_t v, char* buf) {
  size_t i = 0;
  while (v >= 0x80) {
    buf[i++] = static_cast<char>((v & 0x7F) | 0x80);
    v >>= 7;
  }
  buf[i++] = static_cast<char>(v);
  return i;
}

void AppendVarint(uint64_t v, std::string* out) {
  char buf[kMaxVarintBytes];
  out->append(buf, EncodeVarint(v, buf));
}

bool PutVarint(ByteSink* sink, uint64_t v) {
  char buf[kMaxVarintBytes];
  return sink->Append(std::string_view(buf, EncodeVarint(v, buf)));
}

bool GetVarint(std::string_view data, size_t* pos, uint64_t* out) {
  uint64_t result = 0;
  int shift = 0;
  size_t p = *pos;
  for (;;) {
    if (p >= data.size() || shift >= 70) return false;
    const uint8_t byte = static_cast<uint8_t>(data[p++]);
    // The 10th byte may only carry the top bit of a 64-bit value.
    if (shift == 63 && byte > 1) return false;
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  *pos = p;
  *out = result;
  return true;
}

void AppendDeltaArray(const int32_t* values, size_t n, std::string* out) {
  int64_t prev = 0;
  for (size_t i = 0; i < n; ++i) {
    AppendVarintSigned(static_cast<int64_t>(values[i]) - prev, out);
    prev = values[i];
  }
}

bool GetDeltaArray(std::string_view data, size_t* pos, size_t n,
                   int32_t* out) {
  int64_t prev = 0;
  for (size_t i = 0; i < n; ++i) {
    int64_t delta = 0;
    if (!GetVarintSigned(data, pos, &delta)) return false;
    // From an int32 `prev`, a |delta| past 2^32 leaves int32 anyway;
    // rejecting it first keeps `prev + delta` from overflowing int64.
    if (delta > (int64_t{1} << 32) || delta < -(int64_t{1} << 32)) {
      return false;
    }
    const int64_t value = prev + delta;
    if (value < std::numeric_limits<int32_t>::min() ||
        value > std::numeric_limits<int32_t>::max()) {
      return false;
    }
    out[i] = static_cast<int32_t>(value);
    prev = value;
  }
  return true;
}

}  // namespace dki
