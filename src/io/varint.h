#ifndef DKINDEX_IO_VARINT_H_
#define DKINDEX_IO_VARINT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "io/byte_sink.h"

namespace dki {

// LEB128 variable-length integers plus zigzag mapping for signed values —
// the byte-level vocabulary of the binary "v2" persistence format
// (io/serialization.cc). Sorted id arrays stored as zigzag deltas land
// around one byte per value.

// Maximum encoded size of one 64-bit varint (10 × 7-bit groups).
inline constexpr size_t kMaxVarintBytes = 10;

// Encodes `v` into `buf` (at least kMaxVarintBytes long); returns the number
// of bytes written.
size_t EncodeVarint(uint64_t v, char* buf);

// Appends the encoding of `v` to `out` / `sink`.
void AppendVarint(uint64_t v, std::string* out);
bool PutVarint(ByteSink* sink, uint64_t v);

// Decodes one varint from `data` starting at `*pos`, advancing `*pos` past
// it. Returns false (leaving `*pos` unspecified) on truncation or an
// over-long encoding (more than kMaxVarintBytes bytes).
bool GetVarint(std::string_view data, size_t* pos, uint64_t* out);

// Zigzag: maps signed integers to unsigned so small-magnitude negatives
// encode as short varints (-1 -> 1, 1 -> 2, ...).
inline uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

// Signed convenience wrappers (zigzag + varint).
inline void AppendVarintSigned(int64_t v, std::string* out) {
  AppendVarint(ZigZagEncode(v), out);
}
inline bool PutVarintSigned(ByteSink* sink, int64_t v) {
  return PutVarint(sink, ZigZagEncode(v));
}
inline bool GetVarintSigned(std::string_view data, size_t* pos, int64_t* out) {
  uint64_t u = 0;
  if (!GetVarint(data, pos, &u)) return false;
  *out = ZigZagDecode(u);
  return true;
}

// Delta-encodes `values[0..n)` as zigzag varints (each value relative to the
// previous one; the first relative to 0) and appends them to `out`. Order is
// preserved exactly, so arbitrary (not necessarily sorted) id runs round-trip
// bit-identically; sorted runs are where the encoding gets small.
void AppendDeltaArray(const int32_t* values, size_t n, std::string* out);

// Decodes `n` delta-encoded values into `out[0..n)`. False on truncation or
// a decoded value outside int32 range.
bool GetDeltaArray(std::string_view data, size_t* pos, size_t n,
                   int32_t* out);

}  // namespace dki

#endif  // DKINDEX_IO_VARINT_H_
