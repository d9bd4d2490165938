// Unit tests for the LEB128/zigzag byte-level codec (io/varint.h) — the
// vocabulary of the binary v2 persistence format.

#include "io/varint.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"

namespace dki {
namespace {

TEST(VarintTest, EncodesCanonicalSizes) {
  char buf[kMaxVarintBytes];
  EXPECT_EQ(EncodeVarint(0, buf), 1u);
  EXPECT_EQ(EncodeVarint(127, buf), 1u);
  EXPECT_EQ(EncodeVarint(128, buf), 2u);
  EXPECT_EQ(EncodeVarint(16383, buf), 2u);
  EXPECT_EQ(EncodeVarint(16384, buf), 3u);
  EXPECT_EQ(EncodeVarint(std::numeric_limits<uint64_t>::max(), buf), 10u);
}

TEST(VarintTest, RoundTripsBoundaryValues) {
  const uint64_t cases[] = {0,
                            1,
                            127,
                            128,
                            255,
                            256,
                            (1ull << 14) - 1,
                            1ull << 14,
                            (1ull << 21) - 1,
                            1ull << 21,
                            (1ull << 28),
                            (1ull << 35),
                            (1ull << 42),
                            (1ull << 49),
                            (1ull << 56),
                            (1ull << 63),
                            std::numeric_limits<uint64_t>::max()};
  std::string buf;
  for (uint64_t v : cases) AppendVarint(v, &buf);
  size_t pos = 0;
  for (uint64_t v : cases) {
    uint64_t got = 0;
    ASSERT_TRUE(GetVarint(buf, &pos, &got));
    EXPECT_EQ(got, v);
  }
  EXPECT_EQ(pos, buf.size());
}

TEST(VarintTest, RandomRoundTripProperty) {
  Rng rng(41);
  std::vector<uint64_t> values;
  std::string buf;
  for (int i = 0; i < 5000; ++i) {
    // Vary magnitude so every encoded length is exercised.
    const int bits = static_cast<int>(rng.UniformInt(0, 63));
    uint64_t v = static_cast<uint64_t>(rng.UniformInt(
        0, std::numeric_limits<int64_t>::max()));
    v &= (bits == 63) ? ~0ull : ((1ull << (bits + 1)) - 1);
    values.push_back(v);
    AppendVarint(v, &buf);
  }
  size_t pos = 0;
  for (uint64_t v : values) {
    uint64_t got = 0;
    ASSERT_TRUE(GetVarint(buf, &pos, &got));
    ASSERT_EQ(got, v);
  }
  EXPECT_EQ(pos, buf.size());
}

TEST(VarintTest, RejectsTruncation) {
  std::string buf;
  AppendVarint(1ull << 42, &buf);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    size_t pos = 0;
    uint64_t out = 0;
    EXPECT_FALSE(GetVarint(std::string_view(buf).substr(0, cut), &pos, &out))
        << "cut=" << cut;
  }
}

TEST(VarintTest, RejectsOverlongEncodings) {
  // Eleven continuation bytes: longer than any canonical 64-bit varint.
  std::string bad(11, '\x80');
  bad.push_back('\x01');
  size_t pos = 0;
  uint64_t out = 0;
  EXPECT_FALSE(GetVarint(bad, &pos, &out));

  // Ten bytes whose final byte carries more than the one remaining bit.
  std::string overflow(9, '\x80');
  overflow.push_back('\x02');
  pos = 0;
  EXPECT_FALSE(GetVarint(overflow, &pos, &out));
}

TEST(VarintTest, ZigZagMapsSmallMagnitudesToSmallCodes) {
  EXPECT_EQ(ZigZagEncode(0), 0u);
  EXPECT_EQ(ZigZagEncode(-1), 1u);
  EXPECT_EQ(ZigZagEncode(1), 2u);
  EXPECT_EQ(ZigZagEncode(-2), 3u);
  const int64_t cases[] = {0,
                           1,
                           -1,
                           63,
                           -64,
                           std::numeric_limits<int64_t>::max(),
                           std::numeric_limits<int64_t>::min()};
  for (int64_t v : cases) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v) << v;
  }
}

TEST(VarintTest, DeltaArrayRoundTripsUnsortedRuns) {
  Rng rng(43);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = static_cast<int>(rng.UniformInt(0, 200));
    std::vector<int32_t> values;
    for (int i = 0; i < n; ++i) {
      values.push_back(static_cast<int32_t>(rng.UniformInt(
          std::numeric_limits<int32_t>::min(),
          std::numeric_limits<int32_t>::max())));
    }
    std::string buf;
    AppendDeltaArray(values.data(), values.size(), &buf);
    size_t pos = 0;
    std::vector<int32_t> decoded(values.size());
    ASSERT_TRUE(GetDeltaArray(buf, &pos, decoded.size(), decoded.data()));
    EXPECT_EQ(decoded, values);
    EXPECT_EQ(pos, buf.size());
  }
}

// Hostile deltas decode to values outside int32 and are rejected, without
// the running sum overflowing on the way (UBSan catches that overflow).
TEST(VarintTest, DeltaArrayRejectsHugeDeltas) {
  for (int64_t delta : {std::numeric_limits<int64_t>::max(),
                        std::numeric_limits<int64_t>::min(),
                        int64_t{1} << 40}) {
    std::string buf;
    AppendVarintSigned(std::numeric_limits<int32_t>::max(), &buf);
    AppendVarintSigned(delta, &buf);
    size_t pos = 0;
    int32_t decoded[2];
    EXPECT_FALSE(GetDeltaArray(buf, &pos, 2, decoded)) << delta;
  }
}

TEST(VarintTest, SortedIdsEncodeNearOneBytePerValue) {
  // The claim the v2 size win rests on: dense sorted id runs cost ~1
  // byte/value as deltas.
  std::vector<int32_t> ids;
  for (int32_t i = 0; i < 10000; ++i) ids.push_back(i * 3);
  std::string buf;
  AppendDeltaArray(ids.data(), ids.size(), &buf);
  EXPECT_EQ(buf.size(), ids.size());  // delta 3 zigzags to 6: one byte each
}

}  // namespace
}  // namespace dki
