#include "util/crc32.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "simd_levels.h"

namespace msa::util {
namespace {

TEST(Crc32, KnownVector) {
  // The canonical CRC-32 check value.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
}

TEST(Crc32, EmptyInput) { EXPECT_EQ(crc32(""), 0x00000000u); }

TEST(Crc32, SingleByte) {
  // crc32("a") is a standard known value.
  EXPECT_EQ(crc32("a"), 0xE8B7BE43u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  Crc32 inc;
  for (const char c : data) {
    inc.update(std::string_view{&c, 1});
  }
  EXPECT_EQ(inc.value(), crc32(data));
}

TEST(Crc32, ChunkBoundaryInvariance) {
  std::vector<std::uint8_t> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31);
  }
  const std::uint32_t whole = crc32(data);
  for (const std::size_t split : {1UL, 7UL, 500UL, 999UL}) {
    Crc32 c;
    c.update(std::span{data.data(), split});
    c.update(std::span{data.data() + split, data.size() - split});
    EXPECT_EQ(c.value(), whole) << "split at " << split;
  }
}

/// Bit-serial CRC-32 straight from the polynomial: no tables at all.
std::uint32_t reference_crc32(std::span<const std::uint8_t> bytes) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::uint8_t b : bytes) {
    c ^= b;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return ~c;
}

// Lengths 0-300 cover the slice-by-8 head and tail alone (below 64
// bytes), every 16-byte block count of the PCLMUL fold's loops, and
// every tail length; offsets 0-15 move the data across every alignment
// of the fold's 16-byte boundary. Each runs at every level this host has.
TEST(Crc32, SliceBy8MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  std::vector<std::uint8_t> data(16 + 300);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 151 + 7);
  }
  std::vector<std::uint8_t> big(std::size_t{1} << 20);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>((i * 2654435761u) >> 13);
  }
  const std::uint32_t big_crc = reference_crc32(big);
  for (const SimdLevel level : simd_levels_up_to_detected()) {
    const SimdCapGuard cap{level};
    for (std::size_t offset = 0; offset < 16; ++offset) {
      for (std::size_t len = 0; len <= 300; ++len) {
        const std::span<const std::uint8_t> bytes{data.data() + offset, len};
        EXPECT_EQ(crc32(bytes), reference_crc32(bytes))
            << simd_level_name(level) << " offset " << offset << " length "
            << len;
      }
    }
    EXPECT_EQ(crc32(big), big_crc) << simd_level_name(level) << " 1 MiB";
  }
}

TEST(Crc32, UpdateSplitAtEveryPointMatchesOneShot) {
  std::vector<std::uint8_t> data(300);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(0xA5 ^ (i * 29));
  }
  const std::uint32_t whole = reference_crc32(data);
  for (const SimdLevel level : simd_levels_up_to_detected()) {
    const SimdCapGuard cap{level};
    for (std::size_t split = 0; split <= data.size(); ++split) {
      Crc32 c;
      c.update(std::span{data.data(), split});
      c.update(std::span{data.data() + split, data.size() - split});
      EXPECT_EQ(c.value(), whole)
          << simd_level_name(level) << " split at " << split;
    }
  }
}

TEST(Crc32, ResetRestoresInitialState) {
  Crc32 c;
  c.update("garbage");
  c.reset();
  c.update("123456789");
  EXPECT_EQ(c.value(), 0xCBF43926u);
}

TEST(Crc32, SensitiveToSingleBitFlip) {
  std::vector<std::uint8_t> data(64, 0xAB);
  const std::uint32_t before = crc32(data);
  data[30] ^= 0x01;
  EXPECT_NE(crc32(data), before);
}

TEST(Crc32, DifferentOrderDifferentCrc) {
  EXPECT_NE(crc32("ab"), crc32("ba"));
}

}  // namespace
}  // namespace msa::util
