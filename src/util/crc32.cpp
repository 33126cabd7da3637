#include "util/crc32.h"

#include <array>
#include <cstddef>

namespace msa::util {

namespace {

// Slice-by-8: kTables[0] is the classic bytewise table; kTables[k][b]
// is the CRC of byte b followed by k zero bytes, so eight table lookups
// fold eight input bytes at once.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr auto kTables = make_tables();

/// Little-endian load, independent of host byte order.
std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

void Crc32::update(std::span<const std::uint8_t> bytes) noexcept {
  std::uint32_t c = state_;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
        kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
        kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = kTables[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  state_ = c;
}

void Crc32::update(std::string_view text) noexcept {
  update(std::span{reinterpret_cast<const std::uint8_t*>(text.data()), text.size()});
}

std::uint32_t crc32(std::span<const std::uint8_t> bytes) noexcept {
  Crc32 c;
  c.update(bytes);
  return c.value();
}

std::uint32_t crc32(std::string_view text) noexcept {
  Crc32 c;
  c.update(text);
  return c.value();
}

}  // namespace msa::util
