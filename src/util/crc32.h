// CRC-32 (IEEE 802.3 polynomial, reflected). Used to checksum xmodel
// payloads and scraped memory regions so tests can assert byte-exact
// residue recovery without storing full golden buffers, and to frame
// every record and block of the campaign store.
//
// update() runs slice-by-8 (eight table lookups per 8 bytes), which is
// also the reference. At util::simd_level() avx2 an input of 64 bytes or
// more takes slice-by-8 up to a 16-byte boundary, a PCLMULQDQ fold-by-4
// over the whole 16-byte blocks after it, and slice-by-8 again for the
// tail. The fold computes the same register, so the value never depends
// on the level or on how the input was split across update() calls.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

namespace msa::util {

/// Incremental CRC-32. Construct, update() over chunks, value().
class Crc32 {
 public:
  void update(std::span<const std::uint8_t> bytes) noexcept;
  void update(std::string_view text) noexcept;

  /// Finalized CRC value for everything fed so far.
  [[nodiscard]] std::uint32_t value() const noexcept { return ~state_; }

  void reset() noexcept { state_ = 0xFFFFFFFFu; }

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

/// One-shot convenience.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> bytes) noexcept;
[[nodiscard]] std::uint32_t crc32(std::string_view text) noexcept;

}  // namespace msa::util
