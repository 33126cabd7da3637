#include "util/crc32.h"

#include <array>
#include <cstddef>

#include "util/simd.h"

#if defined(MSA_SIMD_AVX2)
#include <immintrin.h>
#endif

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

/// Advances the CRC register `c` over n bytes, eight at a time.
std::uint32_t slice_by_8(std::uint32_t c, const std::uint8_t* p,
                         std::size_t n) noexcept {
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
  return c;
}

#if defined(MSA_SIMD_AVX2)

// Carry-less multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009), in the
// bit-reflected domain of this CRC. Each constant pair holds powers of x
// modulo P for one fold distance: multiplying an accumulator's two qwords
// by them and XORing the products into the data that distance further on
// leaves the CRC of the whole unchanged.

#define MSA_CRC_TARGET __attribute__((target("pclmul,sse4.1")))

/// One 128-bit fold: x carried forward over the distance `k` encodes,
/// onto the block `next`.
MSA_CRC_TARGET inline __m128i fold16(__m128i x, __m128i k,
                                     __m128i next) noexcept {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

MSA_CRC_TARGET inline __m128i load16(const std::uint8_t* p) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// The CRC register after n bytes, n >= 64 and a multiple of 16: four
/// accumulators fold 64 bytes per step, then fold into one, then take
/// the remaining 16-byte blocks, and the 128-bit remainder is reduced to
/// 32 bits (a fold to 64 bits, then a Barrett reduction).
MSA_CRC_TARGET std::uint32_t fold_pclmul(std::uint32_t c, const std::uint8_t* p,
                                         std::size_t n) noexcept {
  const __m128i k_512 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k_128 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k_64 = _mm_set_epi64x(0, 0x163cd6124);
  // High qword mu = floor(x^64 / P), low qword P itself, both reflected.
  const __m128i barrett = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  __m128i x0 = _mm_xor_si128(load16(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load16(p + 16);
  __m128i x2 = load16(p + 32);
  __m128i x3 = load16(p + 48);
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    x0 = fold16(x0, k_512, load16(p));
    x1 = fold16(x1, k_512, load16(p + 16));
    x2 = fold16(x2, k_512, load16(p + 32));
    x3 = fold16(x3, k_512, load16(p + 48));
  }
  x0 = fold16(x0, k_128, x1);
  x0 = fold16(x0, k_128, x2);
  x0 = fold16(x0, k_128, x3);
  for (; n > 0; p += 16, n -= 16) x0 = fold16(x0, k_128, load16(p));

  __m128i x = _mm_xor_si128(_mm_srli_si128(x0, 8),
                            _mm_clmulepi64_si128(x0, k_128, 0x10));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k_64, 0x00));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), barrett, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), barrett, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, t), 1));
}

#undef MSA_CRC_TARGET

#endif

}  // namespace

void Crc32::update(std::span<const std::uint8_t> bytes) noexcept {
  std::uint32_t c = state_;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
#if defined(MSA_SIMD_AVX2)
  // Slice-by-8 takes the bytes up to a 16-byte boundary and the tail
  // past the last whole 16-byte block; the fold takes the rest.
  if (n >= 64 && simd_level() >= SimdLevel::kAvx2) {
    const std::size_t head = -reinterpret_cast<std::uintptr_t>(p) & 15u;
    c = slice_by_8(c, p, head);
    p += head;
    n -= head;
    if (n >= 64) {
      const std::size_t bulk = n & ~std::size_t{15};
      c = fold_pclmul(c, p, bulk);
      p += bulk;
      n -= bulk;
    }
  }
#endif
  state_ = slice_by_8(c, p, n);
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
