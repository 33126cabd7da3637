#include "img/score_kernels.h"

#include <bit>

#include "util/simd.h"

#if defined(MSA_SIMD_SSE2)
#include <emmintrin.h>
#endif

namespace msa::img {

namespace {

std::size_t match_count_scalar(const std::uint8_t* a, const std::uint8_t* b,
                               std::size_t n_pixels) noexcept {
  std::size_t same = 0;
  for (std::size_t i = 0; i < n_pixels; ++i) {
    same += static_cast<std::size_t>((a[3 * i] == b[3 * i]) &
                                     (a[3 * i + 1] == b[3 * i + 1]) &
                                     (a[3 * i + 2] == b[3 * i + 2]));
  }
  return same;
}

std::uint64_t squared_error_scalar(const std::uint8_t* a,
                                   const std::uint8_t* b,
                                   std::size_t n_bytes) noexcept {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < n_bytes; ++i) {
    const std::int32_t d =
        static_cast<std::int32_t>(a[i]) - static_cast<std::int32_t>(b[i]);
    sum += static_cast<std::uint64_t>(d * d);
  }
  return sum;
}

#if defined(MSA_SIMD_SSE2)

std::size_t match_count_sse2(const std::uint8_t* a, const std::uint8_t* b,
                             std::size_t n_pixels) noexcept {
  std::size_t same = 0;
  std::size_t i = 0;
  // 16 pixels = 48 bytes per step: three byte-equality movemasks build a
  // 48-bit lane mask, AND-folded so bit 3p survives iff all three bytes
  // of pixel p matched, then popcounted against the 0b001001... comb.
  for (; i + 16 <= n_pixels; i += 16) {
    const std::uint8_t* pa = a + 3 * i;
    const std::uint8_t* pb = b + 3 * i;
    const __m128i e0 = _mm_cmpeq_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(pa)),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(pb)));
    const __m128i e1 = _mm_cmpeq_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(pa + 16)),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(pb + 16)));
    const __m128i e2 = _mm_cmpeq_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(pa + 32)),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(pb + 32)));
    const std::uint64_t m =
        static_cast<std::uint64_t>(
            static_cast<unsigned>(_mm_movemask_epi8(e0))) |
        (static_cast<std::uint64_t>(
             static_cast<unsigned>(_mm_movemask_epi8(e1)))
         << 16) |
        (static_cast<std::uint64_t>(
             static_cast<unsigned>(_mm_movemask_epi8(e2)))
         << 32);
    const std::uint64_t all3 = m & (m >> 1) & (m >> 2);
    same += static_cast<std::size_t>(
        std::popcount(all3 & 0x0000249249249249ULL));
  }
  return same + match_count_scalar(a + 3 * i, b + 3 * i, n_pixels - i);
}

std::uint64_t squared_error_sse2(const std::uint8_t* a, const std::uint8_t* b,
                                 std::size_t n_bytes) noexcept {
  __m128i acc = _mm_setzero_si128();
  const __m128i zero = _mm_setzero_si128();
  std::size_t i = 0;
  for (; i + 16 <= n_bytes; i += 16) {
    const __m128i va =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i vb =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    const __m128i dlo = _mm_sub_epi16(_mm_unpacklo_epi8(va, zero),
                                      _mm_unpacklo_epi8(vb, zero));
    const __m128i dhi = _mm_sub_epi16(_mm_unpackhi_epi8(va, zero),
                                      _mm_unpackhi_epi8(vb, zero));
    // madd pairs the squares into 4 x u32 lanes, each <= 2 * 255^2, so
    // the lane sum below stays far inside u32 before widening to u64.
    const __m128i s = _mm_add_epi32(_mm_madd_epi16(dlo, dlo),
                                    _mm_madd_epi16(dhi, dhi));
    acc = _mm_add_epi64(acc, _mm_unpacklo_epi32(s, zero));
    acc = _mm_add_epi64(acc, _mm_unpackhi_epi32(s, zero));
  }
  std::uint64_t sum =
      static_cast<std::uint64_t>(_mm_cvtsi128_si64(acc)) +
      static_cast<std::uint64_t>(
          _mm_cvtsi128_si64(_mm_unpackhi_epi64(acc, acc)));
  return sum + squared_error_scalar(a + i, b + i, n_bytes - i);
}

#endif

bool use_simd() noexcept {
  return util::simd_level() >= util::SimdLevel::kSse2;
}

}  // namespace

const char* simd_backend() noexcept { return use_simd() ? "sse2" : "scalar"; }

namespace detail {

std::size_t match_count(const std::uint8_t* a, const std::uint8_t* b,
                        std::size_t n_pixels) noexcept {
#if defined(MSA_SIMD_SSE2)
  if (use_simd()) return match_count_sse2(a, b, n_pixels);
#endif
  return match_count_scalar(a, b, n_pixels);
}

std::uint64_t squared_error(const std::uint8_t* a, const std::uint8_t* b,
                            std::size_t n_bytes) noexcept {
#if defined(MSA_SIMD_SSE2)
  if (use_simd()) return squared_error_sse2(a, b, n_bytes);
#endif
  return squared_error_scalar(a, b, n_bytes);
}

}  // namespace detail

}  // namespace msa::img
