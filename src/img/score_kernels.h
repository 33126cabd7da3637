// Integer scoring kernels behind img::pixel_match_fraction / psnr_db.
//
// Both metrics reduce to exact integer folds over the contiguous RGB
// byte span (a pixel-equality popcount and a u64 sum of squared byte
// differences), so the scalar and SSE2 implementations produce
// bit-identical results — the squared-error total for any image this
// simulator handles stays far below 2^53, so converting the u64 sum to
// double loses nothing and the reduction order cannot matter.
//
// The SSE2 path compiles in under the MSA_ENABLE_SIMD CMake option on
// x86-64 and runs at util::simd_level() kSse2 and above (these folds have
// no AVX2 backend), so a test that caps the level can exercise and
// byte-compare both paths in one binary; scalar is always compiled and is
// the only path everywhere else (AArch64 included).
#pragma once

#include <cstddef>
#include <cstdint>

namespace msa::img {

/// Backend the next scoring call will use: "sse2" at util::simd_level()
/// kSse2 and above, "scalar" below.
[[nodiscard]] const char* simd_backend() noexcept;

namespace detail {

/// Number of 3-byte RGB pixels that are equal in a and b (all three
/// channel bytes match). n_pixels is the pixel count; the byte spans are
/// 3 * n_pixels long.
[[nodiscard]] std::size_t match_count(const std::uint8_t* a,
                                      const std::uint8_t* b,
                                      std::size_t n_pixels) noexcept;

/// Sum over n_bytes of (a[i] - b[i])^2, exact in u64.
[[nodiscard]] std::uint64_t squared_error(const std::uint8_t* a,
                                          const std::uint8_t* b,
                                          std::size_t n_bytes) noexcept;

}  // namespace detail

}  // namespace msa::img
