// The one SIMD dispatch level. Every vector kernel in the tree — CRC-32,
// the int8 conv/pool kernels, the scoring folds, the signature prefilter
// and the permutation gate's lane sums — asks simd_level() which backend
// to run, and each backend is bit-identical to the scalar loop it
// replaces, so the level only ever changes speed.
//
// The levels are ordered: kScalar < kSse2 < kAvx2. kAvx2 also stands for
// PCLMULQDQ and SSE4.1, which every AVX2 CPU has and the CRC-32 fold
// needs. The level is the lower of two things:
//   - what the build compiled in: kSse2 under MSA_ENABLE_SIMD on x86-64
//     (SSE2 is part of that ABI); kAvx2 when the compiler is GCC or Clang,
//     whose target("...") attribute compiles the AVX2/PCLMUL kernels
//     without a global -mavx2; kScalar everywhere else (AArch64 and
//     -DMSA_ENABLE_SIMD=OFF included);
//   - what the CPU reports, detected once with __builtin_cpu_supports.
// set_simd_cap() lowers it further. It is a hook for tests, which run each
// kernel at every level up to the detected one and compare bytes; there is
// no flag or environment variable behind it.
#pragma once

#include <cstdint>

#if defined(MSA_ENABLE_SIMD) && (defined(__SSE2__) || defined(_M_X64))
#define MSA_SIMD_SSE2 1
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MSA_SIMD_AVX2 1
#endif
#endif

namespace msa::util {

enum class SimdLevel : std::uint8_t { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

/// The highest level both the build and this CPU support.
[[nodiscard]] SimdLevel detected_simd_level() noexcept;

/// The level kernels run at: detected_simd_level(), lowered to the cap.
[[nodiscard]] SimdLevel simd_level() noexcept;

/// Caps simd_level() at `cap` (a cap above the detected level leaves the
/// detected level). For tests; SimdLevel::kAvx2 lifts the cap.
void set_simd_cap(SimdLevel cap) noexcept;

}  // namespace msa::util
