#include "util/simd.h"

#include <algorithm>
#include <atomic>

namespace msa::util {

namespace {

SimdLevel detect() noexcept {
#if defined(MSA_SIMD_AVX2)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("pclmul") &&
      __builtin_cpu_supports("sse4.1")) {
    return SimdLevel::kAvx2;
  }
#endif
#if defined(MSA_SIMD_SSE2)
  return SimdLevel::kSse2;
#else
  return SimdLevel::kScalar;
#endif
}

std::atomic<SimdLevel> g_cap{SimdLevel::kAvx2};

}  // namespace

SimdLevel detected_simd_level() noexcept {
  static const SimdLevel detected = detect();
  return detected;
}

SimdLevel simd_level() noexcept {
  return std::min(detected_simd_level(), g_cap.load(std::memory_order_relaxed));
}

void set_simd_cap(SimdLevel cap) noexcept {
  g_cap.store(cap, std::memory_order_relaxed);
}

}  // namespace msa::util
