// Test helpers for the SIMD dispatch level: the levels a kernel can run
// at on this host, and a guard that caps the level for one scope, so a
// failing assertion cannot leave a cap behind for later tests.
#pragma once

#include <vector>

#include "util/simd.h"

namespace msa::util {

/// Every level from kScalar up to detected_simd_level(), ascending.
inline std::vector<SimdLevel> simd_levels_up_to_detected() {
  std::vector<SimdLevel> levels;
  for (auto l = SimdLevel::kScalar; l <= detected_simd_level();
       l = static_cast<SimdLevel>(static_cast<int>(l) + 1)) {
    levels.push_back(l);
  }
  return levels;
}

/// "scalar", "sse2" or "avx2", for failure messages.
inline const char* simd_level_name(SimdLevel level) {
  return level == SimdLevel::kAvx2   ? "avx2"
         : level == SimdLevel::kSse2 ? "sse2"
                                     : "scalar";
}

/// Caps simd_level() at `cap` until the end of the scope.
class SimdCapGuard {
 public:
  explicit SimdCapGuard(SimdLevel cap) noexcept { set_simd_cap(cap); }
  ~SimdCapGuard() { set_simd_cap(SimdLevel::kAvx2); }
  SimdCapGuard(const SimdCapGuard&) = delete;
  SimdCapGuard& operator=(const SimdCapGuard&) = delete;
};

}  // namespace msa::util
