#include "util/simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "simd_levels.h"

namespace msa::util {
namespace {

TEST(Simd, CapClampsToDetectedLevel) {
  const SimdLevel detected = detected_simd_level();
#if !defined(MSA_SIMD_SSE2)
  EXPECT_EQ(detected, SimdLevel::kScalar);
#elif !defined(MSA_SIMD_AVX2)
  EXPECT_EQ(detected, SimdLevel::kSse2);
#else
  EXPECT_GE(detected, SimdLevel::kSse2);
#endif
  EXPECT_EQ(simd_level(), detected);
  for (const SimdLevel cap :
       {SimdLevel::kScalar, SimdLevel::kSse2, SimdLevel::kAvx2}) {
    {
      const SimdCapGuard guard{cap};
      EXPECT_EQ(simd_level(), std::min(cap, detected))
          << "cap " << simd_level_name(cap);
      EXPECT_EQ(detected_simd_level(), detected);
    }
    EXPECT_EQ(simd_level(), detected) << "after cap " << simd_level_name(cap);
  }
  const std::vector<SimdLevel> levels = simd_levels_up_to_detected();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), SimdLevel::kScalar);
  EXPECT_EQ(levels.back(), detected);
}

}  // namespace
}  // namespace msa::util
