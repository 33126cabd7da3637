#include "dram/remanence.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace msa::dram {
namespace {

TEST(Remanence, RefreshActiveMeansNoDecay) {
  // The paper's setting: the board stays powered, DRAM refreshed; residue
  // survives bit-exact.
  DramModel d{DramConfig::test_small()};
  d.fill_range(0x1000, 0x1000, 0xA7);
  const std::uint32_t before = d.checksum(0x1000, 0x1000);

  RemanenceModel rem{RemanenceParams{.refresh_active = true}};
  util::Prng prng{1};
  RemanenceScratch scratch;
  EXPECT_EQ(rem.apply(d, 0x1000, 0x1000, 3600.0, prng, scratch), 0u);
  EXPECT_EQ(d.checksum(0x1000, 0x1000), before);
}

TEST(Remanence, DecayProbabilityZeroWhenRefreshed) {
  RemanenceModel rem{RemanenceParams{.refresh_active = true}};
  EXPECT_DOUBLE_EQ(rem.decay_probability(100.0), 0.0);
}

TEST(Remanence, DecayProbabilityMonotonicInTime) {
  RemanenceModel rem{
      RemanenceParams{.refresh_active = false, .retention_half_life_s = 2.0}};
  double prev = 0.0;
  for (double t : {0.5, 1.0, 2.0, 4.0, 8.0}) {
    const double p = rem.decay_probability(t);
    EXPECT_GT(p, prev);
    prev = p;
  }
  EXPECT_NEAR(rem.decay_probability(2.0), 0.5, 1e-9);  // one half-life
  EXPECT_LT(rem.decay_probability(1e9), 1.0 + 1e-12);
}

TEST(Remanence, NegativeOrZeroElapsedNoDecay) {
  RemanenceModel rem{RemanenceParams{.refresh_active = false}};
  EXPECT_DOUBLE_EQ(rem.decay_probability(0.0), 0.0);
  EXPECT_DOUBLE_EQ(rem.decay_probability(-5.0), 0.0);
}

TEST(Remanence, UnrefreshedDataDegrades) {
  DramModel d{DramConfig::test_small()};
  d.fill_range(0x2000, 0x1000, 0xFF);
  RemanenceModel rem{RemanenceParams{.refresh_active = false,
                                     .retention_half_life_s = 1.0,
                                     .anti_cell_fraction = 0.0}};
  util::Prng prng{42};
  RemanenceScratch scratch;
  const std::uint64_t flips = rem.apply(d, 0x2000, 0x1000, 1.0, prng, scratch);
  // Half-life elapsed, all-ones data, true cells discharge to 0:
  // expect roughly half of the 0x1000*8 bits flipped.
  const double expected = 0x1000 * 8 * 0.5;
  EXPECT_NEAR(static_cast<double>(flips), expected, expected * 0.1);
  EXPECT_TRUE(d.any_nonzero(0x2000, 0x1000));  // partial, not total, loss
}

TEST(Remanence, ZeroDataWithTrueCellsDoesNotFlip) {
  // All-zero content in pure true-cell DRAM is already at discharge value.
  DramModel d{DramConfig::test_small()};
  RemanenceModel rem{RemanenceParams{.refresh_active = false,
                                     .retention_half_life_s = 1.0,
                                     .anti_cell_fraction = 0.0}};
  util::Prng prng{7};
  RemanenceScratch scratch;
  EXPECT_EQ(rem.apply(d, 0x3000, 0x1000, 100.0, prng, scratch), 0u);
}

TEST(Remanence, AntiCellsFlipZerosUpward) {
  DramModel d{DramConfig::test_small()};
  d.zero_range(0x4000, 0x1000);
  RemanenceModel rem{RemanenceParams{.refresh_active = false,
                                     .retention_half_life_s = 1.0,
                                     .anti_cell_fraction = 1.0}};
  util::Prng prng{11};
  RemanenceScratch scratch;
  const std::uint64_t flips = rem.apply(d, 0x4000, 0x1000, 1.0, prng, scratch);
  EXPECT_GT(flips, 0u);
  EXPECT_TRUE(d.any_nonzero(0x4000, 0x1000));
}

TEST(Remanence, DeterministicGivenSeed) {
  RemanenceModel rem{RemanenceParams{.refresh_active = false,
                                     .retention_half_life_s = 2.0}};
  DramModel d1{DramConfig::test_small()};
  DramModel d2{DramConfig::test_small()};
  d1.fill_range(0x1000, 0x800, 0x3C);
  d2.fill_range(0x1000, 0x800, 0x3C);
  util::Prng p1{99}, p2{99};
  RemanenceScratch s1, s2;
  EXPECT_EQ(rem.apply(d1, 0x1000, 0x800, 1.5, p1, s1),
            rem.apply(d2, 0x1000, 0x800, 1.5, p2, s2));
  EXPECT_EQ(d1.checksum(0x1000, 0x800), d2.checksum(0x1000, 0x800));
}

// --- preconditions ------------------------------------------------------

TEST(Remanence, RejectsNanAntiCellFraction) {
  EXPECT_THROW(
      RemanenceModel(RemanenceParams{
          .anti_cell_fraction = std::numeric_limits<double>::quiet_NaN()}),
      std::invalid_argument);
}

TEST(Remanence, RejectsAntiCellFractionOutsideUnitInterval) {
  EXPECT_THROW(RemanenceModel(RemanenceParams{.anti_cell_fraction = -0.01}),
               std::invalid_argument);
  EXPECT_THROW(RemanenceModel(RemanenceParams{.anti_cell_fraction = 1.01}),
               std::invalid_argument);
  EXPECT_NO_THROW(RemanenceModel(RemanenceParams{.anti_cell_fraction = 0.0}));
  EXPECT_NO_THROW(RemanenceModel(RemanenceParams{.anti_cell_fraction = 1.0}));
}

TEST(Remanence, RejectsBadHalfLifeWhenRefreshOff) {
  for (const double h : {0.0, -2.0, std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
    SCOPED_TRACE(h);
    EXPECT_THROW(RemanenceModel(RemanenceParams{
                     .refresh_active = false, .retention_half_life_s = h}),
                 std::invalid_argument);
    // A refreshed board never decays, so its half-life is never used.
    EXPECT_NO_THROW(RemanenceModel(RemanenceParams{
        .refresh_active = true, .retention_half_life_s = h}));
  }
}

TEST(Remanence, ApplyRejectsNanElapsed) {
  DramModel d{DramConfig::test_small()};
  d.fill_range(0x1000, 0x100, 0x5A);
  RemanenceModel rem{RemanenceParams{.refresh_active = false}};
  util::Prng prng{3};
  RemanenceScratch scratch;
  EXPECT_THROW((void)rem.apply(d, 0x1000, 0x100,
                               std::numeric_limits<double>::quiet_NaN(), prng,
                               scratch),
               std::invalid_argument);
}

// --- kernel equivalence -------------------------------------------------
//
// The reference is the original per-bit loop, verbatim apart from
// running on a byte buffer instead of chunks read from DRAM: the kernel
// must flip exactly the bits it flips, consuming the same draws in the
// same order.

std::uint64_t reference_decay(std::vector<std::uint8_t>& buf, double p,
                              double anti_cell_fraction, util::Prng& prng) {
  std::uint64_t flipped = 0;
  for (auto& byte : buf) {
    for (int bit = 0; bit < 8; ++bit) {
      // Decide the discharge value of this cell, then flip toward it
      // with probability p if the stored value differs.
      const bool anti = prng.chance(anti_cell_fraction);
      const std::uint8_t discharge = anti ? 1 : 0;
      const std::uint8_t current = (byte >> bit) & 1u;
      if (current != discharge && prng.chance(p)) {
        byte = static_cast<std::uint8_t>(byte ^ (1u << bit));
        ++flipped;
      }
    }
  }
  return flipped;
}

constexpr double kHalfLife = 2.0;
// p ≈ 0.29, ≈ 0.82, 1 − 2⁻³⁰, and exactly 1.0 at half-life 2 s.
constexpr double kDelays[] = {1.0, 5.0, 60.0, 200.0};
constexpr double kAntiFractions[] = {0.0, 0.1, 0.5, 1.0};

RemanenceModel unrefreshed(double anti_cell_fraction) {
  return RemanenceModel{RemanenceParams{.refresh_active = false,
                                        .retention_half_life_s = kHalfLife,
                                        .anti_cell_fraction =
                                            anti_cell_fraction}};
}

std::vector<std::uint8_t> pattern(const std::string& kind, std::size_t len,
                                  std::uint64_t seed) {
  std::vector<std::uint8_t> data(len, 0);
  util::Prng gen{seed};
  for (std::size_t i = 0; i < len; ++i) {
    if (kind == "random") {
      data[i] = static_cast<std::uint8_t>(gen());
    } else if (kind == "ones") {
      data[i] = 0xFF;
    } else if (kind == "sparse" && gen.below(61) == 0) {
      data[i] = static_cast<std::uint8_t>(1u << gen.below(8));
    }
  }
  return data;
}

std::vector<std::uint8_t> read_back(const DramModel& d, PhysAddr addr,
                                    std::size_t len) {
  std::vector<std::uint8_t> out(len);
  d.read_block(addr, out);
  return out;
}

// After the kernel's last call, its next unconsumed draw must be the
// reference generator's next output: both consumed the same count.
void expect_same_stream_position(const RemanenceScratch& scratch,
                                 util::Prng& ref) {
  if (scratch.next_word < scratch.words.size()) {
    EXPECT_EQ(scratch.words[scratch.next_word], ref());
  }
}

TEST(RemanenceKernel, MatchesPerBitLoopAcrossRatesPatternsAndLengths) {
  constexpr PhysAddr kAddr = 0x10000;
  std::uint64_t seed = 1;
  for (const double f : kAntiFractions) {
    const RemanenceModel rem = unrefreshed(f);
    for (const double delay : kDelays) {
      const double p = rem.decay_probability(delay);
      for (const char* kind : {"random", "zeros", "ones", "sparse"}) {
        // 65537 crosses the kernel's 64 KiB chunk by one byte.
        for (const std::size_t len : {1u, 7u, 4097u, 65537u}) {
          SCOPED_TRACE(::testing::Message()
                       << "f=" << f << " delay=" << delay << " data=" << kind
                       << " len=" << len);
          ++seed;
          std::vector<std::uint8_t> expect = pattern(kind, len, seed);
          DramModel d{DramConfig::test_small()};
          d.write_block(kAddr, expect);

          util::Prng ref{seed * 31};
          const std::uint64_t ref_flips = reference_decay(expect, p, f, ref);
          util::Prng prng{seed * 31};
          RemanenceScratch scratch;
          EXPECT_EQ(rem.apply(d, kAddr, len, delay, prng, scratch), ref_flips);
          EXPECT_EQ(read_back(d, kAddr, len), expect);
          expect_same_stream_position(scratch, ref);
        }
      }
    }
  }
}

TEST(RemanenceKernel, PageLoopSharesOneStream) {
  // A sweep trial's shape: 14 scattered 4 KiB pages, one prng and one
  // scratch, against one continuous reference stream over the pages in
  // the same order.
  constexpr std::size_t kPage = 4096;
  constexpr int kPages = 14;
  for (const double f : kAntiFractions) {
    SCOPED_TRACE(f);
    const RemanenceModel rem = unrefreshed(f);
    const double p = rem.decay_probability(5.0);
    DramModel d{DramConfig::test_small()};
    std::vector<PhysAddr> addrs;
    std::vector<std::vector<std::uint8_t>> expect;
    for (int i = 0; i < kPages; ++i) {
      addrs.push_back(0x400000 - static_cast<PhysAddr>(i) * 3 * kPage);
      expect.push_back(pattern(i % 3 == 2 ? "sparse" : "random", kPage, 100 + i));
      d.write_block(addrs.back(), expect.back());
    }
    util::Prng ref{0xDEC4F};
    util::Prng prng{0xDEC4F};
    RemanenceScratch scratch;
    for (int i = 0; i < kPages; ++i) {
      const std::uint64_t ref_flips = reference_decay(expect[i], p, f, ref);
      EXPECT_EQ(rem.apply(d, addrs[i], kPage, 5.0, prng, scratch), ref_flips);
      EXPECT_EQ(read_back(d, addrs[i], kPage), expect[i]) << "page " << i;
    }
    expect_same_stream_position(scratch, ref);
  }
}

TEST(RemanenceKernel, ScratchReusedAcrossDelays) {
  // One scratch serves two calls with different decay probabilities:
  // nothing derived from the first call's delay may leak into the
  // second.
  for (const double f : kAntiFractions) {
    SCOPED_TRACE(f);
    const RemanenceModel rem = unrefreshed(f);
    DramModel d{DramConfig::test_small()};
    std::vector<std::uint8_t> a = pattern("random", 3001, 7);
    std::vector<std::uint8_t> b = pattern("random", 5003, 8);
    d.write_block(0x20000, a);
    d.write_block(0x30000, b);

    util::Prng ref{77};
    const std::uint64_t ref_a =
        reference_decay(a, rem.decay_probability(1.0), f, ref);
    const std::uint64_t ref_b =
        reference_decay(b, rem.decay_probability(60.0), f, ref);
    util::Prng prng{77};
    RemanenceScratch scratch;
    EXPECT_EQ(rem.apply(d, 0x20000, a.size(), 1.0, prng, scratch), ref_a);
    EXPECT_EQ(rem.apply(d, 0x30000, b.size(), 60.0, prng, scratch), ref_b);
    EXPECT_EQ(read_back(d, 0x20000, a.size()), a);
    EXPECT_EQ(read_back(d, 0x30000, b.size()), b);
    expect_same_stream_position(scratch, ref);
  }
}

}  // namespace
}  // namespace msa::dram
