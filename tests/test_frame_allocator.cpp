#include "mem/frame_allocator.h"

#include <gtest/gtest.h>

#include <set>
#include <tuple>
#include <utility>

#include "util/prng.h"

namespace msa::mem {
namespace {

struct Fixture {
  dram::DramModel dram{dram::DramConfig::test_small()};

  PageFrameAllocator make(SanitizePolicy sanitize = SanitizePolicy::kNone,
                          PlacementPolicy placement =
                              PlacementPolicy::kSequentialLifo,
                          std::uint64_t frames = 64) {
    return PageFrameAllocator{
        dram, FrameAllocatorConfig{.first_pfn = 0x100,
                                   .frame_count = frames,
                                   .sanitize = sanitize,
                                   .placement = placement,
                                   .seed = 5}};
  }
};

TEST(FrameAllocator, SequentialLifoHandsOutAscendingPfns) {
  Fixture f;
  auto a = f.make();
  EXPECT_EQ(a.allocate(1).value(), 0x100u);
  EXPECT_EQ(a.allocate(1).value(), 0x101u);
  EXPECT_EQ(a.allocate(1).value(), 0x102u);
}

TEST(FrameAllocator, LifoReusesMostRecentlyFreed) {
  Fixture f;
  auto a = f.make();
  const Pfn p0 = a.allocate(1).value();
  const Pfn p1 = a.allocate(1).value();
  a.free(p0);
  a.free(p1);
  // LIFO: p1 comes back first — immediate dirty reuse, the worst case for
  // residue exposure to the *next* tenant.
  EXPECT_EQ(a.allocate(2).value(), p1);
  EXPECT_EQ(a.allocate(2).value(), p0);
}

TEST(FrameAllocator, FifoDelaysReuse) {
  Fixture f;
  auto a = f.make(SanitizePolicy::kNone, PlacementPolicy::kSequentialFifo, 8);
  std::vector<Pfn> first;
  for (int i = 0; i < 8; ++i) first.push_back(a.allocate(1).value());
  a.free(first[0]);
  a.free(first[1]);
  // FIFO pops the oldest free entry.
  EXPECT_EQ(a.allocate(2).value(), first[0]);
  EXPECT_EQ(a.allocate(2).value(), first[1]);
}

TEST(FrameAllocator, RandomizedPlacementIsSeededAndScattered) {
  Fixture f1, f2;
  auto a1 = f1.make(SanitizePolicy::kNone, PlacementPolicy::kRandomized, 64);
  auto a2 = f2.make(SanitizePolicy::kNone, PlacementPolicy::kRandomized, 64);
  std::vector<Pfn> s1, s2;
  for (int i = 0; i < 32; ++i) {
    s1.push_back(a1.allocate(1).value());
    s2.push_back(a2.allocate(1).value());
  }
  EXPECT_EQ(s1, s2);  // same seed, same sequence (reproducibility)
  // And the sequence is not simply ascending.
  bool ascending = true;
  for (std::size_t i = 1; i < s1.size(); ++i) {
    if (s1[i] != s1[i - 1] + 1) ascending = false;
  }
  EXPECT_FALSE(ascending);
}

TEST(FrameAllocator, ExhaustionReturnsNullopt) {
  Fixture f;
  auto a = f.make(SanitizePolicy::kNone, PlacementPolicy::kSequentialLifo, 4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(a.allocate(1).has_value());
  EXPECT_FALSE(a.allocate(1).has_value());
  EXPECT_EQ(a.free_frames(), 0u);
  EXPECT_EQ(a.used_frames(), 4u);
}

TEST(FrameAllocator, DoubleFreeThrows) {
  Fixture f;
  auto a = f.make();
  const Pfn p = a.allocate(1).value();
  a.free(p);
  EXPECT_THROW(a.free(p), std::logic_error);
}

TEST(FrameAllocator, ForeignPfnThrows) {
  Fixture f;
  auto a = f.make();
  EXPECT_THROW(a.free(0x99), std::out_of_range);
  EXPECT_THROW((void)a.info(0x1000), std::out_of_range);
}

TEST(FrameAllocator, NoSanitizeLeavesResidue) {
  Fixture f;
  auto a = f.make(SanitizePolicy::kNone);
  const Pfn p = a.allocate(1).value();
  const auto pa = PageFrameAllocator::frame_to_phys(p);
  f.dram.fill_range(pa, PageFrameAllocator::kPageSize, 0xEE);
  a.free(p);
  EXPECT_TRUE(f.dram.any_nonzero(pa, PageFrameAllocator::kPageSize));
  // Next tenant sees the previous tenant's bytes: the paper's bug.
  const Pfn q = a.allocate(2).value();
  EXPECT_EQ(q, p);
  EXPECT_EQ(f.dram.read8(pa), 0xEE);
  EXPECT_EQ(a.stats().dirty_reuses, 1u);
}

TEST(FrameAllocator, ZeroOnFreeScrubsImmediately) {
  Fixture f;
  auto a = f.make(SanitizePolicy::kZeroOnFree);
  const Pfn p = a.allocate(1).value();
  const auto pa = PageFrameAllocator::frame_to_phys(p);
  f.dram.fill_range(pa, PageFrameAllocator::kPageSize, 0xEE);
  a.free(p);
  EXPECT_FALSE(f.dram.any_nonzero(pa, PageFrameAllocator::kPageSize));
  EXPECT_EQ(a.stats().frames_scrubbed, 1u);
  EXPECT_EQ(a.stats().bytes_scrubbed, PageFrameAllocator::kPageSize);
}

TEST(FrameAllocator, ZeroOnAllocLeavesResidueWhileFree) {
  Fixture f;
  auto a = f.make(SanitizePolicy::kZeroOnAlloc);
  const Pfn p = a.allocate(1).value();
  const auto pa = PageFrameAllocator::frame_to_phys(p);
  f.dram.fill_range(pa, PageFrameAllocator::kPageSize, 0xEE);
  a.free(p);
  // Residue persists while the frame sits free — scrapable window!
  EXPECT_TRUE(f.dram.any_nonzero(pa, PageFrameAllocator::kPageSize));
  // ...but the next owner gets a clean page.
  const Pfn q = a.allocate(2).value();
  EXPECT_EQ(q, p);
  EXPECT_FALSE(f.dram.any_nonzero(pa, PageFrameAllocator::kPageSize));
  EXPECT_EQ(a.stats().dirty_reuses, 1u);  // it *was* dirty at hand-out time
}

TEST(FrameAllocator, OwnerTrackingAcrossLifecycle) {
  Fixture f;
  auto a = f.make();
  const Pfn p = a.allocate(42).value();
  EXPECT_EQ(a.info(p).owner_pid, 42);
  a.free(p);
  EXPECT_EQ(a.info(p).owner_pid, 0);
  EXPECT_EQ(a.info(p).last_owner, 42);
  EXPECT_TRUE(a.info(p).ever_used);
}

TEST(FrameAllocator, DirtyFreeFramesForensics) {
  Fixture f;
  auto a = f.make();
  const Pfn p1 = a.allocate(1).value();
  const Pfn p2 = a.allocate(1).value();
  f.dram.fill_range(PageFrameAllocator::frame_to_phys(p1), 64, 0x5A);
  // p2 never written.
  a.free(p1);
  a.free(p2);
  const auto dirty = a.dirty_free_frames();
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0], p1);
}

TEST(FrameAllocator, PhysFrameConversions) {
  EXPECT_EQ(PageFrameAllocator::frame_to_phys(0x60000), 0x60000000u);
  EXPECT_EQ(PageFrameAllocator::phys_to_frame(0x61C6D730), 0x61C6Du);
}

TEST(FrameAllocator, RejectsBadConfigs) {
  Fixture f;
  EXPECT_THROW(
      (PageFrameAllocator{f.dram, FrameAllocatorConfig{.first_pfn = 0,
                                                       .frame_count = 0}}),
      std::invalid_argument);
  // Pool outside the 16 MiB test DRAM.
  EXPECT_THROW(
      (PageFrameAllocator{f.dram, FrameAllocatorConfig{.first_pfn = 0x10000,
                                                       .frame_count = 10}}),
      std::invalid_argument);
}

struct PolicyCase {
  SanitizePolicy sanitize;
  PlacementPolicy placement;
};

class AllocatorPolicySweep : public ::testing::TestWithParam<PolicyCase> {};

TEST_P(AllocatorPolicySweep, AllocFreeAllInvariants) {
  // Property: under any policy combination, allocate-all then free-all
  // returns the allocator to a consistent state with no frame leaked.
  Fixture f;
  auto a = f.make(GetParam().sanitize, GetParam().placement, 32);
  std::set<Pfn> held;
  for (int i = 0; i < 32; ++i) {
    const auto p = a.allocate(7);
    ASSERT_TRUE(p.has_value());
    EXPECT_TRUE(held.insert(*p).second) << "duplicate frame handed out";
  }
  EXPECT_FALSE(a.allocate(7).has_value());
  for (const Pfn p : held) a.free(p);
  EXPECT_EQ(a.free_frames(), 32u);
  EXPECT_EQ(a.stats().allocations, 32u);
  EXPECT_EQ(a.stats().frees, 32u);
  // Every frame can be allocated again.
  for (int i = 0; i < 32; ++i) ASSERT_TRUE(a.allocate(8).has_value());
}

TEST(FrameAllocator, OwnerPidZeroRejected) {
  // 0 marks a free frame, so an owner of 0 would read as a free frame.
  Fixture f;
  auto a = f.make();
  EXPECT_THROW((void)a.allocate(0), std::invalid_argument);
}

// ---- reset() equals a fresh allocator ------------------------------------

/// A seeded mix of allocations (each dirtying its frame) and frees.
void churn(PageFrameAllocator& a, dram::DramModel& dram, std::uint64_t seed) {
  util::Prng prng{seed};
  std::vector<Pfn> held;
  for (int step = 0; step < 200; ++step) {
    if (!held.empty() && prng.below(3) == 0) {
      const auto i = static_cast<std::size_t>(prng.below(held.size()));
      a.free(held[i]);
      held[i] = held.back();
      held.pop_back();
    } else if (const auto pfn = a.allocate(100 + step)) {
      dram.fill_range(PageFrameAllocator::frame_to_phys(*pfn), 64, 0xA5);
      held.push_back(*pfn);
    }
  }
}

void expect_same_stats(const FrameAllocatorStats& got,
                       const FrameAllocatorStats& want) {
  EXPECT_EQ(got.allocations, want.allocations);
  EXPECT_EQ(got.frees, want.frees);
  EXPECT_EQ(got.dirty_reuses, want.dirty_reuses);
  EXPECT_EQ(got.frames_scrubbed, want.frames_scrubbed);
  EXPECT_EQ(got.bytes_scrubbed, want.bytes_scrubbed);
}

/// Compares `got` with a fresh allocator over fresh DRAM: everything it
/// exposes, then its allocations until one past exhaustion. `got`'s DRAM
/// still holds the churn's residue, so a stale ever_used flag would show
/// up as a dirty frame, a dirty reuse or a scrub.
void expect_same_as_fresh(PageFrameAllocator& got,
                          const FrameAllocatorConfig& config) {
  dram::DramModel fresh_dram{dram::DramConfig::test_small()};
  PageFrameAllocator want{fresh_dram, config};
  EXPECT_EQ(got.free_frames(), want.free_frames());
  EXPECT_EQ(got.used_frames(), want.used_frames());
  EXPECT_EQ(got.dirty_free_frames(), want.dirty_free_frames());
  expect_same_stats(got.stats(), want.stats());
  const Pfn end = config.first_pfn + config.frame_count;
  for (Pfn pfn = config.first_pfn; pfn < end; ++pfn) {
    EXPECT_EQ(got.info(pfn).owner_pid, want.info(pfn).owner_pid) << pfn;
    EXPECT_EQ(got.info(pfn).last_owner, want.info(pfn).last_owner) << pfn;
    EXPECT_EQ(got.info(pfn).ever_used, want.info(pfn).ever_used) << pfn;
  }
  EXPECT_THROW((void)got.info(end), std::out_of_range);
  for (std::uint64_t i = 0; i <= config.frame_count; ++i) {
    EXPECT_EQ(got.allocate(7), want.allocate(7)) << "allocation " << i;
  }
  expect_same_stats(got.stats(), want.stats());
}

class AllocatorResetSweep
    : public ::testing::TestWithParam<
          std::tuple<SanitizePolicy, PlacementPolicy>> {
 protected:
  [[nodiscard]] FrameAllocatorConfig config(Pfn first, std::uint64_t frames,
                                            std::uint64_t seed) const {
    return FrameAllocatorConfig{.first_pfn = first,
                                .frame_count = frames,
                                .sanitize = std::get<0>(GetParam()),
                                .placement = std::get<1>(GetParam()),
                                .seed = seed};
  }
};

TEST_P(AllocatorResetSweep, ResetAfterChurnEqualsFreshAllocator) {
  Fixture f;
  PageFrameAllocator a{f.dram, config(0x100, 64, 5)};
  for (std::uint64_t round = 0; round < 3; ++round) {
    const FrameAllocatorConfig cfg = config(0x100, 64, 11 + round);
    a.reset(cfg);
    churn(a, f.dram, round);
    a.reset(cfg);
    expect_same_as_fresh(a, cfg);
  }
}

TEST_P(AllocatorResetSweep, ResetToAnotherPoolEqualsFreshAllocator) {
  Fixture f;
  PageFrameAllocator a{f.dram, config(0x100, 64, 5)};
  // Another first_pfn, a larger pool at the old first_pfn, then back to
  // the original shape.
  const std::pair<Pfn, std::uint64_t> pools[] = {
      {0x180, 48}, {0x100, 96}, {0x100, 64}};
  std::uint64_t seed = 20;
  for (const auto& [first, frames] : pools) {
    churn(a, f.dram, ++seed);
    const FrameAllocatorConfig cfg = config(first, frames, seed);
    a.reset(cfg);
    expect_same_as_fresh(a, cfg);
    a.reset(cfg);  // refill the pool the comparison exhausted
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, AllocatorResetSweep,
    ::testing::Combine(::testing::Values(SanitizePolicy::kNone,
                                         SanitizePolicy::kZeroOnFree,
                                         SanitizePolicy::kZeroOnAlloc),
                       ::testing::Values(PlacementPolicy::kSequentialLifo,
                                         PlacementPolicy::kSequentialFifo,
                                         PlacementPolicy::kRandomized)));

INSTANTIATE_TEST_SUITE_P(
    AllCombos, AllocatorPolicySweep,
    ::testing::Values(
        PolicyCase{SanitizePolicy::kNone, PlacementPolicy::kSequentialLifo},
        PolicyCase{SanitizePolicy::kNone, PlacementPolicy::kSequentialFifo},
        PolicyCase{SanitizePolicy::kNone, PlacementPolicy::kRandomized},
        PolicyCase{SanitizePolicy::kZeroOnFree, PlacementPolicy::kSequentialLifo},
        PolicyCase{SanitizePolicy::kZeroOnFree, PlacementPolicy::kRandomized},
        PolicyCase{SanitizePolicy::kZeroOnAlloc, PlacementPolicy::kSequentialLifo},
        PolicyCase{SanitizePolicy::kZeroOnAlloc, PlacementPolicy::kSequentialFifo}));

}  // namespace
}  // namespace msa::mem
