#include "os/scrubber.h"

#include <gtest/gtest.h>

namespace msa::os {
namespace {

struct Fixture {
  PetaLinuxSystem sys{SystemConfig::test_small()};

  /// Runs a process that dirties `pages` heap pages, then exits.
  void run_and_exit(std::uint64_t pages) {
    const Pid pid = sys.spawn(1000, {"app"}, "pts/1");
    const mem::VirtAddr base = sys.sbrk(pid, pages * mem::kPageSize);
    std::vector<std::uint8_t> junk(pages * mem::kPageSize, 0xEE);
    sys.write_virt(pid, base, junk);
    sys.terminate(pid);
  }
};

TEST(Scrubber, RejectsNonPositiveRate) {
  Fixture f;
  EXPECT_THROW((ScrubberDaemon{f.sys, 0.0}), std::invalid_argument);
  EXPECT_THROW((ScrubberDaemon{f.sys, -1.0}), std::invalid_argument);
}

TEST(Scrubber, CleanBoardHasNoBacklog) {
  Fixture f;
  ScrubberDaemon scrubber{f.sys, 1e6};
  EXPECT_EQ(scrubber.backlog_frames(), 0u);
  EXPECT_EQ(scrubber.run_for(10.0), 0u);
}

TEST(Scrubber, BacklogAppearsAfterTermination) {
  Fixture f;
  f.run_and_exit(8);
  ScrubberDaemon scrubber{f.sys, 1e6};
  EXPECT_EQ(scrubber.backlog_frames(), 8u);
}

TEST(Scrubber, FastScrubberClearsEverything) {
  Fixture f;
  f.run_and_exit(8);
  ScrubberDaemon scrubber{f.sys, 1e9};
  const std::uint64_t scrubbed = scrubber.run_for(1.0);
  EXPECT_EQ(scrubbed, 8u * mem::kPageSize);
  EXPECT_EQ(scrubber.backlog_frames(), 0u);
  EXPECT_EQ(scrubber.stats().frames_scrubbed, 8u);
}

TEST(Scrubber, RateLimitsProgress) {
  Fixture f;
  f.run_and_exit(8);
  // 2 pages per second: after 1 s only 2 frames are clean.
  ScrubberDaemon scrubber{f.sys, 2.0 * mem::kPageSize};
  EXPECT_EQ(scrubber.run_for(1.0), 2u * mem::kPageSize);
  EXPECT_EQ(scrubber.backlog_frames(), 6u);
  EXPECT_EQ(scrubber.run_for(3.0), 6u * mem::kPageSize);
  EXPECT_EQ(scrubber.backlog_frames(), 0u);
}

TEST(Scrubber, ScrubsLowestPfnFirst) {
  Fixture f;
  f.run_and_exit(4);
  const auto dirty_before = f.sys.allocator().dirty_free_frames();
  ASSERT_EQ(dirty_before.size(), 4u);
  ScrubberDaemon scrubber{f.sys, static_cast<double>(mem::kPageSize)};
  (void)scrubber.run_for(1.0);  // exactly one frame
  const auto dirty_after = f.sys.allocator().dirty_free_frames();
  ASSERT_EQ(dirty_after.size(), 3u);
  EXPECT_EQ(dirty_after.front(), dirty_before[1]);  // lowest PFN gone
}

TEST(Scrubber, PartialScrubLeavesTheTopOfAnExitedHeap) {
  // A LIFO victim's heap takes the pool's lowest frames in VA order, and
  // terminate() frees them in reverse. The scrubber still walks
  // dirty_free_frames() ascending, so a budget smaller than the backlog
  // zeroes the low PFNs (heap start: metadata, descriptor, strings) and
  // the residue that survives is the top of the heap.
  Fixture f;
  f.run_and_exit(8);
  const mem::Pfn first = f.sys.config().pool_first_pfn;
  const auto& heap = f.sys.terminated().back().heap_frames;
  ASSERT_EQ(heap.size(), 8u);
  for (std::size_t i = 0; i < heap.size(); ++i) {
    ASSERT_EQ(mem::PageFrameAllocator::phys_to_frame(heap[i]), first + i);
  }
  ScrubberDaemon scrubber{f.sys, 3.0 * mem::kPageSize};
  EXPECT_EQ(scrubber.run_for(1.0), 3u * mem::kPageSize);
  const std::vector<mem::Pfn> want{first + 3, first + 4, first + 5, first + 6,
                                   first + 7};
  EXPECT_EQ(f.sys.allocator().dirty_free_frames(), want);
  for (mem::Pfn pfn = first; pfn < first + 3; ++pfn) {
    EXPECT_FALSE(f.sys.dram().any_nonzero(
        mem::PageFrameAllocator::frame_to_phys(pfn), mem::kPageSize));
  }
}

TEST(Scrubber, ScrubbedFrameReadsZero) {
  Fixture f;
  f.run_and_exit(1);
  const auto dirty = f.sys.allocator().dirty_free_frames();
  ASSERT_EQ(dirty.size(), 1u);
  const dram::PhysAddr pa = mem::PageFrameAllocator::frame_to_phys(dirty[0]);
  EXPECT_TRUE(f.sys.dram().any_nonzero(pa, mem::kPageSize));
  ScrubberDaemon scrubber{f.sys, 1e9};
  (void)scrubber.run_for(1.0);
  EXPECT_FALSE(f.sys.dram().any_nonzero(pa, mem::kPageSize));
}

TEST(Scrubber, ZeroOrNegativeTimeIsNoop) {
  Fixture f;
  f.run_and_exit(2);
  ScrubberDaemon scrubber{f.sys, 1e9};
  EXPECT_EQ(scrubber.run_for(0.0), 0u);
  EXPECT_EQ(scrubber.run_for(-1.0), 0u);
  EXPECT_EQ(scrubber.backlog_frames(), 2u);
}

TEST(Scrubber, FractionalBudgetAccumulatesWithinBurst) {
  Fixture f;
  f.run_and_exit(2);
  // Half a page per second: 1 s -> nothing, second call carries over.
  ScrubberDaemon scrubber{f.sys, mem::kPageSize / 2.0};
  EXPECT_EQ(scrubber.run_for(1.0), 0u);
  EXPECT_EQ(scrubber.run_for(1.0), mem::kPageSize);
}

TEST(Scrubber, StatsAccumulateAcrossRuns) {
  Fixture f;
  f.run_and_exit(3);
  ScrubberDaemon scrubber{f.sys, static_cast<double>(mem::kPageSize)};
  (void)scrubber.run_for(1.0);
  (void)scrubber.run_for(2.0);
  EXPECT_EQ(scrubber.stats().frames_scrubbed, 3u);
  EXPECT_EQ(scrubber.stats().bytes_scrubbed, 3u * mem::kPageSize);
  EXPECT_GT(scrubber.stats().busy_seconds, 0.0);
}

TEST(Scrubber, NewTerminationRefillsBacklog) {
  Fixture f;
  f.run_and_exit(2);
  ScrubberDaemon scrubber{f.sys, 1e9};
  (void)scrubber.run_for(1.0);
  EXPECT_EQ(scrubber.backlog_frames(), 0u);
  f.run_and_exit(5);
  EXPECT_EQ(scrubber.backlog_frames(), 5u);
}

}  // namespace
}  // namespace msa::os
