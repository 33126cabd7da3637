// util::cpu_count follows the calling thread's affinity mask, and so do
// the worker counts built on it: the store analyses' util::workers_for
// and CampaignRunner's default pool.
#include "util/parallel.h"

#include <gtest/gtest.h>

#include <sched.h>

#include "campaign/runner.h"

namespace msa::util {
namespace {

TEST(CpuCount, FollowsTheAffinityMask) {
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  const unsigned all = cpu_count();
  EXPECT_EQ(all, static_cast<unsigned>(CPU_COUNT(&saved)));

  // This thread alone, pinned to the first CPU it may run on; the mask is
  // restored before anything is checked.
  int first = 0;
  while (!CPU_ISSET(first, &saved)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const unsigned pinned = cpu_count();
  const unsigned workers = workers_for(kParallelMinItems, 0);
  const unsigned pool = campaign::CampaignRunner{{}}.thread_count();
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);

  EXPECT_EQ(pinned, 1u);
  EXPECT_EQ(workers, 1u);
  EXPECT_EQ(pool, 1u);
  EXPECT_EQ(cpu_count(), all);
  EXPECT_EQ(workers_for(kParallelMinItems, 0), all);
  EXPECT_EQ(workers_for(kParallelMinItems - 1, 0), 1u);
  EXPECT_EQ(workers_for(0, 3), 3u);
}

}  // namespace
}  // namespace msa::util
