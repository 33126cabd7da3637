// Profile-cache tests: key discrimination, the per-key once-latch under
// concurrency, twin-board-pool reuse purity (a reused board must yield
// the same profile a fresh board would), seed invariance (the property
// that makes caching across reseeded trials sound), and failure caching.
//
// Cache observability lives on the process-wide obs metrics registry, so
// these tests assert DELTAS of the cache.* counters around each
// operation rather than absolute values (gtest runs tests in one binary
// sequentially, so a snapshot-before/delta-after window is race-free).
#include "attack/profile_cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "attack/profiler.h"
#include "defense/presets.h"
#include "obs/metrics.h"

namespace msa::attack {
namespace {

/// Snapshot of the four cache.* registry counters; subtract two
/// snapshots to get the traffic a code region generated.
struct CacheCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t boards_built = 0;
  std::uint64_t boards_reused = 0;

  static CacheCounters now() {
    return CacheCounters{obs::counter("cache.profile_hits").value(),
                         obs::counter("cache.profile_misses").value(),
                         obs::counter("cache.twin_boards_built").value(),
                         obs::counter("cache.twin_boards_reused").value()};
  }

  [[nodiscard]] CacheCounters operator-(const CacheCounters& base) const {
    return CacheCounters{hits - base.hits, misses - base.misses,
                         boards_built - base.boards_built,
                         boards_reused - base.boards_reused};
  }
};

ScenarioConfig small_config() {
  ScenarioConfig cfg;
  cfg.system = os::SystemConfig::test_small();
  cfg.image_width = 48;
  cfg.image_height = 48;
  return cfg;
}

void expect_same_profile(const ModelProfile& a, const ModelProfile& b) {
  EXPECT_EQ(a.model_name, b.model_name);
  EXPECT_EQ(a.image_offset, b.image_offset);
  EXPECT_EQ(a.image_width, b.image_width);
  EXPECT_EQ(a.image_height, b.image_height);
  EXPECT_EQ(a.heap_bytes, b.heap_bytes);
  EXPECT_EQ(a.path_string_offset, b.path_string_offset);
}

TEST(ProfileKey, DiscriminatesTheLayoutKnobs) {
  const ScenarioConfig base = small_config();
  const ProfileKey key = ProfileKey::from_config(base);

  ScenarioConfig other = base;
  other.model_name = "squeezenet_pt";
  EXPECT_NE(ProfileKey::from_config(other), key);

  other = base;
  other.image_width = 64;
  EXPECT_NE(ProfileKey::from_config(other), key);

  other = base;
  other.system.placement = mem::PlacementPolicy::kRandomized;
  EXPECT_NE(ProfileKey::from_config(other), key);

  other = base;
  other.system.heap_va_aslr = true;
  EXPECT_NE(ProfileKey::from_config(other), key);

  other = base;
  other.attacker_uid = 4242;
  EXPECT_NE(ProfileKey::from_config(other), key);
}

TEST(ProfileKey, IgnoresSeedAndVictimSideKnobs) {
  // Per-trial reseeding and the victim's defensive policies must map to
  // the SAME key, or the cache would never hit inside a campaign.
  const ScenarioConfig base = small_config();
  const ProfileKey key = ProfileKey::from_config(base);

  ScenarioConfig other = base;
  other.system.seed ^= 0xDEADBEEFULL;
  other.image_seed ^= 0xDEADBEEFULL;
  EXPECT_EQ(ProfileKey::from_config(other), key);

  other = base;
  other.system.sanitize = mem::SanitizePolicy::kZeroOnFree;
  other.acl.mode = dbg::AclMode::kDisabled;
  other.firewall = dbg::FirewallMode::kOwnerOrResidue;
  other.attack_delay_s = 60.0;
  EXPECT_EQ(ProfileKey::from_config(other), key);
}

TEST(ProfileCache, HitReturnsTheProfiledValue) {
  ProfileCache cache;
  const ScenarioConfig cfg = small_config();
  const ModelProfile direct = profile_on_twin_board(cfg);
  const CacheCounters before = CacheCounters::now();
  const ModelProfile first = cache.get_or_profile(cfg);
  const ModelProfile second = cache.get_or_profile(cfg);
  expect_same_profile(first, direct);
  expect_same_profile(second, direct);
  const CacheCounters delta = CacheCounters::now() - before;
  EXPECT_EQ(delta.misses, 1u);
  EXPECT_EQ(delta.hits, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ProfileCache, SeedChangesHitTheSameEntry) {
  // The invariant the campaign's byte-identity rests on: a profile
  // served to a reseeded trial equals the profile that trial would have
  // measured itself.
  ProfileCache cache;
  ScenarioConfig cfg = small_config();
  const CacheCounters before = CacheCounters::now();
  (void)cache.get_or_profile(cfg);

  ScenarioConfig reseeded = cfg;
  reseeded.system.seed ^= 0x1234567890ULL;
  reseeded.image_seed ^= 0x42ULL;
  const ModelProfile cached = cache.get_or_profile(reseeded);
  const CacheCounters delta = CacheCounters::now() - before;
  expect_same_profile(cached, profile_on_twin_board(reseeded));
  EXPECT_EQ(delta.misses, 1u);
  EXPECT_EQ(delta.hits, 1u);
}

TEST(ProfileCache, RandomizedPlacementProfileIsSeedInvariant) {
  // Physical-layout randomization scrambles frame placement, but the
  // scrape reassembles in VA order — profiles must not depend on the
  // seed even there, or caching under the physical_aslr defense would
  // corrupt campaign results.
  ScenarioConfig cfg =
      defense::preset("physical_aslr").apply(small_config());
  ScenarioConfig reseeded = cfg;
  reseeded.system.seed ^= 0xABCDEFULL;
  expect_same_profile(profile_on_twin_board(cfg),
                      profile_on_twin_board(reseeded));

  ProfileCache cache;
  expect_same_profile(cache.get_or_profile(cfg),
                      profile_on_twin_board(reseeded));
}

TEST(ProfileCache, ConcurrentMissesOnOneKeyProfileExactlyOnce) {
  // 8 threads race on a cold key: the once-latch must let exactly one
  // profile (1 miss) and serve the other 7 as hits, all with identical
  // bytes.
  ProfileCache cache;
  const ScenarioConfig cfg = small_config();
  const ModelProfile direct = profile_on_twin_board(cfg);

  constexpr unsigned kThreads = 8;
  std::vector<ModelProfile> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  const CacheCounters before = CacheCounters::now();
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&, t] { results[t] = cache.get_or_profile(cfg); });
  }
  for (auto& t : threads) t.join();

  for (const ModelProfile& p : results) expect_same_profile(p, direct);
  const CacheCounters delta = CacheCounters::now() - before;
  EXPECT_EQ(delta.misses, 1u);
  EXPECT_EQ(delta.hits, kThreads - 1);
  EXPECT_EQ(delta.boards_built, 1u);
  EXPECT_EQ(delta.boards_reused, 0u);
}

TEST(ProfileCache, DistinctModelsMissSeparatelyAndReuseBoards) {
  // Sequential misses on the same board shape: the second model must
  // profile on the first's parked (scrubbed) board and still match a
  // fresh-board profile bit for bit — the pool-reuse purity property.
  ProfileCache cache;
  ScenarioConfig cfg = small_config();
  const CacheCounters before = CacheCounters::now();
  (void)cache.get_or_profile(cfg);

  ScenarioConfig other = cfg;
  other.model_name = "squeezenet_pt";
  const ModelProfile reused_board = cache.get_or_profile(other);
  const CacheCounters delta = CacheCounters::now() - before;
  expect_same_profile(reused_board, profile_on_twin_board(other));

  EXPECT_EQ(delta.misses, 2u);
  EXPECT_EQ(delta.hits, 0u);
  EXPECT_EQ(delta.boards_built, 1u);
  EXPECT_EQ(delta.boards_reused, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ProfileCache, DifferentPlacementNeverSharesBoards) {
  ProfileCache cache;
  ScenarioConfig sequential = small_config();
  ScenarioConfig randomized =
      defense::preset("physical_aslr").apply(small_config());
  const CacheCounters before = CacheCounters::now();
  (void)cache.get_or_profile(sequential);
  (void)cache.get_or_profile(randomized);
  const CacheCounters delta = CacheCounters::now() - before;
  EXPECT_EQ(delta.misses, 2u);
  EXPECT_EQ(delta.boards_built, 2u);
  EXPECT_EQ(delta.boards_reused, 0u);
}

TEST(ProfileCache, ProfilingFailureIsCachedAndRethrown) {
  // An unknown model makes the profiler throw; the cache must rethrow
  // the same error on the first call AND on later lookups (matching the
  // uncached behaviour of failing every trial), without deadlocking the
  // once-latch.
  ProfileCache cache;
  ScenarioConfig cfg = small_config();
  cfg.model_name = "no_such_model";
  const CacheCounters before = CacheCounters::now();
  EXPECT_THROW((void)cache.get_or_profile(cfg), std::invalid_argument);
  EXPECT_THROW((void)cache.get_or_profile(cfg), std::invalid_argument);
  const CacheCounters delta = CacheCounters::now() - before;
  EXPECT_EQ(delta.misses, 1u);
  EXPECT_EQ(delta.hits, 1u);
  // The half-profiled board was discarded, not parked.
  EXPECT_EQ(delta.boards_built, 1u);
  EXPECT_EQ(delta.boards_reused, 0u);

  // A healthy key still works after a failed one.
  ScenarioConfig good = small_config();
  expect_same_profile(cache.get_or_profile(good),
                      profile_on_twin_board(good));
}

/// Every ScenarioResult field, the images byte for byte.
void expect_same_result(const ScenarioResult& a, const ScenarioResult& b,
                        const std::string& label) {
  const auto bytes = [](const std::optional<img::Image>& image) {
    return image ? image->to_rgb_bytes() : std::vector<std::uint8_t>{};
  };
  EXPECT_EQ(a.victim_input.to_rgb_bytes(), b.victim_input.to_rgb_bytes())
      << label;
  EXPECT_EQ(a.victim_top_class, b.victim_top_class) << label;
  EXPECT_EQ(a.denied, b.denied) << label;
  EXPECT_EQ(a.denial_reason, b.denial_reason) << label;
  EXPECT_EQ(a.model_identified_correctly, b.model_identified_correctly)
      << label;
  EXPECT_EQ(a.pixel_match, b.pixel_match) << label;
  EXPECT_EQ(a.psnr, b.psnr) << label;
  EXPECT_EQ(a.descriptor_pixel_match, b.descriptor_pixel_match) << label;
  const AttackReport& ra = a.report;
  const AttackReport& rb = b.report;
  EXPECT_EQ(ra.victim_pid, rb.victim_pid) << label;
  EXPECT_EQ(ra.identified_model, rb.identified_model) << label;
  EXPECT_EQ(ra.signature_hits, rb.signature_hits) << label;
  ASSERT_EQ(ra.deep_match.has_value(), rb.deep_match.has_value()) << label;
  if (ra.deep_match) {
    EXPECT_EQ(ra.deep_match->model_name, rb.deep_match->model_name) << label;
    EXPECT_EQ(ra.deep_match->container_offset, rb.deep_match->container_offset)
        << label;
    EXPECT_EQ(ra.deep_match->param_bytes, rb.deep_match->param_bytes) << label;
  }
  EXPECT_EQ(ra.reconstructed_image.has_value(),
            rb.reconstructed_image.has_value())
      << label;
  EXPECT_EQ(bytes(ra.reconstructed_image), bytes(rb.reconstructed_image))
      << label;
  EXPECT_EQ(ra.descriptor_image.has_value(), rb.descriptor_image.has_value())
      << label;
  EXPECT_EQ(bytes(ra.descriptor_image), bytes(rb.descriptor_image)) << label;
  EXPECT_EQ(ra.recovered_scores, rb.recovered_scores) << label;
  EXPECT_EQ(ra.devmem_reads, rb.devmem_reads) << label;
  EXPECT_EQ(ra.residue_bytes, rb.residue_bytes) << label;
  EXPECT_EQ(ra.pages_unmapped, rb.pages_unmapped) << label;
  EXPECT_EQ(ra.transcript, rb.transcript) << label;
}

TEST(ProfileCache, RunScenarioWithCacheMatchesWithout) {
  // run_scenario(config) runs on a fresh cache: a new twin board and a
  // new victim board. One cache reused across trials of different seeds,
  // a post-mortem sweep and a denied attack — each trial rebooting the
  // board the previous one parked — must give every field the same.
  std::vector<std::pair<std::string, ScenarioConfig>> trials;
  for (const std::uint64_t reseed : {0u, 1u, 2u}) {
    ScenarioConfig cfg = small_config();
    cfg.system.seed ^= 0x9e3779b97f4a7c15ULL * reseed;
    cfg.image_seed += reseed;
    trials.emplace_back("reseed " + std::to_string(reseed), cfg);
  }
  ScenarioConfig post_mortem = small_config();
  post_mortem.post_mortem_scan = true;
  trials.emplace_back("post_mortem_scan", post_mortem);
  trials.emplace_back("dbg_disabled",
                      defense::preset("dbg_disabled").apply(small_config()));

  ProfileCache cache;
  for (const auto& [label, cfg] : trials) {
    const ScenarioResult with = run_scenario(cfg, cache);
    const ScenarioResult without = run_scenario(cfg);
    expect_same_result(with, without, label);
  }
  EXPECT_TRUE(run_scenario(trials.back().second, cache).denied);
  EXPECT_TRUE(run_scenario(trials.front().second, cache).full_success());
}

}  // namespace
}  // namespace msa::attack
