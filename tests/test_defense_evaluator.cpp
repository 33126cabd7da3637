#include "defense/evaluator.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

namespace msa::defense {
namespace {

attack::ScenarioConfig small_base() {
  attack::ScenarioConfig cfg;
  cfg.system = os::SystemConfig::test_small();
  cfg.image_width = 40;
  cfg.image_height = 40;
  return cfg;
}

TEST(DefenseEvaluator, BaselineAlwaysSucceeds) {
  DefenseEvaluator ev{small_base()};
  const DefenseOutcome o = ev.evaluate(preset("baseline"), 3);
  EXPECT_EQ(o.trials, 3u);
  EXPECT_EQ(o.denied, 0u);
  EXPECT_EQ(o.model_identified, 3u);
  EXPECT_EQ(o.image_recovered, 3u);
  EXPECT_DOUBLE_EQ(o.id_rate(), 1.0);
  EXPECT_DOUBLE_EQ(o.recovery_rate(), 1.0);
  EXPECT_NEAR(o.mean_pixel_match, 1.0, 1e-12);
}

TEST(DefenseEvaluator, ZeroOnFreeStopsEverything) {
  DefenseEvaluator ev{small_base()};
  const DefenseOutcome o = ev.evaluate(preset("zero_on_free"), 2);
  EXPECT_EQ(o.denied, 0u);
  EXPECT_EQ(o.model_identified, 0u);
  EXPECT_EQ(o.image_recovered, 0u);
}

TEST(DefenseEvaluator, AclDefensesDenyAllTrials) {
  DefenseEvaluator ev{small_base()};
  for (const char* name : {"proc_owner_only", "dbg_owner_only", "dbg_disabled"}) {
    const DefenseOutcome o = ev.evaluate(preset(name), 2);
    EXPECT_EQ(o.denied, 2u) << name;
    EXPECT_EQ(o.model_identified, 0u) << name;
  }
}

TEST(DefenseEvaluator, VaAslrDoesNotStopAttack) {
  DefenseEvaluator ev{small_base()};
  const DefenseOutcome o = ev.evaluate(preset("heap_va_aslr"), 2);
  EXPECT_EQ(o.image_recovered, 2u);
}

TEST(DefenseEvaluator, EvaluateAllCoversEveryPreset) {
  DefenseEvaluator ev{small_base()};
  const auto outcomes = ev.evaluate_all(1);
  EXPECT_EQ(outcomes.size(), all_presets().size());
  EXPECT_EQ(outcomes.front().preset_name, "baseline");
}

TEST(DefenseEvaluator, TableFormatsAllRows) {
  DefenseEvaluator ev{small_base()};
  const auto outcomes = ev.evaluate_all(1);
  const std::string table = DefenseEvaluator::format_table(outcomes);
  for (const auto& p : all_presets()) {
    EXPECT_NE(table.find(p.name), std::string::npos) << p.name;
  }
  EXPECT_NE(table.find("pixel-match"), std::string::npos);
}

TEST(DefenseEvaluator, SharedCacheMatchesFreshCachePerTrial) {
  // The evaluator runs every trial of every preset through one cache;
  // the reference runs each trial on a fresh one, as a one-shot
  // run_scenario does. Outcomes must agree field by field, doubles bit
  // for bit, whatever the cache already holds from earlier presets.
  constexpr std::size_t kTrials = 3;
  DefenseEvaluator ev{small_base()};
  for (const DefensePreset& p : all_presets()) {
    const DefenseOutcome got = ev.evaluate(p, kTrials);
    DefenseOutcome want;
    double match_sum = 0.0;
    double psnr_sum = 0.0;
    std::size_t scored = 0;
    for (std::size_t t = 0; t < kTrials; ++t) {
      attack::ScenarioConfig cfg = p.apply(small_base());
      cfg.image_seed = small_base().image_seed + t * 7919;
      cfg.system.seed = small_base().system.seed + t;
      const attack::ScenarioResult r = attack::run_scenario(cfg);
      if (r.denied) {
        ++want.denied;
        continue;
      }
      want.model_identified += r.model_identified_correctly ? 1 : 0;
      want.image_recovered +=
          r.pixel_match > attack::kFullSuccessPixelMatch ? 1 : 0;
      match_sum += r.pixel_match;
      psnr_sum += r.psnr > 0 ? r.psnr : 0.0;
      ++scored;
    }
    if (scored > 0) {
      want.mean_pixel_match = match_sum / static_cast<double>(scored);
      want.mean_psnr = psnr_sum / static_cast<double>(scored);
    }
    EXPECT_EQ(got.preset_name, p.name);
    EXPECT_EQ(got.trials, kTrials) << p.name;
    EXPECT_EQ(got.denied, want.denied) << p.name;
    EXPECT_EQ(got.model_identified, want.model_identified) << p.name;
    EXPECT_EQ(got.image_recovered, want.image_recovered) << p.name;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.mean_pixel_match),
              std::bit_cast<std::uint64_t>(want.mean_pixel_match))
        << p.name;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.mean_psnr),
              std::bit_cast<std::uint64_t>(want.mean_psnr))
        << p.name;
  }
}

TEST(DefenseEvaluator, RatesWithZeroTrials) {
  DefenseOutcome o;
  EXPECT_DOUBLE_EQ(o.id_rate(), 0.0);
  EXPECT_DOUBLE_EQ(o.recovery_rate(), 0.0);
}

}  // namespace
}  // namespace msa::defense
