// Regression-gate tests: paired sign-flip permutation determinism and
// calibration, fingerprint-derived seeding, direction/metric/min-effect
// semantics of evaluate_gate, the zero-delta-never-trips and
// constructed-regression-always-trips contracts, and store-level
// determinism of the verdict across thread counts and shard layouts.
#include "campaign/gate.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "campaign/grid.h"
#include "campaign/runner.h"
#include "campaign/stats.h"
#include "persist/campaign_store.h"
#include "simd_levels.h"
#include "util/prng.h"

namespace msa::campaign {
namespace {

TEST(PairedPermutation, DeterministicForSeedAndInput) {
  const std::vector<double> deltas{0.2, -0.1, 0.4, 0.0, 0.3};
  const PermutationResult a = paired_permutation_test(deltas, 42, 5000, false);
  const PermutationResult b = paired_permutation_test(deltas, 42, 5000, false);
  EXPECT_EQ(a.at_least_as_extreme, b.at_least_as_extreme);
  EXPECT_EQ(a.p_value, b.p_value);  // bit-identical, not just close
  EXPECT_EQ(a.paired_cells, 5u);
  EXPECT_DOUBLE_EQ(a.observed_stat, (0.2 - 0.1 + 0.4 + 0.0 + 0.3) / 5.0);

  // A different seed draws different sign patterns (the p-values may
  // coincide by chance at huge iteration counts, the hit counts at 5000
  // resamples realistically do not).
  const PermutationResult c = paired_permutation_test(deltas, 43, 5000, false);
  EXPECT_NE(a.at_least_as_extreme, c.at_least_as_extreme);
}

TEST(PairedPermutation, NoEvidenceCases) {
  // No pairs: nothing to test.
  const PermutationResult empty = paired_permutation_test({}, 1, 1000, false);
  EXPECT_EQ(empty.paired_cells, 0u);
  EXPECT_EQ(empty.p_value, 1.0);

  // Zero iterations: the estimate is defined but vacuous.
  const PermutationResult none =
      paired_permutation_test({0.5, 0.5}, 1, 0, false);
  EXPECT_EQ(none.p_value, 1.0);

  // All-zero deltas: every resample ties the observed statistic, so the
  // ">= observed" rule counts all of them — p is EXACTLY 1, one- and
  // two-sided alike.
  const std::vector<double> zeros(8, 0.0);
  EXPECT_EQ(paired_permutation_test(zeros, 7, 2000, false).p_value, 1.0);
  EXPECT_EQ(paired_permutation_test(zeros, 7, 2000, true).p_value, 1.0);
}

TEST(PairedPermutation, CalibratedOnSixUnanimousDeltas) {
  // Six positive pairs, all the same magnitude: only the all-positive
  // sign assignment reaches the observed mean, so the exact one-sided p
  // is 1/64 ~= 0.0156 and the sampled estimate must sit near it.
  const std::vector<double> deltas(6, 1.0);
  const PermutationResult one =
      paired_permutation_test(deltas, 99, 20000, false);
  EXPECT_NEAR(one.p_value, 1.0 / 64.0, 5e-3);
  // Two-sided doubles it: the all-negative assignment ties |observed|.
  const PermutationResult two =
      paired_permutation_test(deltas, 99, 20000, true);
  EXPECT_NEAR(two.p_value, 2.0 / 64.0, 5e-3);
}

TEST(PairedPermutation, TwoSidedIsSignSymmetric) {
  // Negating every delta negates each resample statistic under the same
  // sign stream, so |stat| comparisons are untouched: identical bytes.
  const std::vector<double> deltas{0.9, -0.2, 0.4, 0.1};
  std::vector<double> negated;
  for (const double d : deltas) negated.push_back(-d);
  const PermutationResult pos = paired_permutation_test(deltas, 5, 4000, true);
  const PermutationResult neg =
      paired_permutation_test(negated, 5, 4000, true);
  EXPECT_EQ(pos.at_least_as_extreme, neg.at_least_as_extreme);
  EXPECT_EQ(pos.p_value, neg.p_value);
}

/// The sign-flip loop as first written (branch per pair), kept verbatim
/// as the reference the branch-free kernel must match bit for bit.
PermutationResult reference_permutation_test(const std::vector<double>& deltas,
                                             std::uint64_t seed,
                                             std::uint64_t iterations,
                                             bool two_sided) {
  PermutationResult r;
  r.paired_cells = deltas.size();
  r.iterations = iterations;
  if (deltas.empty()) return r;

  const double n = static_cast<double>(deltas.size());
  double sum = 0.0;
  for (const double d : deltas) sum += d;
  r.observed_stat = sum / n;
  if (iterations == 0) return r;

  const double threshold =
      two_sided ? std::abs(r.observed_stat) : r.observed_stat;
  util::Prng prng{seed};
  std::uint64_t hits = 0;
  for (std::uint64_t it = 0; it < iterations; ++it) {
    std::uint64_t bits = 0;
    int available = 0;
    double s = 0.0;
    for (const double d : deltas) {
      if (available == 0) {
        bits = prng();
        available = 64;
      }
      s += (bits & 1u) != 0 ? d : -d;
      bits >>= 1;
      --available;
    }
    const double stat = s / n;
    if ((two_sided ? std::abs(stat) : stat) >= threshold) ++hits;
  }
  r.at_least_as_extreme = hits;
  r.p_value = (static_cast<double>(hits) + 1.0) /
              (static_cast<double>(iterations) + 1.0);
  return r;
}

TEST(PairedPermutation, BranchFreeKernelMatchesReferenceLoop) {
  std::mt19937_64 rng{0x9a7e};
  std::uniform_real_distribution<double> delta{-0.3, 0.32};
  for (const std::size_t n : {1u, 63u, 64u, 65u, 10000u}) {
    // Tiny, signed-zero and repeated deltas make the running sum's
    // rounding — and so the tie-heavy ">=" count — order-sensitive.
    std::vector<double> deltas(n);
    for (std::size_t i = 0; i < n; ++i) {
      switch (i % 5) {
        case 0: deltas[i] = -0.0; break;
        case 1: deltas[i] = 0.0; break;
        case 2: deltas[i] = 1e-17 * static_cast<double>(i); break;
        default: deltas[i] = delta(rng); break;
      }
    }
    // Counts that are not a multiple of the kernel's 8 resample lanes
    // end on a short batch.
    const std::vector<std::uint64_t> counts =
        n >= 10000 ? std::vector<std::uint64_t>{1, 9, 300}
                   : std::vector<std::uint64_t>{1, 7, 9, 4000, 4001};
    for (const std::uint64_t iterations : counts) {
      for (const bool two_sided : {false, true}) {
        for (const std::uint64_t seed : {1ULL, 0xfeedULL}) {
          const PermutationResult want =
              reference_permutation_test(deltas, seed, iterations, two_sided);
          for (const util::SimdLevel level :
               util::simd_levels_up_to_detected()) {
            const util::SimdCapGuard cap{level};
            const PermutationResult got =
                paired_permutation_test(deltas, seed, iterations, two_sided);
            EXPECT_EQ(got.at_least_as_extreme, want.at_least_as_extreme)
                << "n=" << n << " iterations=" << iterations
                << " two_sided=" << two_sided << " seed=" << seed
                << " " << util::simd_level_name(level);
            EXPECT_EQ(std::bit_cast<std::uint64_t>(got.p_value),
                      std::bit_cast<std::uint64_t>(want.p_value));
            EXPECT_EQ(std::bit_cast<std::uint64_t>(got.observed_stat),
                      std::bit_cast<std::uint64_t>(want.observed_stat));
          }
        }
      }
    }
  }
}

TEST(GateSeed, DeterministicAndOrderSensitive) {
  EXPECT_EQ(gate_seed(1, 2), gate_seed(1, 2));
  EXPECT_NE(gate_seed(1, 2), gate_seed(2, 1));  // A/B order matters
  EXPECT_NE(gate_seed(1, 2), gate_seed(1, 3));
  // The golden-baseline case — both sides the same grid — still mixes.
  EXPECT_NE(gate_seed(7, 7), 7u);
}

TEST(GateDirectionAndMetric, NamesRoundTrip) {
  for (const GateDirection d :
       {GateDirection::kRegress, GateDirection::kImprove, GateDirection::kAny}) {
    GateDirection parsed{};
    ASSERT_TRUE(parse_gate_direction(gate_direction_name(d), &parsed));
    EXPECT_EQ(parsed, d);
  }
  GateDirection sink{};
  EXPECT_FALSE(parse_gate_direction("sideways", &sink));
  EXPECT_FALSE(parse_gate_direction("", &sink));

  for (const DiffMetric m : {DiffMetric::kSuccessRate, DiffMetric::kDenialRate,
                             DiffMetric::kPsnrP50}) {
    DiffMetric parsed{};
    ASSERT_TRUE(parse_diff_metric(diff_metric_name(m), &parsed));
    EXPECT_EQ(parsed, m);
  }
  DiffMetric msink{};
  EXPECT_FALSE(parse_diff_metric("psnr_p99", &msink));

  EXPECT_EQ(metric_orientation(DiffMetric::kSuccessRate), 1.0);
  EXPECT_EQ(metric_orientation(DiffMetric::kPsnrP50), 1.0);
  EXPECT_EQ(metric_orientation(DiffMetric::kDenialRate), -1.0);
}

CellDistribution gate_cell(std::uint64_t index, const std::string& defense,
                           double delay, std::size_t trials,
                           std::size_t successes, std::size_t denials,
                           double p50) {
  CellDistribution c;
  c.index = index;
  c.coords = {{"defense", AxisValue::of_string(defense)},
              {"delay_s", AxisValue::of_number(delay)}};
  c.trials = trials;
  c.successes = successes;
  c.denials = denials;
  c.p50_psnr = p50;
  c.p90_psnr = p50;
  c.p99_psnr = p50;
  c.success_rate =
      trials == 0 ? 0.0
                  : static_cast<double>(successes) / static_cast<double>(trials);
  c.success_ci = wilson_interval(successes, trials);
  return c;
}

/// 8-cell report: every attack succeeds, nothing denied, strong PSNR.
StatsReport healthy_report() {
  StatsReport r;
  for (std::uint64_t i = 0; i < 8; ++i) {
    r.cells.push_back(gate_cell(i, i < 4 ? "baseline" : "zero_on_free",
                                static_cast<double>(i % 4), 20, 20, 0, 40.0));
  }
  r.trials_analyzed = 160;
  return r;
}

/// The same grid with the defense holding everywhere: zero successes.
StatsReport defended_report() {
  StatsReport r;
  for (std::uint64_t i = 0; i < 8; ++i) {
    r.cells.push_back(gate_cell(i, i < 4 ? "baseline" : "zero_on_free",
                                static_cast<double>(i % 4), 20, 0, 20, 5.0));
  }
  r.trials_analyzed = 160;
  return r;
}

TEST(EvaluateGate, ZeroDeltaSelfDiffNeverTrips) {
  const StatsReport r = healthy_report();
  const DiffReport diff = diff_sweeps(r, r);
  for (const GateDirection dir :
       {GateDirection::kRegress, GateDirection::kImprove, GateDirection::kAny}) {
    for (const DiffMetric m : {DiffMetric::kSuccessRate,
                               DiffMetric::kDenialRate, DiffMetric::kPsnrP50}) {
      GateSpec spec;
      spec.direction = dir;
      spec.metric = m;
      const GateResult g = evaluate_gate(diff, spec, 1234);
      EXPECT_FALSE(g.tripped()) << g.verdict_line();
      EXPECT_EQ(g.permutation.p_value, 1.0);  // exactly, any direction
      EXPECT_NE(g.verdict_line().find("gate clean"), std::string::npos);
    }
  }
}

TEST(EvaluateGate, ConstructedRegressionAlwaysTrips) {
  // Defended -> healthy: success jumps 0/20 -> 20/20 in all 8 cells, the
  // canonical "the defense stopped working" diff.
  const DiffReport diff = diff_sweeps(defended_report(), healthy_report());
  GateSpec spec;  // defaults: success_rate, regress, alpha 0.05
  const GateResult g = evaluate_gate(diff, spec, 77);
  EXPECT_TRUE(g.grid_tripped);
  EXPECT_LE(g.permutation.p_value, 1.0 / 128.0);  // 8 unanimous pairs
  EXPECT_EQ(g.tripped_cells.size(), 8u);
  for (const GateCellVerdict& c : g.tripped_cells) {
    EXPECT_EQ(c.delta, 1.0);
    EXPECT_LE(c.p_value_fdr, 0.05);
  }
  const std::string verdict = g.verdict_line();
  EXPECT_NE(verdict.find("regression gate TRIPPED"), std::string::npos);
  EXPECT_NE(verdict.find("defense=baseline"), std::string::npos);
  EXPECT_NE(verdict.find("[+4 more]"), std::string::npos);  // 8 cells, 4 named

  // The same movement seen from the improve gate is invisible...
  spec.direction = GateDirection::kImprove;
  EXPECT_FALSE(evaluate_gate(diff, spec, 77).tripped());
  // ...and the any gate catches it two-sided.
  spec.direction = GateDirection::kAny;
  EXPECT_TRUE(evaluate_gate(diff, spec, 77).tripped());

  // Reversed sides: the improvement trips improve, not regress.
  const DiffReport rev = diff_sweeps(healthy_report(), defended_report());
  spec.direction = GateDirection::kRegress;
  EXPECT_FALSE(evaluate_gate(rev, spec, 77).tripped());
  spec.direction = GateDirection::kImprove;
  EXPECT_TRUE(evaluate_gate(rev, spec, 77).tripped());
}

TEST(EvaluateGate, DenialMetricIsDefenseOriented) {
  // Denials collapse from 20/20 to 0/20: the denial RATE fell, which is
  // attack-favoring, so with orientation -1 the regress gate trips.
  const DiffReport diff = diff_sweeps(defended_report(), healthy_report());
  GateSpec spec;
  spec.metric = DiffMetric::kDenialRate;
  const GateResult g = evaluate_gate(diff, spec, 5);
  EXPECT_TRUE(g.grid_tripped);
  EXPECT_GT(g.permutation.observed_stat, 0.0);  // oriented: regress-positive
  EXPECT_EQ(g.tripped_cells.size(), 8u);
  EXPECT_EQ(g.tripped_cells[0].delta, -1.0);  // raw delta stays B minus A
}

TEST(EvaluateGate, PsnrMetricGatesOnPermutationOnly) {
  const DiffReport diff = diff_sweeps(defended_report(), healthy_report());
  GateSpec spec;
  spec.metric = DiffMetric::kPsnrP50;  // +35 dB in every cell
  const GateResult g = evaluate_gate(diff, spec, 5);
  EXPECT_TRUE(g.grid_tripped);
  EXPECT_TRUE(g.tripped_cells.empty());  // no per-cell test for percentiles
  EXPECT_DOUBLE_EQ(g.permutation.observed_stat, 35.0);
}

TEST(EvaluateGate, MinEffectSuppressesResolvableButSmallShifts) {
  const DiffReport diff = diff_sweeps(defended_report(), healthy_report());
  GateSpec spec;
  spec.min_effect = 1.5;  // success rates move at most 1.0
  const GateResult g = evaluate_gate(diff, spec, 9);
  EXPECT_FALSE(g.tripped()) << g.verdict_line();
  // The permutation p is still tiny — only the effect floor held it.
  EXPECT_LT(g.permutation.p_value, 0.05);
}

TEST(EvaluateGate, AlphaTightensBothDetectors) {
  // One cell out of 8 regresses (10/20 -> 20/20): its BH-adjusted p is
  // around 3e-3, resolvable at alpha 0.05 per cell, gone at alpha 1e-4.
  StatsReport a = healthy_report();
  a.cells[3].successes = 10;
  a.cells[3].success_rate = 0.5;
  a.cells[3].success_ci = wilson_interval(10, 20);
  const DiffReport diff = diff_sweeps(a, healthy_report());
  GateSpec spec;
  const GateResult loose = evaluate_gate(diff, spec, 21);
  EXPECT_EQ(loose.tripped_cells.size(), 1u);
  spec.alpha = 1e-4;
  const GateResult strict = evaluate_gate(diff, spec, 21);
  EXPECT_TRUE(strict.tripped_cells.empty());
  EXPECT_FALSE(strict.grid_tripped);
}

TEST(EvaluateGate, EmptyDiffTripsNothing) {
  const DiffReport diff;  // no matched cells at all
  for (const GateDirection dir :
       {GateDirection::kRegress, GateDirection::kImprove, GateDirection::kAny}) {
    GateSpec spec;
    spec.direction = dir;
    const GateResult g = evaluate_gate(diff, spec, 3);
    EXPECT_FALSE(g.tripped());
    EXPECT_EQ(g.permutation.p_value, 1.0);
  }
}

TEST(GateStoreLevel, VerdictInvariantAcrossThreadsAndShards) {
  // The acceptance contract: sweep one grid as (a) two threads, (b) one
  // thread, (c) three shard stores in a directory, gate each against the
  // same baseline sweep, and require bit-identical p-values and verdict
  // strings — the permutation seed comes from the stores' fingerprints
  // and the pairs are consumed in AxisKey order, so runtime layout
  // cannot leak into the verdict.
  attack::ScenarioConfig cfg;
  cfg.system = os::SystemConfig::test_small();
  cfg.image_width = 48;
  cfg.image_height = 48;

  const auto dir = std::filesystem::temp_directory_path() / "msa_gate_tests";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const auto sweep = [&](unsigned threads, unsigned shard_index,
                         unsigned shard_count, const std::string& path,
                         bool power_cycled) {
    GridBuilder grid{cfg};
    grid.defenses({"baseline"}).attack_delays_s({5.0, 10.0, 20.0});
    if (power_cycled) grid.axis("power_cycled", {AxisValue::of_bool(true)});
    if (shard_count > 1) grid.shard(shard_index, shard_count);
    CampaignOptions options;
    options.threads = threads;
    options.trials_per_cell = 3;
    persist::StoreManifest manifest;
    manifest.grid_fingerprint = grid.fingerprint();
    manifest.grid_cells = grid.full_size();
    manifest.trials_per_cell = options.trials_per_cell;
    manifest.trial_salt = options.trial_salt;
    manifest.shard_index = shard_index;
    manifest.shard_count = shard_count;
    manifest.axes = grid.axis_schema();
    CampaignRunner runner{options};
    persist::CampaignStore store{path, manifest,
                                 persist::CampaignStore::Mode::kCreate};
    (void)runner.run(grid, store);
    return manifest.grid_fingerprint;
  };

  // Baseline side A: the power-cycled (defense-favoring) sweep.
  const std::uint64_t fp_a =
      sweep(2, 0, 1, (dir / "a.store").string(), true);
  // Side B, three ways: the same normal grid under different layouts.
  const std::uint64_t fp_b =
      sweep(2, 0, 1, (dir / "b_t2.store").string(), false);
  (void)sweep(1, 0, 1, (dir / "b_t1.store").string(), false);
  std::filesystem::create_directories(dir / "b_shards");
  for (unsigned i = 0; i < 3; ++i) {
    std::string name = "s";
    name += std::to_string(i);
    name += ".store";
    (void)sweep(2, i, 3, (dir / "b_shards" / name).string(), false);
  }

  const auto gate_against = [&](const std::vector<std::string>& stores) {
    const StatsReport a =
        analyze_sweep(persist::load_sweep({(dir / "a.store").string()}));
    const StatsReport b = analyze_sweep(persist::load_sweep(stores));
    const DiffReport diff = diff_sweeps(a, b);
    EXPECT_EQ(diff.cells.size(), 3u);
    return evaluate_gate(diff, GateSpec{}, gate_seed(fp_a, fp_b));
  };

  const GateResult t2 = gate_against({(dir / "b_t2.store").string()});
  const GateResult t1 = gate_against({(dir / "b_t1.store").string()});
  const GateResult sh =
      gate_against({(dir / "b_shards" / "s0.store").string(),
                    (dir / "b_shards" / "s1.store").string(),
                    (dir / "b_shards" / "s2.store").string()});
  EXPECT_EQ(t2.permutation.p_value, t1.permutation.p_value);  // bit-equal
  EXPECT_EQ(t2.permutation.p_value, sh.permutation.p_value);
  EXPECT_EQ(t2.permutation.at_least_as_extreme,
            sh.permutation.at_least_as_extreme);
  EXPECT_EQ(t2.verdict_line(), t1.verdict_line());
  EXPECT_EQ(t2.verdict_line(), sh.verdict_line());
}

}  // namespace
}  // namespace msa::campaign
