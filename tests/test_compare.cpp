// Cross-sweep diff tests: Newcombe interval properties, axis-value
// alignment (index-permuted stores pair up; disjoint grids report every
// cell unmatched), the self-diff-is-exactly-zero contract, and the
// text/CSV/JSON emitters' determinism.
#include "campaign/compare.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <limits>
#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "campaign/grid.h"
#include "campaign/runner.h"
#include "campaign/stats.h"
#include "persist/campaign_store.h"

namespace msa::campaign {
namespace {

using persist::CampaignStore;
using persist::StoreManifest;
using persist::SweepData;
using persist::TrialRecord;

TEST(NewcombeInterval, ContainsDeltaAndStaysInRange) {
  // 8/10 vs 4/10: delta -0.4; composing the Wilson intervals pinned in
  // test_stats gives approximately [-0.6726, 0.0226] — overlapping
  // zero, so NOT significant at these trial counts.
  const DeltaInterval ci = newcombe_interval(8, 10, 4, 10);
  EXPECT_NEAR(ci.low, -0.6726, 1e-3);
  EXPECT_NEAR(ci.high, 0.0226, 1e-3);
  EXPECT_FALSE(ci.excludes_zero());
  EXPECT_LE(ci.low, -0.4);
  EXPECT_GE(ci.high, -0.4);
  EXPECT_GE(ci.low, -1.0);
  EXPECT_LE(ci.high, 1.0);
}

TEST(NewcombeInterval, AntisymmetricUnderSideSwap) {
  const DeltaInterval ab = newcombe_interval(7, 9, 2, 11);
  const DeltaInterval ba = newcombe_interval(2, 11, 7, 9);
  EXPECT_DOUBLE_EQ(ab.low, -ba.high);
  EXPECT_DOUBLE_EQ(ab.high, -ba.low);
}

TEST(NewcombeInterval, ExtremesAndDegenerateCounts) {
  // 0/n vs n/n: a full-swing difference is significant even at n = 10.
  const DeltaInterval swing = newcombe_interval(0, 10, 10, 10);
  EXPECT_GT(swing.low, 0.0);
  EXPECT_LE(swing.high, 1.0);
  EXPECT_TRUE(swing.excludes_zero());

  // Identical counts: the interval straddles zero symmetrically.
  const DeltaInterval same = newcombe_interval(3, 5, 3, 5);
  EXPECT_DOUBLE_EQ(same.low, -same.high);
  EXPECT_FALSE(same.excludes_zero());

  // A side with no trials contributes the no-information interval; the
  // result can never exclude zero.
  const DeltaInterval no_info = newcombe_interval(0, 0, 5, 5);
  EXPECT_FALSE(no_info.excludes_zero());
  EXPECT_GE(no_info.low, -1.0);
  EXPECT_LE(no_info.high, 1.0);
}

TEST(NewcombePValue, ConsistentWithIntervalFlagAtAlpha) {
  // The inverted p-value must agree with the 95% interval's verdict:
  // p < 0.05 exactly when the interval excludes zero. Spot-check count
  // pairs on both sides of the boundary.
  const struct {
    std::size_t sa, ta, sb, tb;
  } cases[] = {{0, 10, 10, 10}, {8, 10, 4, 10}, {10, 20, 20, 20},
               {3, 5, 3, 5},    {14, 20, 20, 20}, {0, 20, 20, 20}};
  for (const auto& c : cases) {
    const double p = newcombe_p_value(c.sa, c.ta, c.sb, c.tb);
    const bool excludes =
        newcombe_interval(c.sa, c.ta, c.sb, c.tb).excludes_zero();
    EXPECT_EQ(p < kSignificanceAlpha, excludes)
        << c.sa << "/" << c.ta << " vs " << c.sb << "/" << c.tb << " p=" << p;
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
  // Symmetric under side swap, like the interval.
  EXPECT_DOUBLE_EQ(newcombe_p_value(7, 9, 2, 11), newcombe_p_value(2, 11, 7, 9));
  // No-information sides can never reach significance.
  EXPECT_EQ(newcombe_p_value(0, 0, 5, 5), 1.0);
  EXPECT_EQ(newcombe_p_value(5, 5, 0, 0), 1.0);
  // Identical proportions carry no evidence at all.
  EXPECT_EQ(newcombe_p_value(3, 5, 3, 5), 1.0);
  // A full swing at decent n is significant far past alpha.
  EXPECT_LT(newcombe_p_value(0, 20, 20, 20), 1e-6);
}

/// newcombe_p_value's bisection as first written — always 80 steps —
/// kept as the reference the early-exit loop must match bit for bit.
double reference_newcombe_p_value(std::size_t sa, std::size_t ta,
                                  std::size_t sb, std::size_t tb) {
  if (ta == 0 || tb == 0) return 1.0;
  const auto excludes_zero_at = [&](double z) {
    return newcombe_interval(sa, ta, sb, tb, z).excludes_zero();
  };
  double lo = 1e-8;
  double hi = 40.0;
  if (!excludes_zero_at(lo)) return 1.0;
  if (excludes_zero_at(hi)) return 0.0;
  for (int i = 0; i < 80; ++i) {
    const double mid = 0.5 * (lo + hi);
    (excludes_zero_at(mid) ? lo : hi) = mid;
  }
  return std::erfc(0.5 * (lo + hi) / std::sqrt(2.0));
}

TEST(NewcombePValue, FixedPointExitMatchesEightyStepBisection) {
  for (const std::size_t t : {1u, 7u, 100u, 200u}) {
    for (std::size_t sa = 0; sa <= t; ++sa) {
      for (std::size_t sb = 0; sb <= t; ++sb) {
        const double want = reference_newcombe_p_value(sa, t, sb, t);
        const double got = newcombe_p_value(sa, t, sb, t);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
                  std::bit_cast<std::uint64_t>(want))
            << sa << "/" << t << " vs " << sb << "/" << t;
      }
    }
  }
}

TEST(BenjaminiHochberg, MatchesHandComputedAdjustment) {
  // Textbook example, m = 5: adjusted q_(i) = min over j >= i of
  // p_(j) * m / j, clamped to 1.
  const std::vector<double> p{0.001, 0.01, 0.02, 0.04, 0.5};
  const std::vector<double> q = benjamini_hochberg(p);
  ASSERT_EQ(q.size(), 5u);
  EXPECT_DOUBLE_EQ(q[0], 0.005);
  EXPECT_DOUBLE_EQ(q[1], 0.025);
  EXPECT_DOUBLE_EQ(q[2], 0.02 * 5.0 / 3.0);
  EXPECT_DOUBLE_EQ(q[3], 0.05);
  EXPECT_DOUBLE_EQ(q[4], 0.5);
}

TEST(BenjaminiHochberg, OrderAgnosticAndConservative) {
  // Shuffled input: each position gets the same adjusted value its
  // p-value received in sorted order.
  const std::vector<double> p{0.5, 0.02, 0.001, 0.04, 0.01};
  const std::vector<double> q = benjamini_hochberg(p);
  EXPECT_DOUBLE_EQ(q[0], 0.5);
  EXPECT_DOUBLE_EQ(q[2], 0.005);
  EXPECT_DOUBLE_EQ(q[4], 0.025);
  // Adjustment never helps a p-value and never exceeds 1.
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_GE(q[i], p[i]);
    EXPECT_LE(q[i], 1.0);
  }
  // Ties share one adjusted value.
  const std::vector<double> tied = benjamini_hochberg({0.03, 0.03});
  EXPECT_DOUBLE_EQ(tied[0], tied[1]);
  EXPECT_DOUBLE_EQ(tied[0], 0.03);

  EXPECT_TRUE(benjamini_hochberg({}).empty());
  EXPECT_THROW((void)benjamini_hochberg({-0.1}), std::invalid_argument);
  EXPECT_THROW((void)benjamini_hochberg({1.1}), std::invalid_argument);
  EXPECT_THROW((void)benjamini_hochberg({std::nan("")}), std::invalid_argument);
}

CellDistribution make_cell(std::uint64_t index, const std::string& defense,
                           const std::string& model, double delay,
                           double scrubber, std::size_t trials,
                           std::size_t successes, std::size_t denials,
                           double p50, double p90, double p99) {
  CellDistribution c;
  c.index = index;
  c.coords = {{"defense", AxisValue::of_string(defense)},
              {"model", AxisValue::of_string(model)},
              {"delay_s", AxisValue::of_number(delay)},
              {"scrubber_Bps", AxisValue::of_number(scrubber)}};
  c.trials = trials;
  c.successes = successes;
  c.denials = denials;
  c.p50_psnr = p50;
  c.p90_psnr = p90;
  c.p99_psnr = p99;
  c.success_rate =
      trials == 0 ? 0.0
                  : static_cast<double>(successes) / static_cast<double>(trials);
  c.success_ci = wilson_interval(successes, trials);
  return c;
}

/// Label of one axis value on a coordinate list ("<missing>" when the
/// list lacks the axis).
std::string coord_label(const std::vector<AxisCoordinate>& coords,
                        std::string_view axis) {
  const AxisValue* v = find_coord(coords, axis);
  return v == nullptr ? "<missing>" : v->label();
}

AxisMarginal make_marginal(const std::string& axis, const std::string& value,
                           std::size_t trials, std::size_t successes,
                           std::size_t denials, double mean_psnr) {
  AxisMarginal m;
  m.axis = axis;
  m.value = value;
  m.trials = trials;
  m.successes = successes;
  m.denials = denials;
  m.success_rate =
      trials == 0 ? 0.0
                  : static_cast<double>(successes) / static_cast<double>(trials);
  m.success_ci = wilson_interval(successes, trials);
  m.mean_psnr = mean_psnr;
  return m;
}

StatsReport two_cell_report() {
  StatsReport r;
  r.cells.push_back(
      make_cell(0, "baseline", "m", 0.0, 0.0, 5, 4, 0, 90.0, 95.0, 99.0));
  r.cells.push_back(
      make_cell(1, "zero_on_free", "m", 0.0, 0.0, 5, 1, 2, 10.0, 20.0, 30.0));
  r.trials_analyzed = 10;
  r.marginals.push_back(make_marginal("defense", "baseline", 5, 4, 0, 92.0));
  r.marginals.push_back(make_marginal("defense", "zero_on_free", 5, 1, 2, 15.0));
  r.marginals.push_back(make_marginal("model", "m", 10, 5, 2, 53.5));
  return r;
}

TEST(DiffSweeps, SelfDiffIsExactlyZero) {
  const StatsReport r = two_cell_report();
  const DiffReport diff = diff_sweeps(r, r);

  ASSERT_EQ(diff.cells.size(), 2u);
  EXPECT_TRUE(diff.only_in_a.empty());
  EXPECT_TRUE(diff.only_in_b.empty());
  EXPECT_EQ(diff.significant_cells, 0u);
  for (const CellDelta& d : diff.cells) {
    EXPECT_EQ(d.success_delta, 0.0);  // exactly, not approximately
    EXPECT_EQ(d.denial_delta, 0.0);
    EXPECT_EQ(d.p50_shift, 0.0);
    EXPECT_EQ(d.p90_shift, 0.0);
    EXPECT_EQ(d.p99_shift, 0.0);
    EXPECT_FALSE(d.significant);
    EXPECT_LE(d.success_delta_ci.low, 0.0);
    EXPECT_GE(d.success_delta_ci.high, 0.0);
    EXPECT_EQ(d.trials_a, d.trials_b);
    EXPECT_EQ(d.index_a, d.index_b);
  }
  ASSERT_EQ(diff.marginals.size(), 3u);
  for (const AxisDelta& d : diff.marginals) {
    EXPECT_EQ(d.success_delta, 0.0);
    EXPECT_EQ(d.denial_delta, 0.0);
    EXPECT_EQ(d.mean_psnr_shift, 0.0);
    EXPECT_FALSE(d.significant);
  }
}

TEST(DiffSweeps, MatchedCellsOrderedByAxisNotIndex) {
  StatsReport a = two_cell_report();
  // Side B enumerates the same axis combinations under reversed indices
  // and with different outcomes.
  StatsReport b;
  b.cells.push_back(
      make_cell(7, "zero_on_free", "m", 0.0, 0.0, 5, 0, 5, 1.0, 2.0, 3.0));
  b.cells.push_back(
      make_cell(3, "baseline", "m", 0.0, 0.0, 5, 5, 0, 95.0, 97.0, 99.0));
  b.marginals.push_back(make_marginal("defense", "baseline", 5, 5, 0, 97.0));

  const DiffReport diff = diff_sweeps(a, b);
  ASSERT_EQ(diff.cells.size(), 2u);
  // Output ascends by axis key: "baseline" sorts before "zero_on_free".
  EXPECT_EQ(coord_label(diff.cells[0].key.coords, "defense"), "baseline");
  EXPECT_EQ(diff.cells[0].index_a, 0u);
  EXPECT_EQ(diff.cells[0].index_b, 3u);
  EXPECT_DOUBLE_EQ(diff.cells[0].success_delta, 1.0 - 0.8);
  EXPECT_EQ(coord_label(diff.cells[1].key.coords, "defense"), "zero_on_free");
  EXPECT_EQ(diff.cells[1].index_b, 7u);
  EXPECT_DOUBLE_EQ(diff.cells[1].success_delta, 0.0 - 0.2);
  EXPECT_DOUBLE_EQ(diff.cells[1].denial_delta, 1.0 - 0.4);
  EXPECT_DOUBLE_EQ(diff.cells[1].p50_shift, 1.0 - 10.0);

  // Marginal deltas exist only for (axis, value) pairs present on both
  // sides — here just defense=baseline.
  ASSERT_EQ(diff.marginals.size(), 1u);
  EXPECT_EQ(diff.marginals[0].axis, "defense");
  EXPECT_EQ(diff.marginals[0].value, "baseline");
}

TEST(DiffSweeps, DisjointGridsReportEveryCellUnmatched) {
  StatsReport a;
  a.cells.push_back(
      make_cell(0, "baseline", "m1", 0.0, 0.0, 3, 3, 0, 99.0, 99.0, 99.0));
  a.marginals.push_back(make_marginal("defense", "baseline", 3, 3, 0, 99.0));
  StatsReport b;
  b.cells.push_back(
      make_cell(0, "physical_aslr", "m2", 5.0, 64.0, 3, 0, 3, 1.0, 1.0, 1.0));
  b.marginals.push_back(make_marginal("defense", "physical_aslr", 3, 0, 3, 1.0));

  const DiffReport diff = diff_sweeps(a, b);
  EXPECT_TRUE(diff.cells.empty());
  EXPECT_TRUE(diff.marginals.empty());
  ASSERT_EQ(diff.only_in_a.size(), 1u);
  ASSERT_EQ(diff.only_in_b.size(), 1u);
  EXPECT_EQ(coord_label(diff.only_in_a[0].coords, "defense"), "baseline");
  EXPECT_EQ(coord_label(diff.only_in_b[0].coords, "defense"), "physical_aslr");
}

TEST(DiffSweeps, DisjointCellsCanStillShareMarginalAxes) {
  // The paper's cross-family question: defense families disjoint, delay
  // axis shared. No cell matches, but per-delay marginals still diff.
  StatsReport a;
  a.cells.push_back(
      make_cell(0, "familyA", "m", 5.0, 0.0, 4, 4, 0, 90.0, 90.0, 90.0));
  a.marginals.push_back(make_marginal("defense", "familyA", 4, 4, 0, 90.0));
  a.marginals.push_back(make_marginal("delay_s", "5", 4, 4, 0, 90.0));
  StatsReport b;
  b.cells.push_back(
      make_cell(0, "familyB", "m", 5.0, 0.0, 4, 1, 0, 30.0, 30.0, 30.0));
  b.marginals.push_back(make_marginal("defense", "familyB", 4, 1, 0, 30.0));
  b.marginals.push_back(make_marginal("delay_s", "5", 4, 1, 0, 30.0));

  const DiffReport diff = diff_sweeps(a, b);
  EXPECT_TRUE(diff.cells.empty());
  ASSERT_EQ(diff.marginals.size(), 1u);
  EXPECT_EQ(diff.marginals[0].axis, "delay_s");
  EXPECT_DOUBLE_EQ(diff.marginals[0].success_delta, 0.25 - 1.0);
  EXPECT_DOUBLE_EQ(diff.marginals[0].mean_psnr_shift, -60.0);
}

TEST(DiffSweeps, SchemaSupersetAlignsOnSharedAxes) {
  // Side A is a legacy four-axis sweep (the v1-store shape); side B swept
  // the same four axes PLUS power_cycled at a single value. The shared
  // axes are the legacy four, so every cell still pairs.
  const StatsReport a = two_cell_report();
  StatsReport b = two_cell_report();
  for (CellDistribution& c : b.cells) {
    c.coords.push_back({"power_cycled", AxisValue::of_bool(false)});
  }

  const DiffReport diff = diff_sweeps(a, b);
  EXPECT_EQ(diff.shared_axes,
            (std::vector<std::string>{"defense", "model", "delay_s",
                                      "scrubber_Bps"}));
  ASSERT_EQ(diff.cells.size(), 2u);
  EXPECT_TRUE(diff.only_in_a.empty());
  EXPECT_TRUE(diff.only_in_b.empty());
  for (const CellDelta& d : diff.cells) {
    EXPECT_EQ(d.success_delta, 0.0);
    // The join key carries only the shared axes.
    EXPECT_EQ(find_coord(d.key.coords, "power_cycled"), nullptr);
  }

  // Two B cells that differ ONLY on the extra axis project onto the same
  // shared key — ambiguous, so diff refuses.
  StatsReport b_dup = b;
  b_dup.cells.push_back(b_dup.cells[0]);
  b_dup.cells.back().index = 9;
  b_dup.cells.back().coords.back().value = AxisValue::of_bool(true);
  EXPECT_THROW((void)diff_sweeps(a, b_dup), std::runtime_error);
}

TEST(DiffSweeps, DisjointSchemasMatchNothing) {
  StatsReport a;
  a.cells.push_back(make_cell(0, "baseline", "m", 0.0, 0.0, 3, 3, 0, 99.0,
                              99.0, 99.0));
  StatsReport b;
  CellDistribution odd;
  odd.index = 0;
  odd.coords = {{"power_cycled", AxisValue::of_bool(true)}};
  odd.trials = 3;
  b.cells.push_back(odd);

  const DiffReport diff = diff_sweeps(a, b);
  EXPECT_TRUE(diff.shared_axes.empty());
  EXPECT_TRUE(diff.cells.empty());
  ASSERT_EQ(diff.only_in_a.size(), 1u);
  ASSERT_EQ(diff.only_in_b.size(), 1u);
  EXPECT_EQ(diff.only_in_a[0].index, 0u);
  EXPECT_EQ(diff.only_in_b[0].index, 0u);
}

TEST(DiffSweeps, NonFiniteAxisValuesAreRejected) {
  // A store written before the CLI validated --delays/--scrubbers can
  // carry NaN/inf axes; a NaN key would break the alignment map's
  // ordering, so diff refuses it with a clear error instead.
  StatsReport a = two_cell_report();
  ASSERT_EQ(a.cells[1].coords[2].axis, "delay_s");
  a.cells[1].coords[2].value = AxisValue::of_number(std::nan(""));
  EXPECT_THROW((void)diff_sweeps(a, two_cell_report()), std::runtime_error);
  EXPECT_THROW((void)diff_sweeps(two_cell_report(), a), std::runtime_error);
  a.cells[1].coords[2].value =
      AxisValue::of_number(std::numeric_limits<double>::infinity());
  EXPECT_THROW((void)diff_sweeps(a, two_cell_report()), std::runtime_error);
}

TEST(DiffSweeps, DuplicateAxisKeyIsRejected) {
  StatsReport a = two_cell_report();
  a.cells.push_back(a.cells[0]);  // same axis values at another slot
  a.cells.back().index = 99;
  EXPECT_THROW((void)diff_sweeps(a, two_cell_report()), std::runtime_error);
  EXPECT_THROW((void)diff_sweeps(two_cell_report(), a), std::runtime_error);
}

/// diff_sweeps' error text, "" when it does not throw.
std::string diff_error(const StatsReport& a, const StatsReport& b) {
  try {
    (void)diff_sweeps(a, b);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(DiffSweeps, PairingErrorsNameTheFirstFaultInCellOrder) {
  // Each fault's text, and which of two wins: the one at the earlier
  // cell, with a duplicate counted at its second cell; side A first.
  StatsReport dup = two_cell_report();
  dup.cells.push_back(dup.cells[0]);
  dup.cells.back().index = 99;
  const std::string dup_text =
      "diff: sweep A has two cells with the same axis values "
      "(defense=baseline/model=m/delay_s=0/scrubber_Bps=0) — alignment by "
      "axis is ambiguous";
  EXPECT_EQ(diff_error(dup, two_cell_report()), dup_text);
  EXPECT_EQ(diff_error(two_cell_report(), dup),
            "diff: sweep B" + dup_text.substr(std::string("diff: sweep A").size()));
  EXPECT_EQ(diff_error(dup, dup), dup_text);

  StatsReport nan = two_cell_report();
  nan.cells[1].coords[2].value = AxisValue::of_number(std::nan(""));
  const std::string nan_text =
      "diff: sweep A cell 1 has a non-finite axis value (store written by a "
      "pre-validation tool?) — axis alignment needs finite coordinates";
  EXPECT_EQ(diff_error(nan, two_cell_report()), nan_text);

  StatsReport mixed = two_cell_report();
  mixed.cells[1].coords.pop_back();  // lacks scrubber_Bps
  EXPECT_EQ(diff_error(mixed, two_cell_report()),
            "diff: sweep A cell 1 lacks axis 'scrubber_Bps' (store mixes "
            "schemas?)");

  // Duplicate at cell position 2, NaN at position 3: the duplicate wins.
  StatsReport dup_then_nan = dup;
  dup_then_nan.cells.push_back(nan.cells[1]);
  dup_then_nan.cells.back().index = 100;
  EXPECT_EQ(diff_error(dup_then_nan, two_cell_report()), dup_text);
  // NaN at position 1, its duplicate only after: the NaN wins.
  StatsReport nan_then_dup = nan;
  nan_then_dup.cells.push_back(nan.cells[0]);
  nan_then_dup.cells.back().index = 99;
  EXPECT_EQ(diff_error(nan_then_dup, two_cell_report()), nan_text);
}

TEST(DiffSweeps, MergeJoinPairsLikeAMapOfEverySidesKeys) {
  // Random partial grids over a shared 3-axis schema in random cell
  // order, B's with an extra one-value axis: the pairing must match a
  // std::map keyed by the projected AxisKey, in every output list. Trial
  // counts vary too, so count tuples repeat and also differ in any one
  // count, and every matched cell's p-value must be newcombe_p_value of
  // its own counts (diff_sweeps memoizes it).
  std::mt19937_64 rng{0xd1ff};
  const auto pick = [&](std::uint64_t n) { return rng() % n; };
  for (int round = 0; round < 20; ++round) {
    const auto report = [&](bool extra) {
      StatsReport r;
      std::uint64_t index = 0;
      for (const char* defense : {"zeta", "alpha", "mid"}) {
        for (int delay = 4; delay >= -1; --delay) {
          for (const bool flag : {true, false}) {
            if (pick(3) == 0) continue;
            const std::size_t trials = 1 + pick(6);
            CellDistribution c =
                make_cell(index++, defense, "m", 0.0, 0.0, trials,
                          pick(trials + 1), pick(3), 1.0, 2.0, 3.0);
            c.coords = {{"defense", AxisValue::of_string(defense)},
                        {"delay_s", AxisValue::of_number(2.5 * delay)},
                        {"flag", AxisValue::of_bool(flag)}};
            if (extra) {
              c.coords.insert(c.coords.begin() + 1,
                              {"model", AxisValue::of_string("m")});
            }
            r.cells.push_back(std::move(c));
          }
        }
      }
      std::shuffle(r.cells.begin(), r.cells.end(), rng);
      return r;
    };
    const StatsReport a = report(false);
    const StatsReport b = report(true);
    const DiffReport diff = diff_sweeps(a, b);
    ASSERT_EQ(diff.shared_axes,
              (std::vector<std::string>{"defense", "delay_s", "flag"}));

    const auto keyed = [&](const StatsReport& r) {
      std::map<AxisKey, const CellDistribution*> out;
      for (const CellDistribution& c : r.cells) {
        AxisKey key;
        for (const std::string& axis : diff.shared_axes) {
          key.coords.push_back({axis, *find_coord(c.coords, axis)});
        }
        out.emplace(std::move(key), &c);
      }
      return out;
    };
    const auto map_a = keyed(a);
    const auto map_b = keyed(b);
    std::vector<std::uint64_t> want_only_a;
    std::vector<std::uint64_t> want_only_b;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> want_pairs;
    std::vector<AxisKey> want_keys;
    for (const auto& [key, c] : map_a) {
      const auto it = map_b.find(key);
      if (it == map_b.end()) {
        want_only_a.push_back(c->index);
      } else {
        want_pairs.push_back({c->index, it->second->index});
        want_keys.push_back(key);
      }
    }
    for (const auto& [key, c] : map_b) {
      if (!map_a.contains(key)) want_only_b.push_back(c->index);
    }
    std::vector<std::uint64_t> only_a;
    for (const CellDistribution& c : diff.only_in_a) only_a.push_back(c.index);
    std::vector<std::uint64_t> only_b;
    for (const CellDistribution& c : diff.only_in_b) only_b.push_back(c.index);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> pairs;
    std::vector<AxisKey> keys;
    for (const CellDelta& d : diff.cells) {
      pairs.push_back({d.index_a, d.index_b});
      keys.push_back(d.key);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(d.p_value),
                std::bit_cast<std::uint64_t>(newcombe_p_value(
                    d.successes_a, d.trials_a, d.successes_b, d.trials_b)))
          << "round " << round << " " << d.successes_a << "/" << d.trials_a
          << " vs " << d.successes_b << "/" << d.trials_b;
    }
    EXPECT_EQ(only_a, want_only_a) << "round " << round;
    EXPECT_EQ(only_b, want_only_b) << "round " << round;
    EXPECT_EQ(pairs, want_pairs) << "round " << round;
    EXPECT_EQ(keys, want_keys) << "round " << round;
  }
}

TEST(DiffSweeps, FdrFlagsAreASubsetOfRawSignificance) {
  // Four cells: one hard regression (0/5 -> 5/5), one mild shift, two
  // unchanged. The FDR-adjusted p is never smaller than the raw p, and
  // significant_fdr is by construction a subset of the raw flag.
  StatsReport a = two_cell_report();
  a.cells.push_back(
      make_cell(2, "baseline", "m", 5.0, 0.0, 5, 0, 0, 1.0, 2.0, 3.0));
  a.cells.push_back(
      make_cell(3, "zero_on_free", "m", 5.0, 0.0, 5, 2, 1, 4.0, 5.0, 6.0));
  StatsReport b = a;
  b.cells[2].successes = 5;
  b.cells[2].success_rate = 1.0;
  b.cells[2].success_ci = wilson_interval(5, 5);
  b.cells[3].successes = 3;
  b.cells[3].success_rate = 0.6;
  b.cells[3].success_ci = wilson_interval(3, 5);

  const DiffReport diff = diff_sweeps(a, b);
  ASSERT_EQ(diff.cells.size(), 4u);
  std::size_t raw = 0;
  std::size_t fdr = 0;
  for (const CellDelta& d : diff.cells) {
    EXPECT_GE(d.p_value, 0.0);
    EXPECT_LE(d.p_value, 1.0);
    EXPECT_GE(d.p_value_fdr, d.p_value);  // adjustment never helps
    // The p-value agrees with the interval verdict it inverts.
    EXPECT_EQ(d.p_value < kSignificanceAlpha, d.significant);
    if (d.significant) ++raw;
    if (d.significant_fdr) {
      ++fdr;
      EXPECT_TRUE(d.significant);  // subset, never a superset
      EXPECT_LE(d.p_value_fdr, kSignificanceAlpha);
    }
    if (d.success_delta == 0.0) {
      EXPECT_EQ(d.p_value, 1.0);
      EXPECT_EQ(d.p_value_fdr, 1.0);
    }
  }
  EXPECT_EQ(diff.significant_cells, raw);
  EXPECT_EQ(diff.significant_cells_fdr, fdr);
  // The hard swing survives the correction; only it.
  EXPECT_EQ(fdr, 1u);
}

TEST(DiffSweeps, EmittersCarryPValueAndFdrColumns) {
  StatsReport a = two_cell_report();
  StatsReport b = two_cell_report();
  b.cells[0].successes = 0;
  b.cells[0].success_rate = 0.0;
  b.cells[0].success_ci = wilson_interval(0, 5);
  const DiffReport diff = diff_sweeps(a, b);

  const std::string text = diff.to_text();
  EXPECT_NE(text.find("p_fdr"), std::string::npos);
  EXPECT_NE(text.find("sig_fdr"), std::string::npos);
  EXPECT_NE(text.find("after FDR"), std::string::npos);

  const std::string csv = diff.to_csv();
  const std::string header = csv.substr(0, csv.find('\n'));
  EXPECT_NE(header.find("p_value"), std::string::npos);
  EXPECT_NE(header.find("p_value_fdr"), std::string::npos);
  EXPECT_NE(header.find("significant_fdr"), std::string::npos);

  const std::string json = diff.to_json();
  EXPECT_NE(json.find("\"p_value\":"), std::string::npos);
  EXPECT_NE(json.find("\"p_value_fdr\":"), std::string::npos);
  EXPECT_NE(json.find("\"significant_fdr\":"), std::string::npos);
  EXPECT_NE(json.find("\"significant_cells_fdr\":"), std::string::npos);
}

TEST(DiffSweeps, EmittersAreDeterministicAndLabelled) {
  const StatsReport a = two_cell_report();
  StatsReport b = two_cell_report();
  b.cells[0].successes = 0;
  b.cells[0].success_rate = 0.0;
  b.cells[0].success_ci = wilson_interval(0, 5);
  const DiffReport diff = diff_sweeps(a, b);

  const std::string text = diff.to_text();
  EXPECT_NE(text.find("cross-sweep diff (B minus A)"), std::string::npos);
  EXPECT_NE(text.find("unmatched cells (A only: 0)"), std::string::npos);
  EXPECT_NE(text.find("per-axis marginal deltas"), std::string::npos);
  EXPECT_EQ(text, diff.to_text());

  const std::string csv = diff.to_csv();
  // Strict rectangle: every line has the header's field count (no field
  // here carries an embedded comma).
  const std::string header = csv.substr(0, csv.find('\n'));
  const std::size_t header_commas = static_cast<std::size_t>(
      std::count(header.begin(), header.end(), ','));
  std::size_t line_start = 0;
  while (line_start < csv.size()) {
    const std::size_t line_end = csv.find('\n', line_start);
    const std::string line = csv.substr(line_start, line_end - line_start);
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(line.begin(), line.end(), ',')),
              header_commas)
        << line;
    line_start = line_end + 1;
  }
  EXPECT_EQ(csv, diff.to_csv());

  const std::string json = diff.to_json();
  EXPECT_NE(json.find("\"matched_cells\":2"), std::string::npos);
  EXPECT_NE(json.find("\"cells\":["), std::string::npos);
  EXPECT_NE(json.find("\"only_in_a\":[]"), std::string::npos);
  EXPECT_NE(json.find("\"marginals\":["), std::string::npos);
  EXPECT_EQ(json, diff.to_json());
}

TEST(DiffSweeps, IndexPermutedStoreCopyDiffsToAllZero) {
  // The acceptance contract at store level: write a sweep, copy its
  // records into a second store under permuted cell indices, and the
  // diff must align every cell by axis values with every delta exactly
  // zero — index order never enters the pairing. The copy is the same
  // grid with both value lists reversed, which maps cell i to top - i.
  attack::ScenarioConfig cfg;
  cfg.system = os::SystemConfig::test_small();
  cfg.image_width = 48;
  cfg.image_height = 48;
  GridBuilder grid{cfg};
  grid.defenses({"baseline", "zero_on_free"}).attack_delays_s({0.0, 5.0});

  CampaignOptions options;
  options.threads = 2;
  options.trials_per_cell = 2;

  StoreManifest manifest;
  manifest.grid_fingerprint = grid.fingerprint();
  manifest.grid_cells = grid.full_size();
  manifest.trials_per_cell = options.trials_per_cell;
  manifest.trial_salt = options.trial_salt;
  manifest.axes = grid.axis_schema();

  const auto dir = std::filesystem::temp_directory_path() / "msa_compare_tests";
  std::filesystem::create_directories(dir);
  const std::string path_a = (dir / "orig.store").string();
  const std::string path_b = (dir / "permuted.store").string();
  std::filesystem::remove(path_a);
  std::filesystem::remove(path_b);
  {
    CampaignRunner runner{options};
    CampaignStore store{path_a, manifest, CampaignStore::Mode::kCreate};
    (void)runner.run(grid, store);
  }

  const SweepData data_a = persist::load_sweep({path_a});
  ASSERT_EQ(data_a.cells.size(), 4u);
  const std::uint64_t top = manifest.grid_cells - 1;
  GridBuilder reversed{cfg};
  reversed.defenses({"zero_on_free", "baseline"}).attack_delays_s({5.0, 0.0});
  StoreManifest manifest_b = manifest;
  manifest_b.grid_fingerprint = reversed.fingerprint();
  manifest_b.axes = reversed.axis_schema();
  {
    CampaignStore store{path_b, manifest_b, CampaignStore::Mode::kCreate};
    // Reverse the index space; axis labels travel with their cells.
    for (const CellStats& cell : data_a.cells) {
      for (const TrialRecord& t : data_a.trials) {
        if (t.cell_index != cell.index) continue;
        TrialRecord moved = t;
        moved.cell_index = top - t.cell_index;
        store.append_trial(moved);
      }
      CellStats moved = cell;
      moved.index = top - cell.index;
      store.complete_cell(moved);
    }
  }

  const StatsReport a = analyze_sweep(data_a);
  const StatsReport b = analyze_sweep(persist::load_sweep({path_b}));
  const DiffReport diff = diff_sweeps(a, b);

  ASSERT_EQ(diff.cells.size(), 4u);
  EXPECT_TRUE(diff.only_in_a.empty());
  EXPECT_TRUE(diff.only_in_b.empty());
  EXPECT_EQ(diff.significant_cells, 0u);
  bool some_index_moved = false;
  for (const CellDelta& d : diff.cells) {
    EXPECT_EQ(d.success_delta, 0.0);
    EXPECT_EQ(d.denial_delta, 0.0);
    EXPECT_EQ(d.p50_shift, 0.0);
    EXPECT_EQ(d.p90_shift, 0.0);
    EXPECT_EQ(d.p99_shift, 0.0);
    EXPECT_FALSE(d.significant);
    EXPECT_EQ(d.index_b, top - d.index_a);
    if (d.index_a != d.index_b) some_index_moved = true;
  }
  EXPECT_TRUE(some_index_moved);
  for (const AxisDelta& d : diff.marginals) {
    EXPECT_EQ(d.success_delta, 0.0);
    EXPECT_EQ(d.mean_psnr_shift, 0.0);
  }
}

}  // namespace
}  // namespace msa::campaign
