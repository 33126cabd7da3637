// Stats-engine tests: Wilson intervals against published values,
// nearest-rank percentiles, and analyze_sweep over a real store's trial
// stream (cells, marginals, orphan exclusion).
#include "campaign/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>

#include "campaign/grid.h"
#include "campaign/runner.h"
#include "persist/campaign_store.h"

namespace msa::campaign {
namespace {

using persist::CampaignStore;
using persist::StoreManifest;
using persist::SweepData;
using persist::TrialRecord;

TEST(WilsonInterval, MatchesKnownValues) {
  // 8/10 at 95%: the standard worked example — Wilson gives
  // approximately [0.490, 0.943].
  const WilsonInterval ci = wilson_interval(8, 10);
  EXPECT_NEAR(ci.low, 0.4902, 5e-4);
  EXPECT_NEAR(ci.high, 0.9433, 5e-4);

  // 0/5 and 5/5: one-sided but never outside [0, 1], never degenerate
  // like the normal approximation (0 +/- 0).
  const WilsonInterval none = wilson_interval(0, 5);
  EXPECT_EQ(none.low, 0.0);
  EXPECT_GT(none.high, 0.0);
  EXPECT_LT(none.high, 0.55);
  const WilsonInterval all = wilson_interval(5, 5);
  EXPECT_EQ(all.high, 1.0);
  EXPECT_LT(all.low, 1.0);
  EXPECT_GT(all.low, 0.45);
  // Symmetry of the complementary counts.
  EXPECT_NEAR(all.low, 1.0 - none.high, 1e-12);

  // The single-trial extremes stay sane too: 0/1 and 1/1 give wide but
  // proper subintervals of [0, 1], never the degenerate point the
  // normal approximation collapses to.
  const WilsonInterval zero_of_one = wilson_interval(0, 1);
  EXPECT_EQ(zero_of_one.low, 0.0);
  EXPECT_GT(zero_of_one.high, 0.5);
  EXPECT_LT(zero_of_one.high, 1.0);
  const WilsonInterval one_of_one = wilson_interval(1, 1);
  EXPECT_EQ(one_of_one.high, 1.0);
  EXPECT_LT(one_of_one.low, 0.5);
  EXPECT_GT(one_of_one.low, 0.0);

  // No data: the no-information interval.
  const WilsonInterval empty = wilson_interval(0, 0);
  EXPECT_EQ(empty.low, 0.0);
  EXPECT_EQ(empty.high, 1.0);
}

TEST(Percentile, NearestRank) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0};
  EXPECT_EQ(percentile_sorted(v, 0.0), 1.0);
  EXPECT_EQ(percentile_sorted(v, 50.0), 5.0);   // ceil(0.5*10) = 5th
  EXPECT_EQ(percentile_sorted(v, 90.0), 9.0);
  EXPECT_EQ(percentile_sorted(v, 99.0), 10.0);  // ceil(0.99*10) = 10th
  EXPECT_EQ(percentile_sorted(v, 100.0), 10.0);

  const std::vector<double> one{42.0};
  EXPECT_EQ(percentile_sorted(one, 50.0), 42.0);
  EXPECT_EQ(percentile_sorted(one, 99.0), 42.0);
  EXPECT_THROW((void)percentile_sorted({}, 50.0), std::invalid_argument);
}

TEST(Percentile, SelectionEqualsSortedReference) {
  // Heavy ties, infinities and both zeros: any value a stored PSNR can
  // take except NaN, which has no order for either path to agree on.
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> pool{-inf, -3.5, -0.0, 0.0, 0.0, 1.0, 7.25,
                                 7.25, 99.0, inf};
  std::mt19937_64 rng{0x9e7c};
  for (std::size_t n = 1; n <= 300; ++n) {
    for (int rep = 0; rep < 3; ++rep) {
      std::vector<double> sample(n);
      for (double& v : sample) v = pool[rng() % pool.size()];
      std::vector<double> sorted = sample;
      std::sort(sorted.begin(), sorted.end());
      const Percentiles got = select_percentiles(sample);
      // == on doubles: -0.0 and 0.0 tie, and either may be selected.
      EXPECT_EQ(got.p50, percentile_sorted(sorted, 50.0)) << "n=" << n;
      EXPECT_EQ(got.p90, percentile_sorted(sorted, 90.0)) << "n=" << n;
      EXPECT_EQ(got.p99, percentile_sorted(sorted, 99.0)) << "n=" << n;
    }
  }
  std::vector<double> empty;
  EXPECT_THROW((void)select_percentiles(empty), std::invalid_argument);
}

TEST(Percentile, SelectionEqualsSortedReferenceOnSyntheticCells) {
  // The shape of a sweep's cells: 100 PSNRs each, mixing a tie block at
  // 99 (pixel-exact recoveries), uniform 5-30 dB and zeros (denials),
  // in proportions that vary from cell to cell. Bit-equal to the sorted
  // reference: no cell holds both zeros.
  std::mt19937_64 rng{0x51ce};
  std::uniform_real_distribution<double> psnr{5.0, 30.0};
  for (int cell = 0; cell < 2000; ++cell) {
    const auto ties = rng() % 101;
    const auto zeros = rng() % (101 - ties);
    std::vector<double> sample;
    for (std::size_t i = 0; i < 100; ++i) {
      sample.push_back(i < ties ? 99.0 : i < ties + zeros ? 0.0 : psnr(rng));
    }
    std::shuffle(sample.begin(), sample.end(), rng);
    std::vector<double> sorted = sample;
    std::sort(sorted.begin(), sorted.end());
    const Percentiles got = select_percentiles(sample);
    const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
    EXPECT_EQ(bits(got.p50), bits(percentile_sorted(sorted, 50.0)))
        << "cell " << cell;
    EXPECT_EQ(bits(got.p90), bits(percentile_sorted(sorted, 90.0)))
        << "cell " << cell;
    EXPECT_EQ(bits(got.p99), bits(percentile_sorted(sorted, 99.0)))
        << "cell " << cell;
  }
}

TEST(Percentile, SelectionOfASampleWithNaNsEndsOnASampleValue) {
  // NaN compares false both ways, so it has no rank; a partition that
  // waits for a comparison to come out true would never end. Selection
  // must end, and return values the sample holds.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::mt19937_64 rng{0x7a7a};
  for (std::size_t n = 1; n <= 200; n += 7) {
    for (int nans : {1, 2, 50, 100}) {
      std::vector<double> sample(n);
      for (std::size_t i = 0; i < n; ++i) {
        sample[i] = static_cast<int>(rng() % 100) < nans
                        ? nan
                        : static_cast<double>(rng() % 5);
      }
      // The sample as bit patterns, which order NaNs too.
      const auto bits_of = [](const std::vector<double>& values) {
        std::vector<std::uint64_t> out;
        for (const double v : values) {
          out.push_back(std::bit_cast<std::uint64_t>(v));
        }
        std::ranges::sort(out);
        return out;
      };
      const std::vector<std::uint64_t> before = bits_of(sample);
      const Percentiles got = select_percentiles(sample);
      for (const double p : {got.p50, got.p90, got.p99}) {
        EXPECT_TRUE(std::ranges::binary_search(before,
                                               std::bit_cast<std::uint64_t>(p)))
            << "n=" << n << " nans=" << nans;
      }
      EXPECT_EQ(bits_of(sample), before) << "selection only reorders";
    }
  }
}

TEST(AnalyzeSweep, CellsAndMarginalsFromRealStore) {
  attack::ScenarioConfig cfg;
  cfg.system = os::SystemConfig::test_small();
  cfg.image_width = 48;
  cfg.image_height = 48;
  GridBuilder grid{cfg};
  grid.defenses({"baseline", "zero_on_free"}).attack_delays_s({0.0, 5.0});

  CampaignOptions options;
  options.threads = 2;
  options.trials_per_cell = 3;

  StoreManifest manifest;
  manifest.grid_fingerprint = grid.fingerprint();
  manifest.grid_cells = grid.full_size();
  manifest.trials_per_cell = options.trials_per_cell;
  manifest.trial_salt = options.trial_salt;
  manifest.axes = grid.axis_schema();

  const auto dir = std::filesystem::temp_directory_path() / "msa_stats_tests";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "analyze.store").string();
  std::filesystem::remove(path);
  {
    CampaignRunner runner{options};
    CampaignStore store{path, manifest, CampaignStore::Mode::kCreate};
    (void)runner.run(grid, store);
  }

  const SweepData data = persist::load_sweep({path});
  const StatsReport report = analyze_sweep(data);

  ASSERT_EQ(report.cells.size(), 4u);
  EXPECT_EQ(report.trials_analyzed, 12u);
  EXPECT_EQ(report.orphan_trials, 0u);
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    const CellDistribution& c = report.cells[i];
    const CellStats& stored = data.cells[i];
    EXPECT_EQ(c.index, stored.index);
    EXPECT_EQ(c.trials, 3u);
    EXPECT_EQ(c.successes, stored.full_successes);
    EXPECT_EQ(c.denials, stored.denials);
    // Percentiles are order statistics of the same sample the mean came
    // from: p50 <= p90 <= p99, all within [min, max] around the mean.
    EXPECT_LE(c.p50_psnr, c.p90_psnr);
    EXPECT_LE(c.p90_psnr, c.p99_psnr);
    EXPECT_LE(c.success_ci.low, c.success_rate);
    EXPECT_GE(c.success_ci.high, c.success_rate);
  }

  // Marginals: axis blocks in fixed order, values in grid order, trial
  // counts conserved (every trial lands in exactly one value per axis).
  ASSERT_EQ(report.marginals.size(), 2u + 1u + 2u + 1u);
  EXPECT_EQ(report.marginals[0].axis, "defense");
  EXPECT_EQ(report.marginals[0].value, "baseline");
  EXPECT_EQ(report.marginals[1].value, "zero_on_free");
  for (const AxisMarginal& m : report.marginals) {
    if (m.axis == "defense") {
      EXPECT_EQ(m.trials, 6u);
    } else if (m.axis == "model") {
      EXPECT_EQ(m.trials, 12u);
    } else if (m.axis == "delay_s") {
      EXPECT_EQ(m.trials, 6u);
    } else if (m.axis == "scrubber_Bps") {
      EXPECT_EQ(m.trials, 12u);
    }
  }

  // Deterministic, non-empty rendering.
  const std::string text = report.to_text();
  EXPECT_NE(text.find("per-cell distributions"), std::string::npos);
  EXPECT_NE(text.find("per-axis marginals"), std::string::npos);
  EXPECT_EQ(text, analyze_sweep(data).to_text());
}

TEST(AnalyzeSweep, OrphanTrialsOfIncompleteCellsExcluded) {
  // Synthesize: one completed cell with 2 trials, plus a trial of a cell
  // that never completed (a killed worker's leftovers).
  SweepData data;
  data.manifest.grid_cells = 4;
  CellStats cell;
  cell.index = 1;
  cell.coords = {{"defense", AxisValue::of_string("baseline")},
                 {"model", AxisValue::of_string("m")}};
  cell.trials = 2;
  cell.full_successes = 1;
  data.cells.push_back(cell);
  TrialRecord t;
  t.cell_index = 1;
  t.trial = 0;
  t.model_identified = true;
  t.pixel_match = 1.0;
  t.psnr = 99.0;
  data.trials.push_back(t);
  t.trial = 1;
  t.model_identified = false;
  t.pixel_match = 0.3;
  t.psnr = 12.5;
  data.trials.push_back(t);
  t.cell_index = 3;  // orphan: no completed cell 3
  t.trial = 0;
  data.trials.push_back(t);

  const StatsReport report = analyze_sweep(data);
  EXPECT_EQ(report.trials_analyzed, 2u);
  EXPECT_EQ(report.orphan_trials, 1u);
  ASSERT_EQ(report.cells.size(), 1u);
  EXPECT_EQ(report.cells[0].successes, 1u);
  EXPECT_EQ(report.cells[0].p50_psnr, 12.5);
  EXPECT_EQ(report.cells[0].p99_psnr, 99.0);

  // A completed cell with no trial stream at all is a broken store.
  data.trials.clear();
  EXPECT_THROW((void)analyze_sweep(data), std::runtime_error);
}

TEST(AnalyzeSweep, UnsortedInputIsRejectedNamingTheRecord) {
  SweepData data;
  data.manifest.grid_cells = 8;
  for (const std::uint64_t index : {2u, 5u}) {
    CellStats cell;
    cell.index = index;
    cell.coords = {{"defense", AxisValue::of_string("baseline")}};
    cell.trials = 2;
    data.cells.push_back(cell);
    for (std::uint32_t trial = 0; trial < 2; ++trial) {
      TrialRecord t;
      t.cell_index = index;
      t.trial = trial;
      data.trials.push_back(t);
    }
  }
  ASSERT_NO_THROW((void)analyze_sweep(data));

  const auto message = [](const SweepData& d) {
    try {
      (void)analyze_sweep(d);
    } catch (const std::invalid_argument& e) {
      return std::string{e.what()};
    }
    return std::string{"no std::invalid_argument"};
  };
  SweepData swapped_trials = data;
  std::swap(swapped_trials.trials[1], swapped_trials.trials[2]);
  EXPECT_NE(message(swapped_trials).find("trial (2, 1) is out of order"),
            std::string::npos)
      << message(swapped_trials);

  SweepData duplicate_trial = data;
  duplicate_trial.trials[3].trial = 0;
  EXPECT_NE(message(duplicate_trial).find("trial (5, 0) is out of order"),
            std::string::npos)
      << message(duplicate_trial);

  SweepData swapped_cells = data;
  std::swap(swapped_cells.cells[0], swapped_cells.cells[1]);
  EXPECT_NE(message(swapped_cells).find("cell 2 is out of order"),
            std::string::npos)
      << message(swapped_cells);

  SweepData duplicate_cell = data;
  duplicate_cell.cells[1].index = 2;
  EXPECT_NE(message(duplicate_cell).find("cell 2 is out of order"),
            std::string::npos)
      << message(duplicate_cell);
}

TEST(AnalyzeSweep, SingleTrialCellCollapsesPercentiles) {
  SweepData data;
  data.manifest.grid_cells = 1;
  CellStats cell;
  cell.index = 0;
  cell.coords = {{"defense", AxisValue::of_string("baseline")},
                 {"model", AxisValue::of_string("m")}};
  cell.trials = 1;
  data.cells.push_back(cell);
  TrialRecord t;
  t.cell_index = 0;
  t.trial = 0;
  t.model_identified = true;
  t.pixel_match = 1.0;
  t.psnr = 42.25;
  data.trials.push_back(t);

  const StatsReport report = analyze_sweep(data);
  ASSERT_EQ(report.cells.size(), 1u);
  const CellDistribution& c = report.cells[0];
  EXPECT_EQ(c.trials, 1u);
  // One sample: every order statistic IS that sample.
  EXPECT_EQ(c.p50_psnr, 42.25);
  EXPECT_EQ(c.p90_psnr, 42.25);
  EXPECT_EQ(c.p99_psnr, 42.25);
  EXPECT_EQ(c.successes, 1u);
  EXPECT_EQ(c.success_rate, 1.0);
  EXPECT_EQ(c.success_ci.high, 1.0);
  EXPECT_GT(c.success_ci.low, 0.0);
}

TEST(AnalyzeSweep, OrphanOnlyStoreYieldsEmptyReport) {
  // Every trial belongs to a never-completed cell (a store whose worker
  // was killed before its first complete_cell): nothing to analyze, but
  // the orphans are counted and every emitter still renders.
  SweepData data;
  data.manifest.grid_cells = 8;
  TrialRecord t;
  t.cell_index = 2;
  t.trial = 0;
  t.psnr = 10.0;
  data.trials.push_back(t);
  t.cell_index = 5;
  data.trials.push_back(t);

  const StatsReport report = analyze_sweep(data);
  EXPECT_TRUE(report.cells.empty());
  EXPECT_TRUE(report.marginals.empty());
  EXPECT_EQ(report.trials_analyzed, 0u);
  EXPECT_EQ(report.orphan_trials, 2u);
  EXPECT_NE(report.to_text().find("0 cells, 0 trials, 2 orphan trials"),
            std::string::npos);
  EXPECT_NE(report.to_csv().find("section"), std::string::npos);
  EXPECT_NE(report.to_json().find("\"orphan_trials\":2"), std::string::npos);
  EXPECT_NE(report.to_json().find("\"cells\":[]"), std::string::npos);
}

TEST(AnalyzeStores, NoStoresIsRefusedNamingTheSweepWalk) {
  try {
    (void)analyze_stores({}, {});
    FAIL() << "no stores accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "persist: a sweep walk needs at least one store");
  }
}

TEST(StatsReport, CsvAndJsonAreByteStableAndStrict) {
  SweepData data;
  data.manifest.grid_cells = 2;
  for (std::uint64_t i = 0; i < 2; ++i) {
    CellStats cell;
    cell.index = i;
    cell.coords = {
        // The comma-and-CR label exercises CSV quoting end to end.
        {"defense",
         AxisValue::of_string(i == 0 ? "baseline" : "zero,on\rfree")},
        {"model", AxisValue::of_string("m")},
        {"delay_s", AxisValue::of_number(5.0 * static_cast<double>(i))}};
    cell.trials = 2;
    data.cells.push_back(cell);
    for (std::uint32_t trial = 0; trial < 2; ++trial) {
      TrialRecord t;
      t.cell_index = i;
      t.trial = trial;
      t.model_identified = i == 0;
      t.pixel_match = i == 0 ? 1.0 : 0.25;
      t.psnr = 10.0 + static_cast<double>(trial);
      data.trials.push_back(t);
    }
  }

  const StatsReport report = analyze_sweep(data);
  const std::string csv = report.to_csv();
  EXPECT_EQ(csv, analyze_sweep(data).to_csv());
  // The axis value with a comma and CR must arrive quoted.
  EXPECT_NE(csv.find("\"zero,on\rfree\""), std::string::npos);
  // Cell rows and marginal rows share one strict header.
  EXPECT_EQ(csv.rfind("section,index,defense,model,", 0), 0u);
  EXPECT_NE(csv.find("\nmarginal,"), std::string::npos);

  const std::string json = report.to_json();
  EXPECT_EQ(json, analyze_sweep(data).to_json());
  EXPECT_EQ(json.rfind("{\"trials_analyzed\":4,\"orphan_trials\":0,", 0), 0u);
  EXPECT_NE(json.find("\"marginals\":["), std::string::npos);
  // The CR inside the defense label is escaped, never raw, in JSON.
  EXPECT_EQ(json.find('\r'), std::string::npos);
  EXPECT_NE(json.find("zero,on\\u000dfree"), std::string::npos);
}

}  // namespace
}  // namespace msa::campaign
