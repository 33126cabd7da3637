// Campaign engine tests: grid construction, aggregation semantics, and —
// the load-bearing property — thread-count invariance: the same grid must
// produce a byte-identical report on 1 worker and on many.
#include "campaign/runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>

#include "campaign/grid.h"
#include "campaign/report.h"
#include "defense/presets.h"
#include "obs/metrics.h"
#include "util/log.h"

namespace msa::campaign {
namespace {

attack::ScenarioConfig small_base() {
  attack::ScenarioConfig cfg;
  cfg.system = os::SystemConfig::test_small();
  cfg.image_width = 48;
  cfg.image_height = 48;
  return cfg;
}

CampaignOptions make_options(unsigned threads, unsigned trials = 1) {
  CampaignOptions options;
  options.threads = threads;
  options.trials_per_cell = trials;
  return options;
}

/// The cache.* registry counters' traffic during one run() call.
struct CacheDelta {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t boards_built = 0;
  std::uint64_t boards_reused = 0;
};

SweepReport run_counting(CampaignRunner& runner, const GridBuilder& grid,
                         CacheDelta* delta) {
  obs::Counter& hits = obs::counter("cache.profile_hits");
  obs::Counter& misses = obs::counter("cache.profile_misses");
  obs::Counter& built = obs::counter("cache.twin_boards_built");
  obs::Counter& reused = obs::counter("cache.twin_boards_reused");
  const CacheDelta before{hits.value(), misses.value(), built.value(),
                          reused.value()};
  SweepReport report = runner.run(grid);
  *delta = {hits.value() - before.hits, misses.value() - before.misses,
            built.value() - before.boards_built,
            reused.value() - before.boards_reused};
  return report;
}

/// Canonical label of one axis value on a cell ("<missing>" when the
/// grid did not sweep that axis) — keeps the assertions readable.
std::string coord_label(const CampaignCell& cell, std::string_view axis) {
  const AxisValue* v = cell.coord(axis);
  return v == nullptr ? "<missing>" : v->label();
}

/// 2 defenses x 2 models x 2 delays x 1 scrubber = 8 cells mixing clear
/// successes (baseline) with scrub-defeated scrapes (zero_on_free).
GridBuilder small_grid() {
  GridBuilder grid{small_base()};
  grid.defenses({"baseline", "zero_on_free"})
      .models({"resnet50_pt", "squeezenet_pt"})
      .attack_delays_s({0.0, 5.0})
      .scrubber_rates({0.0});
  return grid;
}

TEST(CampaignGrid, SizeAndDeterministicOrder) {
  const GridBuilder grid = small_grid();
  EXPECT_EQ(grid.size(), 8u);
  const std::vector<CampaignCell> cells = grid.build();
  ASSERT_EQ(cells.size(), 8u);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);
  }
  // Nested order: defense > model > delay > scrubber (first axis
  // outermost, last fastest).
  EXPECT_EQ(coord_label(cells[0], "defense"), "baseline");
  EXPECT_EQ(coord_label(cells[0], "model"), "resnet50_pt");
  EXPECT_EQ(coord_label(cells[0], "delay_s"), "0");
  EXPECT_EQ(coord_label(cells[1], "delay_s"), "5");
  EXPECT_EQ(coord_label(cells[2], "model"), "squeezenet_pt");
  EXPECT_EQ(coord_label(cells[4], "defense"), "zero_on_free");
  // Axis coordinates are folded into the cell's config.
  EXPECT_EQ(cells[1].config.attack_delay_s, 5.0);
  EXPECT_EQ(cells[2].config.model_name, "squeezenet_pt");
  EXPECT_EQ(cells[4].config.system.sanitize, mem::SanitizePolicy::kZeroOnFree);
}

TEST(CampaignGrid, DefaultBuilderIsOneBaselineCell) {
  const GridBuilder grid{small_base()};
  EXPECT_EQ(grid.size(), 1u);
  const auto cells = grid.build();
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(coord_label(cells[0], "defense"), "baseline");
  EXPECT_EQ(coord_label(cells[0], "model"), "resnet50_pt");
}

TEST(CampaignGrid, UnknownNamesThrow) {
  GridBuilder bad_defense{small_base()};
  bad_defense.defenses({"no_such_preset"});
  EXPECT_THROW((void)bad_defense.build(), std::invalid_argument);

  GridBuilder bad_model{small_base()};
  bad_model.models({"alexnet_caffe"});
  EXPECT_THROW((void)bad_model.build(), std::invalid_argument);
}

TEST(CampaignRunner, EmptyGridYieldsEmptyReport) {
  CampaignRunner runner{make_options(2)};
  const SweepReport report = runner.run(std::vector<CampaignCell>{});
  EXPECT_TRUE(report.cells.empty());
  EXPECT_EQ(report.total_trials(), 0u);
  EXPECT_EQ(report.total_full_successes(), 0u);
  EXPECT_EQ(report.total_denials(), 0u);
  // Header-only CSV, no data rows.
  const std::string csv = report.to_csv();
  EXPECT_EQ(csv.find('\n'), csv.size() - 1);
  EXPECT_EQ(report.to_json(),
            "{\"cells\":[],\"totals\":{\"trials\":0,\"full_successes\":0,"
            "\"denials\":0}}");
}

TEST(CampaignRunner, BaselineCellFullySucceeds) {
  GridBuilder grid{small_base()};
  CampaignRunner runner{make_options(1)};
  const SweepReport report = runner.run(grid);
  ASSERT_EQ(report.cells.size(), 1u);
  const CellStats& cell = report.cells[0];
  EXPECT_EQ(cell.trials, 1u);
  EXPECT_EQ(cell.full_successes, 1u);
  EXPECT_EQ(cell.model_identified, 1u);
  EXPECT_EQ(cell.denials, 0u);
  EXPECT_DOUBLE_EQ(cell.mean_pixel_match, 1.0);
  EXPECT_DOUBLE_EQ(cell.success_rate(), 1.0);
}

TEST(CampaignRunner, DenialHeavyGridCountsDenialsNotSuccesses) {
  // Defense presets that block the attack outright: every trial must be
  // recorded as a denial with a reason, and nothing as success.
  GridBuilder grid{small_base()};
  grid.defenses({"dbg_disabled", "dbg_owner_only", "proc_owner_only"})
      .models({"resnet50_pt"});
  CampaignRunner runner{make_options(2, 2)};
  const SweepReport report = runner.run(grid);
  ASSERT_EQ(report.cells.size(), 3u);
  for (const CellStats& cell : report.cells) {
    EXPECT_EQ(cell.trials, 2u) << cell.coords_text();
    EXPECT_EQ(cell.denials, 2u) << cell.coords_text();
    EXPECT_EQ(cell.full_successes, 0u) << cell.coords_text();
    EXPECT_FALSE(cell.first_denial_reason.empty()) << cell.coords_text();
    EXPECT_DOUBLE_EQ(cell.mean_pixel_match, 0.0) << cell.coords_text();
  }
  EXPECT_EQ(report.total_denials(), 6u);
  EXPECT_EQ(report.total_full_successes(), 0u);
}

TEST(CampaignRunner, ReportInvariantUnderThreadCount) {
  // The acceptance-criterion property: same grid + trials => the exact
  // same bytes out, whether one worker runs every cell or eight race
  // over them.
  const GridBuilder grid = small_grid();
  CampaignRunner serial{make_options(1, 2)};
  CampaignRunner parallel{make_options(8, 2)};
  const SweepReport a = serial.run(grid);
  const SweepReport b = parallel.run(grid);
  EXPECT_EQ(a.to_csv(), b.to_csv());
  EXPECT_EQ(a.to_json(), b.to_json());
  // And re-running the same runner reproduces the same report.
  const SweepReport c = parallel.run(grid);
  EXPECT_EQ(a.to_csv(), c.to_csv());
}

TEST(CampaignRunner, CachedAndUncachedReportsAreByteIdentical) {
  // Reusing the runner's shared cache — its profiles, twin boards and
  // rebooted victim boards — may only change cells/second, never a byte
  // of the report: at 1 thread and at 8 it matches a reference scored
  // cell by cell, each on a fresh ProfileCache that builds everything
  // anew.
  const GridBuilder grid = small_grid();
  SweepReport fresh;
  for (const CampaignCell& cell : grid.build()) {
    attack::ProfileCache cache;
    fresh.cells.push_back(
        CampaignRunner::score_cell(cell, 2, CampaignOptions{}.trial_salt, {},
                                   &cache));
  }
  for (const unsigned threads : {1u, 8u}) {
    CampaignRunner runner{make_options(threads, 2)};
    CacheDelta delta;
    const SweepReport report = run_counting(runner, grid, &delta);
    EXPECT_EQ(report.to_csv(), fresh.to_csv()) << threads << " threads";
    EXPECT_EQ(report.to_json(), fresh.to_json()) << threads << " threads";
    // 8 cells x 2 trials = 16 lookups over 2 models x 1 board shape =
    // 2 profile keys.
    EXPECT_EQ(delta.misses, 2u) << threads << " threads";
    EXPECT_EQ(delta.hits, 14u) << threads << " threads";
  }
}

TEST(CampaignRunner, ScoreCellRefusesANullCache) {
  const auto cells = GridBuilder{small_base()}.build();
  EXPECT_THROW((void)CampaignRunner::score_cell(cells[0], 1, 0, {}, nullptr),
               std::invalid_argument);
}

TEST(CampaignRunner, CacheCountersMatchGridShapeAndPersistAcrossRuns) {
  // 2 defenses share one twin-board shape, so keys = models(2) x
  // dims(1) x shape(1); every later run on the same runner is all-hits
  // (the cache outlives run()), and each miss acquires exactly one
  // board from the pool.
  const GridBuilder grid = small_grid();
  CampaignOptions options = make_options(4, 2);
  CampaignRunner runner{options};

  CacheDelta a;
  const SweepReport first = run_counting(runner, grid, &a);
  EXPECT_EQ(a.misses, 2u);
  EXPECT_EQ(a.hits, 14u);
  EXPECT_EQ(a.boards_built + a.boards_reused, a.misses);
  EXPECT_GE(a.boards_built, 1u);

  CacheDelta b;
  const SweepReport second = run_counting(runner, grid, &b);
  EXPECT_EQ(b.misses, 0u);
  EXPECT_EQ(b.hits, 16u);
  EXPECT_EQ(b.boards_built, 0u);
  EXPECT_EQ(first.to_csv(), second.to_csv());
}

TEST(CampaignRunner, AslrDefensesAddProfileKeysDeterministically) {
  // physical_aslr and heap_va_aslr change the twin-board layout, so a
  // grid spanning them must profile one key per (defense-shape, model):
  // {sequential, randomized, va-aslr} x 1 model = 3 misses, regardless
  // of schedule.
  GridBuilder grid{small_base()};
  grid.defenses({"baseline", "physical_aslr", "heap_va_aslr"})
      .models({"resnet50_pt"})
      .attack_delays_s({0.0, 5.0});
  CampaignRunner runner{make_options(8, 2)};
  CacheDelta delta;
  (void)run_counting(runner, grid, &delta);
  EXPECT_EQ(delta.misses, 3u);
  EXPECT_EQ(delta.hits, 6u * 2u - 3u);
}

TEST(CampaignRunner, TrialZeroMatchesDirectScenarioRun) {
  // A single-trial cell must agree with calling run_scenario directly on
  // the preset-applied config — the campaign adds aggregation, not drift.
  const auto cells = GridBuilder{small_base()}.build();
  ASSERT_EQ(cells.size(), 1u);
  const attack::ScenarioResult direct = attack::run_scenario(cells[0].config);
  attack::ProfileCache cache;
  const CellStats stats = CampaignRunner::score_cell(cells[0], 1, 0, {}, &cache);
  EXPECT_EQ(stats.full_successes, direct.full_success() ? 1u : 0u);
  EXPECT_DOUBLE_EQ(stats.mean_pixel_match, direct.pixel_match);
  EXPECT_DOUBLE_EQ(stats.mean_psnr_db, direct.psnr);
}

TEST(CampaignRunner, TrialsAreReseededIndependently) {
  // With >1 trial the boards differ (different image/system seeds), but
  // the aggregate is still deterministic: two runs agree exactly.
  GridBuilder grid{small_base()};
  CampaignRunner runner{make_options(2, 3)};
  const SweepReport a = runner.run(grid);
  const SweepReport b = runner.run(grid);
  ASSERT_EQ(a.cells.size(), 1u);
  EXPECT_EQ(a.cells[0].trials, 3u);
  EXPECT_EQ(a.to_csv(), b.to_csv());
}

TEST(CampaignRunner, ProgressCallbackCoversEveryCell) {
  const GridBuilder grid = small_grid();
  std::atomic<std::size_t> calls{0};
  std::size_t last_total = 0;
  CampaignOptions options;
  options.threads = 4;
  options.on_cell_done = [&](std::size_t done, std::size_t total) {
    ++calls;
    last_total = total;
    EXPECT_LE(done, total);
  };
  CampaignRunner runner{options};
  (void)runner.run(grid);
  EXPECT_EQ(calls.load(), 8u);
  EXPECT_EQ(last_total, 8u);
}

TEST(CampaignRunner, ThrowingProgressHookAbortsAndRethrows) {
  // A throwing hook must surface from run(), not std::terminate the
  // worker thread.
  const GridBuilder grid = small_grid();
  CampaignOptions options;
  options.threads = 2;
  options.on_cell_done = [](std::size_t, std::size_t) {
    throw std::runtime_error("progress hook failed");
  };
  CampaignRunner runner{options};
  EXPECT_THROW((void)runner.run(grid), std::runtime_error);
}

TEST(CampaignRunner, LogStormFromWorkersStaysWellFormed) {
  // Hammer the (now thread-safe) logger from concurrent sweeps; the
  // capture sink must see only intact messages.
  std::atomic<std::size_t> lines{0};
  util::Log::set_sink([&](util::LogLevel, std::string_view message) {
    if (message == "campaign-log-probe") ++lines;
  });
  util::Log::set_level(util::LogLevel::kInfo);

  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([] {
      for (int i = 0; i < 250; ++i) util::Log::info("campaign-log-probe");
    });
  }
  for (auto& w : writers) w.join();

  util::Log::set_sink(nullptr);
  util::Log::set_level(util::LogLevel::kWarn);
  EXPECT_EQ(lines.load(), 1000u);
}

}  // namespace
}  // namespace msa::campaign
