// Integration tests for the work-stealing sweep: CampaignRunner pulling
// from persist::LeaseScheduler. The acceptance property is the same one
// every other campaign path pins: the merged multi-worker report is
// byte-identical to the single-process, single-thread run — including
// when a worker dies mid-sweep and its leases are reclaimed.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "campaign/cell_source.h"
#include "campaign/grid.h"
#include "campaign/report.h"
#include "campaign/runner.h"
#include "persist/campaign_store.h"
#include "persist/lease_log.h"

namespace msa::campaign {
namespace {

using persist::CampaignStore;
using persist::LeaseScheduler;
using persist::LeaseSchedulerOptions;
using persist::StoreManifest;

std::string tmp_dir(const char* name) {
  const auto dir =
      std::filesystem::temp_directory_path() / "msa_lease_sweep" / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

attack::ScenarioConfig small_base() {
  attack::ScenarioConfig cfg;
  cfg.system = os::SystemConfig::test_small();
  cfg.image_width = 48;
  cfg.image_height = 48;
  return cfg;
}

GridBuilder small_grid() {
  GridBuilder grid{small_base()};
  grid.defenses({"baseline", "zero_on_free"})
      .attack_delays_s({0.0, 5.0})
      .scrubber_rates({0.0, 512.0 * 1024});
  return grid;
}

CampaignOptions make_options(unsigned threads, unsigned trials = 2) {
  CampaignOptions options;
  options.threads = threads;
  options.trials_per_cell = trials;
  return options;
}

StoreManifest manifest_for(const GridBuilder& grid,
                           const CampaignOptions& options) {
  StoreManifest m;
  m.grid_fingerprint = grid.fingerprint();
  m.grid_cells = grid.full_size();
  m.trials_per_cell = options.trials_per_cell;
  m.trial_salt = options.trial_salt;
  return m;
}

LeaseSchedulerOptions fast_expiry() {
  LeaseSchedulerOptions options;
  options.expiry_scans = 2;
  options.idle_backoff = std::chrono::milliseconds{1};
  return options;
}

/// One in-process "worker": its own runner, store and scheduler over the
/// shared directory — the same wiring campaign_sweep --workers-dir does,
/// minus the process boundary.
void run_worker(const std::string& dir, const std::string& id,
                const GridBuilder& grid, const CampaignOptions& options,
                const LeaseSchedulerOptions& lease_options) {
  const StoreManifest manifest = manifest_for(grid, options);
  CampaignRunner runner{options};
  CampaignStore store{LeaseScheduler::store_path(dir, id), manifest,
                      CampaignStore::Mode::kCreateOrResume};
  LeaseScheduler scheduler{dir, id, grid.build(), manifest, &store,
                           lease_options};
  (void)runner.run(scheduler, store);
}

std::vector<std::string> stores_in(const std::string& dir) {
  std::vector<std::string> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".store") out.push_back(entry.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(LeaseSweep, StaticSourceMatchesVectorOverload) {
  // The refactor's no-regression pin: run(cells) and run(StaticCellSource)
  // are the same dispatch, and the CellSource entry point returns cells
  // sorted by global index.
  const GridBuilder grid = small_grid();
  CampaignRunner runner{make_options(4)};
  const SweepReport direct = runner.run(grid);

  const std::vector<CampaignCell> cells = grid.build();
  StaticCellSource source{cells};
  const SweepReport via_source = runner.run(source);
  EXPECT_EQ(via_source.to_csv(), direct.to_csv());
  EXPECT_EQ(via_source.to_json(), direct.to_json());
}

TEST(LeaseSweep, ThreeWorkersMergeByteIdenticalToSingleProcess) {
  const GridBuilder grid = small_grid();
  CampaignRunner single{make_options(1)};
  const SweepReport golden = single.run(grid);

  const std::string dir = tmp_dir("three");
  {
    std::vector<std::thread> workers;
    for (const char* id : {"w0", "w1", "w2"}) {
      workers.emplace_back([&, id] {
        run_worker(dir, id, grid, make_options(2), fast_expiry());
      });
    }
    for (std::thread& t : workers) t.join();
  }

  const SweepReport merged = persist::merge_stores(stores_in(dir));
  EXPECT_EQ(merged.to_csv(), golden.to_csv());
  EXPECT_EQ(merged.to_json(), golden.to_json());
}

TEST(LeaseSweep, DeadWorkerLeasesAreReclaimedBySurvivor) {
  const GridBuilder grid = small_grid();
  CampaignRunner single{make_options(4)};
  const SweepReport golden = single.run(grid);

  const std::string dir = tmp_dir("reclaim");
  const CampaignOptions options = make_options(2);
  const StoreManifest manifest = manifest_for(grid, options);

  // "Kill" a worker mid-sweep: it claims two cells, scores neither, and
  // never appends again (the in-process stand-in for SIGKILL).
  auto casualty = std::make_unique<LeaseScheduler>(
      dir, "dead", grid.build(), manifest, nullptr, fast_expiry());
  ASSERT_TRUE(casualty->acquire().has_value());
  ASSERT_TRUE(casualty->acquire().has_value());

  // A survivor must finish the WHOLE grid, stealing the dead leases.
  run_worker(dir, "live", grid, options, fast_expiry());
  casualty.reset();

  // The dead worker's store never materialized (it opened no store); the
  // survivor's store alone covers the grid.
  const SweepReport merged = persist::merge_stores(stores_in(dir));
  EXPECT_EQ(merged.to_csv(), golden.to_csv());
}

TEST(LeaseSweep, RestartedWorkerResumesAndFinishes) {
  const GridBuilder grid = small_grid();
  CampaignRunner single{make_options(3)};
  const SweepReport golden = single.run(grid);

  const std::string dir = tmp_dir("restart");
  const CampaignOptions options = make_options(2);
  const StoreManifest manifest = manifest_for(grid, options);

  // First life: complete exactly 3 cells through the real store, then
  // stop with the rest unclaimed.
  {
    CampaignStore store{LeaseScheduler::store_path(dir, "w0"), manifest,
                        CampaignStore::Mode::kCreate};
    LeaseScheduler scheduler{dir, "w0", grid.build(), manifest, &store,
                             fast_expiry()};
    attack::ProfileCache cache;
    for (int i = 0; i < 3; ++i) {
      auto claim = scheduler.acquire();
      ASSERT_TRUE(claim.has_value());
      CellStats stats = CampaignRunner::score_cell(
          claim->cell, options.trials_per_cell, options.trial_salt, {},
          &cache);
      ASSERT_TRUE(
          scheduler.commit(*claim, stats, [&] { store.complete_cell(stats); }));
    }
  }

  // Second life, same id: resumes its own store, plans only the rest.
  run_worker(dir, "w0", grid, options, fast_expiry());
  const SweepReport merged = persist::merge_stores(stores_in(dir));
  EXPECT_EQ(merged.to_csv(), golden.to_csv());
  EXPECT_EQ(merged.to_json(), golden.to_json());
}

TEST(LeaseSweep, ProgressHookSeesMonotonicDoneOverPlanned) {
  const GridBuilder grid = small_grid();
  const std::string dir = tmp_dir("progress");
  // One thread: with several workers, hook invocations may legally
  // arrive out of order (documented), which would make this flaky.
  CampaignOptions options = make_options(1);
  std::size_t last_done = 0;
  std::size_t total_seen = 0;
  options.on_cell_done = [&](std::size_t done, std::size_t total) {
    EXPECT_GT(done, last_done);
    last_done = done;
    total_seen = total;
  };
  const StoreManifest manifest = manifest_for(grid, options);
  CampaignRunner runner{options};
  CampaignStore store{LeaseScheduler::store_path(dir, "w0"), manifest,
                      CampaignStore::Mode::kCreate};
  LeaseScheduler scheduler{dir, "w0", grid.build(), manifest, &store,
                           fast_expiry()};
  const SweepReport report = runner.run(scheduler, store);
  EXPECT_EQ(total_seen, 8u);   // planned == whole grid (no peers)
  EXPECT_EQ(last_done, 8u);    // every cell reported
  EXPECT_EQ(report.cells.size(), 8u);
}

}  // namespace
}  // namespace msa::campaign
