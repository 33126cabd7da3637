// Ablation — campaign engine scaling. Two questions the ROADMAP asks the
// numbers for: how do cells/second scale with worker-thread count, and
// what does streaming every trial/cell into the durable store cost over
// the in-memory sweep? Regressions in either show up here before they
// show up in a week-long production sweep.
#include "bench_common.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "campaign/grid.h"
#include "campaign/runner.h"
#include "persist/campaign_store.h"
#include "persist/lease_log.h"

namespace {

using namespace msa;

attack::ScenarioConfig base_config() {
  attack::ScenarioConfig cfg;
  cfg.system = os::SystemConfig::test_small();  // fast trials
  cfg.image_width = 48;
  cfg.image_height = 48;
  return cfg;
}

/// 2 defenses x 2 delays x 2 scrubbers = 8 cells, the same shape the
/// campaign tests sweep.
campaign::GridBuilder bench_grid() {
  campaign::GridBuilder grid{base_config()};
  grid.defenses({"baseline", "zero_on_free"})
      .attack_delays_s({0.0, 5.0})
      .scrubber_rates({0.0, 512.0 * 1024});
  return grid;
}

/// Skewed-cost grid for the scheduler comparison: 3 heavy cells
/// (resnet50 on the full zcu104 board at 96x96) seated on the indices
/// that static `--shard I/3` hands to ONE worker (0, 3, 6), padded with
/// 6 light cells (squeezenet on the small test board at 48x48). The
/// worst case for a static partition — one shard owns every expensive
/// cell — and exactly the shape work-stealing exists to fix.
std::vector<campaign::CampaignCell> skewed_cells() {
  attack::ScenarioConfig heavy_base;
  heavy_base.image_width = 96;
  heavy_base.image_height = 96;
  campaign::GridBuilder heavy_grid{heavy_base};
  heavy_grid.models({"resnet50_pt"}).attack_delays_s({0.0, 5.0, 60.0});

  campaign::GridBuilder light_grid{base_config()};
  light_grid.models({"squeezenet_pt"})
      .attack_delays_s({0.0, 5.0, 60.0})
      .scrubber_rates({0.0, 512.0 * 1024});

  const auto heavy = heavy_grid.build();  // 3 cells
  const auto light = light_grid.build();  // 6 cells
  std::vector<campaign::CampaignCell> cells;
  cells.reserve(heavy.size() + light.size());
  std::size_t h = 0;
  std::size_t l = 0;
  for (std::size_t i = 0; i < heavy.size() + light.size(); ++i) {
    cells.push_back(i % 3 == 0 && h < heavy.size() ? heavy[h++] : light[l++]);
    cells.back().index = i;
  }
  return cells;
}

campaign::CampaignOptions one_thread_two_trials() {
  campaign::CampaignOptions options;
  options.threads = 1;
  options.trials_per_cell = 2;
  return options;
}

/// One single-thread runner per worker, each warmed by an untimed run
/// over `cells`: its cache already holds every profile key and a parked
/// victim board of each shape, so a cell then costs its trials alone,
/// wherever it runs. (A cold cache would charge a model's profiling to
/// whichever worker meets it first, muddying a scheduler A/B into a
/// cache A/B.)
std::vector<std::unique_ptr<campaign::CampaignRunner>> warm_runners(
    const std::vector<campaign::CampaignCell>& cells, std::size_t workers) {
  std::vector<std::unique_ptr<campaign::CampaignRunner>> runners;
  for (std::size_t w = 0; w < workers; ++w) {
    runners.push_back(
        std::make_unique<campaign::CampaignRunner>(one_thread_two_trials()));
    benchmark::DoNotOptimize(runners.back()->run(cells));
  }
  return runners;
}

void print_intro() {
  bench::print_header("Abl. campaign scaling",
                      "cells/second vs threads; store overhead; scheduling");
  std::puts("SweepThreads/N: one 8-cell sweep on N workers (items = cells).");
  std::puts("SweepInMemory vs SweepWithStore: identical sweep, the latter");
  std::puts("streaming per-trial + per-cell records to an on-disk store.");
  std::puts("SweepStaticShards vs SweepWorkStealing: 3 single-thread workers");
  std::puts("over a 9-cell skewed-cost grid whose heavy cells all land in one");
  std::puts("static shard; the lease scheduler redistributes them (makespan).");
  std::puts("Each worker keeps one runner, warmed over the grid before timing.\n");
}

void BM_SweepThreads(benchmark::State& state) {
  campaign::CampaignOptions options;
  options.threads = static_cast<unsigned>(state.range(0));
  options.trials_per_cell = 1;
  campaign::CampaignRunner runner{options};
  const auto cells = bench_grid().build();
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner.run(cells));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cells.size()));
}
// UseRealTime: the work happens on pool threads, so wall clock — not the
// calling thread's CPU time — is what cells/second must be charged to.
BENCHMARK(BM_SweepThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_SweepInMemory(benchmark::State& state) {
  campaign::CampaignOptions options;
  options.threads = 4;
  options.trials_per_cell = 2;
  campaign::CampaignRunner runner{options};
  const auto cells = bench_grid().build();
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner.run(cells));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cells.size()));
}
BENCHMARK(BM_SweepInMemory)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_SweepWithStore(benchmark::State& state) {
  campaign::CampaignOptions options;
  options.threads = 4;
  options.trials_per_cell = 2;
  campaign::CampaignRunner runner{options};
  const campaign::GridBuilder grid = bench_grid();
  const auto cells = grid.build();

  persist::StoreManifest manifest;
  manifest.grid_fingerprint = grid.fingerprint();
  manifest.grid_cells = grid.full_size();
  manifest.trials_per_cell = options.trials_per_cell;
  manifest.trial_salt = options.trial_salt;

  const std::string path =
      (std::filesystem::temp_directory_path() / "abl_campaign_scaling.store")
          .string();
  for (auto _ : state) {
    // A fresh store each iteration: the cost measured includes the
    // manifest write, per-trial streaming and the per-cell flushes.
    std::filesystem::remove(path);
    persist::CampaignStore store{path, manifest,
                                 persist::CampaignStore::Mode::kCreate};
    benchmark::DoNotOptimize(runner.run(cells, store));
  }
  std::filesystem::remove(path);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cells.size()));
}
BENCHMARK(BM_SweepWithStore)->Unit(benchmark::kMillisecond)->UseRealTime();

/// Calibrated sequential cost of one heavy and one light cell, measured
/// once and cached: the weights behind the straggler_share counter.
struct SkewWeights {
  double heavy_ms = 0.0;
  double light_ms = 0.0;
};
const SkewWeights& skew_weights() {
  static const SkewWeights weights = [] {
    const auto cells = skewed_cells();
    const auto runners = warm_runners(cells, 1);
    campaign::CampaignRunner& runner = *runners.front();
    SkewWeights w;
    const auto time_one = [&](const campaign::CampaignCell& cell) {
      const auto t0 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(
          runner.run(std::vector<campaign::CampaignCell>{cell}));
      return std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - t0)
          .count();
    };
    w.heavy_ms = time_one(cells[0]);  // index 0: heavy by construction
    w.light_ms = time_one(cells[1]);
    return w;
  }();
  return weights;
}

/// Weighted share of the whole grid's work carried by the most-loaded
/// worker: the schedule-quality number. 1/3 is a perfect 3-worker
/// balance; the skewed grid's static partition is pinned near
/// 3*heavy/(3*heavy + 6*light) regardless of hardware. (The wall-clock
/// makespan column only separates the two schedulers when real cores
/// are available — on a 1-core container both arms serialize to the
/// total work, and the lease arm's scan/backoff overhead shows up
/// instead. The CI bench job runs on multi-core runners.)
double straggler_share(const std::vector<campaign::SweepReport>& per_worker) {
  const SkewWeights& w = skew_weights();
  // Each grid cell is attributed once (first report wins): a lease race
  // can leave a forfeited duplicate in a second worker's local report,
  // and double-counting it would both inflate the denominator and smear
  // the straggler's load — the share must stay comparable to the static
  // arm, whose partition cannot duplicate.
  std::set<std::uint64_t> attributed;
  double total = 0.0;
  double worst = 0.0;
  for (const campaign::SweepReport& report : per_worker) {
    double load = 0.0;
    for (const campaign::CellStats& cell : report.cells) {
      if (!attributed.insert(cell.index).second) continue;
      load += cell.index % 3 == 0 ? w.heavy_ms : w.light_ms;
    }
    total += load;
    worst = std::max(worst, load);
  }
  return total > 0.0 ? worst / total : 0.0;
}

/// Baseline for the scheduler comparison: the static `--shard I/3`
/// partition. Three single-thread workers start together, each bound to
/// its index%3 slice; the measured makespan is the slowest shard — the
/// one that drew every heavy cell.
void BM_SweepStaticShards(benchmark::State& state) {
  const auto cells = skewed_cells();
  std::vector<std::vector<campaign::CampaignCell>> shards(3);
  for (const campaign::CampaignCell& cell : cells) {
    shards[cell.index % 3].push_back(cell);
  }
  const auto runners = warm_runners(cells, shards.size());
  double share = 0.0;
  for (auto _ : state) {
    std::vector<campaign::SweepReport> reports(shards.size());
    std::vector<std::thread> workers;
    workers.reserve(shards.size());
    for (std::size_t s = 0; s < shards.size(); ++s) {
      workers.emplace_back([&, s] { reports[s] = runners[s]->run(shards[s]); });
    }
    for (std::thread& t : workers) t.join();
    share = straggler_share(reports);
  }
  state.counters["straggler_share"] = share;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cells.size()));
}
BENCHMARK(BM_SweepStaticShards)->Unit(benchmark::kMillisecond)->UseRealTime();

/// The same grid and the same three single-thread workers, but leasing
/// cells through a shared store directory instead of a fixed partition:
/// whoever finishes its light cells steals the straggler's remaining
/// work. Includes every lease-log append/scan, so the win shown is net
/// of the scheduler's own I/O.
void BM_SweepWorkStealing(benchmark::State& state) {
  const auto cells = skewed_cells();
  const campaign::CampaignOptions options = one_thread_two_trials();
  persist::StoreManifest manifest;
  manifest.grid_cells = cells.size();
  manifest.trials_per_cell = options.trials_per_cell;
  manifest.trial_salt = options.trial_salt;
  // A wide expiry window (~400ms of silence) so a live worker mid-trial
  // is never presumed dead (renewals land once per trial), with a short
  // backoff so drained workers notice the finished grid quickly.
  persist::LeaseSchedulerOptions lease_options;
  lease_options.expiry_scans = 80;
  lease_options.idle_backoff = std::chrono::milliseconds{5};

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "abl_campaign_worksteal";
  const auto runners = warm_runners(cells, 3);
  double share = 0.0;
  for (auto _ : state) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::vector<campaign::SweepReport> reports(3);
    std::vector<std::thread> workers;
    workers.reserve(3);
    for (int w = 0; w < 3; ++w) {
      workers.emplace_back([&, w] {
        persist::LeaseScheduler scheduler{dir.string(),
                                          "bench-w" + std::to_string(w),
                                          cells,
                                          manifest,
                                          nullptr,
                                          lease_options};
        reports[w] = runners[w]->run(scheduler);
      });
    }
    for (std::thread& t : workers) t.join();
    share = straggler_share(reports);
  }
  std::filesystem::remove_all(dir);
  state.counters["straggler_share"] = share;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cells.size()));
}
BENCHMARK(BM_SweepWorkStealing)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

MSA_BENCH_MAIN(print_intro)
