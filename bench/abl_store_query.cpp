// Ablation — store query latency, flat vs segmented, and the
// whole-store analysis path. Builds synthetic campaign stores of
// 1e4/1e5/1e6 trials (100 trials per cell), keeps a flat copy and a
// compacted (sorted block-indexed segment) copy of each, and times the
// artifact-to-answer path: open the store, read one cell (or a ~1% cell
// range) through persist::StoreReader. On the flat copy that is a full
// log replay; on the segmented copy the footer+index load plus the few
// blocks that hold the requested cells. The bytes_read counter
// (persist.log_bytes_read + persist.segment_bytes_read deltas per
// iteration) pins WHY the segmented numbers stay flat as the store
// grows — the JSON artifact (BENCH_store_query.json) carries both the
// latency and the touched-byte series. BM_LoadSweepFull and
// BM_AnalyzeSweep time the two halves of a whole-store `stats`,
// BM_AnalyzeStores the whole of it at one worker and at every core, and
// BM_PermutationGate the grid-level test behind `diff` gating.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "campaign/axis.h"
#include "campaign/gate.h"
#include "campaign/stats.h"
#include "obs/metrics.h"
#include "persist/campaign_store.h"
#include "persist/manifest.h"
#include "persist/store_reader.h"
#include "util/prng.h"

namespace {

using namespace msa;

constexpr std::uint32_t kTrialsPerCell = 100;

std::filesystem::path bench_dir() {
  const auto dir =
      std::filesystem::temp_directory_path() / "msa_bench_store_query";
  std::filesystem::create_directories(dir);
  return dir;
}

persist::StoreManifest manifest_for(std::uint64_t cells) {
  persist::StoreManifest m;
  m.grid_fingerprint = 0xbe7cbe7cu;
  m.grid_cells = cells;
  m.trials_per_cell = kTrialsPerCell;
  m.trial_salt = 7;
  campaign::AxisSpec axis;
  axis.name = "delay_s";
  axis.kind = campaign::AxisKind::kDouble;
  for (std::uint64_t i = 0; i < cells; ++i) {
    axis.values.push_back(campaign::AxisValue::of_number(double(i)));
  }
  m.axes = {std::move(axis)};
  return m;
}

std::vector<campaign::AxisCoordinate> coords_for(std::uint64_t index) {
  return {{"delay_s", campaign::AxisValue::of_number(double(index))}};
}

/// Builds (once per size) a flat store and a compacted twin; returns
/// {flat path, segmented path}.
struct StorePair {
  std::string flat;
  std::string segmented;
};
const StorePair& stores_for(std::uint64_t trials) {
  static std::map<std::uint64_t, StorePair> cache;
  const auto it = cache.find(trials);
  if (it != cache.end()) return it->second;

  const std::uint64_t cells = trials / kTrialsPerCell;
  const auto dir = bench_dir();
  StorePair pair;
  pair.flat = (dir / ("flat_" + std::to_string(trials) + ".store")).string();
  pair.segmented =
      (dir / ("seg_" + std::to_string(trials) + ".store")).string();
  for (const std::string& path : {pair.flat, pair.segmented}) {
    std::filesystem::remove(path);
    persist::remove_segment_files(path);
  }

  const persist::StoreManifest manifest = manifest_for(cells);
  {
    persist::CampaignStore store{pair.flat, manifest,
                                 persist::CampaignStore::Mode::kCreate};
    persist::TrialRecord t;
    for (std::uint64_t c = 0; c < cells; ++c) {
      for (std::uint32_t i = 0; i < kTrialsPerCell; ++i) {
        t.cell_index = c;
        t.trial = i;
        t.denied = (c + i) % 3 == 0;
        t.pixel_match = 0.5;
        t.psnr = 20.0 + double(c % 40);
        t.descriptor_pixel_match = 0.25;
        store.append_trial(t);
      }
      campaign::CellStats stats;
      stats.index = c;
      stats.coords = coords_for(c);
      stats.trials = kTrialsPerCell;
      stats.denials = kTrialsPerCell / 3;
      stats.mean_pixel_match = 0.5;
      stats.mean_psnr_db = 20.0 + double(c % 40);
      stats.mean_descriptor_pixel_match = 0.25;
      store.complete_cell(stats);
    }
  }
  std::filesystem::copy_file(pair.flat, pair.segmented);
  (void)persist::compact_store(pair.segmented);
  return cache.emplace(trials, std::move(pair)).first->second;
}

std::uint64_t bytes_read_now() {
  return obs::counter("persist.log_bytes_read").value() +
         obs::counter("persist.segment_bytes_read").value();
}

/// ~1% of the grid (at least 2 cells), spread evenly.
persist::CellFilter range_filter(std::uint64_t cells) {
  persist::CellFilter::Clause clause;
  clause.axis = "delay_s";
  const std::uint64_t want = cells / 100 < 2 ? 2 : cells / 100;
  for (std::uint64_t i = 0; i < want; ++i) {
    clause.labels.push_back(
        campaign::AxisValue::of_number(double(i * (cells / want))).label());
  }
  return persist::CellFilter{{clause}};
}

void report_bytes(benchmark::State& state, std::uint64_t bytes_before,
                  const std::string& store_path) {
  state.counters["bytes_read"] = benchmark::Counter(
      static_cast<double>(bytes_read_now() - bytes_before) /
      static_cast<double>(state.iterations()));
  state.counters["store_bytes"] = benchmark::Counter(
      static_cast<double>(persist::StoreReader{store_path}.store_bytes()));
}

void single_cell_query(benchmark::State& state, const std::string& path) {
  const std::uint64_t trials = static_cast<std::uint64_t>(state.range(0));
  const auto coords = coords_for(trials / kTrialsPerCell / 2);
  const std::uint64_t bytes_before = bytes_read_now();
  for (auto _ : state) {
    // Open + query: the full artifact-to-answer latency, not a warm
    // in-memory lookup.
    const persist::StoreReader reader{path};
    auto cell = reader.read_cell(coords);
    if (!cell.has_value() || cell->trials.size() != kTrialsPerCell) {
      state.SkipWithError("query returned the wrong cell");
      return;
    }
    benchmark::DoNotOptimize(cell);
  }
  report_bytes(state, bytes_before, path);
}

void range_query(benchmark::State& state, const std::string& path) {
  const std::uint64_t trials = static_cast<std::uint64_t>(state.range(0));
  const persist::CellFilter filter = range_filter(trials / kTrialsPerCell);
  const std::uint64_t bytes_before = bytes_read_now();
  for (auto _ : state) {
    // The read under `stats --cells`: each selected cell's merged trials,
    // one cell at a time.
    const persist::StoreReader reader{path};
    persist::StoreReader::CellWalk walk = reader.walk(filter);
    std::size_t trials = 0;
    while (const std::optional<persist::CellTrials> cell = walk.next()) {
      trials += cell->trials.size();
    }
    if (walk.cells().empty() || trials == 0) {
      state.SkipWithError("range query matched nothing");
      return;
    }
    benchmark::DoNotOptimize(trials);
  }
  report_bytes(state, bytes_before, path);
}

void BM_SingleCellFlat(benchmark::State& state) {
  single_cell_query(state,
                    stores_for(std::uint64_t(state.range(0))).flat);
}
void BM_SingleCellSegmented(benchmark::State& state) {
  single_cell_query(state,
                    stores_for(std::uint64_t(state.range(0))).segmented);
}
void BM_RangeFlat(benchmark::State& state) {
  range_query(state, stores_for(std::uint64_t(state.range(0))).flat);
}
void BM_RangeSegmented(benchmark::State& state) {
  range_query(state, stores_for(std::uint64_t(state.range(0))).segmented);
}

/// Whole-store read: open a compacted store and load every cell and
/// trial through load_sweep — the first half of `campaign_sweep stats`.
void BM_LoadSweepFull(benchmark::State& state) {
  const std::string& path =
      stores_for(std::uint64_t(state.range(0))).segmented;
  for (auto _ : state) {
    persist::SweepData data = persist::load_sweep({path});
    if (data.trials.size() != std::uint64_t(state.range(0))) {
      state.SkipWithError("load_sweep returned the wrong trial count");
      return;
    }
    benchmark::DoNotOptimize(data);
  }
  state.counters["trials_per_s"] = benchmark::Counter(
      static_cast<double>(state.range(0)) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

/// The statistics alone over loaded data — the second half of `stats`.
void BM_AnalyzeSweep(benchmark::State& state) {
  const persist::SweepData data = persist::load_sweep(
      {stores_for(std::uint64_t(state.range(0))).segmented});
  for (auto _ : state) {
    campaign::StatsReport report = campaign::analyze_sweep(data);
    benchmark::DoNotOptimize(report);
  }
  state.counters["trials_per_s"] = benchmark::Counter(
      static_cast<double>(state.range(0)) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

/// The whole of `stats` (and of each side of `diff`) on the compacted
/// store: analyze_stores at `workers` workers, 0 being the CLI's auto
/// choice (every core at this size).
void BM_AnalyzeStores(benchmark::State& state) {
  const std::string& path =
      stores_for(std::uint64_t(state.range(0))).segmented;
  const auto workers = static_cast<unsigned>(state.range(1));
  for (auto _ : state) {
    campaign::SweepAnalysis analysis =
        campaign::analyze_stores({path}, {}, workers);
    if (analysis.report.trials_analyzed != std::uint64_t(state.range(0))) {
      state.SkipWithError("analyze_stores analyzed the wrong trial count");
      return;
    }
    benchmark::DoNotOptimize(analysis);
  }
  state.counters["trials_per_s"] = benchmark::Counter(
      static_cast<double>(state.range(0)) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

/// The grid-level gate of `diff --exit-on-significant`: a paired
/// sign-flip permutation test over 10^4 cell deltas, 10^4 resamples.
void BM_PermutationGate(benchmark::State& state) {
  std::vector<double> deltas(10000);
  util::Prng prng{11};
  for (double& d : deltas) d = prng.uniform01() * 0.2 - 0.1;
  for (auto _ : state) {
    campaign::PermutationResult r =
        campaign::paired_permutation_test(deltas, 7, 10000, true);
    benchmark::DoNotOptimize(r);
  }
}

BENCHMARK(BM_SingleCellFlat)
    ->Arg(10000)->Arg(100000)->Arg(1000000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SingleCellSegmented)
    ->Arg(10000)->Arg(100000)->Arg(1000000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RangeFlat)
    ->Arg(10000)->Arg(100000)->Arg(1000000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RangeSegmented)
    ->Arg(10000)->Arg(100000)->Arg(1000000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LoadSweepFull)
    ->Arg(100000)->Arg(1000000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AnalyzeSweep)
    ->Arg(100000)->Arg(1000000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AnalyzeStores)
    ->ArgNames({"trials", "workers"})
    ->Args({1000000, 1})->Args({1000000, 0})
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_PermutationGate)->Unit(benchmark::kMillisecond);

void print_intro() {
  std::printf("==================================================================\n");
  std::printf("Abl. store query — flat log replay vs block-indexed segments\n");
  std::printf("==================================================================\n");
  std::puts("Each iteration opens the store and answers from disk:");
  std::puts("SingleCell* reads one mid-grid cell, Range* a ~1%% cell");
  std::puts("filter, over stores of 1e4/1e5/1e6 trials (100 per cell).");
  std::puts("bytes_read counts log + segment bytes actually touched per");
  std::puts("query; store_bytes is the on-disk footprint — flat queries");
  std::puts("scale with the store, segmented queries with the answer.");
  std::puts("LoadSweepFull/AnalyzeSweep time the two halves of a whole-");
  std::puts("store `stats` on the compacted copy, and AnalyzeStores the");
  std::puts("whole of it at 1 worker and at every core (workers:0);");
  std::puts("PermutationGate is the 10^4-cell x 10^4-resample grid test");
  std::puts("of `diff` gating.\n");
}

}  // namespace

int main(int argc, char** argv) {
  print_intro();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
