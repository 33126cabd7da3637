// Hot-path vectorization identity tests against a CHECKED-IN golden
// store written by the PRE-vectorization binary (before batched
// remanence sampling, SIMD scoring, pooled victim boards and bulk
// devmem landed). The contract: the optimized trial pipeline is an
// observable no-op — every trial record (doubles bit for bit), every
// cell aggregate and the manifest must match the golden store at any
// thread count, with the SIMD kernels on or off.
//
// The fixture (tests/data/golden_hotpath_vec.store) was produced by the
// pre-optimization binary with:
//   campaign_sweep --threads 2 --trials 2 --defenses baseline
//                  --models resnet50_pt --delays 0,1,5 --scrubbers 0
//                  --axis power_cycled=0,1 --axis corrupt_fraction=0.25,1
//                  --store golden_hotpath_vec.store
// over the default 96x96 base scenario: 12 cells x 2 trials spanning
// remanence decay (power_cycled x delay) and input corruption — the two
// paths the vectorization rewrote draw-for-draw.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "campaign/grid.h"
#include "campaign/runner.h"
#include "campaign/stats.h"
#include "img/image.h"
#include "img/score_kernels.h"
#include "persist/campaign_store.h"
#include "persist/store_reader.h"
#include "simd_levels.h"
#include "store_contents.h"
#include "util/prng.h"

namespace msa {
namespace {

std::string data_path(const char* name) {
  return std::string{MSA_TEST_DATA_DIR} + "/" + name;
}

using util::SimdCapGuard;
using util::SimdLevel;
using util::simd_level_name;
using util::simd_levels_up_to_detected;

/// The levels above scalar this host runs, or scalar alone when the build
/// or the CPU has no vector level.
std::vector<SimdLevel> vector_levels() {
  std::vector<SimdLevel> levels = simd_levels_up_to_detected();
  if (levels.size() > 1) levels.erase(levels.begin());
  return levels;
}

/// The grid the golden store was swept over, axes in the CLI order the
/// fixture command used (legacy flags first, --axis flags after).
campaign::GridBuilder golden_grid() {
  attack::ScenarioConfig base;
  base.image_width = 96;
  base.image_height = 96;
  campaign::GridBuilder grid{base};
  grid.defenses({"baseline"})
      .models({"resnet50_pt"})
      .attack_delays_s({0.0, 1.0, 5.0})
      .scrubber_rates({0.0});
  grid.axis("power_cycled", {campaign::AxisValue::of_bool(false),
                             campaign::AxisValue::of_bool(true)});
  grid.axis("corrupt_fraction", {campaign::AxisValue::of_number(0.25),
                                 campaign::AxisValue::of_number(1.0)});
  return grid;
}

/// Sweeps the golden grid into a fresh store and returns its path.
std::string run_sweep(unsigned threads, SimdLevel level, const char* tag) {
  const SimdCapGuard cap{level};
  const campaign::GridBuilder grid = golden_grid();
  campaign::CampaignOptions options;
  options.threads = threads;
  options.trials_per_cell = 2;

  persist::StoreManifest manifest;
  manifest.grid_fingerprint = grid.fingerprint();
  manifest.grid_cells = grid.full_size();
  manifest.trials_per_cell = options.trials_per_cell;
  manifest.trial_salt = options.trial_salt;
  manifest.axes = grid.axis_schema();

  const auto dir =
      std::filesystem::temp_directory_path() / "msa_hotpath_identity";
  std::filesystem::create_directories(dir);
  const std::string path =
      (dir / (std::string{tag} + "_" + simd_level_name(level) + ".store"))
          .string();
  std::filesystem::remove(path);
  campaign::CampaignRunner runner{options};
  persist::CampaignStore store{path, manifest,
                               persist::CampaignStore::Mode::kCreate};
  (void)runner.run(grid, store);
  return path;
}

/// Bit-exact double comparison: NaN-safe, distinguishes -0.0.
void expect_bits_eq(double a, double b, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << what << ": " << a << " vs " << b;
}

/// Full-contents comparison. StoreReader sorts cells by index and trials
/// by (cell, trial), so record-arrival order (thread-dependent) never
/// leaks into the comparison.
void expect_stores_identical(const std::string& fresh_path) {
  const persist::StoreContents golden = persist::read_all(
      persist::StoreReader{data_path("golden_hotpath_vec.store")});
  const persist::StoreContents fresh =
      persist::read_all(persist::StoreReader{fresh_path});

  EXPECT_FALSE(golden.truncated_tail);
  EXPECT_FALSE(fresh.truncated_tail);
  EXPECT_EQ(fresh.manifest, golden.manifest);

  ASSERT_EQ(fresh.trials.size(), golden.trials.size());
  for (std::size_t i = 0; i < golden.trials.size(); ++i) {
    const persist::TrialRecord& g = golden.trials[i];
    const persist::TrialRecord& f = fresh.trials[i];
    const std::string at = "trial[" + std::to_string(i) + "] cell " +
                           std::to_string(g.cell_index) + " trial " +
                           std::to_string(g.trial);
    EXPECT_EQ(f.cell_index, g.cell_index) << at;
    EXPECT_EQ(f.trial, g.trial) << at;
    EXPECT_EQ(f.denied, g.denied) << at;
    EXPECT_EQ(f.model_identified, g.model_identified) << at;
    EXPECT_EQ(f.denial_reason, g.denial_reason) << at;
    expect_bits_eq(f.pixel_match, g.pixel_match, at + " pixel_match");
    expect_bits_eq(f.psnr, g.psnr, at + " psnr");
    expect_bits_eq(f.descriptor_pixel_match, g.descriptor_pixel_match,
                   at + " descriptor_pixel_match");
  }

  ASSERT_EQ(fresh.cells.size(), golden.cells.size());
  for (std::size_t i = 0; i < golden.cells.size(); ++i) {
    const campaign::CellStats& g = golden.cells[i];
    const campaign::CellStats& f = fresh.cells[i];
    const std::string at = "cell[" + std::to_string(i) + "] " +
                           g.coords_text();
    EXPECT_EQ(f.index, g.index) << at;
    EXPECT_EQ(f.coords_text(), g.coords_text()) << at;
    EXPECT_EQ(f.trials, g.trials) << at;
    EXPECT_EQ(f.full_successes, g.full_successes) << at;
    EXPECT_EQ(f.model_identified, g.model_identified) << at;
    EXPECT_EQ(f.denials, g.denials) << at;
    EXPECT_EQ(f.first_denial_reason, g.first_denial_reason) << at;
    expect_bits_eq(f.mean_pixel_match, g.mean_pixel_match,
                   at + " mean_pixel_match");
    expect_bits_eq(f.mean_psnr_db, g.mean_psnr_db, at + " mean_psnr_db");
    expect_bits_eq(f.mean_descriptor_pixel_match,
                   g.mean_descriptor_pixel_match,
                   at + " mean_descriptor_pixel_match");
  }

  // The derived reports (what regression gates diff) follow: identical
  // inputs must render identical bytes.
  const campaign::StatsReport golden_report = campaign::analyze_sweep(
      persist::load_sweep({data_path("golden_hotpath_vec.store")}));
  const campaign::StatsReport fresh_report =
      campaign::analyze_sweep(persist::load_sweep({fresh_path}));
  EXPECT_EQ(fresh_report.to_text(), golden_report.to_text());
  EXPECT_EQ(fresh_report.to_csv(), golden_report.to_csv());
  EXPECT_EQ(fresh_report.to_json(), golden_report.to_json());
}

TEST(HotpathIdentity, SingleThreadSimdMatchesGolden) {
  for (const SimdLevel level : vector_levels()) {
    SCOPED_TRACE(simd_level_name(level));
    expect_stores_identical(run_sweep(1, level, "t1_simd"));
  }
}

TEST(HotpathIdentity, EightThreadsSimdMatchesGolden) {
  for (const SimdLevel level : vector_levels()) {
    SCOPED_TRACE(simd_level_name(level));
    expect_stores_identical(run_sweep(8, level, "t8_simd"));
  }
}

TEST(HotpathIdentity, SingleThreadScalarMatchesGolden) {
  expect_stores_identical(run_sweep(1, SimdLevel::kScalar, "t1_scalar"));
}

TEST(HotpathIdentity, EightThreadsScalarMatchesGolden) {
  expect_stores_identical(run_sweep(8, SimdLevel::kScalar, "t8_scalar"));
}

// ---- kernel-level SIMD/scalar equivalence ------------------------------
//
// The sweep above only exercises the all-or-nothing PSNR outcomes the
// attack produces (exact reconstruction or zeros), so the kernels are
// additionally pinned on random images with nonzero MSE and on widths
// that exercise every vector-tail length.

img::Image random_image(std::uint32_t w, std::uint32_t h,
                        std::uint64_t seed) {
  img::Image out{w, h};
  util::Prng prng{seed};
  for (img::Rgb& px : out.pixels()) {
    const std::uint64_t word = prng();
    px.r = static_cast<std::uint8_t>(word & 0xFF);
    px.g = static_cast<std::uint8_t>((word >> 8) & 0xFF);
    px.b = static_cast<std::uint8_t>((word >> 16) & 0xFF);
  }
  return out;
}

/// The pre-vectorization scoring loops, verbatim: sequential double
/// accumulation of squared channel differences and a scalar pixel walk.
double reference_psnr(const img::Image& a, const img::Image& b) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.pixel_count(); ++i) {
    const img::Rgb& pa = a.pixels()[i];
    const img::Rgb& pb = b.pixels()[i];
    const double dr = static_cast<double>(pa.r) - pb.r;
    const double dg = static_cast<double>(pa.g) - pb.g;
    const double db = static_cast<double>(pa.b) - pb.b;
    sum += dr * dr + dg * dg + db * db;
  }
  const double mse = sum / static_cast<double>(a.pixel_count() * 3);
  if (mse == 0.0) return 99.0;
  return 10.0 * std::log10(255.0 * 255.0 / mse);
}

double reference_match(const img::Image& a, const img::Image& b) {
  std::size_t same = 0;
  for (std::size_t i = 0; i < a.pixel_count(); ++i) {
    if (a.pixels()[i] == b.pixels()[i]) ++same;
  }
  return static_cast<double>(same) / static_cast<double>(a.pixel_count());
}

TEST(ScoreKernels, SimdAndScalarAgreeBitForBitWithReference) {
  // Widths hit every SSE2 tail (16-pixel blocks); heights include 1 so
  // tiny totals are covered too.
  const std::uint32_t sizes[][2] = {{1, 1},   {3, 1},  {15, 1}, {16, 1},
                                    {17, 1},  {31, 3}, {33, 2}, {48, 5},
                                    {96, 96}, {97, 7}};
  std::uint64_t seed = 0x5eedULL;
  for (const auto& wh : sizes) {
    const img::Image a = random_image(wh[0], wh[1], ++seed);
    img::Image b = random_image(wh[0], wh[1], ++seed);
    // Force some exact pixel matches so match_count has work on both
    // sides of the comparison.
    for (std::size_t i = 0; i < b.pixel_count(); i += 3) {
      b.pixels()[i] = a.pixels()[i];
    }
    const double want_match = reference_match(a, b);
    const double want_psnr = reference_psnr(a, b);
    for (const SimdLevel level : simd_levels_up_to_detected()) {
      const SimdCapGuard cap{level};
      const std::string at = std::string{"size "} +
                             std::to_string(wh[0]) + "x" +
                             std::to_string(wh[1]) + " " +
                             simd_level_name(level) + " (backend " +
                             img::simd_backend() + ")";
      expect_bits_eq(img::pixel_match_fraction(a, b), want_match,
                     at + " pixel_match");
      expect_bits_eq(img::psnr_db(a, b), want_psnr, at + " psnr");
    }
  }
}

TEST(ScoreKernels, IdenticalAndDisjointImagesScoreExactly) {
  const img::Image a = random_image(97, 5, 0xabcdULL);
  img::Image inverted = a;
  for (img::Rgb& px : inverted.pixels()) {
    px.r = static_cast<std::uint8_t>(~px.r);
    px.g = static_cast<std::uint8_t>(~px.g);
    px.b = static_cast<std::uint8_t>(~px.b);
  }
  for (const SimdLevel level : simd_levels_up_to_detected()) {
    const SimdCapGuard cap{level};
    SCOPED_TRACE(simd_level_name(level));
    EXPECT_EQ(img::pixel_match_fraction(a, a), 1.0);
    EXPECT_EQ(img::psnr_db(a, a), 99.0);
    EXPECT_EQ(img::pixel_match_fraction(a, inverted), 0.0);
    expect_bits_eq(img::psnr_db(a, inverted), reference_psnr(a, inverted),
                   "inverted psnr");
  }
}

TEST(ScoreKernels, BackendReportsToggleState) {
  // The scoring folds have no AVX2 backend: every level from sse2 up runs
  // SSE2, and a build or CPU without a vector level reports scalar.
  for (const SimdLevel level : simd_levels_up_to_detected()) {
    const SimdCapGuard cap{level};
    EXPECT_STREQ(img::simd_backend(),
                 level == SimdLevel::kScalar ? "scalar" : "sse2")
        << simd_level_name(level);
  }
  const std::string backend = img::simd_backend();
  EXPECT_EQ(backend, util::detected_simd_level() == SimdLevel::kScalar
                         ? "scalar"
                         : "sse2");
}

}  // namespace
}  // namespace msa
