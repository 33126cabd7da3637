// Ablation H — remanence under interrupted refresh. The paper's attack
// assumes a powered board (refresh keeps residue bit-exact forever). If
// the board power-cycles between victim and attacker, cells decay; this
// bench sweeps the unpowered interval and shows how recovery quality
// degrades — and why prompt scraping is part of the threat model.
#include "bench_common.h"

#include <cstdint>
#include <vector>

#include "dram/remanence.h"
#include "util/monotime.h"

namespace {

using namespace msa;

attack::ScenarioConfig base_config() {
  attack::ScenarioConfig cfg;
  cfg.system = os::SystemConfig::test_small();
  cfg.image_width = 64;
  cfg.image_height = 64;
  cfg.power_cycled = true;
  cfg.retention_half_life_s = 2.0;
  return cfg;
}

void print_table() {
  bench::print_header(
      "Abl. H", "recovery quality vs unpowered interval (half-life 2 s)");

  const dram::RemanenceModel model{dram::RemanenceParams{
      .refresh_active = false, .retention_half_life_s = 2.0}};

  std::printf("%12s %14s %11s %12s %10s\n", "off-time(s)", "P(bit-decay)",
              "model-id", "pixel-match", "psnr-db");
  for (const double off_s : {0.0, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0}) {
    attack::ScenarioConfig cfg = base_config();
    cfg.attack_delay_s = off_s;
    const attack::ScenarioResult r = attack::run_scenario(cfg);
    std::printf("%12.1f %14.4f %11s %12.4f %10.2f\n", off_s,
                model.decay_probability(off_s),
                r.model_identified_correctly ? "identified" : "missed",
                r.pixel_match, r.psnr);
  }
  std::puts("\nexpected shape: pixel-exactness collapses within a fraction");
  std::puts("of a half-life; model-id survives a little longer (any one");
  std::puts("intact string copy suffices); by a few half-lives all is noise.");
  std::puts("off-time 0 reproduces the paper's powered-board setting.\n");
}

void BM_DecayApplication(benchmark::State& state) {
  dram::DramModel dram{dram::DramConfig::test_small()};
  dram.fill_range(0x100000, 64 * 1024, 0xA5);
  const dram::RemanenceModel model{dram::RemanenceParams{
      .refresh_active = false, .retention_half_life_s = 2.0}};
  util::Prng prng{7};
  dram::RemanenceScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.apply(dram, 0x100000, 64 * 1024, 0.5, prng, scratch));
  }
  state.SetBytesProcessed(64 * 1024 * state.iterations());
}
BENCHMARK(BM_DecayApplication);

// The shape of one power-cycled sweep trial's decay: 14 freshly written
// random 4 KiB pages (a victim heap), anti-cell fraction 0.1, a 5 s
// delay (p ≈ 0.82), a fresh prng and one scratch shared across the
// pages. ns_per_byte is the kernel cost perfbench reports as
// dram.remanence_ns_per_byte.
void BM_DecaySweepPages(benchmark::State& state) {
  constexpr std::uint64_t kPages = 14;
  constexpr std::uint64_t kPage = 4096;
  constexpr dram::PhysAddr kBase = 0x200000;
  dram::DramModel dram{dram::DramConfig::test_small()};
  std::vector<std::uint8_t> pages(kPages * kPage);
  util::Prng fill{11};
  for (auto& b : pages) b = static_cast<std::uint8_t>(fill());
  const dram::RemanenceModel model{dram::RemanenceParams{
      .refresh_active = false,
      .retention_half_life_s = 2.0,
      .anti_cell_fraction = 0.1}};
  std::uint64_t seed = 0;
  std::uint64_t decay_ns = 0;
  for (auto _ : state) {
    state.PauseTiming();
    dram.write_block(kBase, pages);
    state.ResumeTiming();
    const std::uint64_t start = util::monotonic_ns();
    util::Prng prng{++seed ^ 0xDEC4FULL};
    dram::RemanenceScratch scratch;
    for (std::uint64_t i = 0; i < kPages; ++i) {
      benchmark::DoNotOptimize(
          model.apply(dram, kBase + i * kPage, kPage, 5.0, prng, scratch));
    }
    decay_ns += util::monotonic_ns() - start;
  }
  state.counters["ns_per_byte"] = benchmark::Counter(
      static_cast<double>(decay_ns) /
      static_cast<double>(kPages * kPage * state.iterations()));
}
BENCHMARK(BM_DecaySweepPages)->Unit(benchmark::kMicrosecond);

void BM_ScenarioPowerCycled(benchmark::State& state) {
  attack::ScenarioConfig cfg = base_config();
  cfg.attack_delay_s = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(attack::run_scenario(cfg));
  }
}
BENCHMARK(BM_ScenarioPowerCycled);

}  // namespace

MSA_BENCH_MAIN(print_table)
