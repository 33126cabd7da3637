// Ablation — trial hot path, broken down by pipeline stage. Runs the
// end-to-end scenario under the obs span recorder and reports the mean
// wall time of each traced stage (profile, board_acquire, victim_input,
// launch, find_victim, resolve, residue_decay, scrape, identify,
// reconstruct, score) as benchmark counters, plus stage_unattributed_ms,
// the per-trial time no top-level stage explains, so the CI JSON artifact
// (BENCH_trial_hotpath.json) carries a per-stage breakdown a plain
// end-to-end number hides: a scrape regression and a scoring regression
// look identical from the outside, but not here. The untraced twin of
// the same loop pins the cost of the tracing gate itself.
#include "bench_common.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "attack/profile_cache.h"
#include "obs/trace.h"
#include "util/monotime.h"

namespace {

using namespace msa;

/// One representative success cell: baseline defense, 5 simulated
/// seconds of scrubber+decay between termination and scrape, so every
/// traced stage (including residue_decay) appears in the breakdown.
attack::ScenarioConfig hotpath_config() {
  attack::ScenarioConfig cfg;
  cfg.system = os::SystemConfig::test_small();
  cfg.image_width = 48;
  cfg.image_height = 48;
  cfg.attack_delay_s = 5.0;
  cfg.scrubber_bytes_per_s = 512.0 * 1024;
  return cfg;
}

void print_intro() {
  bench::print_header("Abl. trial hotpath",
                      "per-stage time breakdown from trace spans");
  std::puts("TrialTraced: one cached-profile trial per iteration with the");
  std::puts("span recorder on; stage_<name>_ms counters are the mean span");
  std::puts("duration per stage, aggregated from the trace rings.");
  std::puts("TrialUntraced: the identical loop with tracing disabled — the");
  std::puts("pair bounds the recorder's own overhead on the hot path.\n");
}

void BM_TrialTraced(benchmark::State& state) {
  attack::ProfileCache cache;
  const attack::ScenarioConfig cfg = hotpath_config();
  (void)attack::run_scenario(cfg, &cache);  // warm the profile cache

  obs::Trace::enable(/*per_thread_capacity=*/std::size_t{1} << 20);
  obs::Trace::clear();
  const std::uint64_t loop_start_ns = util::monotonic_ns();
  for (auto _ : state) {
    benchmark::DoNotOptimize(attack::run_scenario(cfg, &cache));
  }
  const std::uint64_t loop_ns = util::monotonic_ns() - loop_start_ns;
  obs::Trace::disable();

  // Mean duration per stage occurrence. Dividing each stage by its own
  // span count (not by iterations) keeps the numbers honest even if a
  // ring wrapped and dropped the oldest spans.
  struct Stage {
    std::uint64_t total_ns = 0;
    std::uint64_t spans = 0;
  };
  std::map<std::string, Stage> stages;
  std::uint64_t top_level_ns = 0;  // nested stages carry a '/' in their name
  for (const obs::ThreadTrace& thread : obs::Trace::snapshot()) {
    for (const obs::TraceSpan& span : thread.spans) {
      if (std::string_view{span.category} != "trial") continue;
      Stage& stage = stages[span.name];
      stage.total_ns += span.dur_ns;
      stage.spans += 1;
      if (std::string_view{span.name}.find('/') == std::string_view::npos) {
        top_level_ns += span.dur_ns;
      }
    }
  }
  obs::Trace::clear();
  for (const auto& [name, stage] : stages) {
    state.counters["stage_" + name + "_ms"] = benchmark::Counter(
        static_cast<double>(stage.total_ns) / 1e6 /
        static_cast<double>(stage.spans));
  }
  // Loop time per trial that no top-level stage span explains.
  state.counters["stage_unattributed_ms"] = benchmark::Counter(
      static_cast<double>(loop_ns - std::min(loop_ns, top_level_ns)) / 1e6 /
      static_cast<double>(state.iterations()));
}
BENCHMARK(BM_TrialTraced)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_TrialUntraced(benchmark::State& state) {
  attack::ProfileCache cache;
  const attack::ScenarioConfig cfg = hotpath_config();
  (void)attack::run_scenario(cfg, &cache);
  for (auto _ : state) {
    benchmark::DoNotOptimize(attack::run_scenario(cfg, &cache));
  }
}
BENCHMARK(BM_TrialUntraced)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

MSA_BENCH_MAIN(print_intro)
