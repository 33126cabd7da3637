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
//
// BM_ZooConvLayer/<model>/<layer> times Conv2d::forward alone for each
// conv layer of the default grid's models, on the activation the layers
// before it compute from a victim input, and reports the kernel's
// gmacs_per_s and ns_per_output (per output byte).
//
// Iterations cycle reseeded trials exactly as CampaignRunner::score_cell
// does, so every trial gets a fresh board seed and input image rather
// than replaying one trial. The power_cycled variant adds DRAM decay to
// residue_decay.
#include "bench_common.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "attack/profile_cache.h"
#include "campaign/runner.h"
#include "obs/trace.h"
#include "util/monotime.h"
#include "util/prng.h"
#include "vitis/model_zoo.h"
#include "vitis/tensor.h"

namespace {

using namespace msa;

/// One representative success cell: baseline defense, 5 simulated
/// seconds between termination and scrape with the scrubber running (and
/// DRAM decaying, if power-cycled), so every traced stage (including
/// residue_decay) appears in the breakdown.
attack::ScenarioConfig hotpath_config(bool power_cycled) {
  attack::ScenarioConfig cfg;
  cfg.system = os::SystemConfig::test_small();
  cfg.image_width = 48;
  cfg.image_height = 48;
  cfg.attack_delay_s = 5.0;
  cfg.scrubber_bytes_per_s = 512.0 * 1024;
  cfg.power_cycled = power_cycled;
  return cfg;
}

/// Trial `trial` of a cell at index 0, reseeded the way
/// CampaignRunner::score_cell reseeds it under the default salt.
attack::ScenarioConfig reseeded(attack::ScenarioConfig cfg,
                                std::uint64_t trial) {
  if (trial > 0) {
    std::uint64_t stream = campaign::CampaignOptions{}.trial_salt + trial;
    cfg.system.seed ^= util::splitmix64(stream);
    cfg.image_seed ^= util::splitmix64(stream);
  }
  return cfg;
}

void print_intro() {
  bench::print_header("Abl. trial hotpath",
                      "per-stage time breakdown from trace spans");
  std::puts("TrialTraced: one cached-profile, freshly reseeded trial per");
  std::puts("iteration with the span recorder on; stage_<name>_ms counters");
  std::puts("are the mean span duration per stage, aggregated from the trace");
  std::puts("rings. /power_cycled adds DRAM decay to residue_decay.");
  std::puts("TrialUntraced: the identical loop with tracing disabled — the");
  std::puts("pair bounds the recorder's own overhead on the hot path.");
  std::puts("ZooConvLayer: one default-grid conv layer's forward pass.\n");
}

void BM_TrialTraced(benchmark::State& state, bool power_cycled) {
  attack::ProfileCache cache;
  const attack::ScenarioConfig cfg = hotpath_config(power_cycled);
  (void)attack::run_scenario(cfg, cache);  // warm the profile cache

  obs::Trace::enable(/*per_thread_capacity=*/std::size_t{1} << 20);
  obs::Trace::clear();
  std::uint64_t trial = 0;
  const std::uint64_t loop_start_ns = util::monotonic_ns();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        attack::run_scenario(reseeded(cfg, ++trial), cache));
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
BENCHMARK_CAPTURE(BM_TrialTraced, baseline, false)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_TrialTraced, power_cycled, true)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_TrialUntraced(benchmark::State& state) {
  attack::ProfileCache cache;
  const attack::ScenarioConfig cfg = hotpath_config(false);
  (void)attack::run_scenario(cfg, cache);
  std::uint64_t trial = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        attack::run_scenario(reseeded(cfg, ++trial), cache));
  }
}
BENCHMARK(BM_TrialUntraced)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_ZooConvLayer(benchmark::State& state, const vitis::Layer* conv,
                     const vitis::Tensor* input) {
  const vitis::TensorShape out = conv->output_shape(input->shape());
  const double macs =
      static_cast<double>(out.h) * out.w *
      static_cast<double>(
          dynamic_cast<const vitis::Conv2d&>(*conv).weights().size());
  const std::uint64_t start_ns = util::monotonic_ns();
  for (auto _ : state) benchmark::DoNotOptimize(conv->forward(*input));
  const double ns = static_cast<double>(util::monotonic_ns() - start_ns);
  const double iters = static_cast<double>(state.iterations());
  // MACs per ns are GMAC/s.
  state.counters["gmacs_per_s"] = benchmark::Counter(macs * iters / ns);
  state.counters["ns_per_output"] = benchmark::Counter(
      ns / (static_cast<double>(out.volume()) * iters));
}

/// Registers BM_ZooConvLayer for every conv layer of the default grid's
/// models. The models and each layer's input live for the whole run.
void register_zoo_conv_layers() {
  struct ConvCase {
    std::string name;
    const vitis::Layer* conv;
    vitis::Tensor input;
  };
  static std::vector<vitis::XModel> models;
  static std::vector<ConvCase> convs;
  for (const char* name : {"resnet50_pt", "squeezenet_pt"}) {
    models.push_back(vitis::make_zoo_model(name));
  }
  for (const vitis::XModel& model : models) {
    vitis::Tensor t = vitis::tensor_from_image(img::resize_nearest(
        img::make_test_image(96, 96, 7), model.input_shape().w,
        model.input_shape().h));
    for (const auto& layer : model.layers()) {
      if (layer->kind() == vitis::LayerKind::kConv2d) {
        convs.push_back({model.name() + "/" + layer->name(), layer.get(), t});
      }
      t = layer->forward(t);
    }
  }
  for (const ConvCase& c : convs) {
    benchmark::RegisterBenchmark(("BM_ZooConvLayer/" + c.name).c_str(),
                                 BM_ZooConvLayer, c.conv, &c.input)
        ->Unit(benchmark::kMicrosecond);
  }
}

/// Runs before the benchmarks: the intro, then the zoo layers'
/// registration, which builds models and so waits for main().
void setup() {
  print_intro();
  register_zoo_conv_layers();
}

}  // namespace

MSA_BENCH_MAIN(setup)
