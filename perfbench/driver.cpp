// perfbench_driver: the in-process half of the whole-process campaign
// benchmark. perfbench/run.py times `campaign_sweep` as a black box and
// calls this helper for what only an in-process caller can do:
//
//   perfbench_driver machine
//       build descriptor (compiler, build type, SIMD, nproc)
//   perfbench_driver gen-store --seed S --out PATH [--trials-per-cell N]
//       writes a seeded synthetic 10^4-cell x N-trial (default 100) store through
//       persist::CampaignStore (same seed -> byte-identical file)
//   perfbench_driver setup --grid-from SWEEP --store PATH
//       fresh-process set-up: grid build, store creation and one
//       ProfileCache::get_or_profile per distinct profile key
//   perfbench_driver replay --grid-from SWEEP --trials-per-cell T --store PATH
//       replays each cell's trials the way CampaignRunner::score_cell
//       does, making run_scenario's public calls in its order with a
//       timer around each, and checks every replayed TrialRecord against
//       score_cell's bit for bit
//   perfbench_driver query --store A --against B --flat F --scratch PATH
//                          --seed S --queries N --min-effect E
//       times the persist read path and the campaign analysis calls on
//       store A (and the diff/gate of A against B), plus compact_store
//       on a copy of the flat store F
//
// SWEEP is a store campaign_sweep wrote: setup and replay rebuild its
// grid from the store's manifest, so they run exactly the grid the sweep
// ran. The replay runs on one thread by design.
// Every mode prints one JSON object on stdout and exits 0; a usage error
// exits 2 and a failed operation exits 1.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "attack/profile_cache.h"
#include "attack/scenario.h"
#include "campaign/axis.h"
#include "campaign/compare.h"
#include "campaign/gate.h"
#include "campaign/grid.h"
#include "campaign/runner.h"
#include "campaign/stats.h"
#include "dram/remanence.h"
#include "img/image.h"
#include "img/score_kernels.h"
#include "mem/frame_allocator.h"
#include "obs/metrics.h"
#include "os/scrubber.h"
#include "persist/campaign_store.h"
#include "persist/manifest.h"
#include "persist/store_reader.h"
#include "util/prng.h"
#include "vitis/layers.h"
#include "vitis/model_zoo.h"
#include "vitis/tensor.h"

namespace {

using namespace msa;
using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// Flat JSON object writer: numbers keep all 17 significant digits.
class JsonOut {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    field(key, buf);
  }
  void str(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    field(key, quoted + "\"");
  }
  void raw(const std::string& key, const std::string& json) {
    field(key, json);
  }
  void print() const { std::printf("{%s}\n", body_.c_str()); }

 private:
  void field(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + value;
  }
  std::string body_;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, p in [0, 100].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

/// "--flag value" pairs; every flag of every mode takes exactly one value.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 0; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag.rfind("--", 0) != 0 || i + 1 >= argc) {
        throw std::invalid_argument("expected --flag value, got '" + flag +
                                    "'");
      }
      pairs_.emplace_back(flag, argv[++i]);
    }
  }

  /// Every value given for `flag`, in order; marks them consumed.
  std::vector<std::string> all(const std::string& flag) {
    std::vector<std::string> out;
    for (auto& [f, v] : pairs_) {
      if (f == flag) {
        out.push_back(v);
        used_.insert(f);
      }
    }
    return out;
  }
  std::optional<std::string> get(const std::string& flag) {
    std::vector<std::string> v = all(flag);
    if (v.size() > 1) throw std::invalid_argument(flag + " given twice");
    if (v.empty()) return std::nullopt;
    return v.front();
  }
  std::string need(const std::string& flag) {
    std::optional<std::string> v = get(flag);
    if (!v) throw std::invalid_argument("missing " + flag);
    return *v;
  }
  std::uint64_t need_u64(const std::string& flag) {
    const std::string s = need(flag);
    if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
      throw std::invalid_argument(flag + ": not a non-negative integer");
    }
    return std::stoull(s);
  }
  std::uint32_t need_u32(const std::string& flag) {
    const std::uint64_t v = need_u64(flag);
    if (v > UINT32_MAX) throw std::invalid_argument(flag + ": out of range");
    return static_cast<std::uint32_t>(v);
  }
  /// Throws on any flag no accessor asked for.
  void finish() const {
    for (const auto& [f, v] : pairs_) {
      if (!used_.contains(f)) throw std::invalid_argument("unknown flag " + f);
    }
  }

 private:
  std::vector<std::pair<std::string, std::string>> pairs_;
  std::set<std::string> used_;
};

/// The grid of the sweep that wrote `store`: its manifest's axis schema
/// over campaign_sweep's base config (96x96 inputs). The fingerprint
/// covers the base value of every registered axis, image size included,
/// so a grid that differs from the sweep's in any way is refused.
struct SweepGrid {
  campaign::GridBuilder grid{[] {
    attack::ScenarioConfig base;
    base.image_width = 96;
    base.image_height = 96;
    return base;
  }()};
  persist::StoreManifest source;

  explicit SweepGrid(const std::string& store)
      : source{persist::StoreReader{store}.manifest()} {
    for (const campaign::AxisSpec& axis : source.axes) {
      grid.axis(axis.name, axis.values);
    }
    if (grid.fingerprint() != source.grid_fingerprint) {
      throw std::runtime_error("the grid rebuilt from " + store +
                               " does not match its grid fingerprint");
    }
  }

  [[nodiscard]] persist::StoreManifest manifest(unsigned trials_per_cell) const {
    persist::StoreManifest m;
    m.grid_fingerprint = grid.fingerprint();
    m.grid_cells = grid.full_size();
    m.trials_per_cell = trials_per_cell;
    m.trial_salt = source.trial_salt;
    m.axes = grid.axis_schema();
    return m;
  }
};

void fresh_store_path(const std::string& path) {
  std::filesystem::remove(path);
  persist::remove_segment_files(path);
}

// ---- machine --------------------------------------------------------------

int run_machine() {
  JsonOut out;
  out.str("compiler", PERFBENCH_COMPILER);
  out.str("build_type", PERFBENCH_BUILD_TYPE);
#ifdef MSA_ENABLE_SIMD
  out.num("msa_enable_simd", 1);
#else
  out.num("msa_enable_simd", 0);
#endif
  out.str("simd_backend", img::simd_backend());
  out.num("nproc", std::max(1u, std::thread::hardware_concurrency()));
  out.print();
  return 0;
}

// ---- gen-store ------------------------------------------------------------

constexpr std::uint32_t kSyntheticTrialsPerCell = 100;

/// Four-axis schema of 4 x 5 x 20 x 25 = 10^4 cells.
std::vector<campaign::AxisSpec> synthetic_axes() {
  using campaign::AxisValue;
  std::vector<campaign::AxisSpec> axes(4);
  axes[0].name = "defense";
  for (const char* d :
       {"baseline", "zero_on_free", "zero_on_alloc", "physical_aslr"}) {
    axes[0].values.push_back(AxisValue::of_string(d));
  }
  axes[1].name = "model";
  for (const std::string& m : vitis::zoo_model_names()) {
    axes[1].values.push_back(AxisValue::of_string(m));
  }
  axes[2].name = "delay_s";
  axes[2].kind = campaign::AxisKind::kDouble;
  for (int i = 0; i < 20; ++i) {
    axes[2].values.push_back(AxisValue::of_number(5.0 * i));
  }
  axes[3].name = "scrubber_Bps";
  axes[3].kind = campaign::AxisKind::kDouble;
  for (int i = 0; i < 25; ++i) {
    axes[3].values.push_back(AxisValue::of_number(262144.0 * i));
  }
  return axes;
}

/// Per-cell success probability: a pure function of the cell's axis
/// positions, never of the seed, so stores generated from two seeds are
/// two samples of one population (their gate verdict is clean).
double synthetic_success_p(const std::vector<std::size_t>& pos) {
  static constexpr double kDefense[] = {0.95, 0.05, 0.55, 0.75};
  const double decay = std::exp(-0.02 * static_cast<double>(pos[2]) *
                                (1.0 + 0.2 * static_cast<double>(pos[3])));
  return kDefense[pos[0]] * (0.6 + 0.08 * static_cast<double>(pos[1])) * decay;
}

int run_gen_store(Args& args) {
  const std::uint64_t seed = args.need_u64("--seed");
  const std::string path = args.need("--out");
  std::uint32_t trials_per_cell = kSyntheticTrialsPerCell;
  if (args.get("--trials-per-cell")) {
    trials_per_cell = args.need_u32("--trials-per-cell");
  }
  args.finish();
  if (trials_per_cell == 0) {
    throw std::invalid_argument("--trials-per-cell must be > 0");
  }

  persist::StoreManifest manifest;
  manifest.axes = synthetic_axes();
  std::uint64_t cells = 1;
  for (const auto& axis : manifest.axes) cells *= axis.values.size();
  manifest.grid_fingerprint = 0x5e7be4c4a11a11ULL;
  manifest.grid_cells = cells;
  manifest.trials_per_cell = trials_per_cell;
  manifest.trial_salt = seed;

  fresh_store_path(path);
  util::Prng prng{seed ^ 0x9e3779b97f4a7c15ULL};
  double append_us = 0.0;
  double complete_us = 0.0;
  {
    persist::CampaignStore store{path, manifest,
                                 persist::CampaignStore::Mode::kCreate};
    std::vector<std::size_t> pos(manifest.axes.size(), 0);
    for (std::uint64_t index = 0; index < cells; ++index) {
      // Row-major over the schema, first axis outermost.
      std::uint64_t rest = index;
      for (std::size_t a = manifest.axes.size(); a-- > 0;) {
        pos[a] = rest % manifest.axes[a].values.size();
        rest /= manifest.axes[a].values.size();
      }
      campaign::CellStats stats;
      stats.index = index;
      for (std::size_t a = 0; a < pos.size(); ++a) {
        stats.coords.push_back(
            {manifest.axes[a].name, manifest.axes[a].values[pos[a]]});
      }
      const double p_success = synthetic_success_p(pos);
      const double p_deny = pos[0] == 3 ? 0.1 : 0.0;
      for (std::uint32_t trial = 0; trial < trials_per_cell; ++trial) {
        attack::ScenarioResult r;
        if (prng.chance(p_deny)) {
          r.denied = true;
          r.denial_reason = "synthetic: debugger refused";
        } else if (prng.chance(p_success)) {
          r.model_identified_correctly = true;
          r.pixel_match = 1.0;
          r.psnr = 99.0;
          r.descriptor_pixel_match = 1.0;
        } else {
          r.model_identified_correctly = prng.chance(0.5);
          r.pixel_match = 0.9 * prng.uniform01();
          r.psnr = 5.0 + 25.0 * prng.uniform01();
          r.descriptor_pixel_match = prng.uniform01();
        }
        stats.accumulate(r);
        const auto t0 = Clock::now();
        store.append_trial(persist::TrialRecord::from_result(index, trial, r));
        append_us += us_since(t0);
      }
      stats.finalize();
      const auto t0 = Clock::now();
      store.complete_cell(stats);
      complete_us += us_since(t0);
    }
  }

  const double trials = static_cast<double>(cells) * trials_per_cell;
  std::string schema = "[";
  for (std::size_t a = 0; a < manifest.axes.size(); ++a) {
    if (a > 0) schema += ", ";
    schema += "{\"name\": \"" + manifest.axes[a].name + "\", \"labels\": [";
    for (std::size_t v = 0; v < manifest.axes[a].values.size(); ++v) {
      if (v > 0) schema += ", ";
      schema += "\"" + manifest.axes[a].values[v].label() + "\"";
    }
    schema += "]}";
  }
  schema += "]";

  JsonOut out;
  out.num("cells", static_cast<double>(cells));
  out.num("trials", trials);
  out.num("persist.append_trial_us", append_us / trials);
  out.num("persist.complete_cell_us", complete_us / static_cast<double>(cells));
  out.num("persist.bytes_written_per_trial",
          static_cast<double>(std::filesystem::file_size(path)) / trials);
  out.raw("axes", schema);
  out.print();
  return 0;
}

// ---- setup ----------------------------------------------------------------

int run_setup(Args& args) {
  const SweepGrid spec{args.need("--grid-from")};
  const std::string path = args.need("--store");
  args.finish();

  // Reading the sweep's manifest is the benchmark's own work, untimed.
  const auto t0 = Clock::now();
  const std::vector<campaign::CampaignCell> cells = spec.grid.build();
  fresh_store_path(path);
  persist::CampaignStore store{path, spec.manifest(spec.source.trials_per_cell),
                               persist::CampaignStore::Mode::kCreate};
  attack::ProfileCache cache;
  std::set<attack::ProfileKey> keys;
  for (const campaign::CampaignCell& cell : cells) {
    if (keys.insert(attack::ProfileKey::from_config(cell.config)).second) {
      (void)cache.get_or_profile(cell.config);
    }
  }
  const double setup_s = us_since(t0) / 1e6;

  JsonOut out;
  out.num("setup_s", setup_s);
  out.num("cells", static_cast<double>(cells.size()));
  out.num("profile_keys", static_cast<double>(keys.size()));
  out.print();
  return 0;
}

// ---- replay ---------------------------------------------------------------

/// Per-stage time sums (microseconds) over the replayed trials.
struct StageTimes {
  double profile_hit = 0, board_acquire = 0, victim_input = 0, launch = 0,
         find_victim = 0, resolve = 0, scrubber = 0, remanence = 0,
         after_termination = 0, score = 0;

  [[nodiscard]] double attributed() const {
    return profile_hit + board_acquire + victim_input + launch + find_victim +
           resolve + scrubber + remanence + after_termination + score;
  }
};

/// One replayed trial's by-products that the checks and the launch
/// breakdown need beyond the ScenarioResult itself.
struct TrialExtras {
  std::vector<float> victim_scores;
  std::uint64_t remanence_bytes = 0;
};

/// run_scenario(config, &cache) rebuilt from its public calls, in its
/// order, each wrapped in a timer. Anything that changes the outcome
/// (draw order, timeline, exception mapping) must follow
/// attack/scenario.cpp exactly; replay() checks the result bit for bit
/// against CampaignRunner::score_cell.
attack::ScenarioResult replay_trial(const attack::ScenarioConfig& config,
                                    attack::ProfileCache& cache,
                                    StageTimes& t, TrialExtras& extras) {
  attack::ScenarioResult result;

  attack::ProfileDb profiles;
  auto start = Clock::now();
  profiles.add(cache.get_or_profile(config));
  t.profile_hit += us_since(start);

  start = Clock::now();
  std::unique_ptr<attack::VictimBoardPool::Board> pooled =
      cache.victim_boards().acquire(config);
  t.board_acquire += us_since(start);
  struct ParkBoard {
    attack::ProfileCache& cache;
    const attack::ScenarioConfig& config;
    std::unique_ptr<attack::VictimBoardPool::Board>& board;
    ~ParkBoard() { cache.victim_boards().release(config, std::move(board)); }
  } park{cache, config, pooled};
  os::PetaLinuxSystem& board = pooled->system;
  vitis::VitisAiRuntime& runtime = pooled->runtime;

  board.add_user(config.victim_uid, "victim");
  board.add_user(config.attacker_uid, "attacker");

  start = Clock::now();
  result.victim_input = *cache.victim_input(config);
  t.victim_input += us_since(start);

  board.advance_time(8 * 3600 + 43 * 60);
  start = Clock::now();
  const vitis::VictimRun victim = runtime.launch(
      config.victim_uid, config.model_name, result.victim_input, "pts/1");
  t.launch += us_since(start);
  result.victim_top_class = victim.top_class;
  extras.victim_scores = victim.scores;

  dbg::SystemDebugger debugger{board, config.attacker_uid, config.acl};
  dbg::MemoryFirewall firewall{board, config.firewall};
  if (config.firewall != dbg::FirewallMode::kDisabled) {
    debugger.set_firewall(&firewall);
  }
  attack::AttackOrchestrator orchestrator{
      debugger, attack::SignatureDb::for_zoo(), std::move(profiles)};

  // The post-termination timeline of scenario.cpp's
  // apply_post_termination, with the scrubber and decay timed apart.
  auto post_termination = [&] {
    if (config.attack_delay_s <= 0.0) return;
    board.advance_time(static_cast<std::uint64_t>(config.attack_delay_s));
    if (config.scrubber_bytes_per_s > 0.0) {
      const auto s = Clock::now();
      os::ScrubberDaemon scrubber{board, config.scrubber_bytes_per_s};
      scrubber.run_for(config.attack_delay_s);
      t.scrubber += us_since(s);
    }
    if (config.power_cycled && !board.terminated().empty()) {
      const auto s = Clock::now();
      const dram::RemanenceModel remanence{dram::RemanenceParams{
          .refresh_active = false,
          .retention_half_life_s = config.retention_half_life_s}};
      util::Prng prng{config.system.seed ^ 0xDEC4FULL};
      dram::RemanenceScratch scratch;
      for (const dram::PhysAddr pa : board.terminated().back().heap_frames) {
        remanence.apply(board.dram(), pa, mem::kPageSize,
                        config.attack_delay_s, prng, scratch);
        extras.remanence_bytes += mem::kPageSize;
      }
      t.remanence += us_since(s);
    }
  };

  try {
    if (config.post_mortem_scan) {
      board.terminate(victim.pid);
      post_termination();
      const auto profile = orchestrator.profiles().find(config.model_name);
      const std::uint64_t heap_guess = profile ? profile->heap_bytes : 1 << 20;
      const std::uint64_t len =
          config.scan_bytes != 0 ? config.scan_bytes : heap_guess * 4;
      const dram::PhysAddr pool_base =
          mem::PageFrameAllocator::frame_to_phys(config.system.pool_first_pfn);
      start = Clock::now();
      result.report = orchestrator.attack_physical_scan(pool_base, len);
      t.after_termination += us_since(start);
    } else {
      start = Clock::now();
      const auto entry = orchestrator.find_victim(config.model_name);
      t.find_victim += us_since(start);
      if (!entry) {
        result.denied = true;
        result.denial_reason = "victim not visible in ps";
        return result;
      }
      start = Clock::now();
      const attack::ResolvedTarget target = orchestrator.resolve(entry->pid);
      t.resolve += us_since(start);
      board.advance_time(60);
      board.terminate(victim.pid);
      if (!orchestrator.victim_terminated(entry->pid)) {
        throw std::logic_error("replay: victim still alive after terminate");
      }
      post_termination();
      start = Clock::now();
      result.report = orchestrator.attack_after_termination(target);
      t.after_termination += us_since(start);
    }
  } catch (const dbg::DebuggerAccessDenied& e) {
    result.denied = true;
    result.denial_reason = e.what();
    return result;
  } catch (const os::PermissionError& e) {
    result.denied = true;
    result.denial_reason = e.what();
    return result;
  }

  start = Clock::now();
  result.model_identified_correctly =
      result.report.identified_model == config.model_name;
  if (result.report.reconstructed_image) {
    result.pixel_match = img::pixel_match_fraction(
        *result.report.reconstructed_image, result.victim_input);
    result.psnr =
        img::psnr_db(*result.report.reconstructed_image, result.victim_input);
  }
  if (result.report.descriptor_image) {
    result.descriptor_pixel_match = img::pixel_match_fraction(
        *result.report.descriptor_image, result.victim_input);
  }
  t.score += us_since(start);
  return result;
}

bool same_double(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_record(const persist::TrialRecord& a, const persist::TrialRecord& b) {
  return a.cell_index == b.cell_index && a.trial == b.trial &&
         a.denied == b.denied && a.model_identified == b.model_identified &&
         same_double(a.pixel_match, b.pixel_match) &&
         same_double(a.psnr, b.psnr) &&
         same_double(a.descriptor_pixel_match, b.descriptor_pixel_match) &&
         a.denial_reason == b.denial_reason;
}

bool same_stats(const campaign::CellStats& a, const campaign::CellStats& b) {
  return a.index == b.index && a.coords == b.coords && a.trials == b.trials &&
         a.full_successes == b.full_successes &&
         a.model_identified == b.model_identified && a.denials == b.denials &&
         same_double(a.mean_pixel_match, b.mean_pixel_match) &&
         same_double(a.mean_psnr_db, b.mean_psnr_db) &&
         same_double(a.mean_descriptor_pixel_match,
                     b.mean_descriptor_pixel_match) &&
         a.first_denial_reason == b.first_denial_reason;
}

/// Time sums of the launch breakdown: XModel::serialize, XModel::infer,
/// and Layer::forward summed by layer kind.
struct LaunchBreakdown {
  double serialize = 0, infer = 0, conv2d = 0, dense = 0, pool = 0;
  double conv2d_macs = 0;
  std::uint64_t launches = 0;
};

/// Re-runs the victim's model calls outside the trial timer: one
/// serialize (launch makes two today), one infer on the launch's own
/// preprocessed input, and the same network layer by layer. Returns
/// false when either result differs from what the launch produced.
bool break_down_launch(const vitis::XModel& model, const img::Image& input,
                       const std::vector<float>& launch_scores,
                       LaunchBreakdown& b) {
  auto start = Clock::now();
  const std::vector<std::uint8_t> blob = model.serialize();
  b.serialize += us_since(start);
  if (blob.empty()) return false;

  const vitis::Tensor tensor = vitis::tensor_from_image(img::resize_nearest(
      input, model.input_shape().w, model.input_shape().h));
  start = Clock::now();
  const std::vector<float> scores = model.infer(tensor);
  b.infer += us_since(start);

  vitis::Tensor t = tensor;
  for (const auto& layer : model.layers()) {
    const vitis::TensorShape in_shape = t.shape();
    start = Clock::now();
    t = layer->forward(t);
    const double dt = us_since(start);
    switch (layer->kind()) {
      case vitis::LayerKind::kConv2d: {
        b.conv2d += dt;
        const auto& conv = dynamic_cast<const vitis::Conv2d&>(*layer);
        const vitis::TensorShape out = layer->output_shape(in_shape);
        b.conv2d_macs += static_cast<double>(out.h) * out.w *
                         static_cast<double>(conv.weights().size());
        break;
      }
      case vitis::LayerKind::kDense:
        b.dense += dt;
        break;
      case vitis::LayerKind::kMaxPool2d:
      case vitis::LayerKind::kGlobalAvgPool:
        b.pool += dt;
        break;
    }
  }
  ++b.launches;
  return scores == launch_scores && vitis::softmax(t) == launch_scores;
}

int run_replay(Args& args) {
  const SweepGrid spec{args.need("--grid-from")};
  const unsigned trials = args.need_u32("--trials-per-cell");
  const std::string store_path = args.need("--store");
  args.finish();
  if (trials == 0) throw std::invalid_argument("--trials-per-cell must be > 0");

  const std::vector<campaign::CampaignCell> cells = spec.grid.build();
  const std::uint64_t salt = spec.source.trial_salt;
  // The replay and the score_cell reference each get their own cache:
  // sharing one would hand the reference the replay's memoized victim
  // inputs, which a real sweep (fresh input per trial) never sees.
  attack::ProfileCache cache;
  attack::ProfileCache ref_cache;

  // Warm-up, untimed except for the profile misses: every distinct
  // profile key is profiled once, and one score_cell trial per key fills
  // the victim-board pool and its runtime's XModel cache, so the replay
  // below measures the steady state the sweep spends its time in.
  std::vector<double> miss_ms;
  std::set<attack::ProfileKey> keys;
  for (const campaign::CampaignCell& cell : cells) {
    if (!keys.insert(attack::ProfileKey::from_config(cell.config)).second) {
      continue;
    }
    const auto start = Clock::now();
    (void)cache.get_or_profile(cell.config);
    miss_ms.push_back(us_since(start) / 1e3);
    for (attack::ProfileCache* c : {&cache, &ref_cache}) {
      (void)campaign::CampaignRunner::score_cell(cell, 1, salt, {}, c);
    }
  }

  std::map<std::string, vitis::XModel> models;
  fresh_store_path(store_path);
  persist::CampaignStore store{store_path, spec.manifest(trials),
                               persist::CampaignStore::Mode::kCreate};

  StageTimes stages;
  LaunchBreakdown launch;
  std::vector<double> trial_us;
  double traced_us = 0.0;
  double untraced_us = 0.0;
  double append_us = 0.0;
  double complete_us = 0.0;
  double remanence_bytes = 0.0;
  double scraped_bytes = 0.0;
  std::uint64_t mismatches = 0;

  for (const campaign::CampaignCell& cell : cells) {
    campaign::CellStats stats;
    stats.index = cell.index;
    stats.coords = cell.coords;
    std::vector<persist::TrialRecord> replayed;
    std::vector<std::pair<img::Image, std::vector<float>>> launched;
    for (unsigned trial = 0; trial < trials; ++trial) {
      // Per-trial reseeding, exactly as CampaignRunner::score_cell.
      attack::ScenarioConfig cfg = cell.config;
      if (trial > 0) {
        std::uint64_t stream = salt + trial +
                               (static_cast<std::uint64_t>(cell.index) << 32);
        cfg.system.seed ^= util::splitmix64(stream);
        cfg.image_seed ^= util::splitmix64(stream);
      }
      TrialExtras extras;
      const auto start = Clock::now();
      const attack::ScenarioResult result =
          replay_trial(cfg, cache, stages, extras);
      const double dt = us_since(start);
      trial_us.push_back(dt);
      traced_us += dt;
      remanence_bytes += static_cast<double>(extras.remanence_bytes);
      scraped_bytes += static_cast<double>(result.report.residue_bytes);

      replayed.push_back(
          persist::TrialRecord::from_result(cell.index, trial, result));
      const auto append_start = Clock::now();
      store.append_trial(replayed.back());
      append_us += us_since(append_start);
      stats.accumulate(result);
      launched.emplace_back(result.victim_input, std::move(extras.victim_scores));
    }
    stats.finalize();
    const auto complete_start = Clock::now();
    store.complete_cell(stats);
    complete_us += us_since(complete_start);

    // The reference: the runner's own per-cell loop.
    std::vector<persist::TrialRecord> reference;
    const auto start = Clock::now();
    const campaign::CellStats ref_stats = campaign::CampaignRunner::score_cell(
        cell, trials, salt,
        [&](std::uint32_t trial, const attack::ScenarioResult& r) {
          reference.push_back(
              persist::TrialRecord::from_result(cell.index, trial, r));
        },
        &ref_cache);
    untraced_us += us_since(start);
    for (unsigned i = 0; i < trials; ++i) {
      if (i >= reference.size() || !same_record(replayed[i], reference[i])) {
        ++mismatches;
      }
    }
    if (!same_stats(stats, ref_stats)) ++mismatches;

    // The launch breakdown runs after the cell, so its extra inference
    // passes do not disturb the cache state the timed trials see.
    const std::string& model_name = cell.config.model_name;
    auto it = models.find(model_name);
    if (it == models.end()) {
      it = models.emplace(model_name, vitis::make_zoo_model(model_name)).first;
    }
    for (const auto& [input, scores] : launched) {
      if (!break_down_launch(it->second, input, scores, launch)) ++mismatches;
    }
  }

  const double n = static_cast<double>(trial_us.size());
  const double launches = std::max<double>(1.0, launch.launches);
  JsonOut out;
  out.num("trials", n);
  out.num("cells", static_cast<double>(cells.size()));
  out.num("mismatches", static_cast<double>(mismatches));
  out.num("vitis.launch_us", stages.launch / n);
  out.num("vitis.infer_us", launch.infer / launches);
  out.num("vitis.serialize_us", launch.serialize / launches);
  out.num("vitis.conv2d_us", launch.conv2d / launches);
  out.num("vitis.dense_us", launch.dense / launches);
  out.num("vitis.pool_us", launch.pool / launches);
  out.num("vitis.conv2d_macs", launch.conv2d_macs / launches);
  out.num("vitis.conv2d_gmacs_per_s",
          launch.conv2d > 0 ? launch.conv2d_macs / launch.conv2d / 1e3 : 0.0);
  out.num("attack.profile_hit_us", stages.profile_hit / n);
  out.num("attack.profile_miss_ms", median(miss_ms));
  out.num("attack.board_acquire_us", stages.board_acquire / n);
  out.num("attack.find_victim_us", stages.find_victim / n);
  out.num("attack.resolve_us", stages.resolve / n);
  out.num("attack.after_termination_us", stages.after_termination / n);
  out.num("attack.scraped_bytes_per_trial", scraped_bytes / n);
  out.num("os.scrubber_us", stages.scrubber / n);
  out.num("dram.remanence_us", stages.remanence / n);
  out.num("dram.remanence_ns_per_byte",
          remanence_bytes > 0 ? stages.remanence * 1e3 / remanence_bytes : 0.0);
  out.num("img.score_us", stages.score / n);
  out.num("img.victim_input_us", stages.victim_input / n);
  out.num("campaign.trial_us_mean", traced_us / n);
  out.num("campaign.trial_us_p50", percentile(trial_us, 50));
  out.num("campaign.trial_us_p99", percentile(trial_us, 99));
  out.num("campaign.unattributed_share", 1.0 - stages.attributed() / traced_us);
  out.num("campaign.launch_share", stages.launch / traced_us);
  out.num("campaign.remanence_share", stages.remanence / traced_us);
  out.num("persist.append_trial_us", append_us / n);
  out.num("persist.complete_cell_us",
          complete_us / static_cast<double>(cells.size()));
  out.num("persist.bytes_written_per_trial",
          static_cast<double>(std::filesystem::file_size(store_path)) / n);
  out.num("trace.overhead_share", traced_us / untraced_us - 1.0);
  out.print();
  return mismatches == 0 ? 0 : 1;
}

// ---- query ----------------------------------------------------------------

std::uint64_t bytes_read_now() {
  return obs::counter("persist.log_bytes_read").value() +
         obs::counter("persist.segment_bytes_read").value();
}

int run_query(Args& args) {
  const std::string store_a = args.need("--store");
  const std::string store_b = args.need("--against");
  const std::string flat = args.need("--flat");
  const std::string scratch = args.need("--scratch");
  std::uint64_t seed = args.need_u64("--seed");
  const std::size_t queries = args.need_u64("--queries");
  campaign::GateSpec gate_spec;
  gate_spec.min_effect = std::stod(args.need("--min-effect"));
  args.finish();
  if (queries == 0) throw std::invalid_argument("--queries must be > 0");

  std::uint64_t mismatches = 0;
  std::vector<double> open_ms;
  std::vector<double> read_ms;
  std::uint64_t bytes_read = 0;
  std::vector<campaign::CellStats> cells;
  for (std::size_t q = 0; q < queries; ++q) {
    auto start = Clock::now();
    const persist::StoreReader reader{store_a};
    open_ms.push_back(us_since(start) / 1e3);
    if (cells.empty()) cells = reader.cells();
    if (cells.empty()) throw std::runtime_error("query: store has no cells");
    const campaign::CellStats& want =
        cells[util::splitmix64(seed) % cells.size()];
    const std::uint64_t before = bytes_read_now();
    start = Clock::now();
    const auto cell = reader.read_cell(want.coords);
    read_ms.push_back(us_since(start) / 1e3);
    bytes_read += bytes_read_now() - before;
    if (!cell || cell->trials.size() != reader.manifest().trials_per_cell ||
        !same_stats(cell->stats, want)) {
      ++mismatches;
    }
  }

  auto start = Clock::now();
  const persist::SweepData a = persist::load_sweep({store_a});
  const double load_ms = us_since(start) / 1e3;
  const persist::SweepData b = persist::load_sweep({store_b});

  start = Clock::now();
  const campaign::StatsReport stats_a = campaign::analyze_sweep(a);
  const double analyze_ms = us_since(start) / 1e3;
  const campaign::StatsReport stats_b = campaign::analyze_sweep(b);

  start = Clock::now();
  const campaign::DiffReport diff = campaign::diff_sweeps(stats_a, stats_b);
  const double diff_ms = us_since(start) / 1e3;

  start = Clock::now();
  const campaign::GateResult gate = campaign::evaluate_gate(
      diff, gate_spec,
      campaign::gate_seed(a.manifest.grid_fingerprint,
                          b.manifest.grid_fingerprint));
  const double gate_ms = us_since(start) / 1e3;
  if (gate.tripped()) ++mismatches;

  const campaign::SweepReport report = persist::merge_stores({store_a});
  start = Clock::now();
  const std::size_t emitted = report.to_csv().size() + report.to_json().size();
  const double emit_ms = us_since(start) / 1e3;
  if (emitted == 0) ++mismatches;

  fresh_store_path(scratch);
  std::filesystem::copy_file(flat, scratch);
  start = Clock::now();
  (void)persist::compact_store(scratch);
  const double compact_ms = us_since(start) / 1e3;
  fresh_store_path(scratch);

  JsonOut out;
  out.num("queries", static_cast<double>(queries));
  out.num("mismatches", static_cast<double>(mismatches));
  out.num("persist.open_ms", median(open_ms));
  out.num("persist.read_cell_ms", median(read_ms));
  out.num("persist.bytes_read_per_query",
          static_cast<double>(bytes_read) / static_cast<double>(queries));
  out.num("persist.load_sweep_ms", load_ms);
  out.num("persist.compact_ms", compact_ms);
  out.num("campaign.analyze_ms", analyze_ms);
  out.num("campaign.diff_ms", diff_ms);
  out.num("campaign.gate_ms", gate_ms);
  out.num("campaign.report_emit_ms", emit_ms);
  out.print();
  return mismatches == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s machine | gen-store | setup | replay | query "
                 "[--flag value]...\n",
                 argv[0]);
    return 2;
  }
  const std::string mode = argv[1];
  try {
    if (mode == "machine" && argc == 2) return run_machine();
    Args args{argc - 2, argv + 2};
    if (mode == "gen-store") return run_gen_store(args);
    if (mode == "setup") return run_setup(args);
    if (mode == "replay") return run_replay(args);
    if (mode == "query") return run_query(args);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: %s\n", mode.c_str(), e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s failed: %s\n", mode.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
  return 2;
}
