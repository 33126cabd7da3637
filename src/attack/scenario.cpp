#include "attack/scenario.h"

#include <memory>
#include <optional>
#include <stdexcept>

#include "attack/profile_cache.h"
#include "dram/remanence.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "os/scrubber.h"
#include "util/log.h"

namespace msa::attack {

namespace {

/// Applies the configured post-termination timeline: the background
/// scrubber works through the freed-dirty backlog and, if the board was
/// power-cycled, unrefreshed cells decay — both for `attack_delay_s`
/// simulated seconds before the scrape happens.
void apply_post_termination(os::PetaLinuxSystem& board,
                            const ScenarioConfig& cfg) {
  if (cfg.attack_delay_s <= 0.0) return;
  TRACE_SPAN("trial", "residue_decay");
  board.advance_time(static_cast<std::uint64_t>(cfg.attack_delay_s));

  if (cfg.scrubber_bytes_per_s > 0.0) {
    os::ScrubberDaemon scrubber{board, cfg.scrubber_bytes_per_s};
    scrubber.run_for(cfg.attack_delay_s);
  }

  if (cfg.power_cycled && !board.terminated().empty()) {
    const dram::RemanenceModel remanence{dram::RemanenceParams{
        .refresh_active = false,
        .retention_half_life_s = cfg.retention_half_life_s}};
    util::Prng prng{cfg.system.seed ^ 0xDEC4FULL};
    // Decay acts on the whole board; applying it to the victim's former
    // frames covers everything the scrape will read. One scratch across
    // the loop keeps the bulk-generated PRNG words flowing page to page;
    // the prng is local and drawn from nowhere else, so the batched
    // overload's run-ahead is unobservable.
    dram::RemanenceScratch scratch;
    for (const dram::PhysAddr pa : board.terminated().back().heap_frames) {
      remanence.apply(board.dram(), pa, mem::kPageSize, cfg.attack_delay_s,
                      prng, scratch);
    }
  }
}

}  // namespace

os::SystemConfig twin_system_config(const ScenarioConfig& config) {
  os::SystemConfig twin = config.system;
  twin.sanitize = mem::SanitizePolicy::kNone;
  twin.proc_access = os::ProcAccessPolicy::kWorldReadable;
  return twin;
}

img::Image make_victim_input(const ScenarioConfig& config) {
  img::Image input = img::make_test_image(config.image_width,
                                          config.image_height,
                                          config.image_seed);
  if (config.corrupt_image) {
    input.fill_region(img::kCorruptPixel, config.corrupt_fraction);
  }
  return input;
}

ModelProfile profile_on_twin_board(const ScenarioConfig& config) {
  os::PetaLinuxSystem board{twin_system_config(config)};
  board.add_user(config.attacker_uid, "attacker");
  vitis::VitisAiRuntime runtime{board};
  dbg::SystemDebugger dbg{board, config.attacker_uid,
                          dbg::DebuggerAcl{dbg::AclMode::kUnrestricted}};
  OfflineProfiler profiler{runtime, dbg};
  return profiler.profile_model(config.model_name, config.image_width,
                                config.image_height, config.attacker_uid);
}

ScenarioResult run_scenario(const ScenarioConfig& config) {
  return run_scenario(config, nullptr);
}

ScenarioResult run_scenario(const ScenarioConfig& config,
                            ProfileCache* profile_cache) {
  ScenarioResult result;
  obs::counter("trial.runs").add();

  // ---- offline phase (attacker's twin board) -----------------------------
  ProfileDb profiles;
  {
    TRACE_SPAN("trial", "profile");
    profiles.add(profile_cache != nullptr
                     ? profile_cache->get_or_profile(config)
                     : profile_on_twin_board(config));
  }

  // ---- victim board -------------------------------------------------------
  // Campaign runs (profile_cache set) draw the board from the shared pool:
  // acquire() reboots a parked board to the exact state the fresh
  // construction below would produce, reusing its DRAM-block, frame-table
  // and XModel-cache storage across trials.
  std::unique_ptr<VictimBoardPool::Board> pooled;
  std::optional<os::PetaLinuxSystem> local_board;
  std::optional<vitis::VitisAiRuntime> local_runtime;
  {
    TRACE_SPAN("trial", "board_acquire");
    if (profile_cache != nullptr) {
      pooled = profile_cache->victim_boards().acquire(config);
    } else {
      local_board.emplace(config.system);
      local_runtime.emplace(*local_board);
    }
  }
  os::PetaLinuxSystem& board = pooled ? pooled->system : *local_board;
  vitis::VitisAiRuntime& runtime = pooled ? pooled->runtime : *local_runtime;
  // Park the pooled board on every exit path — early denial returns and
  // exceptions included. Any parked state is fine; acquire() reboots.
  struct ParkBoard {
    ProfileCache* cache;
    const ScenarioConfig& config;
    std::unique_ptr<VictimBoardPool::Board>& board;
    ~ParkBoard() {
      if (board) cache->victim_boards().release(config, std::move(board));
    }
  } park{profile_cache, config, pooled};

  board.add_user(config.victim_uid, "victim");
  board.add_user(config.attacker_uid, "attacker");

  {
    TRACE_SPAN("trial", "victim_input");
    result.victim_input = profile_cache != nullptr
                              ? *profile_cache->victim_input(config)
                              : make_victim_input(config);
  }

  board.advance_time(8 * 3600 + 43 * 60);  // paper: victim starts at 12:33
  const vitis::VictimRun victim = [&] {
    TRACE_SPAN("trial", "launch");
    return runtime.launch(config.victim_uid, config.model_name,
                          result.victim_input, "pts/1");
  }();
  result.victim_top_class = victim.top_class;

  // ---- attack --------------------------------------------------------------
  dbg::SystemDebugger debugger{board, config.attacker_uid, config.acl};
  dbg::MemoryFirewall firewall{board, config.firewall};
  if (config.firewall != dbg::FirewallMode::kDisabled) {
    debugger.set_firewall(&firewall);
  }
  AttackOrchestrator orchestrator{debugger, SignatureDb::for_zoo(),
                                  std::move(profiles)};

  try {
    if (config.post_mortem_scan) {
      // The attacker never saw the live process; the victim terminates,
      // then the pool is swept.
      {
        TRACE_SPAN("trial", "terminate");
        board.terminate(victim.pid);
      }
      apply_post_termination(board, config);
      const auto profile = orchestrator.profiles().find(config.model_name);
      const std::uint64_t heap_guess = profile ? profile->heap_bytes : 1 << 20;
      const std::uint64_t len =
          config.scan_bytes != 0 ? config.scan_bytes : heap_guess * 4;
      const dram::PhysAddr pool_base =
          mem::PageFrameAllocator::frame_to_phys(config.system.pool_first_pfn);
      result.report = orchestrator.attack_physical_scan(pool_base, len);
    } else {
      // Step 1: poll for the victim.
      const auto entry = orchestrator.find_victim(config.model_name);
      if (!entry) {
        result.denied = true;
        result.denial_reason = "victim not visible in ps";
        obs::counter("trial.denials").add();
        return result;
      }
      // Step 2: resolve while alive.
      const ResolvedTarget target = orchestrator.resolve(entry->pid);
      // Victim finishes and exits.
      {
        TRACE_SPAN("trial", "terminate");
        board.advance_time(60);
        board.terminate(victim.pid);
        if (!orchestrator.victim_terminated(entry->pid)) {
          throw std::logic_error("scenario: victim still alive after terminate");
        }
      }
      apply_post_termination(board, config);
      // Steps 3-4.
      result.report = orchestrator.attack_after_termination(target);
    }
  } catch (const dbg::DebuggerAccessDenied& e) {
    result.denied = true;
    result.denial_reason = e.what();
    obs::counter("trial.denials").add();
    return result;
  } catch (const os::PermissionError& e) {
    result.denied = true;
    result.denial_reason = e.what();
    obs::counter("trial.denials").add();
    return result;
  }

  // ---- scoring ---------------------------------------------------------------
  TRACE_SPAN("trial", "score");
  result.model_identified_correctly =
      result.report.identified_model == config.model_name;
  if (result.report.reconstructed_image) {
    {
      TRACE_SPAN("trial", "score/pixel_match");
      result.pixel_match =
          img::pixel_match_fraction(*result.report.reconstructed_image,
                                    result.victim_input);
    }
    {
      TRACE_SPAN("trial", "score/psnr");
      result.psnr =
          img::psnr_db(*result.report.reconstructed_image, result.victim_input);
    }
  }
  if (result.report.descriptor_image) {
    TRACE_SPAN("trial", "score/pixel_match");
    result.descriptor_pixel_match = img::pixel_match_fraction(
        *result.report.descriptor_image, result.victim_input);
  }
  return result;
}

}  // namespace msa::attack
