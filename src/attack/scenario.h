// End-to-end attack scenario driver: builds a board, profiles offline on
// an attacker-controlled twin board, runs the victim, executes the attack,
// and scores the outcome against ground truth. This is the single entry
// point the tests, benchmarks, examples, and the defense evaluator all
// share, so every number in EXPERIMENTS.md comes from the same code path.
#pragma once

#include <optional>
#include <string>

#include "attack/orchestrator.h"
#include "dbg/debugger.h"
#include "dbg/memory_firewall.h"
#include "img/image.h"
#include "os/system.h"
#include "vitis/runtime.h"

namespace msa::attack {

/// Pixel-match threshold above which a reconstruction counts as exact.
/// The paper's "full success" criterion is is_full_success() below; this
/// constant and helper are THE definition — the scenario result, the
/// campaign stats engine, and the defense evaluator all call it, so the
/// predicate cannot drift between layers.
inline constexpr double kFullSuccessPixelMatch = 0.999;

/// Full success: the model was identified AND the reconstructed input is
/// pixel-exact (match above kFullSuccessPixelMatch).
[[nodiscard]] constexpr bool is_full_success(bool model_identified,
                                             double pixel_match) noexcept {
  return model_identified && pixel_match > kFullSuccessPixelMatch;
}

struct ScenarioConfig {
  /// Victim-board configuration (the defense knobs live here).
  os::SystemConfig system = os::SystemConfig::zcu104();
  /// Debugger ACL on the victim board (kUnrestricted = the vulnerability).
  dbg::DebuggerAcl acl{};
  /// Physical-access firewall on the devmem path (kDisabled = PetaLinux).
  dbg::FirewallMode firewall = dbg::FirewallMode::kDisabled;

  std::string model_name = "resnet50_pt";
  std::uint32_t image_width = 96;
  std::uint32_t image_height = 96;
  std::uint64_t image_seed = 7;

  /// Corrupt the input to 0xFFFFFF like the paper's Fig. 4 experiment.
  bool corrupt_image = false;
  double corrupt_fraction = 1.0;

  /// true: the attacker misses the live window and falls back to a raw
  /// physical sweep of the allocator pool (tests the placement-
  /// randomization defense).
  bool post_mortem_scan = false;
  /// Bytes to sweep in post-mortem mode (0 = 4x the profiled heap size).
  std::uint64_t scan_bytes = 0;

  // ---- post-termination timeline -----------------------------------------
  /// Simulated seconds between the victim's exit and the scrape. The
  /// paper's attacker reacts immediately (0); defenses below act during
  /// this window.
  double attack_delay_s = 0.0;
  /// Background scrubber-daemon throughput (bytes of freed-dirty frames
  /// zeroed per simulated second); 0 disables the daemon.
  double scrubber_bytes_per_s = 0.0;
  /// If true, DRAM refresh is interrupted for the whole delay (board
  /// power-cycle between victim and attacker): cells decay.
  bool power_cycled = false;
  double retention_half_life_s = 2.0;

  os::Uid victim_uid = 1000;
  os::Uid attacker_uid = 1001;
};

struct ScenarioResult {
  AttackReport report;
  img::Image victim_input;            ///< ground-truth input
  std::size_t victim_top_class = 0;   ///< ground-truth inference output

  bool denied = false;                ///< a defense blocked an attack step
  std::string denial_reason;

  bool model_identified_correctly = false;
  double pixel_match = 0.0;           ///< profiled reconstruction vs truth
  double psnr = 0.0;
  /// Profile-free (DPU-descriptor) reconstruction quality vs truth.
  double descriptor_pixel_match = 0.0;

  [[nodiscard]] bool full_success() const noexcept {
    return is_full_success(model_identified_correctly, pixel_match);
  }
};

class ProfileCache;

/// Runs the complete scenario. Never throws on defense interference —
/// blocked steps surface as denied/denial_reason; infrastructure faults
/// (bugs) still throw. The offline phase is served from (and populates)
/// `profiles`, and the victim board comes from its pool; a fresh cache
/// profiles on a new twin board and builds a new victim board, and a
/// reused one gives the same result byte for byte (pinned by the
/// profile-cache and campaign tests).
[[nodiscard]] ScenarioResult run_scenario(const ScenarioConfig& config,
                                          ProfileCache& profiles);
/// run_scenario on a fresh ProfileCache of its own.
[[nodiscard]] ScenarioResult run_scenario(const ScenarioConfig& config);

/// The attacker's own board derived from `config`: identical hardware and
/// layout policy, but none of the victim's defensive policies apply (the
/// attacker configures their board to be fully observable).
[[nodiscard]] os::SystemConfig twin_system_config(const ScenarioConfig& config);

/// Profiles `model_name` on a fresh attacker-controlled board with the
/// given placement policy (the rest of the config is forced vulnerable —
/// the attacker owns that board). Shared by run_scenario and the examples.
[[nodiscard]] ModelProfile profile_on_twin_board(const ScenarioConfig& config);

/// The victim's ground-truth input for this config: the deterministic test
/// image, optionally corrupted per the corrupt knobs. Pure in
/// (image_width, image_height, image_seed, corrupt_image, corrupt_fraction).
[[nodiscard]] img::Image make_victim_input(const ScenarioConfig& config);

}  // namespace msa::attack
