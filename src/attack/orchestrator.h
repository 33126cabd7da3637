// AttackOrchestrator: the paper's automated end-to-end attack ("Our code
// written in python automates the full attack process"), as a library.
//
// Staged API mirrors the four-step methodology so examples/benches can
// interleave victim activity between steps, plus a one-call
// attack_after_termination() that runs Steps 3-4 once the victim is gone.
#pragma once

#include <optional>
#include <string>

#include "attack/address_resolver.h"
#include "attack/pid_poller.h"
#include "attack/profiler.h"
#include "attack/reconstructor.h"
#include "attack/scraper.h"
#include "attack/signature_db.h"

namespace msa::attack {

struct AttackReport {
  os::Pid victim_pid = 0;
  /// Step-4.a string identification result ("" = unidentified).
  std::string identified_model;
  std::size_t signature_hits = 0;
  /// Deep (container-parse) identification, when a full xmodel survived.
  std::optional<DeepMatch> deep_match;
  /// Step-4.b reconstruction (nullopt if no profile or residue gone).
  std::optional<img::Image> reconstructed_image;
  /// Profile-free reconstruction via a surviving DPU descriptor
  /// (extension; see attack/descriptor_scan.h).
  std::optional<img::Image> descriptor_image;
  /// The victim's inference output recovered via the descriptor.
  std::optional<std::vector<float>> recovered_scores;
  /// Operational counters.
  std::uint64_t devmem_reads = 0;
  std::uint64_t residue_bytes = 0;
  std::uint64_t pages_unmapped = 0;
  /// Human-readable step-by-step transcript (figure-style artifacts).
  std::string transcript;

  [[nodiscard]] bool model_identified() const noexcept {
    return !identified_model.empty();
  }
  [[nodiscard]] bool image_recovered() const noexcept {
    return reconstructed_image.has_value();
  }
};

class AttackOrchestrator {
 public:
  AttackOrchestrator(dbg::SystemDebugger& debugger, SignatureDb signatures,
                     ProfileDb profiles);

  /// Step 1: poll for the victim (by command substring, e.g. "resnet50").
  [[nodiscard]] std::optional<PsEntry> find_victim(std::string_view cmd_substring);

  /// Step 2: resolve the victim's heap while it is alive.
  [[nodiscard]] ResolvedTarget resolve(os::Pid pid);

  /// Step 3 guard: has the victim's pid disappeared from ps?
  [[nodiscard]] bool victim_terminated(os::Pid pid);

  /// Steps 3 + 4 against a previously resolved target. Call only after
  /// victim_terminated() is true (the paper polls until then).
  [[nodiscard]] AttackReport attack_after_termination(const ResolvedTarget& target);

  /// Post-mortem fallback: raw physical sweep + analysis, for when the
  /// live window was missed. Requires profiles for reconstruction.
  [[nodiscard]] AttackReport attack_physical_scan(dram::PhysAddr base,
                                                  std::uint64_t len);

  [[nodiscard]] const ProfileDb& profiles() const noexcept { return profiles_; }

 private:
  AttackReport analyze(ScrapedDump dump);
  /// Step 4a on scraped bytes: one signature scan names the model and
  /// counts its hits, then the deep container probe runs.
  void identify(AttackReport& report, std::span<const std::uint8_t> bytes) const;

  dbg::SystemDebugger& debugger_;
  SignatureDb signatures_;
  ProfileDb profiles_;
  PidPoller poller_;
};

}  // namespace msa::attack
