// Cross-cell profile cache + shared twin-board pool.
//
// Offline profiling is pure in (model, image geometry, layout policy):
// the attacker's twin board is deterministic, and the profile records
// only heap-relative offsets, so re-running OfflineProfiler for every
// trial of a campaign repeats identical work. ProfileCache memoizes
// profiles under a key of exactly the knobs that can change the result;
// notably the board seed is NOT part of the key — the scrape reassembles
// the heap in VA order, so physical placement and heap-base randomization
// cannot alter the profiled offsets (pinned by the cache tests).
//
// Concurrency contract (the campaign determinism contract depends on it):
//   * per-key once-latch — when N workers miss the same key at once,
//     exactly one profiles; the rest block and reuse its result, so
//     misses == distinct keys and hits == lookups - misses for any
//     thread count and schedule;
//   * a profiling failure is cached and rethrown to every waiter and to
//     every later lookup of the key, matching the uncached behaviour of
//     profile_on_twin_board throwing on each call.
//
// TwinBoardPool amortizes the other half of the offline phase: building
// the attacker's os::PetaLinuxSystem (frame tables, runtime, debugger)
// per profile. Boards are parked per board-key after use and scrubbed
// (dirty free frames zeroed) on release so a reused board is
// byte-equivalent to a fresh one for the next profile; a board whose
// profile threw is discarded instead of parked.
// Cache observability lives on the obs metrics registry: the counters
// cache.profile_hits / cache.profile_misses / cache.twin_boards_built /
// cache.twin_boards_reused aggregate process-wide; one sweep's share is
// the delta between snapshots taken around it.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "attack/scenario.h"
#include "dbg/debugger.h"
#include "os/system.h"
#include "vitis/runtime.h"

namespace msa::attack {

/// Identity of an attacker twin board: every SystemConfig field that can
/// change board behaviour, except the seed and boot time (profiles are
/// invariant to both — see file comment).
struct TwinBoardKey {
  std::string board_name;
  dram::PhysAddr dram_base = 0;
  std::uint64_t dram_size = 0;
  std::uint32_t dram_page_size = 0;
  mem::Pfn pool_first_pfn = 0;
  std::uint64_t pool_frames = 0;
  mem::PlacementPolicy placement = mem::PlacementPolicy::kSequentialLifo;
  mem::VirtAddr heap_va_base = 0;
  bool heap_va_aslr = false;
  os::Uid attacker_uid = 0;

  [[nodiscard]] static TwinBoardKey from_config(const ScenarioConfig& config);
  auto operator<=>(const TwinBoardKey&) const = default;
};

/// Cache key: the twin board identity plus what the profiler is asked to
/// profile on it.
struct ProfileKey {
  TwinBoardKey board;
  std::string model_name;
  std::uint32_t image_width = 0;
  std::uint32_t image_height = 0;

  [[nodiscard]] static ProfileKey from_config(const ScenarioConfig& config);
  auto operator<=>(const ProfileKey&) const = default;
};

/// Pool of ready-to-profile attacker boards, keyed by TwinBoardKey so
/// cache misses for distinct models on the same board shape reuse one
/// another's boards while misses on different shapes (e.g. randomized vs
/// sequential placement) never share state.
class TwinBoardPool {
 public:
  struct Board {
    os::PetaLinuxSystem system;
    vitis::VitisAiRuntime runtime;
    dbg::SystemDebugger debugger;

    Board(const os::SystemConfig& twin, os::Uid attacker_uid);
  };

  /// Reuses an idle board for this config's twin shape, or builds one.
  [[nodiscard]] std::unique_ptr<Board> acquire(const ScenarioConfig& config);

  /// Scrubs the board's residue (zeroing dirty free frames, which also
  /// releases their sparse DRAM blocks) and parks it for reuse. Only
  /// boards whose profile completed cleanly may be released; drop the
  /// pointer instead after an exception.
  void release(const ScenarioConfig& config, std::unique_ptr<Board> board);

 private:
  std::mutex mutex_;
  std::map<TwinBoardKey, std::vector<std::unique_ptr<Board>>> idle_;
};

/// Bucket identity for pooled victim boards: only the shape fields that
/// size the board's tables (DRAM window + frame pool). Everything else —
/// seed, placement, sanitize, clock — is reapplied by
/// PetaLinuxSystem::reset() on acquire, so a stale-state reuse is
/// impossible; bucketing merely keeps storage reuse on same-sized
/// boards.
struct VictimBoardKey {
  std::string board_name;
  dram::PhysAddr dram_base = 0;
  std::uint64_t dram_size = 0;
  mem::Pfn pool_first_pfn = 0;
  std::uint64_t pool_frames = 0;

  [[nodiscard]] static VictimBoardKey from_config(const ScenarioConfig& config);
  auto operator<=>(const VictimBoardKey&) const = default;
};

/// Pool of victim boards for run_scenario: the dominant per-trial
/// allocations (sparse DRAM block map, frame table, free list) are
/// reused across trials, and keeping the VitisAiRuntime alongside its
/// board keeps the deserialized XModel cache warm across trials too.
/// Unlike TwinBoardPool there is no scrub-on-release contract: acquire()
/// reboots the board via reset(), which reproduces a fresh construction
/// byte for byte, so boards may be parked in any state.
class VictimBoardPool {
 public:
  struct Board {
    os::PetaLinuxSystem system;
    vitis::VitisAiRuntime runtime;

    explicit Board(const os::SystemConfig& config)
        : system{config}, runtime{system} {}
  };

  /// Returns a board in exactly the state `PetaLinuxSystem{config.system}`
  /// would construct (per-trial seeding included), reusing a parked
  /// board's storage when the shape matches.
  [[nodiscard]] std::unique_ptr<Board> acquire(const ScenarioConfig& config);

  /// Parks the board for reuse, in whatever state the trial left it.
  void release(const ScenarioConfig& config, std::unique_ptr<Board> board);

 private:
  std::mutex mutex_;
  std::map<VictimBoardKey, std::vector<std::unique_ptr<Board>>> idle_;
};

/// Thread-safe memo of profile_on_twin_board. One instance is shared
/// across every cell and trial of a campaign sweep; it also carries the
/// victim-board pool, so everything the runner shares across trials
/// lives behind one reference.
class ProfileCache {
 public:
  /// Returns the profile for this config's key, profiling it on a pooled
  /// twin board on first use. Rethrows a cached profiling failure on
  /// every lookup of the failed key.
  [[nodiscard]] ModelProfile get_or_profile(const ScenarioConfig& config);

  /// make_victim_input(config) behind a shared pointer, for the
  /// benchmark's trial replay, which rebuilds run_scenario stage by stage
  /// (run_scenario calls make_victim_input itself).
  [[nodiscard]] std::shared_ptr<const img::Image> victim_input(
      const ScenarioConfig& config) const;

  /// Pooled victim-board allocations shared across trials.
  [[nodiscard]] VictimBoardPool& victim_boards() noexcept {
    return victim_pool_;
  }

  /// Distinct keys ever looked up (including failed ones).
  [[nodiscard]] std::size_t size() const;

 private:
  struct Entry {
    std::mutex mutex;
    std::condition_variable ready_cv;
    bool claimed = false;  ///< a thread is (or was) profiling this key
    bool ready = false;    ///< profile or error is published
    ModelProfile profile;
    std::exception_ptr error;
  };

  TwinBoardPool pool_;
  VictimBoardPool victim_pool_;
  mutable std::mutex mutex_;
  std::map<ProfileKey, std::shared_ptr<Entry>> entries_;
};

}  // namespace msa::attack
