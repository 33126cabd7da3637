// Physical page-frame allocator for the board's local DRAM.
//
// This is where the paper's first vulnerability lives: PetaLinux returns a
// terminated process's frames to the free pool *without clearing them*,
// and hands dirty frames to the next requester. The allocator makes every
// relevant knob an explicit policy:
//
//   SanitizePolicy::kNone        — the vulnerable PetaLinux behaviour.
//   SanitizePolicy::kZeroOnFree  — defense: scrub when frames are released.
//   SanitizePolicy::kZeroOnAlloc — defense: scrub before frames are reused
//                                  (residue persists in DRAM while free!).
//
//   PlacementPolicy::kSequentialLifo — deterministic layout (paper's
//                                      setting; enables offline profiling).
//   PlacementPolicy::kSequentialFifo — deterministic, delays reuse.
//   PlacementPolicy::kRandomized     — physical-layout randomization
//                                      (the paper's §VI defense #3).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "dram/dram_model.h"
#include "util/prng.h"

namespace msa::mem {

using Pfn = std::uint64_t;  ///< page frame number (physical addr >> 12)

enum class SanitizePolicy { kNone, kZeroOnFree, kZeroOnAlloc };
enum class PlacementPolicy { kSequentialLifo, kSequentialFifo, kRandomized };

struct FrameAllocatorConfig {
  Pfn first_pfn = 0;             ///< first allocatable frame
  std::uint64_t frame_count = 0; ///< number of allocatable frames
  SanitizePolicy sanitize = SanitizePolicy::kNone;
  PlacementPolicy placement = PlacementPolicy::kSequentialLifo;
  std::uint64_t seed = 1;        ///< PRNG seed for kRandomized
};

struct FrameAllocatorStats {
  std::uint64_t allocations = 0;
  std::uint64_t frees = 0;
  std::uint64_t dirty_reuses = 0;   ///< frames handed out still holding data
  std::uint64_t frames_scrubbed = 0;
  std::uint64_t bytes_scrubbed = 0;
};

/// Per-frame bookkeeping visible to forensics tooling and tests.
struct FrameInfo {
  std::int64_t owner_pid = 0;   ///< 0 = free
  std::int64_t last_owner = 0;  ///< pid that most recently dirtied it
  bool ever_used = false;
};

class PageFrameAllocator {
 public:
  static constexpr std::uint32_t kPageSize = 4096;
  static constexpr std::uint32_t kPageShift = 12;

  /// The allocator scrubs through `dram` when a sanitize policy demands
  /// it; the reference must outlive the allocator.
  PageFrameAllocator(dram::DramModel& dram, FrameAllocatorConfig config);

  /// Reinitializes in place to exactly the state a freshly constructed
  /// allocator over the same DRAM would have (frame table, free-list
  /// order, PRNG, stats), reusing vector storage — the board-pooling
  /// fast path. With the pool's first_pfn and frame_count unchanged it
  /// costs O(frames allocated since the last reset) under LIFO placement;
  /// FIFO and randomized placement disturb the free list's head, so they
  /// may rebuild it in full.
  void reset(FrameAllocatorConfig config);

  [[nodiscard]] const FrameAllocatorConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const FrameAllocatorStats& stats() const noexcept { return stats_; }

  /// Allocates one frame for `owner_pid`, which must be nonzero (0 marks
  /// a free frame; throws std::invalid_argument). Returns std::nullopt
  /// when the pool is exhausted.
  [[nodiscard]] std::optional<Pfn> allocate(std::int64_t owner_pid);

  /// Releases a frame. Precondition: currently allocated. Applies the
  /// free-time sanitize policy.
  void free(Pfn pfn);

  /// Frame metadata (owner tracking); throws std::out_of_range for frames
  /// outside the pool.
  [[nodiscard]] const FrameInfo& info(Pfn pfn) const;

  [[nodiscard]] std::uint64_t free_frames() const noexcept {
    return free_list_.size();
  }
  [[nodiscard]] std::uint64_t used_frames() const noexcept {
    return config_.frame_count - free_list_.size();
  }

  /// All frames currently free but previously used (i.e. carrying residue
  /// if sanitize policy is kNone), ascending. Forensics/defense-evaluation
  /// helper; costs O(frames allocated since the last reset).
  [[nodiscard]] std::vector<Pfn> dirty_free_frames() const;

  [[nodiscard]] static dram::PhysAddr frame_to_phys(Pfn pfn) noexcept {
    return static_cast<dram::PhysAddr>(pfn) << kPageShift;
  }
  [[nodiscard]] static Pfn phys_to_frame(dram::PhysAddr addr) noexcept {
    return addr >> kPageShift;
  }

 private:
  /// Throws std::invalid_argument unless `config`'s pool is nonempty and
  /// inside the DRAM window.
  void validate(const FrameAllocatorConfig& config) const;
  /// Appends a fresh free list's entries past the current size.
  void refill_free_list();
  [[nodiscard]] std::size_t index_of(Pfn pfn) const;
  void scrub(Pfn pfn);

  dram::DramModel& dram_;
  FrameAllocatorConfig config_;
  std::vector<Pfn> free_list_;     // back = next LIFO candidate
  std::vector<FrameInfo> frames_;  // indexed by pfn - first_pfn
  // What reset() must undo: the frames_ indices that left FrameInfo{}
  // (each frame allocated since the last reset, once), and how many
  // leading free_list_ entries still hold their fresh values.
  std::vector<std::size_t> touched_;
  std::size_t pristine_prefix_ = 0;
  util::Prng prng_;
  FrameAllocatorStats stats_;
};

}  // namespace msa::mem
