#include "mem/frame_allocator.h"

#include <algorithm>
#include <stdexcept>

namespace msa::mem {

PageFrameAllocator::PageFrameAllocator(dram::DramModel& dram,
                                       FrameAllocatorConfig config)
    : dram_{dram}, config_{config}, prng_{config.seed} {
  validate(config_);
  frames_.assign(config_.frame_count, FrameInfo{});
  free_list_.reserve(config_.frame_count);
  refill_free_list();
}

void PageFrameAllocator::validate(const FrameAllocatorConfig& config) const {
  if (config.frame_count == 0) {
    throw std::invalid_argument("PageFrameAllocator: empty pool");
  }
  const dram::PhysAddr pool_start = frame_to_phys(config.first_pfn);
  const dram::PhysAddr pool_end =
      frame_to_phys(config.first_pfn + config.frame_count);
  if (!dram_.config().contains(pool_start, pool_end - pool_start)) {
    throw std::invalid_argument("PageFrameAllocator: pool outside DRAM window");
  }
}

void PageFrameAllocator::refill_free_list() {
  // A fresh list holds the pool in descending PFN order (entry p is
  // first_pfn + frame_count - 1 - p), so LIFO pop_back hands out
  // ascending PFNs first — the deterministic low-to-high layout the
  // paper's profiling step relies on.
  for (std::uint64_t i = config_.frame_count - free_list_.size(); i-- > 0;) {
    free_list_.push_back(config_.first_pfn + i);
  }
  pristine_prefix_ = free_list_.size();
}

void PageFrameAllocator::reset(FrameAllocatorConfig config) {
  validate(config);
  if (config.first_pfn == config_.first_pfn &&
      config.frame_count == config_.frame_count) {
    for (const std::size_t i : touched_) frames_[i] = FrameInfo{};
    free_list_.resize(pristine_prefix_);
  } else {
    frames_.assign(config.frame_count, FrameInfo{});
    free_list_.clear();
    free_list_.reserve(config.frame_count);
  }
  touched_.clear();
  config_ = config;
  prng_ = util::Prng{config.seed};
  stats_ = {};
  refill_free_list();
}

std::size_t PageFrameAllocator::index_of(Pfn pfn) const {
  if (pfn < config_.first_pfn || pfn >= config_.first_pfn + config_.frame_count) {
    throw std::out_of_range("PageFrameAllocator: pfn outside pool");
  }
  return static_cast<std::size_t>(pfn - config_.first_pfn);
}

void PageFrameAllocator::scrub(Pfn pfn) {
  dram_.zero_range(frame_to_phys(pfn), kPageSize);
  ++stats_.frames_scrubbed;
  stats_.bytes_scrubbed += kPageSize;
}

std::optional<Pfn> PageFrameAllocator::allocate(std::int64_t owner_pid) {
  if (owner_pid == 0) {
    throw std::invalid_argument("PageFrameAllocator: owner pid 0 marks a free frame");
  }
  if (free_list_.empty()) return std::nullopt;

  Pfn pfn;
  switch (config_.placement) {
    case PlacementPolicy::kSequentialLifo:
      pfn = free_list_.back();
      free_list_.pop_back();
      break;
    case PlacementPolicy::kSequentialFifo:
      // The free list is kept in push order; take from the oldest end.
      // O(n) erase is fine at simulation scale. It shifts every entry.
      pfn = free_list_.front();
      free_list_.erase(free_list_.begin());
      pristine_prefix_ = 0;
      break;
    case PlacementPolicy::kRandomized: {
      const std::size_t i =
          static_cast<std::size_t>(prng_.below(free_list_.size()));
      pfn = free_list_[i];
      free_list_[i] = free_list_.back();
      free_list_.pop_back();
      pristine_prefix_ = std::min(pristine_prefix_, i);
      break;
    }
    default:
      throw std::logic_error("PageFrameAllocator: unknown placement policy");
  }
  // free() pushes past the end, so entries below the shortest length the
  // list has had since refill_free_list() are still fresh.
  pristine_prefix_ = std::min(pristine_prefix_, free_list_.size());

  const std::size_t index = index_of(pfn);
  auto& fi = frames_[index];
  if (!fi.ever_used) touched_.push_back(index);
  const bool dirty = fi.ever_used &&
                     dram_.any_nonzero(frame_to_phys(pfn), kPageSize);
  if (dirty) ++stats_.dirty_reuses;
  if (config_.sanitize == SanitizePolicy::kZeroOnAlloc && fi.ever_used) {
    scrub(pfn);
  }
  fi.owner_pid = owner_pid;
  fi.ever_used = true;
  ++stats_.allocations;
  return pfn;
}

void PageFrameAllocator::free(Pfn pfn) {
  auto& fi = frames_[index_of(pfn)];
  if (fi.owner_pid == 0) {
    throw std::logic_error("PageFrameAllocator: double free of frame");
  }
  fi.last_owner = fi.owner_pid;
  fi.owner_pid = 0;
  if (config_.sanitize == SanitizePolicy::kZeroOnFree) {
    scrub(pfn);
  }
  free_list_.push_back(pfn);
  ++stats_.frees;
}

const FrameInfo& PageFrameAllocator::info(Pfn pfn) const {
  return frames_[index_of(pfn)];
}

std::vector<Pfn> PageFrameAllocator::dirty_free_frames() const {
  // Previously used frames are exactly the touched ones, and a free frame
  // is one with no owner: walk those rather than the whole free list.
  // Ascending PFN order is the scrubber's work order, so a budget short
  // of the backlog always zeroes the same frames.
  std::vector<Pfn> out;
  for (const std::size_t i : touched_) {
    const Pfn pfn = config_.first_pfn + i;
    if (frames_[i].owner_pid == 0 &&
        dram_.any_nonzero(frame_to_phys(pfn), kPageSize)) {
      out.push_back(pfn);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace msa::mem
