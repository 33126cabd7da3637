#include "attack/profile_cache.h"

#include <utility>

#include "attack/profiler.h"
#include "mem/frame_allocator.h"
#include "obs/metrics.h"

namespace msa::attack {

namespace {

obs::Counter& hits_metric() {
  static obs::Counter& c = obs::counter("cache.profile_hits");
  return c;
}
obs::Counter& misses_metric() {
  static obs::Counter& c = obs::counter("cache.profile_misses");
  return c;
}
obs::Counter& built_metric() {
  static obs::Counter& c = obs::counter("cache.twin_boards_built");
  return c;
}
obs::Counter& reused_metric() {
  static obs::Counter& c = obs::counter("cache.twin_boards_reused");
  return c;
}
obs::Counter& victim_built_metric() {
  static obs::Counter& c = obs::counter("cache.victim_boards_built");
  return c;
}
obs::Counter& victim_reused_metric() {
  static obs::Counter& c = obs::counter("cache.victim_boards_reused");
  return c;
}
}  // namespace

TwinBoardKey TwinBoardKey::from_config(const ScenarioConfig& config) {
  const os::SystemConfig& sys = config.system;
  TwinBoardKey key;
  key.board_name = sys.board.board_name;
  key.dram_base = sys.board.base;
  key.dram_size = sys.board.size;
  key.dram_page_size = sys.board.page_size;
  key.pool_first_pfn = sys.pool_first_pfn;
  key.pool_frames = sys.pool_frames;
  key.placement = sys.placement;
  key.heap_va_base = sys.heap_va_base;
  key.heap_va_aslr = sys.heap_va_aslr;
  key.attacker_uid = config.attacker_uid;
  return key;
}

ProfileKey ProfileKey::from_config(const ScenarioConfig& config) {
  ProfileKey key;
  key.board = TwinBoardKey::from_config(config);
  key.model_name = config.model_name;
  key.image_width = config.image_width;
  key.image_height = config.image_height;
  return key;
}

TwinBoardPool::Board::Board(const os::SystemConfig& twin, os::Uid attacker_uid)
    : system{twin},
      runtime{system},
      debugger{system, attacker_uid,
               dbg::DebuggerAcl{dbg::AclMode::kUnrestricted}} {
  system.add_user(attacker_uid, "attacker");
}

std::unique_ptr<TwinBoardPool::Board> TwinBoardPool::acquire(
    const ScenarioConfig& config) {
  {
    const std::lock_guard lock{mutex_};
    const auto it = idle_.find(TwinBoardKey::from_config(config));
    if (it != idle_.end() && !it->second.empty()) {
      std::unique_ptr<Board> board = std::move(it->second.back());
      it->second.pop_back();
      reused_metric().add();
      return board;
    }
  }
  // Build outside the lock: distinct-key misses construct concurrently.
  auto board = std::make_unique<Board>(twin_system_config(config),
                                       config.attacker_uid);
  built_metric().add();
  return board;
}

void TwinBoardPool::release(const ScenarioConfig& config,
                            std::unique_ptr<Board> board) {
  // Zero the residue the profile run left behind so the next profile on
  // this board sees the same all-zero free memory a fresh board would
  // (alignment gaps inside a future heap are never written, so stale
  // bytes there would otherwise leak into the scrape). Whole-page zeroes
  // drop the sparse DRAM blocks, so a parked board stays small.
  mem::PageFrameAllocator& alloc = board->system.allocator();
  for (const mem::Pfn pfn : alloc.dirty_free_frames()) {
    board->system.dram().zero_range(mem::PageFrameAllocator::frame_to_phys(pfn),
                                    mem::PageFrameAllocator::kPageSize);
  }
  const std::lock_guard lock{mutex_};
  idle_[TwinBoardKey::from_config(config)].push_back(std::move(board));
}

VictimBoardKey VictimBoardKey::from_config(const ScenarioConfig& config) {
  const os::SystemConfig& sys = config.system;
  VictimBoardKey key;
  key.board_name = sys.board.board_name;
  key.dram_base = sys.board.base;
  key.dram_size = sys.board.size;
  key.pool_first_pfn = sys.pool_first_pfn;
  key.pool_frames = sys.pool_frames;
  return key;
}

std::unique_ptr<VictimBoardPool::Board> VictimBoardPool::acquire(
    const ScenarioConfig& config) {
  std::unique_ptr<Board> board;
  {
    const std::lock_guard lock{mutex_};
    const auto it = idle_.find(VictimBoardKey::from_config(config));
    if (it != idle_.end() && !it->second.empty()) {
      board = std::move(it->second.back());
      it->second.pop_back();
    }
  }
  if (board) {
    // Reboot outside the lock; this reapplies every config field the
    // bucket key leaves out (seed, placement, sanitize, clock, ...).
    board->system.reset(config.system);
    victim_reused_metric().add();
    return board;
  }
  board = std::make_unique<Board>(config.system);
  victim_built_metric().add();
  return board;
}

void VictimBoardPool::release(const ScenarioConfig& config,
                              std::unique_ptr<Board> board) {
  const std::lock_guard lock{mutex_};
  idle_[VictimBoardKey::from_config(config)].push_back(std::move(board));
}

std::shared_ptr<const img::Image> ProfileCache::victim_input(
    const ScenarioConfig& config) const {
  return std::make_shared<const img::Image>(make_victim_input(config));
}

ModelProfile ProfileCache::get_or_profile(const ScenarioConfig& config) {
  std::shared_ptr<Entry> entry;
  {
    const std::lock_guard lock{mutex_};
    std::shared_ptr<Entry>& slot = entries_[ProfileKey::from_config(config)];
    if (!slot) slot = std::make_shared<Entry>();
    entry = slot;
  }

  std::unique_lock lock{entry->mutex};
  if (!entry->claimed) {
    // This thread profiles the key; the once-latch (claimed) guarantees
    // no other thread ever will, even after we drop the entry lock.
    entry->claimed = true;
    lock.unlock();
    misses_metric().add();

    ModelProfile profile;
    std::exception_ptr error;
    std::unique_ptr<TwinBoardPool::Board> board;
    try {
      board = pool_.acquire(config);
      OfflineProfiler profiler{board->runtime, board->debugger};
      profile = profiler.profile_model(config.model_name, config.image_width,
                                       config.image_height,
                                       config.attacker_uid);
    } catch (...) {
      error = std::current_exception();
      board.reset();  // a half-profiled board is not reusable
    }
    if (board) pool_.release(config, std::move(board));

    lock.lock();
    entry->profile = std::move(profile);
    entry->error = error;
    entry->ready = true;
    entry->ready_cv.notify_all();
    if (error) std::rethrow_exception(error);
    return entry->profile;
  }

  // Hit: either already published or in flight on another thread.
  entry->ready_cv.wait(lock, [&] { return entry->ready; });
  hits_metric().add();
  if (entry->error) std::rethrow_exception(entry->error);
  return entry->profile;
}

std::size_t ProfileCache::size() const {
  const std::lock_guard lock{mutex_};
  return entries_.size();
}

}  // namespace msa::attack
