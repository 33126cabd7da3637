// Parallel campaign engine: fans a grid of scenario configs out over
// run_scenario on an internal thread pool and aggregates per-cell stats.
//
// Determinism contract: the report produced by run() is byte-identical
// for any thread count, because
//   * cells are scored independently (the runner's shared ProfileCache
//     hands every trial the profile and the rebooted board a fresh one
//     would build; util::Log, the one process-wide global, is
//     thread-safe and not part of the result),
//   * each trial's seeds derive only from (cell, trial index), and
//   * per-cell accumulation happens serially in trial order on whichever
//     worker owns the cell, with results stored by cell index.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "attack/profile_cache.h"
#include "campaign/cell_source.h"
#include "campaign/grid.h"
#include "campaign/report.h"

namespace msa::persist {
class CampaignStore;
}

namespace msa::campaign {

struct CampaignOptions {
  /// Worker threads; 0 = util::cpu_count(), the CPUs the process may run
  /// on.
  unsigned threads = 0;
  /// Independent scenario runs per cell. Trial 0 runs the cell's config
  /// verbatim; later trials re-seed the board and input image.
  unsigned trials_per_cell = 1;
  /// Salt folded into the per-trial reseeding (vary to get a fresh
  /// family of trials over the same grid).
  std::uint64_t trial_salt = 0xca3face0ULL;
  /// Optional progress hook, invoked after each finished cell with
  /// (cells_done, cells_total). Called from worker threads, serialized
  /// by a dedicated mutex (outside the pool lock, so a slow hook does
  /// not stall workers — consecutive counts may arrive out of order
  /// under contention). If it throws, the sweep is aborted and the
  /// exception rethrown from run().
  std::function<void(std::size_t, std::size_t)> on_cell_done;
};

/// Owns a pool of worker threads for its whole lifetime; run() may be
/// called repeatedly (e.g. one sweep per defense family) without
/// re-spawning threads. Not itself thread-safe: call run() from one
/// thread at a time.
class CampaignRunner {
 public:
  explicit CampaignRunner(CampaignOptions options = {});
  ~CampaignRunner();

  CampaignRunner(const CampaignRunner&) = delete;
  CampaignRunner& operator=(const CampaignRunner&) = delete;

  [[nodiscard]] unsigned thread_count() const noexcept { return threads_; }

  /// Scores every cell (trials_per_cell runs each) and returns the
  /// aggregate report, cells in grid order. Infrastructure exceptions
  /// from run_scenario abort the sweep and rethrow; defense denials are
  /// data, not errors.
  [[nodiscard]] SweepReport run(const std::vector<CampaignCell>& cells);
  [[nodiscard]] SweepReport run(const GridBuilder& grid);

  /// Scores whatever `source` hands out — the scheduler-agnostic entry
  /// point the vector/grid overloads route through (they wrap the cells
  /// in a StaticCellSource). With a dynamic source (persist::
  /// LeaseScheduler) the cells scored and their order depend on the race
  /// with other workers, so the returned report is sorted by global cell
  /// index; it covers the cells THIS worker scored, and with a store the
  /// committed ones are durable — the cross-worker report comes from
  /// persist::merge_stores, byte-identical to a single-process
  /// run. Trial records stream into `store` as they finish; a cell's
  /// aggregate is persisted only when the source confirms this worker
  /// owns the completion (exactly-once against lease reclaims).
  [[nodiscard]] SweepReport run(CellSource& source);
  [[nodiscard]] SweepReport run(CellSource& source,
                                persist::CampaignStore& store);

  /// Durable, resumable run. Cells already complete in `store` are NOT
  /// re-scored: their stats are loaded from the store (bit-exact, so the
  /// final report matches an uninterrupted run byte for byte). Each
  /// remaining cell streams one trial record per finished trial into the
  /// store and is marked complete (durably flushed) when its last trial
  /// lands. `max_new_cells` > 0 caps how many previously-incomplete cells
  /// this call scores — the cell-budget used to bound one process's slice
  /// of work (and to simulate crashes in tests); cells skipped by the
  /// budget are left default-initialized (trials == 0) in the returned
  /// report, and store.completed_count() tells the caller whether the
  /// sweep is finished. The progress hook sees (done, total) over the
  /// cells actually scored this call. Throws std::invalid_argument when
  /// the store manifest disagrees with this runner's trials/salt or a
  /// cell falls outside the store's shard.
  [[nodiscard]] SweepReport run(const std::vector<CampaignCell>& cells,
                                persist::CampaignStore& store,
                                std::size_t max_new_cells = 0);
  [[nodiscard]] SweepReport run(const GridBuilder& grid,
                                persist::CampaignStore& store,
                                std::size_t max_new_cells = 0);

  /// Per-trial observer: (trial index, that trial's result).
  using TrialHook =
      std::function<void(std::uint32_t, const attack::ScenarioResult&)>;

  /// Scores one cell exactly as a pool worker would — the unit the
  /// determinism tests pin down. `on_trial`, when set, observes every
  /// trial in order (the store streaming path); every trial runs through
  /// `profiles` (run_scenario's cache). Throws std::invalid_argument for
  /// a null `profiles`.
  [[nodiscard]] static CellStats score_cell(const CampaignCell& cell,
                                            unsigned trials,
                                            std::uint64_t trial_salt,
                                            const TrialHook& on_trial,
                                            attack::ProfileCache* profiles);

 private:
  /// Pool execution over `source` into a stats vector indexed by claim
  /// slot; persists per-trial/per-cell records when `store` is non-null.
  [[nodiscard]] std::vector<CellStats> execute(CellSource& source,
                                               persist::CampaignStore* store);

  void worker_loop();

  unsigned threads_;
  CampaignOptions options_;
  /// Shared across all cells and trials; lives as long as the runner so
  /// back-to-back sweeps reuse profiles and boards.
  attack::ProfileCache profile_cache_;
  std::vector<std::thread> pool_;

  // Pool state, guarded by mutex_. A "batch" is one run() call; workers
  // pull cells from batch_source_ until it drains. The batch is done when
  // the source has drained AND every worker that joined it has left its
  // claim loop (participants_ == 0) — execute() must not return, and
  // destroy the source, while a worker is still blocked inside
  // acquire(). Workers that never woke for the batch never join it, so
  // they cannot stall the drain.
  std::mutex mutex_;
  std::mutex hook_mutex_;             ///< serializes on_cell_done only
  std::condition_variable work_cv_;   ///< wakes workers for a new batch
  std::condition_variable done_cv_;   ///< wakes run() when a batch drains
  bool stopping_ = false;
  std::uint64_t batch_generation_ = 0;
  std::size_t batch_total_ = 0;       ///< source->planned(), hook totals
  std::size_t batch_slots_used_ = 0;  ///< max placed slot + 1 (exact trim)
  std::size_t cells_done_ = 0;
  std::size_t participants_ = 0;      ///< workers inside the claim loop
  bool source_drained_ = false;       ///< some worker saw acquire()==nullopt
  CellSource* batch_source_ = nullptr;
  std::vector<CellStats>* batch_stats_ = nullptr;
  persist::CampaignStore* batch_store_ = nullptr;
  std::exception_ptr batch_error_;
};

}  // namespace msa::campaign
