#include "campaign/runner.h"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "persist/campaign_store.h"
#include "util/monotime.h"
#include "util/parallel.h"
#include "util/prng.h"

namespace msa::campaign {

namespace {

// Pool metrics (obs/metrics.h references are stable for the process).
// Updates are relaxed atomics plus two clock reads per cell — nothing
// here feeds back into results, so reports stay byte-identical whether
// anyone reads the registry or not.
obs::Counter& cells_metric() {
  static obs::Counter& c = obs::counter("campaign.cells");
  return c;
}
obs::Counter& trials_metric() {
  static obs::Counter& c = obs::counter("campaign.trials");
  return c;
}
obs::Histogram& queue_wait_metric() {
  static obs::Histogram& h = obs::histogram("campaign.queue_wait_ns");
  return h;
}
obs::Histogram& cell_duration_metric() {
  static obs::Histogram& h = obs::histogram("campaign.cell_ns");
  return h;
}

}  // namespace

CampaignRunner::CampaignRunner(CampaignOptions options)
    : threads_{options.threads != 0 ? options.threads : util::cpu_count()},
      options_{std::move(options)} {
  pool_.reserve(threads_);
  try {
    for (unsigned i = 0; i < threads_; ++i) {
      pool_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    // Partial spawn (std::system_error on resource exhaustion): the
    // destructor won't run, so join the threads that did start before
    // letting the exception escape.
    {
      const std::lock_guard lock{mutex_};
      stopping_ = true;
    }
    work_cv_.notify_all();
    for (auto& t : pool_) t.join();
    throw;
  }
}

CampaignRunner::~CampaignRunner() {
  {
    const std::lock_guard lock{mutex_};
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : pool_) t.join();
}

CellStats CampaignRunner::score_cell(const CampaignCell& cell, unsigned trials,
                                     std::uint64_t trial_salt,
                                     const TrialHook& on_trial,
                                     attack::ProfileCache* profiles) {
  if (profiles == nullptr) {
    throw std::invalid_argument("score_cell: null profile cache");
  }
  CellStats stats;
  stats.index = cell.index;
  stats.coords = cell.coords;

  for (unsigned trial = 0; trial < trials; ++trial) {
    TRACE_SPAN("campaign", "trial");
    trials_metric().add();
    attack::ScenarioConfig cfg = cell.config;
    if (trial > 0) {
      // Fresh board layout and input per trial, derived only from
      // (cell, trial, salt) so any thread may run it.
      std::uint64_t stream = trial_salt + trial +
                             (static_cast<std::uint64_t>(cell.index) << 32);
      cfg.system.seed ^= util::splitmix64(stream);
      cfg.image_seed ^= util::splitmix64(stream);
    }
    const attack::ScenarioResult result = attack::run_scenario(cfg, *profiles);
    TRACE_SPAN("campaign", "record");
    if (on_trial) on_trial(trial, result);
    stats.accumulate(result);
  }
  stats.finalize();
  return stats;
}

SweepReport CampaignRunner::run(const GridBuilder& grid) {
  return run(grid.build());
}

SweepReport CampaignRunner::run(const GridBuilder& grid,
                                persist::CampaignStore& store,
                                std::size_t max_new_cells) {
  return run(grid.build(), store, max_new_cells);
}

SweepReport CampaignRunner::run(const std::vector<CampaignCell>& cells) {
  SweepReport report;
  StaticCellSource source{cells};
  report.cells = execute(source, nullptr);
  return report;
}

SweepReport CampaignRunner::run(CellSource& source) {
  SweepReport report;
  report.cells = execute(source, nullptr);
  std::sort(report.cells.begin(), report.cells.end(),
            [](const CellStats& a, const CellStats& b) {
              return a.index < b.index;
            });
  return report;
}

SweepReport CampaignRunner::run(CellSource& source,
                                persist::CampaignStore& store) {
  const persist::StoreManifest& manifest = store.manifest();
  if (manifest.trials_per_cell != options_.trials_per_cell ||
      manifest.trial_salt != options_.trial_salt) {
    throw std::invalid_argument(
        "campaign: store was written with different trials/salt than this "
        "runner");
  }
  SweepReport report;
  report.cells = execute(source, &store);
  std::sort(report.cells.begin(), report.cells.end(),
            [](const CellStats& a, const CellStats& b) {
              return a.index < b.index;
            });
  return report;
}

SweepReport CampaignRunner::run(const std::vector<CampaignCell>& cells,
                                persist::CampaignStore& store,
                                std::size_t max_new_cells) {
  const persist::StoreManifest& manifest = store.manifest();
  if (manifest.trials_per_cell != options_.trials_per_cell ||
      manifest.trial_salt != options_.trial_salt) {
    throw std::invalid_argument(
        "campaign: store was written with different trials/salt than this "
        "runner");
  }

  SweepReport report;
  report.cells.resize(cells.size());
  std::vector<CampaignCell> pending;
  std::vector<std::size_t> pending_pos;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CampaignCell& cell = cells[i];
    if (cell.index >= manifest.grid_cells ||
        cell.index % manifest.shard_count != manifest.shard_index) {
      throw std::invalid_argument(
          "campaign: cell " + std::to_string(cell.index) +
          " does not belong to store shard " +
          std::to_string(manifest.shard_index) + "/" +
          std::to_string(manifest.shard_count));
    }
    if (const CellStats* done = store.completed_stats(cell.index)) {
      report.cells[i] = *done;  // resume: skip, reuse the stored bytes
    } else {
      pending.push_back(cell);
      pending_pos.push_back(i);
    }
  }
  if (max_new_cells != 0 && pending.size() > max_new_cells) {
    pending.resize(max_new_cells);
    pending_pos.resize(max_new_cells);
  }

  StaticCellSource source{pending};
  std::vector<CellStats> stats = execute(source, &store);
  for (std::size_t j = 0; j < stats.size(); ++j) {
    report.cells[pending_pos[j]] = std::move(stats[j]);
  }
  return report;
}

std::vector<CellStats> CampaignRunner::execute(CellSource& source,
                                               persist::CampaignStore* store) {
  std::vector<CellStats> stats;
  stats.resize(source.planned());

  {
    const std::lock_guard lock{mutex_};
    batch_source_ = &source;
    batch_stats_ = &stats;
    batch_store_ = store;
    batch_total_ = source.planned();
    batch_slots_used_ = 0;
    cells_done_ = 0;
    participants_ = 0;
    source_drained_ = false;
    batch_error_ = nullptr;
    ++batch_generation_;
  }
  work_cv_.notify_all();

  {
    std::unique_lock lock{mutex_};
    done_cv_.wait(lock,
                  [this] { return source_drained_ && participants_ == 0; });
    batch_source_ = nullptr;
    batch_stats_ = nullptr;
    batch_store_ = nullptr;
    if (batch_error_) std::rethrow_exception(batch_error_);
  }
  // A dynamic source may hand out fewer cells than planned (peers took
  // the rest); drop the never-claimed tail slots. batch_slots_used_ is
  // exact — every placement recorded its slot under the lock.
  stats.resize(batch_slots_used_);
  return stats;
}

void CampaignRunner::worker_loop() {
  std::uint64_t seen_generation = 0;
  while (true) {
    std::unique_lock lock{mutex_};
    work_cv_.wait(lock, [&] {
      return stopping_ ||
             (batch_generation_ != seen_generation && batch_source_ != nullptr);
    });
    if (stopping_) return;
    seen_generation = batch_generation_;
    CellSource* source = batch_source_;
    persist::CampaignStore* store = batch_store_;
    ++participants_;
    lock.unlock();

    while (true) {
      std::optional<ClaimedCell> claim;
      CellStats stats;
      std::exception_ptr error;
      try {
        {
          // Queue wait: how long this thread sat inside the source —
          // instant on a static batch, scan/backoff time on a lease.
          TRACE_SPAN("campaign", "acquire");
          const std::uint64_t wait_start = util::monotonic_ns();
          // May block on a dynamic source (lease endgame); abort() — from
          // an error elsewhere or the destructor path — unblocks it.
          claim = source->acquire();
          queue_wait_metric().record(util::monotonic_ns() - wait_start);
        }
        if (claim.has_value()) {
          TRACE_SPAN("campaign", "cell");
          const std::uint64_t cell_start = util::monotonic_ns();
          const CampaignCell& cell = claim->cell;
          // Stream every trial as it finishes (a store I/O failure
          // aborts the batch like any other infrastructure error) and
          // keep the source's lease fresh between trials.
          stats = score_cell(
              cell, options_.trials_per_cell, options_.trial_salt,
              [&](std::uint32_t trial, const attack::ScenarioResult& result) {
                if (store != nullptr) {
                  store->append_trial(persist::TrialRecord::from_result(
                      cell.index, trial, result));
                }
                source->renew(*claim);
              },
              &profile_cache_);
          // The source arbitrates ownership; the persist callback runs
          // between the decision and the source's own completion record
          // so durable stats always precede the "done" marker. A false
          // return means the cell was re-completed elsewhere after our
          // lease expired — the stale stats must not reach the store.
          (void)source->commit(*claim, stats, [&] {
            if (store != nullptr) store->complete_cell(stats);
          });
          cell_duration_metric().record(util::monotonic_ns() - cell_start);
          cells_metric().add();
        }
      } catch (...) {
        error = std::current_exception();
      }

      if (error) {
        {
          const std::lock_guard relock{mutex_};
          if (!batch_error_) batch_error_ = error;
        }
        source->abort();  // drain every other participant's acquire()
        lock.lock();
        break;
      }
      if (!claim.has_value()) {
        lock.lock();
        break;
      }

      lock.lock();
      if (batch_stats_->size() <= claim->slot) {
        batch_stats_->resize(claim->slot + 1);
      }
      (*batch_stats_)[claim->slot] = std::move(stats);
      batch_slots_used_ = std::max(batch_slots_used_, claim->slot + 1);
      ++cells_done_;
      if (options_.on_cell_done) {
        // Invoke the hook outside the pool lock (a slow hook must not
        // stall cell claiming); hook_mutex_ keeps invocations
        // serialized. A throwing hook must not escape the worker
        // thread (std::terminate) — surface it like a cell error.
        const std::size_t done = cells_done_;
        const std::size_t total = batch_total_;
        lock.unlock();
        std::exception_ptr hook_error;
        try {
          const std::lock_guard hook_lock{hook_mutex_};
          options_.on_cell_done(done, total);
        } catch (...) {
          hook_error = std::current_exception();
        }
        lock.lock();
        if (hook_error) {
          if (!batch_error_) batch_error_ = hook_error;
          lock.unlock();
          source->abort();
          lock.lock();
          break;
        }
      }
      lock.unlock();
    }

    // Participant exit: either the source drained for us or we aborted;
    // both mean we will claim nothing more from this batch.
    source_drained_ = true;
    --participants_;
    if (participants_ == 0) done_cv_.notify_all();
  }
}

}  // namespace msa::campaign
