// Lease-based work-stealing over a shared store directory: the scheduler
// layer that turns N independent campaign_sweep processes into one
// cooperating sweep without a coordinator process.
//
// Each worker owns two append-only files in the directory:
//
//   <dir>/<worker>.lease   claim / renew / complete / reset records
//   <dir>/<worker>.store   its CampaignStore (trials + completed cells)
//
// Both use the CRC32-framed record format (record_io.h), so a SIGKILL
// tears at most one frame, and both open with a manifest record pinning
// the sweep identity — a worker joining with different axes, trials or
// salt is rejected the moment its log is scanned.
//
// The protocol is optimistic, not mutually exclusive: two workers CAN
// claim the same cell in a tight race. That is safe because every trial
// is a deterministic function of (cell, trial, salt) — duplicated work
// produces bit-identical stats, and merge_stores (through SweepWalk)
// deduplicates identical copies. The scheduler's job is to make duplicates rare
// (claims are advertised before work starts, scans are cheap and
// incremental) and crashes cheap (leases expire).
//
// Lease expiry is wall-clock-free: no timestamps are ever compared.
// A worker's liveness signal is its log GROWING — every claim, renewal
// (one per finished trial) and completion appends a record. A scanner
// counts its own scan rounds in which a peer's log gained no records;
// after `expiry_scans` such rounds the peer's open claims are treated as
// expired and may be stolen. Stealing an actually-alive-but-slow worker's
// cell wastes work but stays correct (identical duplicate, deduped at
// merge); the `expiry_scans x idle_backoff` product is the knob that
// makes it rare. A worker that restarts appends a reset record, which
// voids its previous life's open claims (its completions stand).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "campaign/cell_source.h"
#include "persist/campaign_store.h"
#include "persist/record_io.h"

namespace msa::persist {

/// One worker's state as reconstructed from its lease log.
struct WorkerLeaseState {
  std::uint64_t frames = 0;       ///< intact records parsed so far
  std::uint64_t valid_bytes = 0;  ///< resume offset for the next scan
  std::set<std::uint64_t> claimed;    ///< claimed, not completed, not reset
  std::set<std::uint64_t> completed;  ///< completion recorded
  /// Consecutive idle scan rounds with no new frames; compared against
  /// LeaseSchedulerOptions::expiry_scans to decide staleness.
  unsigned stale_scans = 0;
  bool manifest_checked = false;  ///< first record validated
};

/// Append-only writer for one worker's lease file. Reopening an existing
/// file (worker restart) chops the torn tail, validates the manifest,
/// reloads completions, forgets the previous life's claims and appends a
/// reset record so peers forget them too.
class LeaseLog {
 public:
  LeaseLog(const std::string& path, const StoreManifest& manifest);

  LeaseLog(const LeaseLog&) = delete;
  LeaseLog& operator=(const LeaseLog&) = delete;

  /// Each append is flushed immediately: peers poll this file.
  void claim(std::uint64_t cell_index);
  void renew(std::uint64_t cell_index);
  void complete(std::uint64_t cell_index);

  /// Completions recorded by this log across all its lives.
  [[nodiscard]] const std::set<std::uint64_t>& completed() const noexcept {
    return completed_;
  }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  /// Resume path, one record of the existing log at a time before the
  /// writer opens for append (as in CampaignStore): validates the
  /// manifest (the first record) and reloads completions.
  void visit_existing(const RecordView& rec);

  std::string path_;
  StoreManifest manifest_;
  std::set<std::uint64_t> completed_;
  bool manifest_on_disk_ = false;
  RecordWriter writer_;  // last: its resume scan calls visit_existing()
};

/// Decodes the manifest record a lease log opens with, without loading
/// the rest of the file — how a read-only observer (`campaign_sweep
/// progress`) discovers the sweep identity from a workers directory it
/// did not create. nullopt when the file is missing, empty, torn before
/// the manifest, or not a lease log at all.
[[nodiscard]] std::optional<StoreManifest> read_lease_manifest(
    const std::string& path);

/// Incremental poller over every "*.lease" file in a store directory.
/// Each refresh() re-lists the directory (new workers join mid-sweep),
/// reads only the bytes appended since the previous refresh, and updates
/// per-worker claim/completion sets. A tail that looked torn may heal on
/// the next refresh (the writer's append was simply in flight), which the
/// resume-at-last-intact-offset strategy handles for free.
class LeaseDirScanner {
 public:
  /// `skip` is this worker's own lease file name (its state is tracked
  /// in memory, not polled). Logs whose manifest disagrees with
  /// `manifest` make refresh() throw std::runtime_error.
  LeaseDirScanner(std::string dir, std::string skip, StoreManifest manifest);

  /// One scan round. `idle` marks rounds taken while waiting for
  /// stragglers: only those advance stale_scans, so rapid back-to-back
  /// scans during busy claiming never age a peer toward expiry.
  void refresh(bool idle);

  [[nodiscard]] const std::map<std::string, WorkerLeaseState>& workers()
      const noexcept {
    return workers_;
  }

  /// True when any peer recorded a completion for this cell.
  [[nodiscard]] bool completed_elsewhere(std::uint64_t cell_index) const;

 private:
  void scan_file(const std::string& name, const std::string& path, bool idle);

  std::string dir_;
  std::string skip_;
  StoreManifest manifest_;
  std::map<std::string, WorkerLeaseState> workers_;
};

struct LeaseSchedulerOptions {
  /// Idle scan rounds with zero new records from a peer before its open
  /// claims are treated as expired and may be stolen.
  unsigned expiry_scans = 8;
  /// Sleep between idle scan rounds while remaining cells are all leased
  /// to live peers. expiry_scans x idle_backoff is the silence a peer is
  /// granted before being presumed dead; keep it above one trial's
  /// duration (renewals land once per trial) to avoid duplicated work.
  std::chrono::milliseconds idle_backoff{25};
};

/// campaign::CellSource that leases cells from the shared directory: the
/// work-stealing alternative to GridBuilder::shard's static partition.
/// One instance per worker process; the runner's pool threads share it.
class LeaseScheduler final : public campaign::CellSource {
 public:
  /// `cells` is the FULL grid (global indices intact). `own_store`, when
  /// given, seeds the done-set with cells this worker already completed
  /// in a previous life and repairs lease-complete records a crash
  /// between store flush and lease append may have lost.
  LeaseScheduler(const std::string& dir, const std::string& worker_id,
                 std::vector<campaign::CampaignCell> cells,
                 const StoreManifest& manifest,
                 const CampaignStore* own_store = nullptr,
                 LeaseSchedulerOptions options = {});

  [[nodiscard]] std::size_t planned() const override;
  [[nodiscard]] std::optional<campaign::ClaimedCell> acquire() override;
  [[nodiscard]] bool commit(const campaign::ClaimedCell& claim,
                            const campaign::CellStats& stats,
                            const std::function<void()>& persist) override;
  void renew(const campaign::ClaimedCell& claim) override;
  void abort() override;

  struct Telemetry {
    std::uint64_t claims = 0;    ///< cells claimed (fresh + stolen)
    std::uint64_t steals = 0;    ///< claims of cells whose lease expired
    std::uint64_t forfeits = 0;  ///< completions discarded (lost the race)
    std::uint64_t scans = 0;     ///< directory scan rounds
  };
  [[nodiscard]] Telemetry telemetry() const;

  /// Canonical file names inside a store directory.
  [[nodiscard]] static std::string lease_path(const std::string& dir,
                                              const std::string& worker_id);
  [[nodiscard]] static std::string store_path(const std::string& dir,
                                              const std::string& worker_id);
  /// [A-Za-z0-9_-]+ — worker ids become file names.
  [[nodiscard]] static bool valid_worker_id(const std::string& worker_id);

 private:
  /// True when every grid cell is completed (peers, own, or store).
  [[nodiscard]] bool all_complete_locked() const;
  [[nodiscard]] bool is_completed_locked(std::uint64_t cell_index) const;

  mutable std::mutex mutex_;
  std::condition_variable wake_;  ///< abort() interrupts idle backoff
  std::vector<campaign::CampaignCell> cells_;
  std::map<std::uint64_t, std::size_t> index_to_pos_;
  LeaseSchedulerOptions options_;
  LeaseLog log_;
  LeaseDirScanner scanner_;
  std::set<std::uint64_t> own_inflight_;   ///< claimed here, uncommitted
  std::set<std::uint64_t> own_completed_;  ///< committed here or resumed
  /// Peers this scheduler has ever presumed expired — each first
  /// sighting bumps the lease.peer_expiries metric exactly once.
  std::set<std::string> expired_peers_;
  /// A single pool thread holds the "aging" token while idle-waiting:
  /// only ITS scan rounds advance peers' stale_scans, so the expiry
  /// window stays expiry_scans x idle_backoff regardless of how many
  /// threads this worker's runner parks in acquire() (N threads polling
  /// must not presume a peer dead N times sooner).
  bool idle_ager_active_ = false;
  std::size_t rotation_ = 0;  ///< claim-order offset, spreads workers out
  std::size_t next_slot_ = 0;
  std::size_t planned_ = 0;
  bool aborted_ = false;
  Telemetry telemetry_;
};

}  // namespace msa::persist
