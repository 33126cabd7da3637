#include "persist/lease_log.h"

#include <filesystem>
#include <stdexcept>

#include "obs/metrics.h"
#include "util/bytes.h"
#include "util/prng.h"

namespace msa::persist {

namespace {

// Scheduler metrics, registered once (obs/metrics.h returns stable
// references). These mirror LeaseScheduler::Telemetry but aggregate
// process-wide and add the idle/expiry signals the in-struct counters
// never carried.
obs::Counter& claims_metric() {
  static obs::Counter& c = obs::counter("lease.claims");
  return c;
}
obs::Counter& renews_metric() {
  static obs::Counter& c = obs::counter("lease.renews");
  return c;
}
obs::Counter& steals_metric() {
  static obs::Counter& c = obs::counter("lease.steals");
  return c;
}
obs::Counter& forfeits_metric() {
  static obs::Counter& c = obs::counter("lease.forfeits");
  return c;
}
obs::Counter& scans_metric() {
  static obs::Counter& c = obs::counter("lease.scans");
  return c;
}
obs::Counter& idle_sleeps_metric() {
  static obs::Counter& c = obs::counter("lease.idle_sleeps");
  return c;
}
obs::Counter& peer_expiries_metric() {
  static obs::Counter& c = obs::counter("lease.peer_expiries");
  return c;
}

// Lease-log record types. Deliberately disjoint from the campaign-store
// types (1..4) so a lease file can never be misread as a store:
// StoreReader skips these as unknown and then fails its "no manifest"
// check.
constexpr std::uint8_t kRecLeaseManifest = 17;
constexpr std::uint8_t kRecLeaseClaim = 18;
constexpr std::uint8_t kRecLeaseRenew = 19;
constexpr std::uint8_t kRecLeaseComplete = 20;
constexpr std::uint8_t kRecLeaseReset = 21;

std::vector<std::uint8_t> encode_cell_index(std::uint64_t cell_index) {
  util::ByteWriter w;
  w.varint(cell_index);
  return w.take();
}

std::uint64_t decode_cell_index(std::span<const std::uint8_t> payload) {
  util::ByteReader r{payload};
  return r.varint();
}

/// Validates the worker id, makes sure the directory exists, and returns
/// the lease-log path — runs in the LeaseScheduler init list, before the
/// LeaseLog member opens the file.
std::string prepare_lease_path(const std::string& dir,
                               const std::string& worker_id) {
  if (!LeaseScheduler::valid_worker_id(worker_id)) {
    throw std::invalid_argument(
        "persist: worker id must be [A-Za-z0-9_-]+ (it names files): '" +
        worker_id + "'");
  }
  std::filesystem::create_directories(dir);
  return LeaseScheduler::lease_path(dir, worker_id);
}

}  // namespace

// ---------------------------------------------------------------- LeaseLog

LeaseLog::LeaseLog(const std::string& path, const StoreManifest& manifest)
    : path_{path},
      manifest_{manifest},
      writer_{path, [this](const RecordView& rec) { visit_existing(rec); }} {
  if (!manifest_on_disk_) {
    writer_.append(kRecLeaseManifest, encode_store_manifest(manifest_));
  } else {
    // Worker restart: the previous life's unfinished claims are void;
    // peers drop them when they see the reset.
    writer_.append(kRecLeaseReset, {});
  }
  writer_.flush();
}

void LeaseLog::visit_existing(const RecordView& rec) {
  if (rec.type == kRecLeaseManifest) {
    const StoreManifest on_disk = decode_store_manifest(rec.payload);
    if (!(on_disk == manifest_)) {
      throw std::runtime_error(
          "persist: lease log belongs to a different sweep (" +
          describe_manifest_mismatch(on_disk, manifest_) + "): " + path_);
    }
    manifest_on_disk_ = true;
  } else if (!manifest_on_disk_) {
    throw std::runtime_error("persist: lease log has no manifest record: " +
                             path_);
  } else if (rec.type == kRecLeaseComplete) {
    completed_.insert(decode_cell_index(rec.payload));
  }
  // Claims and renews of the previous life are voided by the reset.
}

void LeaseLog::claim(std::uint64_t cell_index) {
  writer_.append(kRecLeaseClaim, encode_cell_index(cell_index));
  writer_.flush();
}

void LeaseLog::renew(std::uint64_t cell_index) {
  writer_.append(kRecLeaseRenew, encode_cell_index(cell_index));
  writer_.flush();
}

void LeaseLog::complete(std::uint64_t cell_index) {
  writer_.append(kRecLeaseComplete, encode_cell_index(cell_index));
  writer_.flush();
  completed_.insert(cell_index);
}

std::optional<StoreManifest> read_lease_manifest(const std::string& path) {
  try {
    const std::optional<Record> rec =
        RecordFile{path}.read_at(kRecordMagic.size());
    if (!rec.has_value() || rec->type != kRecLeaseManifest) return std::nullopt;
    return decode_store_manifest(rec->payload);
  } catch (const std::exception&) {
    return std::nullopt;  // missing, bad magic, unreadable, bad manifest
  }
}

// --------------------------------------------------------- LeaseDirScanner

LeaseDirScanner::LeaseDirScanner(std::string dir, std::string skip,
                                 StoreManifest manifest)
    : dir_{std::move(dir)}, skip_{std::move(skip)}, manifest_{manifest} {}

void LeaseDirScanner::refresh(bool idle) {
  std::set<std::string> seen;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (!name.ends_with(".lease") || name == skip_) continue;
    seen.insert(name);
    scan_file(name, entry.path().string(), idle);
  }
  // A log whose file vanished (operator cleanup, tmpwatch) can never
  // grow again; freezing its stale counter below the threshold would
  // make its open claims look live forever and hang the sweep. Age it
  // like any other silent peer so the claims expire.
  if (idle) {
    for (auto& [name, state] : workers_) {
      if (!seen.contains(name)) ++state.stale_scans;
    }
  }
}

void LeaseDirScanner::scan_file(const std::string& name,
                                const std::string& path, bool idle) {
  WorkerLeaseState& state = workers_[name];

  RecordBuffer log;
  try {
    log = RecordBuffer{path, state.valid_bytes};
  } catch (const std::runtime_error&) {
    // Unopenable or bad magic. A file we have never read may simply be
    // mid-creation (the peer's magic write is in flight) — check again
    // next round. A log we HAVE read going unreadable is real breakage.
    if (state.valid_bytes == 0) {
      if (idle) ++state.stale_scans;
      return;
    }
    throw;
  }

  std::size_t parsed = 0;
  while (const std::optional<RecordView> rec = log.next()) {
    if (!state.manifest_checked) {
      // The first record of a lease log is always its manifest; anything
      // else is a foreign or corrupt file polluting the directory.
      if (rec->type != kRecLeaseManifest) {
        throw std::runtime_error("persist: not a lease log (first record): " +
                                 path);
      }
      const StoreManifest on_disk = decode_store_manifest(rec->payload);
      if (!(on_disk == manifest_)) {
        throw std::runtime_error(
            "persist: lease log belongs to a different sweep (" +
            describe_manifest_mismatch(on_disk, manifest_) + "): " + path);
      }
      state.manifest_checked = true;
      ++parsed;
      continue;
    }
    switch (rec->type) {
      case kRecLeaseClaim: {
        const std::uint64_t cell = decode_cell_index(rec->payload);
        if (!state.completed.contains(cell)) state.claimed.insert(cell);
        break;
      }
      case kRecLeaseComplete: {
        const std::uint64_t cell = decode_cell_index(rec->payload);
        state.completed.insert(cell);
        state.claimed.erase(cell);
        break;
      }
      case kRecLeaseReset:
        state.claimed.clear();
        break;
      default:
        break;  // renew (liveness is the append itself) / forward-compat
    }
    ++parsed;
  }
  state.valid_bytes = log.valid_bytes();
  state.frames += parsed;
  if (parsed > 0) {
    state.stale_scans = 0;
  } else if (idle) {
    ++state.stale_scans;
  }
}

bool LeaseDirScanner::completed_elsewhere(std::uint64_t cell_index) const {
  for (const auto& [name, worker] : workers_) {
    if (worker.completed.contains(cell_index)) return true;
  }
  return false;
}

// ---------------------------------------------------------- LeaseScheduler

LeaseScheduler::LeaseScheduler(const std::string& dir,
                               const std::string& worker_id,
                               std::vector<campaign::CampaignCell> cells,
                               const StoreManifest& manifest,
                               const CampaignStore* own_store,
                               LeaseSchedulerOptions options)
    : cells_{std::move(cells)},
      options_{options},
      log_{prepare_lease_path(dir, worker_id), manifest},
      scanner_{dir, worker_id + ".lease", manifest} {
  for (std::size_t pos = 0; pos < cells_.size(); ++pos) {
    if (!index_to_pos_.emplace(cells_[pos].index, pos).second) {
      throw std::invalid_argument(
          "persist: duplicate cell index in lease grid: " +
          std::to_string(cells_[pos].index));
    }
  }
  own_completed_ = log_.completed();
  if (own_store != nullptr) {
    if (!(own_store->manifest() == manifest)) {
      throw std::invalid_argument(
          "persist: lease scheduler and worker store disagree on the sweep (" +
          describe_manifest_mismatch(own_store->manifest(), manifest) + ")");
    }
    // Repair the store->log direction: a kill between the store's cell
    // flush and the lease append left a completion peers cannot see.
    for (const std::uint64_t index : own_store->completed_cells()) {
      if (!own_completed_.contains(index)) log_.complete(index);
      own_completed_.insert(index);
    }
  }

  // Spread concurrent starters across the grid so their first claims
  // do not pile onto cell 0.
  rotation_ = cells_.empty() ? 0 : util::fnv1a_64(worker_id) % cells_.size();

  const std::lock_guard lock{mutex_};
  scanner_.refresh(/*idle=*/false);
  ++telemetry_.scans;
  scans_metric().add();
  for (const campaign::CampaignCell& cell : cells_) {
    if (!is_completed_locked(cell.index)) ++planned_;
  }
}

std::string LeaseScheduler::lease_path(const std::string& dir,
                                       const std::string& worker_id) {
  return (std::filesystem::path{dir} / (worker_id + ".lease")).string();
}

std::string LeaseScheduler::store_path(const std::string& dir,
                                       const std::string& worker_id) {
  return (std::filesystem::path{dir} / (worker_id + ".store")).string();
}

bool LeaseScheduler::valid_worker_id(const std::string& worker_id) {
  if (worker_id.empty()) return false;
  for (const char c : worker_id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

std::size_t LeaseScheduler::planned() const { return planned_; }

bool LeaseScheduler::is_completed_locked(std::uint64_t cell_index) const {
  return own_completed_.contains(cell_index) ||
         scanner_.completed_elsewhere(cell_index);
}

bool LeaseScheduler::all_complete_locked() const {
  for (const campaign::CampaignCell& cell : cells_) {
    if (!is_completed_locked(cell.index)) return false;
  }
  return true;
}

std::optional<campaign::ClaimedCell> LeaseScheduler::acquire() {
  std::unique_lock lock{mutex_};
  // Scope the aging token to this call (destroyed before `lock`, so the
  // flag flip is still under the mutex even on an exception path).
  struct AgingToken {
    bool* active = nullptr;
    bool held = false;
    void grab(bool* flag) {
      if (!held && !*flag) {
        *flag = true;
        active = flag;
        held = true;
      }
    }
    ~AgingToken() {
      if (held) *active = false;
    }
  } aging;
  bool idle_round = false;
  while (true) {
    if (aborted_) return std::nullopt;
    // During the idle endgame only the token holder polls the directory
    // (its refresh also ages silent peers); the other parked threads
    // just re-read the shared scanner state it maintains — N threads
    // must not multiply the poll I/O or the aging rate by N.
    if (!idle_round || aging.held) {
      scanner_.refresh(idle_round && aging.held);
      ++telemetry_.scans;
      scans_metric().add();
    }
    if (all_complete_locked()) return std::nullopt;

    // Fresh cells first; stealing from a peer that stopped appending is
    // the last resort, so scan rounds during busy claiming never cause
    // duplicated work.
    const std::size_t n = cells_.size();
    std::optional<std::size_t> fresh_pos;
    std::optional<std::size_t> steal_pos;
    for (std::size_t k = 0; k < n && !fresh_pos; ++k) {
      const std::size_t pos = (rotation_ + k) % n;
      const std::uint64_t index = cells_[pos].index;
      if (is_completed_locked(index) || own_inflight_.contains(index)) {
        continue;
      }
      bool live_claim = false;
      bool expired_claim = false;
      for (const auto& [name, worker] : scanner_.workers()) {
        if (!worker.claimed.contains(index)) continue;
        if (worker.stale_scans >= options_.expiry_scans) {
          expired_claim = true;
          if (expired_peers_.insert(name).second) peer_expiries_metric().add();
        } else {
          live_claim = true;
          break;
        }
      }
      if (live_claim) continue;
      if (expired_claim) {
        if (!steal_pos) steal_pos = pos;
        continue;
      }
      fresh_pos = pos;
    }

    const std::optional<std::size_t> pick = fresh_pos ? fresh_pos : steal_pos;
    if (pick.has_value()) {
      const std::uint64_t index = cells_[*pick].index;
      log_.claim(index);
      own_inflight_.insert(index);
      ++telemetry_.claims;
      claims_metric().add();
      if (!fresh_pos.has_value()) {
        ++telemetry_.steals;
        steals_metric().add();
      }
      return campaign::ClaimedCell{cells_[*pick], next_slot_++};
    }

    // Every remaining cell is leased to a peer that still looks alive:
    // wait a beat (abort() interrupts) and rescan. Only waited rounds of
    // the one token-holding thread age peers toward expiry, so the
    // silence a peer is granted is expiry_scans x idle_backoff no
    // matter how many pool threads are parked here.
    aging.grab(&idle_ager_active_);
    idle_round = true;
    idle_sleeps_metric().add();
    wake_.wait_for(lock, options_.idle_backoff, [this] { return aborted_; });
  }
}

bool LeaseScheduler::commit(const campaign::ClaimedCell& claim,
                            const campaign::CellStats& stats,
                            const std::function<void()>& persist) {
  (void)stats;  // identical on every worker by determinism; nothing to check
  const std::uint64_t index = claim.cell.index;
  {
    const std::lock_guard lock{mutex_};
    scanner_.refresh(/*idle=*/false);
    ++telemetry_.scans;
    scans_metric().add();
    if (scanner_.completed_elsewhere(index)) {
      // Lost the race: our lease was presumed expired, a peer re-ran and
      // completed the cell. The stale completion must NOT be persisted —
      // the peer's store already owns the bytes.
      own_inflight_.erase(index);
      ++telemetry_.forfeits;
      forfeits_metric().add();
      return false;
    }
    // The cell stays in own_inflight_ across the unlock below, so our
    // own pool threads cannot re-claim it meanwhile.
  }
  // Persist outside the scheduler lock: a store flush (or --fsync-every
  // sync) must not stall sibling threads' renew()/acquire() — stalled
  // renewals are exactly what makes peers presume this worker dead. If
  // a peer completes the same cell during this window both copies are
  // bit-identical and the merge deduplicates; correctness never relied
  // on commit being atomic, only on stats-durable-before-done-marker,
  // which this ordering preserves.
  if (persist) persist();
  const std::lock_guard lock{mutex_};
  log_.complete(index);
  own_inflight_.erase(index);
  own_completed_.insert(index);
  return true;
}

void LeaseScheduler::renew(const campaign::ClaimedCell& claim) {
  const std::lock_guard lock{mutex_};
  if (aborted_) return;
  log_.renew(claim.cell.index);
  renews_metric().add();
}

void LeaseScheduler::abort() {
  {
    const std::lock_guard lock{mutex_};
    aborted_ = true;
  }
  wake_.notify_all();
}

LeaseScheduler::Telemetry LeaseScheduler::telemetry() const {
  const std::lock_guard lock{mutex_};
  return telemetry_;
}

}  // namespace msa::persist
