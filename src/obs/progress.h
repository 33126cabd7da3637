// Read-only live view over a lease-mode workers directory: the
// `campaign_sweep progress` backend and the precursor to the planned
// coordinator daemon. Discovers the sweep manifest from the first lease
// log, then polls incrementally — lease logs through the same
// offset-resuming LeaseDirScanner the scheduler uses, worker stores
// through persist::StoreTailer, each file one persist::RecordBuffer read
// from its last intact frame — so each poll reads only newly appended
// bytes no matter how large the directory has grown. Purely an
// observer: never writes into the directory, never blocks a worker.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "persist/campaign_store.h"
#include "persist/lease_log.h"

namespace msa::obs {

/// One worker's progress as reconstructed from its lease log + store.
struct WorkerProgress {
  std::string id;                ///< lease file stem
  std::uint64_t claimed = 0;     ///< open (uncompleted, unreset) claims
  std::uint64_t completed = 0;   ///< cells this worker completed
  std::uint64_t trials = 0;      ///< trial records in its store
  bool advanced = false;         ///< gained records since the last poll
};

struct ProgressSnapshot {
  std::uint64_t total_cells = 0;      ///< full grid size from the manifest
  std::uint32_t trials_per_cell = 0;
  std::uint64_t completed_cells = 0;  ///< union across workers, deduplicated
  std::uint64_t claimed_cells = 0;    ///< distinct cells under an open claim
  std::uint64_t trials_done = 0;      ///< store trial records (duplicates included)
  std::vector<WorkerProgress> workers;  ///< sorted by id

  [[nodiscard]] bool complete() const noexcept {
    return total_cells > 0 && completed_cells >= total_cells;
  }
};

/// Incremental poller bound to one workers directory.
class ProgressView {
 public:
  /// Discovers the sweep manifest from the lease logs in `dir` (sorted
  /// order, first decodable manifest wins). Throws std::runtime_error
  /// when the directory holds no readable lease log — there is nothing
  /// to observe yet.
  explicit ProgressView(const std::string& dir);

  [[nodiscard]] const persist::StoreManifest& manifest() const noexcept {
    return manifest_;
  }

  /// One incremental scan round of every lease log and worker store.
  [[nodiscard]] ProgressSnapshot poll();

  /// Deterministic text rendering of a snapshot. `cells_per_s` < 0
  /// means "unknown" (first poll, or a `--once` shot) and renders as
  /// "-" for both the rate and the ETA.
  [[nodiscard]] static std::string render(const ProgressSnapshot& snapshot,
                                          double cells_per_s);

 private:
  std::string dir_;
  persist::StoreManifest manifest_;
  persist::LeaseDirScanner scanner_;
  std::map<std::string, persist::StoreTailer> tailers_;     ///< by worker id
  std::map<std::string, std::uint64_t> last_lease_frames_;  ///< advance detection
  std::map<std::string, std::uint64_t> last_store_records_;
};

}  // namespace msa::obs
