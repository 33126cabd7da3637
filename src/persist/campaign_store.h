// Durable campaign results: one record per finished trial, one per
// completed cell, streamed into an append-only RecordWriter file as
// workers finish. A store file belongs to exactly one (grid, shard): the
// manifest record written first pins the grid fingerprint, full-grid cell
// count, trials per cell, trial salt and shard coordinates, so a resumed
// or merged sweep can refuse a store produced by a different experiment.
//
// Durability contract: complete_cell() flushes, so a killed process loses
// at most the trials of cells that had not completed — exactly the cells
// a resume re-runs. Trial records of an incomplete cell may therefore
// appear twice after a resume; readers deduplicate by (cell, trial),
// which is lossless because trials are deterministic functions of
// (cell, trial, salt).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "campaign/axis.h"
#include "campaign/report.h"
#include "persist/record_io.h"
#include "util/bytes.h"

namespace msa::attack {
struct ScenarioResult;
}

namespace msa::persist {

/// The store format version every manifest record carries: the axis
/// schema in the manifest, coordinate-carrying cell records. A segmented
/// store (a `.levels` sidecar naming sorted segments, see
/// persist/manifest.h) changes no log bytes, so flat and segmented stores
/// of one sweep carry the same manifest and stay mergeable. Readers
/// refuse any other version.
inline constexpr std::uint32_t kStoreFormatVersion = 2;

/// Identity of the sweep a store file belongs to.
struct StoreManifest {
  std::uint64_t grid_fingerprint = 0;  ///< campaign::GridBuilder::fingerprint
  std::uint64_t grid_cells = 0;        ///< FULL (unsharded) grid size
  std::uint32_t trials_per_cell = 0;
  std::uint64_t trial_salt = 0;
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
  /// Ordered swept-axis schema (GridBuilder::axis_schema).
  std::vector<campaign::AxisSpec> axes;

  friend bool operator==(const StoreManifest&, const StoreManifest&) = default;
};

/// On-disk encoding of the manifest payload — shared by campaign stores
/// and lease logs (both pin the same sweep identity so a stray file from
/// a different experiment is rejected). Decoding throws
/// std::runtime_error naming the fault for a version other than
/// kStoreFormatVersion, an unknown axis kind, a value whose kind differs
/// from its axis, and shard coordinates outside 0 <= index < count.
[[nodiscard]] std::vector<std::uint8_t> encode_store_manifest(
    const StoreManifest& m);
[[nodiscard]] StoreManifest decode_store_manifest(
    std::span<const std::uint8_t> payload);

/// Human-readable field-by-field diff, "" when equal (error messages).
[[nodiscard]] std::string describe_manifest_mismatch(const StoreManifest& have,
                                                     const StoreManifest& want);

/// One key per cell index, the rule of a store's grid: a cell record's
/// index must be inside the grid and, when the manifest's value lists
/// multiply to grid_cells, its key must be the one campaign::grid_digits
/// gives the index (row-major, first axis outermost). StoreReader holds
/// every record it reads to it, CampaignStore every record it writes.
/// The key's pieces — its varint(n) head and each axis value's
/// str(name)+value bytes — are encoded once, so a check compares the key
/// in place, piece by piece, and allocates nothing. Keeps references to
/// `manifest` and `path`, which must outlive it.
class GridKeys {
 public:
  GridKeys(const StoreManifest& manifest, const std::string& path);

  /// Throws std::runtime_error naming the store for an index beyond the
  /// grid, and naming the cell for a key other than its index's.
  void check(std::uint64_t index, std::span<const std::uint8_t> key) {
    if (index >= manifest_.grid_cells) {
      throw std::runtime_error("persist: cell index beyond grid in " + path_);
    }
    if (head_.empty()) return;
    campaign::grid_digits(manifest_.axes, index, digits_);
    const auto take = [&](std::span<const std::uint8_t> piece) {
      const bool same = key.size() >= piece.size() &&
                        std::ranges::equal(key.first(piece.size()), piece);
      if (same) key = key.subspan(piece.size());
      return same;
    };
    bool same = take(head_);
    for (std::size_t a = 0; same && a < digits_.size(); ++a) {
      same = take(pieces_[a][digits_[a]]);
    }
    if (!same || !key.empty()) {
      throw std::runtime_error("persist: cell " + std::to_string(index) +
                               " key does not match its grid index "
                               "(corrupt store): " +
                               path_);
    }
  }

 private:
  const StoreManifest& manifest_;
  const std::string& path_;
  /// The key's pieces, empty when keys are not checked: varint(axis
  /// count), and per axis and value str(name)+value.
  std::vector<std::uint8_t> head_;
  std::vector<std::vector<std::vector<std::uint8_t>>> pieces_;
  std::vector<std::size_t> digits_;  ///< the checked index's, reused
};

/// One scenario run, keyed by (global cell index, trial index). Carries
/// every field CellStats::accumulate consumes, with doubles bit-exact, so
/// per-cell aggregates rebuilt from the trial stream match the in-memory
/// sweep byte for byte.
struct TrialRecord {
  std::uint64_t cell_index = 0;
  std::uint32_t trial = 0;
  bool denied = false;
  bool model_identified = false;
  double pixel_match = 0.0;
  double psnr = 0.0;
  double descriptor_pixel_match = 0.0;
  std::string denial_reason;

  /// The (cell, trial) identity every reader sorts and deduplicates by.
  using Key = std::pair<std::uint64_t, std::uint32_t>;
  [[nodiscard]] Key key() const noexcept { return {cell_index, trial}; }

  [[nodiscard]] static TrialRecord from_result(
      std::uint64_t cell_index, std::uint32_t trial,
      const attack::ScenarioResult& result);
};

/// Durability knobs beyond CampaignStore's per-cell flush.
struct StoreOptions {
  /// When nonzero, fsync(2) the store after every K completed cells so
  /// results survive power loss, not just process death. Off by
  /// default: fsync per cell can dominate a fast sweep, and the
  /// per-cell flush already covers the kill/crash cases the resume
  /// machinery is built for.
  unsigned fsync_every = 0;
};

/// Writable store bound to one shard's file. Thread-safe: workers append
/// trials and complete cells concurrently.
class CampaignStore {
 public:
  enum class Mode {
    kCreate,          ///< fresh file; an existing one is an error
    kResume,          ///< existing file required; manifest must match
    kCreateOrResume,  ///< resume if the file exists, else create
  };

  /// Opens `path`. On resume the torn tail (if any) is truncated and the
  /// completed-cell map reloaded through StoreReader::cells() — the
  /// last-wins merge, grid-key check and conflicting-copy check every
  /// read applies — so a store every read refuses is refused here too,
  /// with the same message. A manifest that does not equal `manifest`
  /// throws std::runtime_error (wrong grid / trials / shard).
  CampaignStore(const std::string& path, const StoreManifest& manifest,
                Mode mode, StoreOptions options = {});

  CampaignStore(const CampaignStore&) = delete;
  CampaignStore& operator=(const CampaignStore&) = delete;

  /// Streams one finished trial; buffered until the owning cell completes.
  void append_trial(const TrialRecord& trial);

  /// Marks a cell done: writes its aggregate stats and flushes, making
  /// the cell (and every buffered trial before it) durable. A cell whose
  /// index or key breaks the grid's keys (see GridKeys) throws the
  /// reader's std::runtime_error and writes nothing.
  void complete_cell(const campaign::CellStats& stats);

  /// Stored aggregate for a completed cell, nullptr when incomplete.
  [[nodiscard]] const campaign::CellStats* completed_stats(
      std::uint64_t cell_index) const;
  [[nodiscard]] std::size_t completed_count() const;
  /// Global indices of every completed cell, ascending (the lease
  /// scheduler seeds its "already done" view from this on restart).
  [[nodiscard]] std::vector<std::uint64_t> completed_cells() const;

  /// fsync the store now, regardless of the batching option (the final
  /// durability point a caller can take at sweep end).
  void sync();

  [[nodiscard]] const StoreManifest& manifest() const noexcept {
    return manifest_;
  }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  /// Resume path, one record of the existing log at a time before the
  /// writer chops its torn tail and opens for append: validates the
  /// on-disk manifest (the first record) and notes that it is there.
  /// Cell records are left to the StoreReader the constructor opens.
  void visit_existing(const RecordView& rec);

  mutable std::mutex mutex_;
  std::string path_;
  StoreManifest manifest_;
  GridKeys grid_keys_;  ///< complete_cell's check, under mutex_
  StoreOptions options_;
  std::unordered_map<std::uint64_t, campaign::CellStats> completed_;
  unsigned cells_since_sync_ = 0;  ///< fsync batching counter
  util::ByteWriter trial_bytes_;   ///< append_trial's encoding buffer
  bool manifest_on_disk_ = false;  ///< set by visit_existing()
  // Shared lock on the log for the store's lifetime, taken before the
  // resume scan reads it: compaction, which takes it exclusively, then
  // cannot trim the log under a live writer.
  FileLock lock_;
  // Writer last: its resume constructor runs visit_existing over the log
  // and needs every member above, the lock included.
  RecordWriter writer_;
};

/// Cell-coordinate predicate: AND of per-axis allowed-label clauses (a
/// cell matches when, for every clause, its value on that axis — by
/// canonical label — is one of the listed labels). Empty filter = match
/// everything. This is the `--cells AXIS=VALUE[,...]` CLI surface, and
/// the thing StoreReader turns into indexed block reads on a segmented
/// store.
struct CellFilter {
  struct Clause {
    std::string axis;
    std::vector<std::string> labels;
  };
  std::vector<Clause> clauses;

  [[nodiscard]] bool empty() const noexcept { return clauses.empty(); }
  /// Evaluated on a cell's encoded key (encode_cell_key's bytes), so a
  /// store selects its cells before decoding any: strings and enums are
  /// compared as bytes, doubles by their format_double label, bools as
  /// "0"/"1", and the first coordinate on a clause's axis decides. Throws
  /// decode_axis_value's error for a value of unknown kind.
  [[nodiscard]] bool matches(std::span<const std::uint8_t> key) const;

  /// Parses one "AXIS=V1[,V2...]" spec into a clause; throws
  /// std::invalid_argument on a malformed spec (no '=', empty axis or
  /// value list). Repeated flags append clauses (AND).
  static Clause parse_clause(const std::string& spec);
};

/// One cell of a store's last-wins merge, as a per-cell walk hands it
/// over: the completed cell's record — null for an orphan cell, whose
/// trial records were streamed but whose cell never completed — and its
/// trials, ascending by trial. The trials view is valid only until the
/// walk moves on to the next cell.
struct CellTrials {
  std::uint64_t index = 0;
  const campaign::CellStats* stats = nullptr;
  std::span<const TrialRecord> trials;
};

/// What a walk over several stores of ONE sweep reports besides its
/// cells (see SweepWalk).
struct SweepInfo {
  StoreManifest manifest;  ///< identity fields of the first store
  std::size_t duplicate_cells = 0;   ///< identical copies dropped
  std::size_t duplicate_trials = 0;  ///< identical copies dropped
  bool truncated_tail = false;       ///< any store had a torn tail
};

/// Union of several stores from ONE sweep, with duplicates tolerated —
/// a reclaimed-then-resurrected lease can leave the same cell
/// (bit-identical, because trials are deterministic) in two workers'
/// stores, and a shard store may be listed twice. Stores must agree
/// on fingerprint/grid/trials/salt (shard coordinates are NOT compared,
/// so shard stores can be analyzed with the same call); a duplicated
/// cell or trial whose bytes differ from the first copy throws — that is
/// data corruption or a mixed-up directory, never a legal lease race.
struct SweepData : SweepInfo {
  /// Completed cells, deduplicated, ascending global index.
  std::vector<campaign::CellStats> cells;
  /// Trial stream, deduplicated by (cell, trial), ascending.
  std::vector<TrialRecord> trials;
};

/// A SweepWalk (persist/store_reader.h), collected. When `filter` is
/// non-empty only matching completed cells (and their trials) load — on
/// a segmented store via the block index, on a flat store by
/// scan-and-drop — so filtered flat and segmented views of the same data
/// are identical. Orphan trials of never-completed cells are
/// excluded under a filter (their coordinates are unknowable without the
/// cell record).
[[nodiscard]] SweepData load_sweep(const std::vector<std::string>& paths,
                                   const CellFilter& filter = {});

/// Incremental tail reader over one store file for progress views: each
/// poll() reads only the bytes appended since the previous poll — one
/// RecordBuffer from the last intact frame — and counts trial /
/// completed-cell records. Tolerates a file that does not exist yet and
/// torn tails (both simply yield no new records until the writer catches
/// up: the next poll re-parses from the last intact frame, as
/// LeaseDirScanner does). Segment-aware: on a segmented store the per-segment
/// totals come from the levels manifest (no block reads at all), the log
/// tail is followed by offset as before, and a generation bump — a
/// compaction trimming the log under the poller — rebases the counts
/// instead of double- or under-counting. Read-only; safe to point at a
/// live worker's store.
class StoreTailer {
 public:
  explicit StoreTailer(std::string path) : path_{std::move(path)} {}

  struct Counts {
    std::uint64_t trials = 0;  ///< trial records seen (log duplicates included)
    std::uint64_t cells = 0;   ///< completed-cell records seen
  };

  /// Cumulative counts after tailing any newly appended records.
  [[nodiscard]] Counts poll();

 private:
  std::string path_;
  std::uint64_t offset_ = 0;      ///< last intact log frame boundary
  std::uint64_t generation_ = 0;  ///< levels-manifest generation seen
  Counts segment_counts_;         ///< totals from the levels manifest
  Counts log_counts_;             ///< records tailed from the log
};

/// Every "*.store" file directly under `dir`, sorted by path — the
/// worker-store enumeration shared by merge/stats/diff tooling.
[[nodiscard]] std::vector<std::string> list_store_files(const std::string& dir);

/// The stores of one analysis input: a directory means "every *.store
/// inside" (a lease-mode workers dir), anything else a single store
/// file. Throws std::runtime_error when a directory holds no stores.
/// This is how `campaign_sweep diff` resolves each side, so each side of
/// a comparison can independently be a file or a directory.
[[nodiscard]] std::vector<std::string> sweep_store_paths(
    const std::string& path);

/// Reassembles shard or lease-worker stores into the single-process
/// sweep report, cells in grid order: load_sweep plus the full-coverage
/// check. Throws std::runtime_error for everything load_sweep refuses
/// (mixed sweeps, conflicting copies) and when cells are missing (a
/// shard or worker store lost, or the sweep still in flight). A single
/// complete unsharded store is the N=1 case.
[[nodiscard]] campaign::SweepReport merge_stores(
    const std::vector<std::string>& paths);

/// Compacts a store into one sorted block-indexed segment,
/// dropping superseded records a resumed or raced sweep leaves behind:
/// duplicate trial records (same cell+trial; last wins), duplicate cell
/// records (last wins), trial records of cells that never completed (a
/// resume re-runs and re-streams them), and the torn log tail if any.
/// The store is read through one StoreReader — the same last-wins merge
/// every analysis sees — so a store with several segments (written by an
/// older tiered compaction) also folds down to one. The merge streams
/// into the segment writer one cell at a time, in the segment's key
/// order — no vector of the store's trials is built — and whatever
/// records the segment does not hold count as dropped. The log is trimmed
/// to its manifest record (it stays the write-ahead tier for future
/// appends); unknown record types are preserved verbatim in it for
/// forward compatibility.
///
/// Crash-safe by write ordering: the new segment is fsynced (file and
/// directory) before the levels manifest names it, the manifest
/// replacement is atomic, the trimmed log replaces the old one only
/// after a flush+fsync, and obsolete segment files are deleted last. A
/// crash at any point leaves a readable store — at worst with invisible
/// debris or bit-identical log/segment duplicates that the next
/// compaction clears. A store a live CampaignStore holds open is
/// refused: compaction takes the log's lock exclusively and throws
/// "persist: store is open by a live writer" when it cannot.
///
/// Compacting an already-compacted store with nothing new is a no-op
/// (bytes_after == bytes_before, nothing dropped, generation unchanged).
struct CompactionResult {
  std::uint64_t bytes_before = 0;  ///< log + sidecar + segments
  std::uint64_t bytes_after = 0;
  std::size_t trials_dropped = 0;  ///< duplicates + orphans of incomplete cells
  std::size_t cells_dropped = 0;   ///< superseded duplicate cell records
  std::size_t segments_written = 0;  ///< new segment files this pass
  std::size_t segments_live = 0;     ///< segment files after compaction
  std::uint64_t generation = 0;      ///< levels-manifest generation after
};
[[nodiscard]] CompactionResult compact_store(const std::string& path);

}  // namespace msa::persist
