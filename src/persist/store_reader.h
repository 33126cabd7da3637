// Unified read path over a campaign store, flat (the log alone) or
// segmented (log + levels sidecar + sorted segments), behind one
// interface. Every consumer — stats, diff/gate, merge, compaction and
// a resumed CampaignStore — reads through this class, so the flat and
// segmented views of the same data are identical by construction, which
// is what keeps `stats`/`diff`/`gate` byte-identical before and after
// compaction.
//
// Merge semantics: segments apply in ascending write sequence, then the
// log tail on top — the same last-wins order as replaying the original
// flat log. The log is loaded with one read and its trials kept encoded,
// as views into that buffer. Each segment group and each cell's log
// trials is a sorted run, so the merge orders runs rather than records:
// one walk reads only each record's (cell, trial) key and cuts the runs,
// then each cell's records are made from its runs into a buffer reused
// from cell to cell — decoded once, in index order, for the analyses
// (CellWalk); still encoded, in cell-key order, for compaction
// (KeyedCells) — and only a rewritten cell's runs are sorted, so a read
// holds one cell's trials, never the store's. Cell records stay encoded
// until a read selects them: a CellFilter runs on each record's key
// bytes, and only the selected cells' records are decoded. Cell-range
// queries (`read_cell`, a non-empty CellFilter) then use the segments'
// first-key block index and read only the trial blocks that can hold
// the selected cells' keys; the log tail is always scanned in full, but
// after compaction it is just the manifest record.
//
// One key per cell index: every cell record a read meets must have an
// index inside the grid and, when the manifest's value lists multiply to
// grid_cells, the key campaign::grid_digits gives its index (row-major,
// first axis outermost); GridKeys (persist/campaign_store.h) checks it,
// and CampaignStore refuses to write a record that breaks it. Copies of
// one index under different keys are a "has conflicting copies" error
// in every store. So a filter's verdict and a segment's trial key are
// the same for every copy of a cell.
//
// Walk slices: a walk's plan (the blocks read, the runs cut) is
// read-only once made, so CellWalk::slice and SweepWalk::slice hand out
// walks over a cell-index range [lo, hi) that share it. Each slice
// hands over exactly the cells, trials and errors the whole walk would
// in that range, so slices of disjoint ranges can be walked on
// different threads and their results put back together in index
// order. Every trial read (a walk, read_cell, keyed_cells) reads its
// selected segment trial blocks, CRC checks included, on
// util::workers_for(their trials, 0) threads: one below
// util::kParallelMinItems trials, so point queries stay serial. The key
// walk that cuts runs is serial.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "persist/campaign_store.h"
#include "persist/manifest.h"
#include "persist/record_io.h"
#include "persist/segment.h"
#include "persist/store_codec.h"

namespace msa::persist {

class StoreReader {
 public:
  /// Opens the log, the levels sidecar (if present) and every named
  /// segment's footer + index — but no data blocks. Throws
  /// std::runtime_error for a missing/misframed log, a store with no
  /// manifest record or with conflicting ones, a damaged
  /// segment/sidecar, or a segment whose identity does not match the
  /// log's.
  explicit StoreReader(const std::string& path);
  ~StoreReader();

  StoreReader(const StoreReader&) = delete;
  StoreReader& operator=(const StoreReader&) = delete;

  [[nodiscard]] const StoreManifest& manifest() const noexcept {
    return manifest_;
  }
  [[nodiscard]] bool segmented() const noexcept { return levels_.has_value(); }
  [[nodiscard]] bool truncated_tail() const noexcept {
    return truncated_tail_;
  }
  /// Total on-disk footprint: log + sidecar + live segments.
  [[nodiscard]] std::uint64_t store_bytes() const noexcept {
    return store_bytes_;
  }
  /// The levels sidecar, nullopt for a flat store.
  [[nodiscard]] const std::optional<LevelsManifest>& levels() const noexcept {
    return levels_;
  }
  /// Trial and cell records as stored, before the last-wins merge: every
  /// segment's plus the log tail's.
  [[nodiscard]] std::uint64_t trial_records() const noexcept;
  [[nodiscard]] std::uint64_t cell_records() const noexcept;
  /// True when the log holds trial or cell records, not just its
  /// manifest (and any unknown records).
  [[nodiscard]] bool log_has_data() const noexcept {
    return !log_cells_.empty() || !log_trials_.empty();
  }
  /// Log records of types this build does not know, in write order, as
  /// views into the loaded log — compaction carries them verbatim into
  /// the trimmed log.
  [[nodiscard]] const std::vector<RecordView>& unknown_records()
      const noexcept {
    return log_unknown_;
  }

  /// Every completed cell, ascending global index, duplicates last-wins.
  /// On a segmented store this touches only the (small) cell blocks —
  /// never trial data — which is what CampaignStore's resume reloads.
  [[nodiscard]] std::vector<campaign::CellStats> cells() const {
    return select({});
  }

  /// The store's last-wins merge restricted to `filter` (empty = every
  /// cell, orphans included), one cell at a time, ascending by index:
  /// every selected completed cell, with its trials (possibly none), and
  /// — in the full view only — every orphan cell. Making the walk reads
  /// the cell records, every segment block the selection needs and each
  /// record's key; next() then decodes one cell's records, once each,
  /// into a buffer it reuses. The walk views this reader's log and must
  /// not outlive it.
  class CellWalk {
   public:
    CellWalk(CellWalk&&) noexcept;
    CellWalk& operator=(CellWalk&&) noexcept;
    ~CellWalk();

    /// The selected completed cells in this walk's range, ascending by
    /// index.
    [[nodiscard]] std::span<const campaign::CellStats> cells()
        const noexcept {
      return std::span{*cells_}.subspan(cell_begin_, cell_end_ - cell_begin_);
    }
    /// Trial records the whole walk will merge, before deduplication —
    /// an upper bound on the trials it (or any slice) hands over.
    [[nodiscard]] std::size_t records() const noexcept;
    /// The part of this walk over cells [lo, hi), from where the walk
    /// started; hi = UINT64_MAX has no upper bound. It shares this
    /// walk's plan, so it may be walked on another thread while this
    /// walk or other slices are, but must not outlive the reader.
    [[nodiscard]] CellWalk slice(std::uint64_t lo, std::uint64_t hi) const;
    /// The next cell, nullopt past the last. Its trials view and stats
    /// pointer are valid until the next call.
    [[nodiscard]] std::optional<CellTrials> next();

   private:
    friend class StoreReader;
    struct Plan;
    CellWalk(std::shared_ptr<const Plan> plan,
             std::shared_ptr<const std::vector<campaign::CellStats>> cells);

    std::shared_ptr<const Plan> plan_;
    std::shared_ptr<const std::vector<campaign::CellStats>> cells_;
    std::size_t cell_begin_ = 0;  ///< this walk's cells: [begin, end)
    std::size_t cell_end_ = 0;
    std::size_t cell_ = 0;  ///< next completed cell
    std::size_t run_begin_ = 0;  ///< this walk's runs: [begin, end)
    std::size_t run_end_ = 0;
    std::size_t run_ = 0;  ///< first run of the next cell with trials
    std::vector<TrialRecord> trials_;  ///< the current cell's, reused
  };
  [[nodiscard]] CellWalk walk(const CellFilter& filter) const;

  /// One cell looked up by its axis coordinates: the last cell record
  /// carrying them plus the deduplicated trial stream of its index, or
  /// nullopt when no such cell completed. Segmented: one indexed cell
  /// block and one trial block per segment that can hold the key, plus
  /// the log tail. The hit is held to the grid's keys as select() holds
  /// every record; the other copies of its index are not read.
  struct CellData {
    campaign::CellStats stats;
    std::vector<TrialRecord> trials;
  };
  [[nodiscard]] std::optional<CellData> read_cell(
      const std::vector<campaign::AxisCoordinate>& coords) const;

  /// Compaction's read, in the order a segment lays cells out: every
  /// completed cell, ascending by cell_key_less, and the write_segment
  /// source of each one's last-wins merged trials, still encoded, made
  /// from the cell's runs into one reused buffer. Orphan log trials are
  /// left out. The source views this reader's log and must not outlive it.
  struct KeyedCells {
    std::vector<campaign::CellStats> cells;
    SegmentTrials trials;
  };
  [[nodiscard]] KeyedCells keyed_cells() const;

 private:
  /// The completed cells `filter` selects (empty = every one), ascending
  /// global index, duplicates last-wins — the same cells as merging every
  /// record and then filtering. Every cell record is read as bytes, its
  /// index and key, parsed to its end and checked against the grid's keys
  /// (see the top of this file); the filter runs on the key. Only
  /// selected copies are kept, with the cell blocks holding them, and
  /// only the winners are decoded. A store whose manifest lists no values
  /// can hold copies of one index under different keys: selecting
  /// several of them throws "has conflicting copies", and a filter that
  /// selects one of them gets that copy as the cell, whether or not it
  /// is the last, with the trials of its index that the log and the
  /// segment blocks its key looks up hold.
  [[nodiscard]] std::vector<campaign::CellStats> select(
      const CellFilter& filter) const;

  /// The key walk under every trial read: the trials of `cells`
  /// (ascending by index) — or every trial, orphans included, when
  /// `cells` is null — cut into runs. Under `cells` only the segment
  /// blocks that can hold one of their keys are read, else every block;
  /// either way on util::workers_for(their trials, 0) threads. The key
  /// walk itself is serial.
  [[nodiscard]] std::unique_ptr<CellWalk::Plan> plan(
      const std::vector<campaign::CellStats>* cells) const;

  std::string path_;
  StoreManifest manifest_;
  bool truncated_tail_ = false;
  std::uint64_t store_bytes_ = 0;
  std::optional<LevelsManifest> levels_;
  std::vector<std::unique_ptr<SegmentReader>> segments_;  ///< ascending seq
  // The log, loaded once at construction, and its records in write order
  // (after compaction the log is just the manifest record — this IS the
  // "offset past the segments" resume: segment data is never replayed
  // through the log). Every record views `log_`; a trial's (cell, trial)
  // key is re-read from its payload's leading varints when needed, which
  // keeps a view at 16 bytes, and a cell record is decoded only once a
  // read selects it.
  RecordBuffer log_;
  std::vector<CellBytes> log_cells_;
  std::vector<TrialBytes> log_trials_;
  std::vector<RecordView> log_unknown_;
};

/// The cell-ordered merge of every store's per-cell walk — the one read
/// under load_sweep, merge_stores and the store analyses, so a sweep can
/// be consumed holding one cell's trials at a time. Each cell of the
/// union comes once, ascending by index: its record the first store's
/// copy, its trials the union of every store's, deduplicated by trial.
/// A duplicate is accepted only when it is the same bytes — the only
/// duplicates a deterministic sweep can legally produce.
class SweepWalk {
 public:
  /// Opens every store, in order, and makes its walk under `filter`
  /// (see StoreReader::walk). Throws std::runtime_error for no stores, a
  /// store that fails to open, a store of a different sweep (shard
  /// coordinates are not compared) and a cell record that breaks the
  /// grid's keys (see StoreReader).
  SweepWalk(const std::vector<std::string>& paths, const CellFilter& filter);

  /// The first store's identity and whether any store had a torn tail;
  /// the duplicate counters cover the cells this walk handed over so far.
  [[nodiscard]] const SweepInfo& info() const noexcept { return info_; }
  /// Every store's walk sliced to cells [lo, hi) (see CellWalk::slice)
  /// and merged as next() merges: the cells, trials, conflict errors and
  /// duplicates this walk would hand over in that range. The slice's
  /// info() counts its own duplicates and holds nothing else. Slices of
  /// disjoint ranges may be walked on different threads; none may
  /// outlive this walk.
  [[nodiscard]] SweepWalk slice(std::uint64_t lo, std::uint64_t hi) const;
  /// Trial records the walk will merge, before deduplication — an upper
  /// bound on the trials it hands over.
  [[nodiscard]] std::size_t trial_records() const noexcept {
    return trial_records_;
  }
  /// The next cell, nullopt past the last; its views are valid until the
  /// next call. Throws std::runtime_error naming the cell or trial and
  /// the later store when two copies differ ("has conflicting copies").
  [[nodiscard]] std::optional<CellTrials> next();

 private:
  SweepWalk() = default;  ///< a slice, filled in by slice()

  std::vector<std::string> paths_;
  SweepInfo info_;
  std::size_t trial_records_ = 0;
  std::vector<std::unique_ptr<StoreReader>> readers_;
  std::vector<StoreReader::CellWalk> walks_;
  /// Each walk's next cell, read by the first next() call.
  std::vector<std::optional<CellTrials>> heads_;
  std::optional<std::uint64_t> handed_;  ///< the cell handed over last
  std::vector<TrialRecord> merged_;   ///< a cell's trials over two+ stores
  std::vector<TrialRecord> merging_;  ///< the next merged_, built from it
};

}  // namespace msa::persist
