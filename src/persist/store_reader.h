// Unified read path over a campaign store in any format: v1/v2 flat
// logs and v3 segmented stores (log + levels sidecar + sorted segments)
// behind one interface. Every consumer — stats, diff/gate, merge,
// progress, resume — reads through this class, so the flat and segmented
// views of the same data are identical by construction, which is what
// keeps `stats`/`diff`/`gate` byte-identical before and after
// compaction.
//
// Merge semantics: segments apply in ascending write sequence, then the
// log tail on top — the same last-wins order as replaying the original
// flat log. Each segment group and each cell's log trials is a sorted
// run, so the merge orders runs rather than records: disjoint runs are
// concatenated by move, and only runs that rewrite a key are sorted. Cell-range queries (`read_cell`, a non-empty CellFilter in
// `read_matching`) use the segments' first-key block index and read only
// the blocks that can hold the requested cells; the log tail is always
// scanned in full, but after compaction it is just the manifest record.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "persist/campaign_store.h"
#include "persist/manifest.h"
#include "persist/segment.h"

namespace msa::persist {

class StoreReader {
 public:
  /// Opens the log, the levels sidecar (if present) and every named
  /// segment's footer + index — but no data blocks. Throws
  /// std::runtime_error for a missing/misframed log, a store with no
  /// manifest record, a damaged segment/sidecar, or a segment whose
  /// identity does not match the log's.
  explicit StoreReader(const std::string& path);
  ~StoreReader();

  StoreReader(const StoreReader&) = delete;
  StoreReader& operator=(const StoreReader&) = delete;

  [[nodiscard]] const StoreManifest& manifest() const noexcept {
    return manifest_;
  }
  [[nodiscard]] bool segmented() const noexcept { return levels_.has_value(); }
  /// kSegmentedStoreFormat for a segmented store, else the log version.
  [[nodiscard]] std::uint32_t format_version() const noexcept {
    return segmented() ? kSegmentedStoreFormat : manifest_.version;
  }
  [[nodiscard]] bool truncated_tail() const noexcept {
    return truncated_tail_;
  }
  /// Total on-disk footprint: log + sidecar + live segments.
  [[nodiscard]] std::uint64_t store_bytes() const noexcept {
    return store_bytes_;
  }

  /// Every completed cell, ascending global index, duplicates last-wins.
  /// On a segmented store this touches only the (small) cell blocks —
  /// never trial data — which is the resume and progress fast path.
  [[nodiscard]] std::vector<campaign::CellStats> cells() const;

  /// One cell looked up by its axis coordinates: the aggregate plus the
  /// deduplicated trial stream, or nullopt when no such cell completed.
  /// Segmented: one indexed block read per segment that can hold the
  /// key, plus the log tail.
  struct CellData {
    campaign::CellStats stats;
    std::vector<TrialRecord> trials;
  };
  [[nodiscard]] std::optional<CellData> read_cell(
      const std::vector<campaign::AxisCoordinate>& coords) const;

  /// The store restricted to cells matching `filter` (empty filter =
  /// everything, including orphan log trials — byte-equivalent to the
  /// historical full read). Cells/trials sorted exactly like read_store:
  /// ascending index, ascending (cell, trial).
  [[nodiscard]] StoreContents read_matching(const CellFilter& filter) const;
  [[nodiscard]] StoreContents read_all() const {
    return read_matching(CellFilter{});
  }

 private:
  std::string path_;
  StoreManifest manifest_;
  bool truncated_tail_ = false;
  std::uint64_t store_bytes_ = 0;
  std::optional<LevelsManifest> levels_;
  std::vector<std::unique_ptr<SegmentReader>> segments_;  ///< ascending seq
  // Log contents in write order, loaded once at construction (after
  // compaction the log is just the manifest record — this IS the "offset
  // past the segments" resume: segment data is never replayed through
  // the log).
  std::vector<campaign::CellStats> log_cells_;
  std::vector<TrialRecord> log_trials_;
};

}  // namespace msa::persist
