// Test-only collector over a store's per-cell walk: the cells and trials
// a StoreReader::walk hands over one cell at a time, gathered into
// vectors a test can index and compare record by record. Production
// readers consume the walk cell by cell instead.
#pragma once

#include <optional>
#include <vector>

#include "persist/campaign_store.h"
#include "persist/store_reader.h"

namespace msa::persist {

/// One store's last-wins merge, collected.
struct StoreContents {
  StoreManifest manifest;
  /// Completed cells, ascending by index.
  std::vector<campaign::CellStats> cells;
  /// Trials, ascending by (cell, trial).
  std::vector<TrialRecord> trials;
  /// True when a torn tail was dropped while reading the log.
  bool truncated_tail = false;
};

/// reader.walk(filter), collected. An empty filter gives every cell and
/// trial, orphans included — byte-equivalent to replaying the original
/// flat log.
inline StoreContents read_matching(const StoreReader& reader,
                                   const CellFilter& filter) {
  StoreContents out;
  out.manifest = reader.manifest();
  out.truncated_tail = reader.truncated_tail();
  StoreReader::CellWalk walk = reader.walk(filter);
  out.cells.assign(walk.cells().begin(), walk.cells().end());
  while (const std::optional<CellTrials> cell = walk.next()) {
    out.trials.insert(out.trials.end(), cell->trials.begin(),
                      cell->trials.end());
  }
  return out;
}

inline StoreContents read_all(const StoreReader& reader) {
  return read_matching(reader, CellFilter{});
}

}  // namespace msa::persist
