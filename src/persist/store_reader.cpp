#include "persist/store_reader.h"

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <set>
#include <span>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "persist/record_io.h"
#include "persist/store_codec.h"

namespace msa::persist {

namespace {

obs::Counter& log_bytes_read_counter() {
  static obs::Counter& c = obs::counter("persist.log_bytes_read");
  return c;
}

/// Byte order over encoded cell keys that also takes a span, so a set
/// of keys is probed without copying the probe into a vector.
struct KeyBytesLess {
  using is_transparent = void;
  bool operator()(std::span<const std::uint8_t> a,
                  std::span<const std::uint8_t> b) const {
    return std::ranges::lexicographical_compare(a, b);
  }
};

/// Merge keys: (cell index, position within the cell).
TrialRecord::Key trial_key(const TrialRecord& t) { return t.key(); }
TrialRecord::Key cell_key(const campaign::CellStats& c) { return {c.index, 0}; }

/// Orders `records` — every source concatenated in apply order — by
/// `key`, keeping only the LAST copy of each key: the result of
/// inserting them one by one into a last-wins map. The input splits into
/// runs, each one cell's records in strictly ascending key order (a
/// segment group, a completed cell's log trials). Runs of distinct cells
/// never overlap, so ordered by cell they are concatenated by move; only
/// a cell with several runs (a rewritten one) pays for a stable sort of
/// its own records.
template <typename T, typename KeyFn>
void sort_last_wins(std::vector<T>& records, KeyFn key) {
  const auto less = [&](const T& a, const T& b) { return key(a) < key(b); };
  if (std::adjacent_find(records.begin(), records.end(),
                         [&](const T& a, const T& b) { return !less(a, b); }) ==
      records.end()) {
    return;  // already strictly ascending: nothing rewritten or reordered
  }
  struct Run {
    std::size_t begin = 0;
    std::size_t end = 0;
  };
  std::vector<Run> runs;
  for (std::size_t i = 0; i < records.size();) {
    std::size_t j = i + 1;
    while (j < records.size() &&
           key(records[j - 1]).first == key(records[j]).first &&
           less(records[j - 1], records[j])) {
      ++j;
    }
    runs.push_back({i, j});
    i = j;
  }
  // Runs by cell, each cell's runs in source (apply) order.
  const auto cell = [&](const Run& run) { return key(records[run.begin]).first; };
  std::sort(runs.begin(), runs.end(), [&](const Run& a, const Run& b) {
    return std::pair{cell(a), a.begin} < std::pair{cell(b), b.begin};
  });

  std::vector<T> ordered;
  ordered.reserve(records.size());
  for (std::size_t r = 0; r < runs.size();) {
    const std::size_t from = ordered.size();
    std::size_t e = r;
    for (; e < runs.size() && cell(runs[e]) == cell(runs[r]); ++e) {
      std::move(records.begin() + static_cast<std::ptrdiff_t>(runs[e].begin),
                records.begin() + static_cast<std::ptrdiff_t>(runs[e].end),
                std::back_inserter(ordered));
    }
    if (e - r > 1) {  // a rewritten cell
      const auto group = ordered.begin() + static_cast<std::ptrdiff_t>(from);
      std::stable_sort(group, ordered.end(), less);
      // Walked backwards, std::unique keeps each key's last-written copy.
      const auto kept = std::unique(
          ordered.rbegin(), std::make_reverse_iterator(group),
          [&](const T& a, const T& b) { return key(a) == key(b); });
      ordered.erase(group, kept.base());
    }
    r = e;
  }
  records = std::move(ordered);
}

}  // namespace

std::vector<std::unique_ptr<SegmentReader>> open_segments(
    const std::string& store_path, const LevelsManifest& levels,
    const StoreManifest& identity) {
  if (!(levels.identity == identity)) {
    throw std::runtime_error(
        "persist: levels manifest does not match store (" +
        describe_manifest_mismatch(levels.identity, identity) +
        "): " + store_path);
  }
  std::vector<std::unique_ptr<SegmentReader>> segments;
  segments.reserve(levels.segments.size());
  for (const SegmentRef& ref : levels.segments) {
    auto seg = std::make_unique<SegmentReader>(segment_path(store_path, ref));
    if (seg->info().sequence != ref.sequence) {
      throw std::runtime_error("persist: segment " + ref.file +
                               " does not carry its manifest sequence: " +
                               store_path);
    }
    if (!(seg->info().identity == identity)) {
      throw std::runtime_error(
          "persist: segment " + ref.file + " is from a different sweep (" +
          describe_manifest_mismatch(seg->info().identity, identity) +
          "): " + store_path);
    }
    segments.push_back(std::move(seg));
  }
  return segments;
}

StoreReader::StoreReader(const std::string& path) {
  // Log pass: manifest + the write-ahead tail (the whole store when no
  // sidecar exists), kept in write order for the last-wins merge.
  bool saw_manifest = false;
  {
    RecordReader reader{path};
    for (std::optional<Record> rec = reader.next(); rec.has_value();
         rec = reader.next()) {
      switch (rec->type) {
        case kRecManifest: {
          StoreManifest m = decode_store_manifest(rec->payload);
          if (saw_manifest && !(m == manifest_)) {
            throw std::runtime_error(
                "persist: conflicting manifest records in " + path);
          }
          manifest_ = std::move(m);
          saw_manifest = true;
          break;
        }
        case kRecTrial:
          log_trials_.push_back(decode_trial(rec->payload));
          break;
        case kRecCell:
          log_cells_.push_back(decode_cell(rec->payload));
          break;
        default:  // unknown record type: forward-compatible skip
          log_unknown_.push_back(std::move(*rec));
          break;
      }
    }
    truncated_tail_ = reader.truncated();
    log_bytes_read_counter().add(reader.valid_bytes());
    store_bytes_ += file_size_or_zero(path);
  }
  if (!saw_manifest) {
    throw std::runtime_error("persist: store has no manifest record: " + path);
  }

  levels_ = read_levels_manifest(path);
  if (!levels_.has_value()) return;
  store_bytes_ += file_size_or_zero(levels_manifest_path(path));
  segments_ = open_segments(path, *levels_, manifest_);
  for (const std::unique_ptr<SegmentReader>& seg : segments_) {
    store_bytes_ += seg->file_bytes();
  }
}

StoreReader::~StoreReader() = default;

std::uint64_t StoreReader::trial_records() const noexcept {
  std::uint64_t total = log_trials_.size();
  for (const auto& seg : segments_) total += seg->info().trial_count;
  return total;
}

std::uint64_t StoreReader::cell_records() const noexcept {
  std::uint64_t total = log_cells_.size();
  for (const auto& seg : segments_) total += seg->info().cell_count;
  return total;
}

std::vector<campaign::CellStats> StoreReader::cells() const {
  std::vector<campaign::CellStats> merged;
  for (const std::unique_ptr<SegmentReader>& seg : segments_) {
    std::vector<campaign::CellStats> cells = seg->cells();
    std::move(cells.begin(), cells.end(), std::back_inserter(merged));
  }
  merged.insert(merged.end(), log_cells_.begin(), log_cells_.end());
  sort_last_wins(merged, cell_key);
  return merged;
}

std::optional<StoreReader::CellData> StoreReader::read_cell(
    const std::vector<campaign::AxisCoordinate>& coords) const {
  const std::vector<std::uint8_t> key = encode_cell_key(coords);
  // Indexed lookup: one cell block per segment that can hold the key,
  // later segments winning, the in-memory log tail on top — never a
  // full cells() scan.
  std::optional<campaign::CellStats> stats;
  for (const std::unique_ptr<SegmentReader>& seg : segments_) {
    if (std::optional<campaign::CellStats> cell = seg->cell_for_key(key)) {
      stats = std::move(cell);
    }
  }
  for (const campaign::CellStats& cell : log_cells_) {
    if (cell.coords == coords) stats = cell;
  }
  if (!stats.has_value()) return std::nullopt;

  CellData out;
  for (const std::unique_ptr<SegmentReader>& seg : segments_) {
    std::vector<TrialRecord> trials = seg->trials_for_key(key);
    std::move(trials.begin(), trials.end(), std::back_inserter(out.trials));
  }
  std::ranges::copy_if(
      log_trials_, std::back_inserter(out.trials),
      [&](const TrialRecord& t) { return t.cell_index == stats->index; });
  sort_last_wins(out.trials, trial_key);
  out.stats = std::move(*stats);
  return out;
}

StoreContents StoreReader::read_matching(const CellFilter& filter) const {
  StoreContents out;
  out.manifest = manifest_;
  out.truncated_tail = truncated_tail_;
  out.cells = cells();

  std::vector<TrialRecord>& trials = out.trials;
  if (filter.empty()) {
    // Full view: every segment trial plus every log trial, orphans
    // included — byte-equivalent to replaying the original flat log.
    trials.reserve(trial_records());
    for (const std::unique_ptr<SegmentReader>& seg : segments_) {
      seg->append_trials(trials);
    }
    trials.insert(trials.end(), log_trials_.begin(), log_trials_.end());
  } else {
    std::erase_if(out.cells, [&](const campaign::CellStats& cell) {
      return !filter.matches(cell.coords);
    });
    // Indexed path: per segment, the set of blocks that can hold any
    // selected cell — each block read once even when it serves several.
    std::set<std::vector<std::uint8_t>, KeyBytesLess> keys;
    for (const campaign::CellStats& cell : out.cells) {
      keys.insert(encode_cell_key(cell.coords));
    }
    const auto selected_key = [&](std::span<const std::uint8_t> key) {
      return keys.contains(key);
    };
    for (const std::unique_ptr<SegmentReader>& seg : segments_) {
      std::set<std::size_t> blocks;
      for (const std::vector<std::uint8_t>& key : keys) {
        const std::optional<std::size_t> block = seg->trial_block_for(key);
        if (block.has_value()) blocks.insert(*block);
      }
      for (const std::size_t block : blocks) {
        seg->append_block_trials(block, trials, selected_key);
      }
    }
    // Cells ascend by index, so membership is a binary search.
    std::ranges::copy_if(
        log_trials_, std::back_inserter(trials), [&](const TrialRecord& t) {
          return std::ranges::binary_search(out.cells, t.cell_index, {},
                                            &campaign::CellStats::index);
        });
  }
  sort_last_wins(trials, trial_key);
  return out;
}

}  // namespace msa::persist
