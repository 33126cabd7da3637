#include "persist/store_reader.h"

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <set>
#include <span>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "persist/record_io.h"
#include "persist/store_codec.h"
#include "util/bytes.h"

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

/// Merge keys: (cell index, position within the cell), of a record
/// decoded or still encoded.
TrialRecord::Key merge_key(const TrialRecord& t) { return t.key(); }
TrialRecord::Key merge_key(TrialBytes t) { return decode_trial_key(t); }
TrialRecord::Key cell_key(const campaign::CellStats& c) { return {c.index, 0}; }

/// `count` records from apply-order position `begin` on: one cell's, in
/// strictly ascending key order.
struct Run {
  std::uint64_t cell = 0;
  std::size_t begin = 0;
  std::size_t count = 0;
};

/// Cuts records, fed by key in apply order (every source concatenated:
/// segments by ascending sequence, then the log tail), into maximal runs
/// — a new run starts wherever the cell changes or the key does not
/// ascend. A segment group is one run, and so are a cell's log trials
/// when they were streamed in trial order.
class RunCutter {
 public:
  void add(TrialRecord::Key key) {
    if (runs_.empty() || key.first != last_.first || !(last_ < key)) {
      runs_.push_back({key.first, records_, 0});
    }
    ++runs_.back().count;
    ++records_;
    last_ = key;
  }
  [[nodiscard]] std::size_t records() const noexcept { return records_; }
  /// The runs by cell, each cell's runs in apply order.
  [[nodiscard]] std::vector<Run> by_cell() && {
    std::ranges::stable_sort(runs_, {}, &Run::cell);
    return std::move(runs_);
  }

 private:
  std::vector<Run> runs_;
  TrialRecord::Key last_{};
  std::size_t records_ = 0;
};

/// The last-wins merge: the result of inserting every record, in apply
/// order, into a map keyed by `key`. Runs of distinct cells never
/// overlap, so with `runs` ordered by cell, `emit(run, out)` appends each
/// run's records straight into their merged positions; only a cell with
/// several runs (a rewritten one) is then stable-sorted, keeping each
/// key's last-applied copy, within its own range.
template <typename T, typename KeyFn, typename EmitFn>
std::vector<T> merge_runs(const std::vector<Run>& runs, std::size_t records,
                          KeyFn key, EmitFn emit) {
  std::vector<T> out;
  out.reserve(records);
  for (std::size_t r = 0; r < runs.size();) {
    const std::size_t from = out.size();
    std::size_t e = r;
    for (; e < runs.size() && runs[e].cell == runs[r].cell; ++e) {
      emit(runs[e], out);
    }
    if (e - r > 1) {
      const auto group = out.begin() + static_cast<std::ptrdiff_t>(from);
      std::stable_sort(group, out.end(), [&](const T& a, const T& b) {
        return key(a) < key(b);
      });
      // Walked backwards, std::unique keeps each key's last-written copy.
      const auto kept = std::unique(
          out.rbegin(), std::make_reverse_iterator(group),
          [&](const T& a, const T& b) { return key(a) == key(b); });
      out.erase(group, kept.base());
    }
    r = e;
  }
  return out;
}

/// Trial records adjacent in apply order, from apply-order position
/// `first` on, still encoded: a segment group's trial blobs, or log
/// trials in place.
struct Piece {
  std::size_t first = 0;
  std::size_t count = 0;
  std::span<const std::uint8_t> blobs;  ///< a segment group's records
  std::span<const TrialBytes> views;    ///< or log payloads in place

  /// Calls `f` with the payload of records [skip, skip + take).
  template <typename F>
  void each(std::size_t skip, std::size_t take, F f) const {
    if (!views.empty()) {
      for (const TrialBytes t : views.subspan(skip, take)) f(t);
      return;
    }
    util::ByteReader r{blobs};
    for (std::size_t i = 0; i < skip; ++i) (void)r.blob();
    for (std::size_t i = 0; i < take; ++i) f(r.blob());
  }
};

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
  TRACE_SPAN("persist", "store_open");
  // Log pass: manifest + the write-ahead tail (the whole store when no
  // sidecar exists), kept in write order for the last-wins merge.
  bool saw_manifest = false;
  log_ = RecordBuffer{path};
  for (std::optional<RecordView> rec = log_.next(); rec.has_value();
       rec = log_.next()) {
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
        log_trials_.push_back(rec->payload);
        break;
      case kRecCell:
        log_cells_.push_back(decode_cell(rec->payload));
        break;
      default:  // unknown record type: forward-compatible skip
        log_unknown_.push_back(*rec);
        break;
    }
  }
  truncated_tail_ = log_.truncated();
  log_bytes_read_counter().add(log_.valid_bytes());
  store_bytes_ += file_size_or_zero(path);
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
  RunCutter cutter;
  for (const campaign::CellStats& cell : merged) cutter.add(cell_key(cell));
  return merge_runs<campaign::CellStats>(
      std::move(cutter).by_cell(), merged.size(), cell_key,
      [&](const Run& run, std::vector<campaign::CellStats>& out) {
        const auto first =
            merged.begin() + static_cast<std::ptrdiff_t>(run.begin);
        out.insert(out.end(), std::make_move_iterator(first),
                   std::make_move_iterator(
                       first + static_cast<std::ptrdiff_t>(run.count)));
      });
}

template <typename T, typename Make>
std::vector<T> StoreReader::merged_trials(
    const std::vector<campaign::CellStats>* cells,
    std::vector<SegmentReader::TrialBlock>& blocks, Make make) const {
  // One walk in apply order reads only each record's key and cuts the
  // runs; records are made afterwards, once, in merged order. Block
  // payloads live until then: the encoded form is about half the size
  // of the decoded one.
  std::set<std::vector<std::uint8_t>, KeyBytesLess> keys;
  if (cells != nullptr && !segments_.empty()) {
    for (const campaign::CellStats& cell : *cells) {
      keys.insert(encode_cell_key(cell.coords));
    }
  }
  RunCutter cutter;
  std::vector<Piece> pieces;
  for (const std::unique_ptr<SegmentReader>& seg : segments_) {
    // Under a selection, only the blocks that can hold a selected cell,
    // each read once even when it serves several.
    std::set<std::size_t> selected;
    if (cells == nullptr) {
      for (std::size_t b = 0; b < seg->trial_block_count(); ++b) {
        selected.insert(selected.end(), b);
      }
    } else {
      for (const std::vector<std::uint8_t>& key : keys) {
        if (const std::optional<std::size_t> b = seg->trial_block_for(key)) {
          selected.insert(*b);
        }
      }
    }
    for (const std::size_t b : selected) {
      SegmentReader::TrialBlock& block =
          blocks.emplace_back(seg->read_trial_block(b));
      for (const SegmentReader::TrialGroup& group : block.groups) {
        if (group.count == 0 ||
            (cells != nullptr && !keys.contains(group.key))) {
          continue;
        }
        pieces.push_back({cutter.records(), group.count, group.trials, {}});
        util::ByteReader r{group.trials};
        for (std::uint64_t i = 0; i < group.count; ++i) {
          cutter.add(decode_trial_key(r.blob()));
        }
      }
    }
  }
  // Log trials on top; orphans (no completed cell) only in the full
  // view. Cells ascend by index, so membership is a binary search, made
  // once per run of one cell's trials.
  std::optional<std::uint64_t> seen_cell;
  bool seen_selected = true;
  const auto selected_cell = [&](std::uint64_t cell) {
    if (cells != nullptr && seen_cell != cell) {
      seen_cell = cell;
      seen_selected = std::ranges::binary_search(*cells, cell, {},
                                                 &campaign::CellStats::index);
    }
    return seen_selected;
  };
  std::size_t piece_begin = 0;  // log trials [piece_begin, i) form a piece
  const auto close_piece = [&](std::size_t i) {
    if (i > piece_begin) {
      pieces.push_back({cutter.records() - (i - piece_begin), i - piece_begin,
                        {}, std::span{log_trials_}.subspan(piece_begin,
                                                           i - piece_begin)});
    }
    piece_begin = i + 1;
  };
  for (std::size_t i = 0; i < log_trials_.size(); ++i) {
    const TrialRecord::Key key = decode_trial_key(log_trials_[i]);
    if (selected_cell(key.first)) {
      cutter.add(key);
    } else {
      close_piece(i);
    }
  }
  close_piece(log_trials_.size());

  const std::size_t records = cutter.records();
  return merge_runs<T>(
      std::move(cutter).by_cell(), records,
      [](const T& t) { return merge_key(t); },
      [&](const Run& run, std::vector<T>& out) {
        // The piece holding the run's first record; a run continues
        // into the next piece when the cell's keys keep ascending.
        auto piece = std::ranges::upper_bound(pieces, run.begin, {},
                                              &Piece::first) - 1;
        std::size_t skip = run.begin - piece->first;
        for (std::size_t left = run.count; left > 0; ++piece, skip = 0) {
          const std::size_t take = std::min(left, piece->count - skip);
          piece->each(skip, take,
                      [&](TrialBytes payload) { out.push_back(make(payload)); });
          left -= take;
        }
      });
}

std::vector<TrialRecord> StoreReader::decoded_trials(
    const std::vector<campaign::CellStats>* cells) const {
  std::vector<SegmentReader::TrialBlock> blocks;
  return merged_trials<TrialRecord>(cells, blocks, decode_trial);
}

StoreReader::EncodedContents StoreReader::read_encoded() const {
  EncodedContents out;
  out.cells = cells();
  out.trials = merged_trials<TrialBytes>(&out.cells, out.blocks,
                                         [](TrialBytes t) { return t; });
  return out;
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
  const std::vector<campaign::CellStats> selected{*stats};
  out.trials = decoded_trials(&selected);
  out.stats = std::move(*stats);
  return out;
}

StoreContents StoreReader::read_matching(const CellFilter& filter) const {
  TRACE_SPAN("persist", "read_matching");
  StoreContents out;
  out.manifest = manifest_;
  out.truncated_tail = truncated_tail_;
  out.cells = cells();

  if (filter.empty()) {
    // Full view: every segment trial plus every log trial, orphans
    // included — byte-equivalent to replaying the original flat log.
    out.trials = decoded_trials(nullptr);
  } else {
    std::erase_if(out.cells, [&](const campaign::CellStats& cell) {
      return !filter.matches(cell.coords);
    });
    out.trials = decoded_trials(&out.cells);
  }
  return out;
}

}  // namespace msa::persist
