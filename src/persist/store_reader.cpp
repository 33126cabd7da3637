#include "persist/store_reader.h"

#include <algorithm>
#include <bit>
#include <filesystem>
#include <iterator>
#include <limits>
#include <memory>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "persist/record_io.h"
#include "persist/store_codec.h"
#include "util/bytes.h"
#include "util/parallel.h"

namespace msa::persist {

namespace {

obs::Counter& log_bytes_read_counter() {
  static obs::Counter& c = obs::counter("persist.log_bytes_read");
  return c;
}

/// Merge keys: (cell index, position within the cell), of a record
/// decoded or still encoded.
TrialRecord::Key merge_key(const TrialRecord& t) { return t.key(); }
TrialRecord::Key merge_key(TrialBytes t) { return decode_trial_key(t); }

[[noreturn]] void conflicting_copies(const std::string& what,
                                    const std::string& path) {
  throw std::runtime_error(
      "persist: " + what +
      " has conflicting copies (corrupt store or mixed sweeps): " + path);
}

/// A selected cell record in apply order, still encoded.
struct CellCopy {
  std::uint64_t index = 0;
  std::span<const std::uint8_t> key;
  CellBytes payload;
};

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

/// Appends the last-wins merge of one cell — runs [r, e), every run of
/// cell `runs[r].cell`, in apply order — to `out`, and returns e: the
/// result of inserting each record, in apply order, into a map keyed by
/// `key`. `emit(run, out)` appends a run's records; only a cell with
/// several runs (a rewritten one) is then stable-sorted, keeping each
/// key's last-applied copy, within its own range.
template <typename T, typename KeyFn, typename EmitFn>
std::size_t merge_cell(const std::vector<Run>& runs, std::size_t r,
                       std::vector<T>& out, KeyFn key, EmitFn emit) {
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
  return e;
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

/// Field-by-field equality, doubles by bit pattern: true exactly when
/// the encodings of `a` and `b` are equal, without encoding either.
bool same_trial_bytes(const TrialRecord& a, const TrialRecord& b) {
  const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  return a.cell_index == b.cell_index && a.trial == b.trial &&
         a.denied == b.denied && a.model_identified == b.model_identified &&
         bits(a.pixel_match) == bits(b.pixel_match) &&
         bits(a.psnr) == bits(b.psnr) &&
         bits(a.descriptor_pixel_match) == bits(b.descriptor_pixel_match) &&
         a.denial_reason == b.denial_reason;
}

/// Appends the union of `a` and `b`, both ascending and key-unique by
/// (cell, trial), to `out`. A key present in both keeps `a`'s (earlier)
/// copy: counted in `duplicates` when the bytes are the same, handed to
/// `conflict` — which throws — when they are not.
template <typename ConflictFn>
void merge_unique(std::span<const TrialRecord> a,
                  std::span<const TrialRecord> b,
                  std::vector<TrialRecord>& out, std::size_t& duplicates,
                  ConflictFn conflict) {
  auto x = a.begin();
  auto y = b.begin();
  while (x != a.end() && y != b.end()) {
    if (x->key() < y->key()) {
      out.push_back(*x++);
    } else if (y->key() < x->key()) {
      out.push_back(*y++);
    } else {
      if (!same_trial_bytes(*x, *y)) conflict(y->key());
      ++duplicates;
      out.push_back(*x++);
      ++y;
    }
  }
  out.insert(out.end(), x, a.end());
  out.insert(out.end(), y, b.end());
}

/// The segments `levels` names, in its (ascending sequence) order, each
/// opened at footer + index and checked against the store: the sidecar
/// and every segment must carry `identity`, and each segment its
/// manifest sequence. Throws std::runtime_error naming the mismatch.
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

}  // namespace

StoreReader::StoreReader(const std::string& path) : path_{path} {
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
        log_cells_.push_back(rec->payload);
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

std::vector<campaign::CellStats> StoreReader::select(
    const CellFilter& filter) const {
  // The selected cell records in apply order, still encoded: the
  // segments' cell blocks by ascending sequence, then the log's. Every
  // record is read to its end and held to the grid's row-major keys, so a
  // malformed or misplaced one fails every view alike, selected or not.
  // A block is kept only while it holds a selected record.
  GridKeys grid{manifest_, path_};
  std::vector<SegmentReader::CellBlock> blocks;
  std::vector<CellCopy> copies;
  if (filter.empty()) copies.reserve(cell_records());
  const auto add = [&](CellBytes payload) {
    const CellKeyView cell = read_cell_key(payload);
    grid.check(cell.index, cell.key);
    const bool selected = filter.empty() || filter.matches(cell.key);
    if (selected) copies.push_back({cell.index, cell.key, payload});
    return selected;
  };
  for (const std::unique_ptr<SegmentReader>& seg : segments_) {
    for (std::size_t b = 0; b < seg->cell_block_count(); ++b) {
      SegmentReader::CellBlock block = seg->read_cell_block(b);
      bool kept = false;
      for (const CellBytes payload : block.cells) kept = add(payload) || kept;
      if (kept) blocks.push_back(std::move(block));
    }
  }
  for (const CellBytes payload : log_cells_) add(payload);
  // Copies of one index share one key, so the filter selects all of them
  // or none; the last in apply order wins.
  std::ranges::stable_sort(copies, {}, &CellCopy::index);
  std::vector<campaign::CellStats> out;
  for (std::size_t i = 0; i < copies.size(); ++i) {
    if (i + 1 == copies.size() || copies[i + 1].index != copies[i].index) {
      out.push_back(decode_cell(copies[i].payload));
    } else if (!std::ranges::equal(copies[i + 1].key, copies[i].key)) {
      conflicting_copies("cell " + std::to_string(copies[i].index), path_);
    }
  }
  return out;
}

/// A trial read's key walk: the segment blocks read (one buffer per
/// segment), the apply-order pieces of encoded records viewing them and
/// the log, and the runs those records were cut into, ordered by cell.
struct StoreReader::CellWalk::Plan {
  std::vector<std::unique_ptr<std::uint8_t[]>> frames;
  std::vector<Piece> pieces;
  std::vector<Run> runs;
  std::size_t records = 0;

  /// merge_cell's emitter: each record of a run becomes `make(payload)`.
  template <typename T, typename Make>
  [[nodiscard]] auto emitter(Make make) const {
    return [this, make](const Run& run, std::vector<T>& out) {
      // The piece holding the run's first record; a run continues
      // into the next piece when the cell's keys keep ascending.
      auto piece =
          std::ranges::upper_bound(pieces, run.begin, {}, &Piece::first) - 1;
      std::size_t skip = run.begin - piece->first;
      for (std::size_t left = run.count; left > 0; ++piece, skip = 0) {
        const std::size_t take = std::min(left, piece->count - skip);
        piece->each(skip, take,
                    [&](TrialBytes payload) { out.push_back(make(payload)); });
        left -= take;
      }
    };
  }
};

std::unique_ptr<StoreReader::CellWalk::Plan> StoreReader::plan(
    const std::vector<campaign::CellStats>* cells) const {
  // One walk in apply order reads only each record's key and cuts the
  // runs; records are made afterwards, once, in merged order. Block
  // payloads live until then: the encoded form is about half the size
  // of the decoded one.
  auto out = std::make_unique<CellWalk::Plan>();
  // Cells ascend by index, so membership is a binary search, made once
  // per run of one cell's trials.
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
  // The selected trial blocks in apply order, each with its frame's
  // place in its segment's buffer — allocated here, left uninitialised,
  // and filled by the reads.
  struct BlockRead {
    const SegmentReader* segment = nullptr;
    std::size_t block = 0;
    std::span<std::uint8_t> frame;
    std::vector<SegmentReader::TrialGroup> groups;
  };
  std::vector<BlockRead> reads;
  std::uint64_t trials = 0;
  for (const std::unique_ptr<SegmentReader>& seg : segments_) {
    // Under `cells`, only the blocks that can hold one of their keys,
    // each read once even when it serves several.
    std::set<std::size_t> selected;
    if (cells == nullptr) {
      for (std::size_t b = 0; b < seg->trial_block_count(); ++b) {
        selected.insert(selected.end(), b);
      }
    } else {
      for (const campaign::CellStats& cell : *cells) {
        if (const std::optional<std::size_t> b =
                seg->trial_block_for(encode_cell_key(cell.coords))) {
          selected.insert(*b);
        }
      }
    }
    std::uint64_t bytes = 0;
    for (const std::size_t b : selected) bytes += seg->trial_frame_bytes(b);
    std::uint8_t* at =
        out->frames
            .emplace_back(std::make_unique_for_overwrite<std::uint8_t[]>(
                static_cast<std::size_t>(bytes)))
            .get();
    for (const std::size_t b : selected) {
      const auto len = static_cast<std::size_t>(seg->trial_frame_bytes(b));
      reads.push_back({seg.get(), b, {at, len}, {}});
      at += len;
      trials += seg->trial_block_trials(b);
    }
  }
  // The frames are disjoint, so blocks are read and CRC-checked side by
  // side; then this thread walks their keys in apply order to cut runs.
  util::parallel_for(util::workers_for(trials, 0), reads.size(),
                     [&](std::size_t i) {
                       reads[i].groups = reads[i].segment->read_trial_block(
                           reads[i].block, reads[i].frame);
                     });
  RunCutter cutter;
  for (const BlockRead& read : reads) {
    for (const SegmentReader::TrialGroup& group : read.groups) {
      // A group is one cell's trials: its first record names the cell.
      if (group.count == 0 ||
          !selected_cell(
              decode_trial_key(util::ByteReader{group.trials}.blob()).first)) {
        continue;
      }
      out->pieces.push_back({cutter.records(), group.count, group.trials, {}});
      util::ByteReader r{group.trials};
      for (std::uint64_t i = 0; i < group.count; ++i) {
        cutter.add(decode_trial_key(r.blob()));
      }
    }
  }
  // Log trials on top; orphans (no completed cell) only in the full view.
  std::size_t piece_begin = 0;  // log trials [piece_begin, i) form a piece
  const auto close_piece = [&](std::size_t i) {
    if (i > piece_begin) {
      out->pieces.push_back(
          {cutter.records() - (i - piece_begin), i - piece_begin, {},
           std::span{log_trials_}.subspan(piece_begin, i - piece_begin)});
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
  out->records = cutter.records();
  out->runs = std::move(cutter).by_cell();
  return out;
}

StoreReader::CellWalk::CellWalk(
    std::shared_ptr<const Plan> plan,
    std::shared_ptr<const std::vector<campaign::CellStats>> cells)
    : plan_{std::move(plan)},
      cells_{std::move(cells)},
      cell_end_{cells_->size()},
      run_end_{plan_->runs.size()} {}
StoreReader::CellWalk::CellWalk(CellWalk&&) noexcept = default;
StoreReader::CellWalk& StoreReader::CellWalk::operator=(CellWalk&&) noexcept =
    default;
StoreReader::CellWalk::~CellWalk() = default;

std::size_t StoreReader::CellWalk::records() const noexcept {
  return plan_->records;
}

StoreReader::CellWalk StoreReader::CellWalk::slice(std::uint64_t lo,
                                                  std::uint64_t hi) const {
  // The position in items[begin, end), both ascending by cell, of the
  // first item at or past cell `index`; past every one when unbounded.
  const auto position = [](const auto& items, std::size_t begin,
                           std::size_t end, std::uint64_t index, auto cell) {
    if (index == std::numeric_limits<std::uint64_t>::max()) return end;
    const auto first = items.begin();
    return static_cast<std::size_t>(
        std::ranges::lower_bound(first + static_cast<std::ptrdiff_t>(begin),
                                 first + static_cast<std::ptrdiff_t>(end),
                                 index, {}, cell) -
        first);
  };
  CellWalk out{plan_, cells_};
  const auto index = &campaign::CellStats::index;
  out.cell_begin_ = out.cell_ =
      position(*cells_, cell_begin_, cell_end_, lo, index);
  out.cell_end_ = position(*cells_, cell_begin_, cell_end_, hi, index);
  out.run_begin_ = out.run_ =
      position(plan_->runs, run_begin_, run_end_, lo, &Run::cell);
  out.run_end_ = position(plan_->runs, run_begin_, run_end_, hi, &Run::cell);
  return out;
}

std::optional<CellTrials> StoreReader::CellWalk::next() {
  const std::vector<Run>& runs = plan_->runs;
  const std::vector<campaign::CellStats>& cells = *cells_;
  const bool completed = cell_ < cell_end_;
  const bool streamed = run_ < run_end_;
  if (!completed && !streamed) return std::nullopt;
  CellTrials out;
  out.index = !streamed    ? cells[cell_].index
              : !completed ? runs[run_].cell
                           : std::min<std::uint64_t>(cells[cell_].index,
                                                     runs[run_].cell);
  if (completed && cells[cell_].index == out.index) {
    out.stats = &cells[cell_++];
  }
  trials_.clear();
  if (streamed && runs[run_].cell == out.index) {
    run_ = merge_cell(
        runs, run_, trials_, [](const auto& t) { return merge_key(t); },
        plan_->emitter<TrialRecord>(decode_trial));
  }
  out.trials = trials_;
  return out;
}

StoreReader::CellWalk StoreReader::walk(const CellFilter& filter) const {
  TRACE_SPAN("persist", "walk_cells");
  std::vector<campaign::CellStats> selected = select(filter);
  std::unique_ptr<CellWalk::Plan> p =
      plan(filter.empty() ? nullptr : &selected);
  return CellWalk{std::move(p),
                  std::make_shared<const std::vector<campaign::CellStats>>(
                      std::move(selected))};
}

StoreReader::KeyedCells StoreReader::keyed_cells() const {
  KeyedCells out{cells(), {}};
  std::shared_ptr<const CellWalk::Plan> p = plan(nullptr);
  std::ranges::sort(out.cells, [](const campaign::CellStats& a,
                                  const campaign::CellStats& b) {
    return cell_key_less(a.coords, b.coords);
  });
  auto merged = std::make_shared<std::vector<TrialBytes>>();
  out.trials = [p, merged](const campaign::CellStats& cell) {
    // The plan's runs are grouped by cell: the cell's are one search away.
    const auto first =
        std::ranges::lower_bound(p->runs, cell.index, {}, &Run::cell);
    merged->clear();
    if (first != p->runs.end() && first->cell == cell.index) {
      merge_cell(
          p->runs, static_cast<std::size_t>(first - p->runs.begin()), *merged,
          [](const auto& t) { return merge_key(t); },
          p->emitter<TrialBytes>([](TrialBytes t) { return t; }));
    }
    return std::span<const TrialBytes>{*merged};
  };
  return out;
}

std::optional<StoreReader::CellData> StoreReader::read_cell(
    const std::vector<campaign::AxisCoordinate>& coords) const {
  TRACE_SPAN("persist", "read_cell");
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
  for (const CellBytes cell : log_cells_) {
    if (std::ranges::equal(read_cell_key(cell).key, key)) {
      stats = decode_cell(cell);
    }
  }
  if (!stats.has_value()) return std::nullopt;
  GridKeys{manifest_, path_}.check(stats->index, key);

  auto selected = std::make_shared<const std::vector<campaign::CellStats>>(
      1, std::move(*stats));
  CellWalk walk{plan(selected.get()), selected};
  CellData out{selected->front(), {}};
  while (const std::optional<CellTrials> cell = walk.next()) {
    out.trials.assign(cell->trials.begin(), cell->trials.end());
  }
  return out;
}

SweepWalk::SweepWalk(const std::vector<std::string>& paths,
                     const CellFilter& filter)
    : paths_{paths} {
  if (paths.empty()) {
    throw std::runtime_error("persist: a sweep walk needs at least one store");
  }
  for (const std::string& path : paths) {
    const StoreReader& reader =
        *readers_.emplace_back(std::make_unique<StoreReader>(path));
    if (readers_.size() == 1) {
      info_.manifest = reader.manifest();
    } else {
      StoreManifest identity = reader.manifest();
      identity.shard_index = info_.manifest.shard_index;
      identity.shard_count = info_.manifest.shard_count;
      if (!(identity == info_.manifest)) {
        throw std::runtime_error(
            "persist: store is from a different sweep (" +
            describe_manifest_mismatch(reader.manifest(), info_.manifest) +
            "): " + path);
      }
    }
    info_.truncated_tail = info_.truncated_tail || reader.truncated_tail();
    trial_records_ += walks_.emplace_back(reader.walk(filter)).records();
  }
}

SweepWalk SweepWalk::slice(std::uint64_t lo, std::uint64_t hi) const {
  SweepWalk out;
  out.paths_ = paths_;
  out.trial_records_ = trial_records_;
  out.walks_.reserve(walks_.size());
  for (const StoreReader::CellWalk& walk : walks_) {
    out.walks_.push_back(walk.slice(lo, hi));
  }
  return out;
}

std::optional<CellTrials> SweepWalk::next() {
  if (heads_.size() != walks_.size()) {
    heads_.reserve(walks_.size());
    for (StoreReader::CellWalk& walk : walks_) heads_.push_back(walk.next());
  }
  // The walks that held the cell handed over last move on only now,
  // keeping its views valid until this call.
  for (std::size_t s = 0; handed_ && s < heads_.size(); ++s) {
    if (heads_[s] && heads_[s]->index == *handed_) heads_[s] = walks_[s].next();
  }
  handed_.reset();
  // Each walk ascends by cell, so the union is a merge of their heads.
  for (const std::optional<CellTrials>& head : heads_) {
    if (head && (!handed_ || head->index < *handed_)) handed_ = head->index;
  }
  if (!handed_) return std::nullopt;
  CellTrials cell{*handed_, nullptr, {}};
  bool held = false;
  for (std::size_t s = 0; s < heads_.size(); ++s) {
    const std::optional<CellTrials>& head = heads_[s];
    if (!head || head->index != cell.index) continue;
    if (head->stats != nullptr) {
      if (cell.stats == nullptr) {
        cell.stats = head->stats;
      } else {
        if (encode_cell(*cell.stats) != encode_cell(*head->stats)) {
          conflicting_copies("cell " + std::to_string(cell.index), paths_[s]);
        }
        ++info_.duplicate_cells;
      }
    }
    if (!held) {  // the first store holding the cell: its trials as-is
      cell.trials = head->trials;
      held = true;
      continue;
    }
    merging_.clear();
    merge_unique(cell.trials, head->trials, merging_, info_.duplicate_trials,
                 [&](const TrialRecord::Key& key) {
                   conflicting_copies("trial (" + std::to_string(key.first) +
                                          ", " + std::to_string(key.second) +
                                          ")",
                                      paths_[s]);
                 });
    merged_.swap(merging_);
    cell.trials = merged_;
  }
  return cell;
}

}  // namespace msa::persist
