#include "persist/campaign_store.h"

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <optional>
#include <span>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "attack/scenario.h"
#include "campaign/axis.h"
#include "campaign/table.h"
#include "obs/trace.h"
#include "persist/manifest.h"
#include "persist/segment.h"
#include "persist/store_codec.h"
#include "persist/store_reader.h"
#include "util/bytes.h"

namespace msa::persist {

std::vector<std::uint8_t> encode_store_manifest(const StoreManifest& m) {
  util::ByteWriter w;
  w.u32(kStoreFormatVersion);
  w.u64(m.grid_fingerprint);
  w.u64(m.grid_cells);
  w.u32(m.trials_per_cell);
  w.u64(m.trial_salt);
  w.u32(m.shard_index);
  w.u32(m.shard_count);
  w.varint(m.axes.size());
  for (const campaign::AxisSpec& axis : m.axes) {
    w.str(axis.name);
    w.u8(static_cast<std::uint8_t>(axis.kind));
    w.varint(axis.values.size());
    for (const campaign::AxisValue& v : axis.values) encode_axis_value(w, v);
  }
  return w.take();
}

StoreManifest decode_store_manifest(std::span<const std::uint8_t> payload) {
  util::ByteReader r{payload};
  const std::uint32_t version = r.u32();
  if (version != kStoreFormatVersion) {
    throw std::runtime_error("persist: unsupported store format version " +
                             std::to_string(version));
  }
  StoreManifest m;
  m.grid_fingerprint = r.u64();
  m.grid_cells = r.u64();
  m.trials_per_cell = r.u32();
  m.trial_salt = r.u64();
  m.shard_index = r.u32();
  m.shard_count = r.u32();
  if (m.shard_count == 0 || m.shard_index >= m.shard_count) {
    throw std::runtime_error("persist: manifest shard " +
                             std::to_string(m.shard_index) + "/" +
                             std::to_string(m.shard_count) + " out of range");
  }
  const std::uint64_t axes = r.count();
  m.axes.reserve(axes);
  for (std::uint64_t i = 0; i < axes; ++i) {
    campaign::AxisSpec spec;
    spec.name = r.str();
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(campaign::AxisKind::kEnum)) {
      throw std::runtime_error("persist: manifest axis '" + spec.name +
                               "' has unknown kind " + std::to_string(kind));
    }
    spec.kind = static_cast<campaign::AxisKind>(kind);
    const std::uint64_t values = r.count();
    spec.values.reserve(values);
    for (std::uint64_t j = 0; j < values; ++j) {
      campaign::AxisValue value = decode_axis_value(r);
      if (value.kind != spec.kind) {
        throw std::runtime_error("persist: manifest axis '" + spec.name +
                                 "' holds a value of another kind");
      }
      spec.values.push_back(std::move(value));
    }
    m.axes.push_back(std::move(spec));
  }
  return m;
}

std::string describe_manifest_mismatch(const StoreManifest& have,
                                       const StoreManifest& want) {
  std::string out;
  auto field = [&](const char* name, auto a, auto b) {
    if (a != b) {
      if (!out.empty()) out += ", ";
      out += std::string(name) + " " + std::to_string(a) + " != " +
             std::to_string(b);
    }
  };
  field("grid_fingerprint", have.grid_fingerprint, want.grid_fingerprint);
  field("grid_cells", have.grid_cells, want.grid_cells);
  field("trials_per_cell", have.trials_per_cell, want.trials_per_cell);
  field("trial_salt", have.trial_salt, want.trial_salt);
  field("shard_index", have.shard_index, want.shard_index);
  field("shard_count", have.shard_count, want.shard_count);
  if (!(have.axes == want.axes)) {
    if (!out.empty()) out += ", ";
    auto schema = [](const StoreManifest& m) {
      std::string s;
      for (const campaign::AxisSpec& axis : m.axes) {
        if (!s.empty()) s += '/';
        s += axis.name;
      }
      return s.empty() ? std::string("<none>") : s;
    };
    out += "axis schema [" + schema(have) + "] != [" + schema(want) + "]";
  }
  return out;
}

GridKeys::GridKeys(const StoreManifest& manifest, const std::string& path)
    : manifest_{manifest}, path_{path} {
  // The product wraps as GridBuilder::full_size does; an axis without
  // values makes it 0, and then no index is inside the grid.
  std::uint64_t cells = 1;
  for (const campaign::AxisSpec& axis : manifest.axes) {
    cells *= axis.values.size();
  }
  if (cells != manifest.grid_cells) return;
  util::ByteWriter head;
  head.varint(manifest.axes.size());
  head_ = head.take();
  for (const campaign::AxisSpec& axis : manifest.axes) {
    std::vector<std::vector<std::uint8_t>>& pieces = pieces_.emplace_back();
    for (const campaign::AxisValue& value : axis.values) {
      util::ByteWriter w;
      w.str(axis.name);
      encode_axis_value(w, value);
      pieces.push_back(w.take());
    }
  }
  digits_.resize(manifest.axes.size());
}

bool CellFilter::matches(std::span<const std::uint8_t> key) const {
  const auto text = [](std::span<const std::uint8_t> bytes) {
    return std::string_view{reinterpret_cast<const char*>(bytes.data()),
                            bytes.size()};
  };
  for (const Clause& clause : clauses) {
    // The first coordinate on the clause's axis decides, as in find_coord.
    util::ByteReader r{key};
    std::optional<AxisValueBytes> value;
    for (std::uint64_t coords = r.count(); coords > 0 && !value; --coords) {
      const bool on_axis = text(r.blob()) == clause.axis;
      const AxisValueBytes v = read_axis_value(r);
      if (on_axis) value = v;
    }
    if (!value) return false;
    // The value's canonical label, as AxisValue::label() spells it.
    std::string number;
    std::string_view label;
    switch (value->kind) {
      case campaign::AxisKind::kString:
      case campaign::AxisKind::kEnum:
        label = text(value->bytes);
        break;
      case campaign::AxisKind::kDouble:
        number = campaign::table::format_double(
            util::ByteReader{value->bytes}.f64());
        label = number;
        break;
      case campaign::AxisKind::kBool:
        label = value->bytes.front() != 0 ? "1" : "0";
        break;
    }
    if (std::ranges::find(clause.labels, label) == clause.labels.end()) {
      return false;
    }
  }
  return true;
}

CellFilter::Clause CellFilter::parse_clause(const std::string& spec) {
  const std::size_t eq = spec.find('=');
  if (eq == std::string::npos || eq == 0) {
    throw std::invalid_argument(
        "cell filter expects AXIS=VALUE[,VALUE...]: " + spec);
  }
  Clause clause;
  clause.axis = spec.substr(0, eq);
  std::size_t start = eq + 1;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::size_t end = comma == std::string::npos ? spec.size() : comma;
    if (end == start) {
      throw std::invalid_argument("cell filter has an empty value: " + spec);
    }
    clause.labels.push_back(spec.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (clause.labels.empty()) {
    throw std::invalid_argument("cell filter has no values: " + spec);
  }
  return clause;
}

TrialRecord TrialRecord::from_result(std::uint64_t cell_index,
                                     std::uint32_t trial,
                                     const attack::ScenarioResult& result) {
  TrialRecord t;
  t.cell_index = cell_index;
  t.trial = trial;
  t.denied = result.denied;
  t.model_identified = result.model_identified_correctly;
  t.pixel_match = result.pixel_match;
  t.psnr = result.psnr;
  t.descriptor_pixel_match = result.descriptor_pixel_match;
  t.denial_reason = result.denial_reason;
  return t;
}

namespace {

/// The open mode's checks on `path`, made before the store's lock
/// creates the file; returns `path`. A file shorter than the magic is
/// the debris of a kill between create and the magic write — not a
/// resumable store. Only explicit kCreate refuses to clobber it.
const std::string& checked_store_path(const std::string& path,
                                      CampaignStore::Mode mode) {
  const bool usable = record_file_usable(path);
  if (mode == CampaignStore::Mode::kCreate && std::filesystem::exists(path)) {
    throw std::runtime_error(
        "persist: store already exists (resume instead?): " + path);
  }
  if (mode == CampaignStore::Mode::kResume && !usable) {
    throw std::runtime_error("persist: no store to resume: " + path);
  }
  if (!usable && std::filesystem::exists(levels_manifest_path(path))) {
    // A sidecar without its log is a half-deleted store; writing a fresh
    // log under it would attach the old segments to a new sweep. Refuse
    // until the debris is cleared.
    throw std::runtime_error(
        "persist: stale levels manifest without its store log (remove " +
        levels_manifest_path(path) + " and its segments): " + path);
  }
  return path;
}

}  // namespace

CampaignStore::CampaignStore(const std::string& path,
                             const StoreManifest& manifest, Mode mode,
                             StoreOptions options)
    : path_{path},
      manifest_{manifest},
      grid_keys_{manifest_, path_},
      options_{options},
      lock_{checked_store_path(path, mode), FileLock::Kind::kShared},
      writer_{path, [this](const RecordView& rec) { visit_existing(rec); }} {
  if (!manifest_on_disk_) {
    // Fresh store — or an existing file whose every record was torn off.
    writer_.append(kRecManifest, encode_store_manifest(manifest_));
    writer_.flush();
    return;
  }
  // The completed cells as every read sees them: the log's and any
  // segments' cell records, last copy wins, each held to the grid's
  // keys. Only the small cell blocks of a segment are read, never its
  // trial data.
  for (campaign::CellStats& cell : StoreReader{path_}.cells()) {
    const std::uint64_t index = cell.index;
    completed_.emplace(index, std::move(cell));
  }
}

void CampaignStore::visit_existing(const RecordView& rec) {
  if (rec.type == kRecManifest) {
    const StoreManifest on_disk = decode_store_manifest(rec.payload);
    if (!(on_disk == manifest_)) {
      throw std::runtime_error(
          "persist: store belongs to a different sweep (" +
          describe_manifest_mismatch(on_disk, manifest_) + "): " + path_);
    }
    manifest_on_disk_ = true;
  } else if (!manifest_on_disk_) {
    throw std::runtime_error("persist: store has no manifest record: " +
                             path_);
  }
  // Cell records are StoreReader's to read once the torn tail is gone.
  // Trial records are never replayed: resume re-runs incomplete cells
  // from scratch, and deterministic reseeding reproduces the identical
  // trials.
}

void CampaignStore::append_trial(const TrialRecord& trial) {
  const std::lock_guard lock{mutex_};
  trial_bytes_.clear();
  encode_trial(trial, trial_bytes_);
  writer_.append(kRecTrial, trial_bytes_.bytes());
}

void CampaignStore::complete_cell(const campaign::CellStats& stats) {
  const std::vector<std::uint8_t> payload = encode_cell(stats);
  const CellKeyView cell = read_cell_key(payload);
  const std::lock_guard lock{mutex_};
  grid_keys_.check(cell.index, cell.key);
  writer_.append(kRecCell, payload);
  if (options_.fsync_every != 0 && ++cells_since_sync_ >= options_.fsync_every) {
    writer_.sync();
    cells_since_sync_ = 0;
  } else {
    writer_.flush();
  }
  completed_[stats.index] = stats;
}

const campaign::CellStats* CampaignStore::completed_stats(
    std::uint64_t cell_index) const {
  const std::lock_guard lock{mutex_};
  const auto it = completed_.find(cell_index);
  return it == completed_.end() ? nullptr : &it->second;
}

std::size_t CampaignStore::completed_count() const {
  const std::lock_guard lock{mutex_};
  return completed_.size();
}

std::vector<std::uint64_t> CampaignStore::completed_cells() const {
  const std::lock_guard lock{mutex_};
  std::vector<std::uint64_t> out;
  out.reserve(completed_.size());
  for (const auto& [index, stats] : completed_) out.push_back(index);
  std::sort(out.begin(), out.end());
  return out;
}

void CampaignStore::sync() {
  const std::lock_guard lock{mutex_};
  writer_.sync();
  cells_since_sync_ = 0;
}

SweepData load_sweep(const std::vector<std::string>& paths,
                     const CellFilter& filter) {
  TRACE_SPAN("persist", "load_sweep");
  SweepWalk walk{paths, filter};
  SweepData out;
  out.trials.reserve(walk.trial_records());
  while (const std::optional<CellTrials> cell = walk.next()) {
    if (cell->stats != nullptr) out.cells.push_back(*cell->stats);
    out.trials.insert(out.trials.end(), cell->trials.begin(),
                      cell->trials.end());
  }
  static_cast<SweepInfo&>(out) = walk.info();
  return out;
}

StoreTailer::Counts StoreTailer::poll() {
  // Segment totals come from the levels manifest alone — no block
  // reads. A generation bump means a compaction replaced the segment
  // set and trimmed the log under us: rebase and rescan the (now tiny)
  // log from the top.
  try {
    const std::optional<LevelsManifest> levels = read_levels_manifest(path_);
    const std::uint64_t generation = levels ? levels->generation : 0;
    if (generation != generation_) {
      generation_ = generation;
      offset_ = 0;
      log_counts_ = {};
      segment_counts_ = {};
      if (levels.has_value()) {
        for (const SegmentRef& ref : levels->segments) {
          segment_counts_.trials += ref.trials;
          segment_counts_.cells += ref.cells;
        }
      }
    }
  } catch (const std::runtime_error&) {
    // Sidecar mid-replacement: keep the previous view, retry next poll.
  }

  try {
    RecordBuffer log{path_, offset_};
    while (const std::optional<RecordView> rec = log.next()) {
      switch (rec->type) {
        case kRecTrial: ++log_counts_.trials; break;
        case kRecCell: ++log_counts_.cells; break;
        default: break;  // manifest / future record types
      }
    }
    offset_ = log.valid_bytes();
  } catch (const std::runtime_error&) {
    // No store yet, its magic still in flight, or a transient I/O
    // hiccup: a progress view reports nothing new and retries next poll.
  }
  return {segment_counts_.trials + log_counts_.trials,
          segment_counts_.cells + log_counts_.cells};
}

std::vector<std::string> list_store_files(const std::string& dir) {
  std::vector<std::string> stores;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().extension() == ".store") {
      stores.push_back(entry.path().string());
    }
  }
  std::sort(stores.begin(), stores.end());
  return stores;
}

std::vector<std::string> sweep_store_paths(const std::string& path) {
  if (!std::filesystem::is_directory(path)) return {path};
  std::vector<std::string> stores = list_store_files(path);
  if (stores.empty()) {
    throw std::runtime_error("persist: no *.store files in " + path);
  }
  return stores;
}

campaign::SweepReport merge_stores(const std::vector<std::string>& paths) {
  // Only the cells are kept; the walk still checks every trial copy.
  SweepWalk walk{paths, {}};
  campaign::SweepReport report;
  while (const std::optional<CellTrials> cell = walk.next()) {
    if (cell->stats != nullptr) report.cells.push_back(*cell->stats);
  }
  const SweepInfo& info = walk.info();
  if (report.cells.size() != info.manifest.grid_cells) {
    throw std::runtime_error(
        "persist: merged stores cover " + std::to_string(report.cells.size()) +
        " of " + std::to_string(info.manifest.grid_cells) +
        " cells (missing shard or worker store? sweep still in flight?)");
  }
  return report;
}

CompactionResult compact_store(const std::string& path) {
  TRACE_SPAN("persist", "compact_store");
  const FileLock lock{path, FileLock::Kind::kExclusive};

  CompactionResult result;
  // The reader stays open until the new files are written: the cells'
  // merged trials and the unknown records are views into its log.
  std::optional<StoreReader> reader;
  StoreReader::KeyedCells cells;
  {
    TRACE_SPAN("persist", "compact_read");
    reader.emplace(path);
    const std::optional<LevelsManifest>& levels = reader->levels();
    result.bytes_before = result.bytes_after = reader->store_bytes();
    result.segments_live = levels ? levels->segments.size() : 0;
    result.generation = levels ? levels->generation : 0;
    // Nothing to fold in and nothing to merge: repeated compaction must
    // be byte-stable.
    if (!reader->log_has_data() && !reader->truncated_tail() &&
        result.segments_live <= 1) {
      return result;
    }
    // Orphan trials (their cell never completed) are left out: a resume
    // re-runs and re-streams them.
    cells = reader->keyed_cells();
  }
  const std::optional<LevelsManifest>& levels = reader->levels();
  LevelsManifest out;  // the sidecar this compaction writes
  out.identity = reader->manifest();

  // ---- One segment holding every completed cell and its trials.
  out.generation = (levels ? levels->generation : 0) + 1;
  SegmentInfo info;  // what the segment holds; the rest is dropped
  if (!cells.cells.empty()) {
    SegmentRef& ref = out.segments.emplace_back();  // level 0
    ref.sequence = 1;
    if (levels.has_value()) {
      for (const SegmentRef& live : levels->segments) {
        ref.sequence = std::max(ref.sequence, live.sequence + 1);
      }
    }
    ref.file = segment_file_name(path, ref.sequence);
    const std::string segment = segment_path(path, ref);
    info = write_segment(segment, ref.level, ref.sequence, out.identity,
                         cells.cells, cells.trials);
    ref.bytes = file_size_or_zero(segment);
    ref.trials = info.trial_count;
    ref.cells = info.cell_count;
  }
  result.trials_dropped = reader->trial_records() - info.trial_count;
  result.cells_dropped = reader->cell_records() - info.cell_count;
  result.segments_written = result.segments_live = out.segments.size();
  if (!out.segments.empty() || levels.has_value()) {
    result.generation = out.generation;
    write_levels_manifest(path, out);
  }

  // Trim the log to its write-ahead essentials: the manifest record and
  // any unknown (future-format) records, preserved verbatim. Rename over
  // the original only once durable; fsync the directory so a crash
  // cannot resurrect the fat pre-compaction log.
  {
    const std::string tmp = path + ".compact";
    {
      RecordWriter writer{tmp};
      writer.append(kRecManifest, encode_store_manifest(out.identity));
      for (const RecordView& rec : reader->unknown_records()) {
        writer.append(rec.type, rec.payload);
      }
      writer.sync();
    }
    reader.reset();  // closes the superseded segments before they go
    std::filesystem::rename(tmp, path);
    fsync_parent_dir(path);
  }

  // Superseded segments last: the manifest no longer names them, so a
  // crash before this point merely leaves invisible debris (cleared by
  // the next compaction's sweep).
  remove_segments_except(path, out.segments.empty() ? std::string{}
                                                    : out.segments[0].file);

  result.bytes_after = file_size_or_zero(path) +
                       file_size_or_zero(levels_manifest_path(path));
  for (const SegmentRef& ref : out.segments) result.bytes_after += ref.bytes;
  return result;
}

}  // namespace msa::persist
