#include "persist/campaign_store.h"

#include <algorithm>
#include <bit>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <utility>

#include "attack/scenario.h"
#include "campaign/axis.h"
#include "persist/encoding.h"
#include "persist/manifest.h"
#include "persist/segment.h"
#include "persist/store_codec.h"
#include "persist/store_reader.h"

namespace msa::persist {

namespace {

std::uint64_t file_size_or_zero(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

/// Field-by-field equality, doubles by bit pattern: true exactly when
/// encode_trial(a) == encode_trial(b), without encoding either.
bool same_trial_bytes(const TrialRecord& a, const TrialRecord& b) {
  const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  return a.cell_index == b.cell_index && a.trial == b.trial &&
         a.denied == b.denied && a.model_identified == b.model_identified &&
         bits(a.pixel_match) == bits(b.pixel_match) &&
         bits(a.psnr) == bits(b.psnr) &&
         bits(a.descriptor_pixel_match) == bits(b.descriptor_pixel_match) &&
         a.denial_reason == b.denial_reason;
}

/// Merges `incoming` into `merged`, both ascending and key-unique by
/// `key`. A key present in both keeps `merged`'s (earlier) copy: counted
/// in `duplicates` when `same` holds, handed to `conflict` — which
/// throws — when it does not.
template <typename T, typename KeyFn, typename SameFn, typename ConflictFn>
void merge_unique(std::vector<T>& merged, std::vector<T>& incoming, KeyFn key,
                  SameFn same, std::size_t& duplicates, ConflictFn conflict) {
  std::vector<T> out;
  out.reserve(merged.size() + incoming.size());
  auto a = merged.begin();
  auto b = incoming.begin();
  while (a != merged.end() && b != incoming.end()) {
    if (key(*a) < key(*b)) {
      out.push_back(std::move(*a++));
    } else if (key(*b) < key(*a)) {
      out.push_back(std::move(*b++));
    } else {
      if (!same(*a, *b)) conflict(key(*b));
      ++duplicates;
      out.push_back(std::move(*a++));
      ++b;
    }
  }
  std::move(a, merged.end(), std::back_inserter(out));
  std::move(b, incoming.end(), std::back_inserter(out));
  merged = std::move(out);
}

}  // namespace

std::vector<std::uint8_t> encode_store_manifest(const StoreManifest& m) {
  // Always writes the CURRENT format — re-encoding a v1-loaded manifest
  // (compaction) upgrades the file to v2 with the synthesized schema.
  ByteWriter w;
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
  return {w.bytes().begin(), w.bytes().end()};
}

StoreManifest decode_store_manifest(std::span<const std::uint8_t> payload) {
  ByteReader r{payload};
  const std::uint32_t version = r.u32();
  if (version == 0 || version > kStoreFormatVersion) {
    throw std::runtime_error("persist: unsupported store format version " +
                             std::to_string(version));
  }
  StoreManifest m;
  m.version = version;
  m.grid_fingerprint = r.u64();
  m.grid_cells = r.u64();
  m.trials_per_cell = r.u32();
  m.trial_salt = r.u64();
  m.shard_index = r.u32();
  m.shard_count = r.u32();
  if (version == 1) {
    // v1 manifests end here; the four-axis schema was implicit.
    m.axes = legacy_axis_schema();
    return m;
  }
  const std::uint64_t axes = r.varint();
  m.axes.reserve(axes);
  for (std::uint64_t i = 0; i < axes; ++i) {
    campaign::AxisSpec spec;
    spec.name = r.str();
    spec.kind = static_cast<campaign::AxisKind>(r.u8());
    const std::uint64_t values = r.varint();
    spec.values.reserve(values);
    for (std::uint64_t j = 0; j < values; ++j) {
      spec.values.push_back(decode_axis_value(r));
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
  field("version", have.version, want.version);
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

bool CellFilter::matches(
    const std::vector<campaign::AxisCoordinate>& coords) const {
  for (const Clause& clause : clauses) {
    const campaign::AxisValue* value =
        campaign::find_coord(coords, clause.axis);
    if (value == nullptr) return false;
    const std::string label = value->label();
    if (std::find(clause.labels.begin(), clause.labels.end(), label) ==
        clause.labels.end()) {
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

CampaignStore::CampaignStore(const std::string& path,
                             const StoreManifest& manifest, Mode mode,
                             StoreOptions options)
    : path_{path},
      manifest_{manifest},
      options_{options},
      resuming_{[&] {
        // A file shorter than the magic is the debris of a kill between
        // create and the magic write — not a resumable store. Only
        // explicit kCreate refuses to clobber it.
        const bool usable = record_file_usable(path);
        if (mode == Mode::kCreate && std::filesystem::exists(path)) {
          throw std::runtime_error(
              "persist: store already exists (resume instead?): " + path);
        }
        if (mode == Mode::kResume && !usable) {
          throw std::runtime_error("persist: no store to resume: " + path);
        }
        if (!usable &&
            std::filesystem::exists(levels_manifest_path(path))) {
          // A sidecar without its log is a half-deleted store; writing a
          // fresh log under it would attach the old segments to a new
          // sweep. Refuse until the debris is cleared.
          throw std::runtime_error(
              "persist: stale levels manifest without its store log "
              "(remove " +
              levels_manifest_path(path) + " and its segments): " + path);
        }
        return usable;
      }()},
      writer_{path, [&] {
                if (!resuming_) return RecordWriter::Mode::kTruncate;
                // One pass: validate manifest, reload completed cells,
                // find the torn-tail truncation point — all before the
                // writer opens (and without rejecting the file by
                // mutating it first).
                const std::uint64_t keep = scan_existing();
                std::error_code ec;
                std::filesystem::resize_file(path, keep, ec);
                if (ec) {
                  throw std::runtime_error(
                      "persist: cannot truncate torn tail: " + path + ": " +
                      ec.message());
                }
                return RecordWriter::Mode::kAppendClean;
              }()} {
  if (!resuming_ || !manifest_on_disk_) {
    // Fresh store — or an existing file whose every record was torn off.
    writer_.append(kRecManifest, encode_store_manifest(manifest_));
    writer_.flush();
  }
}

std::uint64_t CampaignStore::scan_existing() {
  bool any_records = false;
  RecordReader reader{path_};
  for (std::optional<Record> rec = reader.next(); rec.has_value();
       rec = reader.next()) {
    any_records = true;
    if (rec->type == kRecManifest) {
      manifest_on_disk_ = true;
      const StoreManifest on_disk = decode_store_manifest(rec->payload);
      if (!(on_disk == manifest_)) {
        throw std::runtime_error(
            "persist: store belongs to a different sweep (" +
            describe_manifest_mismatch(on_disk, manifest_) + "): " + path_);
      }
    } else if (rec->type == kRecCell || rec->type == kRecCellV2) {
      campaign::CellStats cell = rec->type == kRecCellV2
                                     ? decode_cell_v2(rec->payload)
                                     : decode_cell_v1(rec->payload);
      const std::uint64_t index = cell.index;
      completed_[index] = std::move(cell);
    }
    // Trial records are not replayed here: resume re-runs incomplete
    // cells from scratch, and deterministic reseeding reproduces the
    // identical trials.
  }
  if (any_records && !manifest_on_disk_) {
    throw std::runtime_error("persist: store has no manifest record: " +
                             path_);
  }

  // Segmented store: the completed-cell map continues in the segments'
  // cell blocks — the log was trimmed at the last compaction. Only the
  // small cell blocks are read; resume never replays segment trial data,
  // so seeking to the incomplete cells costs O(completed cells), not
  // O(trials).
  if (const std::optional<LevelsManifest> levels =
          read_levels_manifest(path_)) {
    if (!(levels->identity == manifest_)) {
      throw std::runtime_error(
          "persist: levels manifest belongs to a different sweep (" +
          describe_manifest_mismatch(levels->identity, manifest_) +
          "): " + path_);
    }
    for (const SegmentRef& ref : levels->segments) {
      const SegmentReader segment{segment_path(path_, ref)};
      if (!(segment.info().identity == manifest_)) {
        throw std::runtime_error("persist: segment " + ref.file +
                                 " belongs to a different sweep: " + path_);
      }
      for (campaign::CellStats& cell : segment.cells()) {
        const std::uint64_t index = cell.index;
        completed_.emplace(index, std::move(cell));
      }
    }
  }
  return reader.valid_bytes();
}

void CampaignStore::append_trial(const TrialRecord& trial) {
  const std::lock_guard lock{mutex_};
  writer_.append(kRecTrial, encode_trial(trial));
}

void CampaignStore::complete_cell(const campaign::CellStats& stats) {
  const std::lock_guard lock{mutex_};
  writer_.append(kRecCellV2, encode_cell(stats));
  if (options_.fsync_every != 0 && ++cells_since_sync_ >= options_.fsync_every) {
    writer_.sync();
    cells_since_sync_ = 0;
  } else {
    writer_.flush();
  }
  completed_[stats.index] = stats;
}

bool CampaignStore::cell_complete(std::uint64_t cell_index) const {
  const std::lock_guard lock{mutex_};
  return completed_.contains(cell_index);
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

StoreContents read_store(const std::string& path) {
  return StoreReader{path}.read_all();
}

campaign::SweepReport merge_stores(const std::vector<std::string>& paths) {
  if (paths.empty()) {
    throw std::runtime_error("persist: merge needs at least one store");
  }

  std::vector<StoreContents> stores;
  stores.reserve(paths.size());
  for (const std::string& path : paths) stores.push_back(read_store(path));

  const StoreManifest& first = stores.front().manifest;
  std::map<std::uint32_t, const std::string*> shards_seen;
  std::map<std::uint64_t, campaign::CellStats> merged;
  for (std::size_t i = 0; i < stores.size(); ++i) {
    const StoreManifest& m = stores[i].manifest;
    StoreManifest sweep_identity = m;
    sweep_identity.shard_index = first.shard_index;
    if (!(sweep_identity == first)) {
      throw std::runtime_error(
          "persist: store is from a different sweep: " + paths[i]);
    }
    if (m.shard_index >= m.shard_count) {
      throw std::runtime_error("persist: shard index out of range: " +
                               paths[i]);
    }
    const auto [it, inserted] = shards_seen.emplace(m.shard_index, &paths[i]);
    if (!inserted) {
      throw std::runtime_error("persist: duplicate shard " +
                               std::to_string(m.shard_index) + ": " + paths[i] +
                               " and " + *it->second);
    }
    for (campaign::CellStats& cell : stores[i].cells) {
      if (cell.index >= m.grid_cells) {
        throw std::runtime_error("persist: cell index beyond grid in " +
                                 paths[i]);
      }
      const std::uint64_t index = cell.index;
      if (!merged.emplace(index, std::move(cell)).second) {
        throw std::runtime_error("persist: cell " + std::to_string(index) +
                                 " reported by more than one store");
      }
    }
  }

  if (merged.size() != first.grid_cells) {
    throw std::runtime_error(
        "persist: merged stores cover " + std::to_string(merged.size()) +
        " of " + std::to_string(first.grid_cells) +
        " cells (incomplete shard? missing store?)");
  }

  campaign::SweepReport report;
  report.cells.reserve(merged.size());
  for (auto& [index, cell] : merged) report.cells.push_back(std::move(cell));
  return report;
}

SweepData load_sweep(const std::vector<std::string>& paths,
                     const CellFilter& filter) {
  if (paths.empty()) {
    throw std::runtime_error("persist: load_sweep needs at least one store");
  }

  SweepData out;
  // Each store's contents arrive ascending and key-unique, so the union
  // is a merge. A duplicate is accepted only when it is the SAME bytes —
  // the only duplicates a deterministic sweep can legally produce.
  bool first = true;
  for (const std::string& path : paths) {
    StoreContents contents = StoreReader{path}.read_matching(filter);
    if (first) {
      out.manifest = contents.manifest;
      first = false;
    } else {
      StoreManifest identity = contents.manifest;
      identity.shard_index = out.manifest.shard_index;
      identity.shard_count = out.manifest.shard_count;
      if (!(identity == out.manifest)) {
        throw std::runtime_error(
            "persist: store is from a different sweep (" +
            describe_manifest_mismatch(contents.manifest, out.manifest) +
            "): " + path);
      }
    }
    out.truncated_tail = out.truncated_tail || contents.truncated_tail;

    const auto conflict = [&](const auto& what) {
      throw std::runtime_error(
          "persist: " + what +
          " has conflicting copies (corrupt store or mixed sweeps): " + path);
    };
    merge_unique(
        out.cells, contents.cells,
        [](const campaign::CellStats& c) { return std::uint64_t{c.index}; },
        [](const campaign::CellStats& a, const campaign::CellStats& b) {
          return encode_cell(a) == encode_cell(b);
        },
        out.duplicate_cells,
        [&](std::uint64_t index) {
          conflict("cell " + std::to_string(index));
        });
    // Earlier stores' cells already passed this check, and a conflict
    // cannot sit beyond the grid, so only this store can trip it.
    if (!out.cells.empty() &&
        out.cells.back().index >= contents.manifest.grid_cells) {
      throw std::runtime_error("persist: cell index beyond grid in " + path);
    }
    merge_unique(
        out.trials, contents.trials,
        [](const TrialRecord& t) { return t.key(); }, same_trial_bytes,
        out.duplicate_trials, [&](const TrialRecord::Key& key) {
          conflict("trial (" + std::to_string(key.first) + ", " +
                   std::to_string(key.second) + ")");
        });
  }
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

  if (record_file_usable(path_)) {
    try {
      RecordReader reader{path_, offset_};
      while (const auto rec = reader.next()) {
        switch (rec->type) {
          case kRecTrial: ++log_counts_.trials; break;
          case kRecCell:
          case kRecCellV2: ++log_counts_.cells; break;
          default: break;  // manifest / future record types
        }
      }
      offset_ = reader.valid_bytes();
    } catch (const std::runtime_error&) {
      // Mid-creation file (magic in flight) or transient I/O hiccup: a
      // progress view reports nothing new and retries next poll.
    }
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

SweepData load_sweep_path(const std::string& path, const CellFilter& filter) {
  if (std::filesystem::is_directory(path)) {
    const std::vector<std::string> stores = list_store_files(path);
    if (stores.empty()) {
      throw std::runtime_error("persist: no *.store files in " + path);
    }
    return load_sweep(stores, filter);
  }
  return load_sweep({path}, filter);
}

campaign::SweepReport merge_worker_stores(const std::vector<std::string>& paths) {
  SweepData data = load_sweep(paths);
  if (data.cells.size() != data.manifest.grid_cells) {
    throw std::runtime_error(
        "persist: worker stores cover " + std::to_string(data.cells.size()) +
        " of " + std::to_string(data.manifest.grid_cells) +
        " cells (sweep still in flight? missing store?)");
  }
  campaign::SweepReport report;
  report.cells = std::move(data.cells);
  return report;
}

namespace {

/// In-flight unit of compaction: one live segment (existing or written
/// this pass) that may still be merged into a deeper level.
struct CompactUnit {
  std::string path;
  std::uint32_t level = 0;
  std::uint64_t sequence = 0;
  std::unique_ptr<SegmentReader> reader;
};

using CellMap = std::map<std::uint64_t, campaign::CellStats>;
using TrialMap = std::map<std::pair<std::uint64_t, std::uint32_t>, TrialRecord>;

std::vector<SegmentCell> to_segment_cells(CellMap cells, TrialMap trials) {
  std::vector<SegmentCell> out;
  out.reserve(cells.size());
  for (auto& [index, stats] : cells) {
    SegmentCell cell;
    cell.stats = std::move(stats);
    const auto lo = trials.lower_bound({index, 0});
    const auto hi = trials.lower_bound({index + 1, 0});
    for (auto it = lo; it != hi; ++it) {
      cell.trials.push_back(std::move(it->second));
    }
    out.push_back(std::move(cell));
  }
  return out;
}

/// Drains `inputs` (ascending sequence = last-wins) into key maps,
/// returning how many duplicate records the merge collapsed.
std::pair<std::size_t, std::size_t> drain_units(
    const std::vector<CompactUnit*>& inputs, CellMap& cells,
    TrialMap& trials) {
  std::size_t trial_records = 0;
  std::size_t cell_records = 0;
  for (const CompactUnit* unit : inputs) {
    for (campaign::CellStats& cell : unit->reader->cells()) {
      ++cell_records;
      const std::uint64_t index = cell.index;
      cells[index] = std::move(cell);
    }
    std::vector<TrialRecord> block;
    for (std::size_t b = 0; b < unit->reader->trial_block_count(); ++b) {
      block.clear();
      unit->reader->append_block_trials(b, block);
      for (TrialRecord& t : block) {
        ++trial_records;
        trials[{t.cell_index, t.trial}] = std::move(t);
      }
    }
  }
  return {trial_records - trials.size(), cell_records - cells.size()};
}

}  // namespace

CompactionResult compact_store(const std::string& path,
                               const CompactOptions& options) {
  CompactionResult result;

  // ---- Load the current state: sidecar + segments + raw log pass.
  std::optional<LevelsManifest> levels = read_levels_manifest(path);
  std::vector<CompactUnit> units;
  std::uint64_t next_sequence = 0;
  if (levels.has_value()) {
    for (const SegmentRef& ref : levels->segments) {
      CompactUnit unit;
      unit.path = segment_path(path, ref);
      unit.level = ref.level;
      unit.sequence = ref.sequence;
      unit.reader = std::make_unique<SegmentReader>(unit.path);
      next_sequence = std::max(next_sequence, ref.sequence);
      units.push_back(std::move(unit));
    }
  }

  StoreManifest manifest;
  bool saw_manifest = false;
  CellMap log_cells;
  TrialMap log_trials;
  std::vector<Record> unknown;  // forward-compat: preserved verbatim
  std::size_t trial_records = 0;
  std::size_t cell_records = 0;
  bool torn_tail = false;
  {
    RecordReader reader{path};
    for (std::optional<Record> rec = reader.next(); rec.has_value();
         rec = reader.next()) {
      switch (rec->type) {
        case kRecManifest: {
          const StoreManifest m = decode_store_manifest(rec->payload);
          if (saw_manifest && !(m == manifest)) {
            throw std::runtime_error(
                "persist: conflicting manifest records in " + path);
          }
          manifest = m;
          saw_manifest = true;
          break;
        }
        case kRecTrial: {
          ++trial_records;
          TrialRecord t = decode_trial(rec->payload);
          log_trials[{t.cell_index, t.trial}] = std::move(t);
          break;
        }
        case kRecCell: {
          ++cell_records;
          campaign::CellStats c = decode_cell_v1(rec->payload);
          const std::uint64_t index = c.index;
          log_cells[index] = std::move(c);
          break;
        }
        case kRecCellV2: {
          ++cell_records;
          campaign::CellStats c = decode_cell_v2(rec->payload);
          const std::uint64_t index = c.index;
          log_cells[index] = std::move(c);
          break;
        }
        default:
          unknown.push_back(std::move(*rec));
          break;
      }
    }
    torn_tail = reader.truncated();
  }
  if (!saw_manifest) {
    throw std::runtime_error("persist: store has no manifest record: " + path);
  }
  if (levels.has_value() && !(levels->identity == manifest)) {
    throw std::runtime_error(
        "persist: levels manifest does not match store (" +
        describe_manifest_mismatch(levels->identity, manifest) + "): " + path);
  }

  result.bytes_before = file_size_or_zero(path) +
                        file_size_or_zero(levels_manifest_path(path));
  for (const CompactUnit& unit : units) {
    result.bytes_before += unit.reader->file_bytes();
  }

  // ---- Drop superseded log records. A cell is "completed" if any tier
  // holds its aggregate; orphan trials (their cell never completed) are
  // re-run and re-streamed by a resume, so they drop here.
  std::set<std::uint64_t> completed;
  CellMap segment_cells;
  for (const CompactUnit& unit : units) {
    for (campaign::CellStats& cell : unit.reader->cells()) {
      const std::uint64_t index = cell.index;
      completed.insert(index);
      segment_cells[index] = std::move(cell);
    }
  }
  for (const auto& [index, cell] : log_cells) completed.insert(index);
  for (auto it = log_trials.begin(); it != log_trials.end();) {
    if (!completed.contains(it->first.first)) {
      it = log_trials.erase(it);
    } else {
      ++it;
    }
  }
  result.trials_dropped = trial_records - log_trials.size();
  result.cells_dropped = cell_records - log_cells.size();

  const bool log_dirty = trial_records > 0 || cell_records > 0 || torn_tail;
  bool changed = false;

  // ---- Flush the log's data into a fresh level-0 segment. Trials of a
  // cell completed in an older segment (crash-window duplicates) flush
  // under that segment's aggregate — bit-identical, deduped on merge.
  if (!log_cells.empty() || !log_trials.empty()) {
    CellMap flush_cells = log_cells;
    for (const auto& [key, t] : log_trials) {
      if (!flush_cells.contains(key.first)) {
        flush_cells[key.first] = segment_cells.at(key.first);
      }
    }
    CompactUnit unit;
    unit.level = 0;
    unit.sequence = ++next_sequence;
    unit.path = (std::filesystem::path(path).parent_path() /
                 segment_file_name(path, unit.sequence))
                    .string();
    SegmentWriteOptions write_options;
    write_options.block_bytes = options.block_bytes;
    write_segment(unit.path, unit.level, unit.sequence, manifest,
                  to_segment_cells(std::move(flush_cells),
                                   std::move(log_trials)),
                  write_options);
    unit.reader = std::make_unique<SegmentReader>(unit.path);
    units.push_back(std::move(unit));
    ++result.segments_written;
    changed = true;
  }

  // ---- Tier merge. Default (cap 0): everything into one sorted
  // segment. Tiered (cap > 0): any level over the cap merges, together
  // with the next level down, into a single deeper segment — young
  // levels stay small and churn, old levels are rewritten rarely.
  std::vector<std::string> obsolete;
  const auto merge_into = [&](std::vector<std::size_t> input_indices,
                              std::uint32_t out_level) {
    std::vector<CompactUnit*> inputs;
    inputs.reserve(input_indices.size());
    for (const std::size_t i : input_indices) inputs.push_back(&units[i]);
    std::sort(inputs.begin(), inputs.end(),
              [](const CompactUnit* a, const CompactUnit* b) {
                return a->sequence < b->sequence;
              });
    CellMap cells;
    TrialMap trials;
    const auto [dup_trials, dup_cells] = drain_units(inputs, cells, trials);
    result.trials_dropped += dup_trials;
    result.cells_dropped += dup_cells;

    CompactUnit unit;
    unit.level = out_level;
    unit.sequence = ++next_sequence;
    unit.path = (std::filesystem::path(path).parent_path() /
                 segment_file_name(path, unit.sequence))
                    .string();
    SegmentWriteOptions write_options;
    write_options.block_bytes = options.block_bytes;
    write_segment(unit.path, unit.level, unit.sequence, manifest,
                  to_segment_cells(std::move(cells), std::move(trials)),
                  write_options);
    unit.reader = std::make_unique<SegmentReader>(unit.path);
    ++result.segments_written;
    changed = true;

    std::sort(input_indices.begin(), input_indices.end(),
              std::greater<std::size_t>{});
    for (const std::size_t i : input_indices) {
      obsolete.push_back(units[i].path);
      units.erase(units.begin() + static_cast<std::ptrdiff_t>(i));
    }
    units.push_back(std::move(unit));
  };

  if (options.max_level_bytes == 0) {
    if (units.size() > 1) {
      std::vector<std::size_t> all(units.size());
      for (std::size_t i = 0; i < units.size(); ++i) all[i] = i;
      std::uint32_t deepest = 1;
      for (const CompactUnit& unit : units) {
        deepest = std::max(deepest, unit.level);
      }
      merge_into(std::move(all), deepest);
    }
  } else {
    for (bool merged = true; merged;) {
      merged = false;
      std::map<std::uint32_t, std::vector<std::size_t>> by_level;
      std::map<std::uint32_t, std::uint64_t> level_bytes;
      for (std::size_t i = 0; i < units.size(); ++i) {
        by_level[units[i].level].push_back(i);
        level_bytes[units[i].level] += units[i].reader->file_bytes();
      }
      for (const auto& [level, indices] : by_level) {
        if (level_bytes[level] <= options.max_level_bytes) continue;
        std::vector<std::size_t> inputs = indices;
        const auto next = by_level.find(level + 1);
        if (next != by_level.end()) {
          inputs.insert(inputs.end(), next->second.begin(),
                        next->second.end());
        }
        // A single oversized segment with nothing to merge against
        // would only be relabeled deeper forever — leave it be.
        if (inputs.size() < 2) continue;
        merge_into(std::move(inputs), level + 1);
        merged = true;
        break;  // unit indices are stale; recompute the level map
      }
    }
  }

  // ---- Publish. No-op when nothing changed and the log is already
  // clean: repeated compaction must be byte-stable.
  if (!changed && !log_dirty) {
    result.bytes_after = result.bytes_before;
    result.segments_live = units.size();
    result.generation = levels.has_value() ? levels->generation : 0;
    return result;
  }

  if (!units.empty() || levels.has_value()) {
    LevelsManifest out;
    out.generation = (levels.has_value() ? levels->generation : 0) + 1;
    out.identity = manifest;
    // Round-trip the identity through its encoding so a v1 manifest
    // upgrades to the version the trimmed log will carry.
    out.identity = decode_store_manifest(encode_store_manifest(manifest));
    for (const CompactUnit& unit : units) {
      SegmentRef ref;
      ref.file = std::filesystem::path(unit.path).filename().string();
      ref.level = unit.level;
      ref.sequence = unit.sequence;
      ref.bytes = unit.reader->file_bytes();
      ref.trials = unit.reader->info().trial_count;
      ref.cells = unit.reader->info().cell_count;
      out.segments.push_back(std::move(ref));
    }
    std::sort(out.segments.begin(), out.segments.end(),
              [](const SegmentRef& a, const SegmentRef& b) {
                return a.sequence < b.sequence;
              });
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
      RecordWriter writer{tmp, RecordWriter::Mode::kTruncate};
      writer.append(kRecManifest, encode_store_manifest(manifest));
      for (const Record& rec : unknown) {
        writer.append(rec.type, rec.payload);
      }
      writer.sync();
    }
    std::filesystem::rename(tmp, path);
    fsync_parent_dir(path);
  }

  // Obsolete segments last: the manifest no longer names them, so a
  // crash before this point merely leaves invisible debris (cleared by
  // the stale-file sweep below, next compaction).
  std::set<std::string> live;
  for (const CompactUnit& unit : units) {
    live.insert(std::filesystem::path(unit.path).filename().string());
  }
  {
    const std::filesystem::path store{path};
    const std::string base = store.filename().string();
    std::filesystem::path dir = store.parent_path();
    if (dir.empty()) dir = ".";
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.size() > base.size() && name.starts_with(base) &&
          name.ends_with(".seg") && !live.contains(name)) {
        std::filesystem::remove(entry.path(), ec);
      }
    }
  }
  fsync_parent_dir(path);

  result.segments_live = units.size();
  result.bytes_after = file_size_or_zero(path) +
                       file_size_or_zero(levels_manifest_path(path));
  for (const CompactUnit& unit : units) {
    result.bytes_after += unit.reader->file_bytes();
  }
  return result;
}

}  // namespace msa::persist
