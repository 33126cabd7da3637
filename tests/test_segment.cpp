// Segment-tier tests: the sorted block-indexed format itself (round
// trip, index behavior, damage rejection), compaction identity at scale
// (flat vs segmented views byte-identical, legacy multi-segment stores
// included), the indexed read path actually touching only a cell's
// blocks, and the machinery around it (tailer across a compaction,
// resume on a segmented store).
#include "persist/segment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "campaign/axis.h"
#include "campaign/stats.h"
#include "campaign/table.h"
#include "obs/metrics.h"
#include "persist/campaign_store.h"
#include "persist/manifest.h"
#include "persist/record_io.h"
#include "persist/store_codec.h"
#include "persist/store_reader.h"
#include "store_contents.h"
#include "util/bytes.h"
#include "util/crc32.h"

namespace msa::persist {
namespace {

std::string tmp_path(const char* name) {
  const auto dir = std::filesystem::temp_directory_path() / "msa_segment_tests";
  std::filesystem::create_directories(dir);
  const auto path = dir / name;
  std::filesystem::remove(path);
  remove_segment_files(path.string());
  return path.string();
}

/// A fresh directory for a store whose file names are pinned: segment
/// file names embed the store's, and the sidecar names the segment.
std::filesystem::path pinned_dir(const char* name) {
  const auto dir =
      std::filesystem::temp_directory_path() / "msa_segment_tests" / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// A copy of the store at `path` — its log, sidecar and segment files —
/// in the fresh directory `dir`, under the same file name, so the copy's
/// sidecar names the copy's segments.
std::string copy_store(const std::string& path, const char* dir) {
  const std::filesystem::path from{path};
  const std::filesystem::path to = pinned_dir(dir);
  for (const auto& entry :
       std::filesystem::directory_iterator(from.parent_path())) {
    if (entry.path().filename().string().starts_with(
            from.filename().string())) {
      std::filesystem::copy_file(entry.path(), to / entry.path().filename());
    }
  }
  return (to / from.filename()).string();
}

/// Synthetic single-axis sweep identity: `cells` values of "delay_s".
StoreManifest synth_manifest(std::uint64_t cells,
                             std::uint32_t trials_per_cell) {
  StoreManifest m;
  m.grid_fingerprint = 0x5eedf00du;
  m.grid_cells = cells;
  m.trials_per_cell = trials_per_cell;
  m.trial_salt = 42;
  campaign::AxisSpec axis;
  axis.name = "delay_s";
  axis.kind = campaign::AxisKind::kDouble;
  for (std::uint64_t i = 0; i < cells; ++i) {
    axis.values.push_back(campaign::AxisValue::of_number(double(i)));
  }
  m.axes = {std::move(axis)};
  return m;
}

std::vector<campaign::AxisCoordinate> synth_coords(std::uint64_t index) {
  return {{"delay_s", campaign::AxisValue::of_number(double(index))}};
}

TrialRecord synth_trial(std::uint64_t cell, std::uint32_t trial) {
  TrialRecord t;
  t.cell_index = cell;
  t.trial = trial;
  t.denied = (cell + trial) % 3 == 0;
  t.model_identified = trial % 2 == 0;
  t.pixel_match = 0.25 + 0.5 * double(trial % 4) / 4.0;
  t.psnr = 20.0 + double(cell % 50);
  t.descriptor_pixel_match = 0.125 * double(trial % 8);
  if (t.denied) t.denial_reason = "firewall";
  return t;
}

campaign::CellStats synth_stats(std::uint64_t index,
                                std::uint32_t trials_per_cell) {
  campaign::CellStats s;
  s.index = index;
  s.coords = synth_coords(index);
  s.trials = trials_per_cell;
  for (std::uint32_t t = 0; t < trials_per_cell; ++t) {
    const TrialRecord trial = synth_trial(index, t);
    if (trial.denied) {
      ++s.denials;
      if (s.first_denial_reason.empty()) s.first_denial_reason = "firewall";
    }
    if (trial.model_identified) ++s.model_identified;
    s.mean_pixel_match += trial.pixel_match;
    s.mean_psnr_db += trial.psnr;
    s.mean_descriptor_pixel_match += trial.descriptor_pixel_match;
  }
  s.mean_pixel_match /= trials_per_cell;
  s.mean_psnr_db /= trials_per_cell;
  s.mean_descriptor_pixel_match /= trials_per_cell;
  return s;
}

/// Streams `cells` x `trials_per_cell` synthetic records through a real
/// CampaignStore writer; `duplicate_every` > 0 re-appends every Nth
/// cell's trials (the bit-identical duplicates a resume legally leaves).
void write_synth_store(const std::string& path, std::uint64_t cells,
                       std::uint32_t trials_per_cell,
                       std::uint64_t duplicate_every = 0) {
  CampaignStore store{path, synth_manifest(cells, trials_per_cell),
                      CampaignStore::Mode::kCreate};
  for (std::uint64_t c = 0; c < cells; ++c) {
    for (std::uint32_t t = 0; t < trials_per_cell; ++t) {
      store.append_trial(synth_trial(c, t));
    }
    if (duplicate_every != 0 && c % duplicate_every == 0) {
      for (std::uint32_t t = 0; t < trials_per_cell; ++t) {
        store.append_trial(synth_trial(c, t));
      }
    }
    store.complete_cell(synth_stats(c, trials_per_cell));
  }
}

/// The bytes encode_trial appends for `t`.
std::vector<std::uint8_t> trial_bytes(const TrialRecord& t) {
  util::ByteWriter w;
  encode_trial(t, w);
  return w.take();
}

/// One completed cell and its trials, as a test writes a segment.
struct CellInput {
  campaign::CellStats stats;
  std::vector<TrialRecord> trials;
};

/// A write_segment trial source over `trials`: each cell's encoded
/// records, by cell index.
SegmentTrials serve_trials(
    const std::map<std::uint64_t, std::vector<std::vector<std::uint8_t>>>&
        trials) {
  auto views = std::make_shared<std::vector<TrialBytes>>();
  return [&trials, views](const campaign::CellStats& cell) {
    views->clear();
    if (const auto it = trials.find(cell.index); it != trials.end()) {
      views->assign(it->second.begin(), it->second.end());
    }
    return std::span<const TrialBytes>{*views};
  };
}

/// write_segment over `cells` given in any order: they go in by key,
/// each cell's trials by trial index.
SegmentInfo write_cells(const std::string& path, std::uint32_t level,
                        std::uint64_t sequence, const StoreManifest& identity,
                        std::vector<CellInput> cells,
                        const SegmentWriteOptions& options = {}) {
  std::ranges::sort(cells, [](const CellInput& a, const CellInput& b) {
    return cell_key_less(a.stats.coords, b.stats.coords);
  });
  std::vector<campaign::CellStats> stats;
  std::map<std::uint64_t, std::vector<std::vector<std::uint8_t>>> encoded;
  for (CellInput& cell : cells) {
    std::ranges::sort(cell.trials, {}, &TrialRecord::trial);
    for (const TrialRecord& t : cell.trials) {
      encoded[cell.stats.index].push_back(trial_bytes(t));
    }
    stats.push_back(std::move(cell.stats));
  }
  return write_segment(path, level, sequence, identity, stats,
                       serve_trials(encoded), options);
}

/// `cells` synthetic cells from index `first` on, as segment input.
std::vector<CellInput> synth_segment_cells(std::uint64_t cells,
                                             std::uint32_t trials_per_cell,
                                             std::uint64_t first = 0) {
  std::vector<CellInput> out;
  for (std::uint64_t c = first; c < first + cells; ++c) {
    CellInput cell;
    cell.stats = synth_stats(c, trials_per_cell);
    for (std::uint32_t t = 0; t < trials_per_cell; ++t) {
      cell.trials.push_back(synth_trial(c, t));
    }
    out.push_back(std::move(cell));
  }
  return out;
}

/// A store as an older tiered compaction left it: a log holding only its
/// manifest, and a sidecar naming `segments` in ascending sequence (and
/// descending level), so a later segment wins wherever two hold the
/// same key.
void write_segment_store(const std::string& path,
                         const StoreManifest& manifest,
                         std::vector<std::vector<CellInput>> segments) {
  { CampaignStore log{path, manifest, CampaignStore::Mode::kCreate}; }
  LevelsManifest levels;
  levels.generation = 2;
  levels.identity = manifest;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const auto level = static_cast<std::uint32_t>(segments.size() - 1 - i);
    const std::uint64_t sequence = i + 1;
    const std::string file = segment_file_name(path, sequence);
    const std::string segment =
        (std::filesystem::path(path).parent_path() / file).string();
    const SegmentInfo info = write_cells(segment, level, sequence, manifest,
                                           std::move(segments[i]));
    levels.segments.push_back({file, level, sequence,
                               std::filesystem::file_size(segment),
                               info.trial_count, info.cell_count});
  }
  write_levels_manifest(path, levels);
}

/// Two segments: `older` at level 1, then `newer` at level 0.
void write_two_segment_store(const std::string& path,
                             const StoreManifest& manifest,
                             std::vector<CellInput> older,
                             std::vector<CellInput> newer) {
  std::vector<std::vector<CellInput>> segments;
  segments.push_back(std::move(older));
  segments.push_back(std::move(newer));
  write_segment_store(path, manifest, std::move(segments));
}

/// The three stats renderings at once — "byte-identical" means all of
/// text, CSV and JSON.
std::string renderings(const campaign::StatsReport& report) {
  return report.to_text() + "\x1e" + report.to_csv() + "\x1e" +
         report.to_json();
}

/// The worker counts analyze_stores is pinned at: one, a power of two,
/// a count that cuts the grid unevenly, and more workers than most
/// machines running the tests have cores.
constexpr unsigned kWorkerCounts[] = {1, 2, 3, 8};

/// analyze_stores of `paths` under `filter` at every kWorkerCounts
/// count: each must render `want` and count the same duplicates and torn
/// tails. Returns what the walks learned.
SweepInfo expect_stats_at_every_worker_count(
    const std::vector<std::string>& paths, const CellFilter& filter,
    const std::string& want, const std::string& view) {
  std::optional<SweepInfo> first;
  for (const unsigned workers : kWorkerCounts) {
    const campaign::SweepAnalysis got =
        campaign::analyze_stores(paths, filter, workers);
    EXPECT_EQ(renderings(got.report), want)
        << view << " at " << workers << " workers";
    if (!first) {
      first = got.info;
      continue;
    }
    EXPECT_EQ(got.info.duplicate_cells, first->duplicate_cells) << view;
    EXPECT_EQ(got.info.duplicate_trials, first->duplicate_trials) << view;
    EXPECT_EQ(got.info.truncated_tail, first->truncated_tail) << view;
  }
  return *first;
}

/// renderings of a store's stats.
std::string stats_bytes(const std::string& path,
                        const CellFilter& filter = {}) {
  return renderings(campaign::analyze_sweep(load_sweep({path}, filter)));
}

/// Trial block `block`'s groups, read into `frame`, which they view.
std::vector<SegmentReader::TrialGroup> read_block(
    const SegmentReader& reader, std::size_t block,
    std::vector<std::uint8_t>& frame) {
  frame.resize(reader.trial_frame_bytes(block));
  return reader.read_trial_block(block, frame);
}

/// The decoded trials of every group in trial block `block` whose key
/// `want` accepts, in stored order.
template <typename KeyPred>
void append_block(const SegmentReader& reader, std::size_t block,
                  std::vector<TrialRecord>& out, KeyPred want) {
  std::vector<std::uint8_t> frame;
  for (const SegmentReader::TrialGroup& group :
       read_block(reader, block, frame)) {
    if (!want(group.key)) continue;
    util::ByteReader r{group.trials};
    for (std::uint64_t i = 0; i < group.count; ++i) {
      out.push_back(decode_trial(r.blob()));
    }
    EXPECT_TRUE(r.done());
  }
}

/// Every trial of the segment, key order.
std::vector<TrialRecord> all_trials(const SegmentReader& reader) {
  std::vector<TrialRecord> out;
  for (std::size_t b = 0; b < reader.trial_block_count(); ++b) {
    append_block(reader, b, out, [](std::span<const std::uint8_t>) {
      return true;
    });
  }
  return out;
}

/// One cell's trials through the first-key index: one block read.
std::vector<TrialRecord> trials_for_key(const SegmentReader& reader,
                                        std::span<const std::uint8_t> key) {
  std::vector<TrialRecord> out;
  if (const std::optional<std::size_t> block = reader.trial_block_for(key)) {
    append_block(reader, *block, out, [&](std::span<const std::uint8_t> k) {
      return std::ranges::equal(k, key);
    });
  }
  return out;
}

TEST(Segment, RoundTripPreservesEverything) {
  const std::string path = tmp_path("roundtrip.seg");
  const StoreManifest identity = synth_manifest(10, 5);
  const SegmentInfo written =
      write_cells(path, 2, 7, identity, synth_segment_cells(10, 5));
  EXPECT_EQ(written.trial_count, 50u);
  EXPECT_EQ(written.cell_count, 10u);

  const SegmentReader reader{path};
  EXPECT_EQ(reader.info().level, 2u);
  EXPECT_EQ(reader.info().sequence, 7u);
  EXPECT_EQ(reader.info().trial_count, 50u);
  EXPECT_EQ(reader.info().cell_count, 10u);
  EXPECT_EQ(reader.info().identity, identity);

  const std::vector<campaign::CellStats> cells = reader.cells();
  ASSERT_EQ(cells.size(), 10u);
  for (std::uint64_t c = 0; c < 10; ++c) {
    // Key order == numeric axis order for a single double axis.
    EXPECT_EQ(cells[c].index, c);
    EXPECT_EQ(cells[c].coords, synth_coords(c));
    const std::vector<TrialRecord> trials =
        trials_for_key(reader, encode_cell_key(synth_coords(c)));
    ASSERT_EQ(trials.size(), 5u);
    for (std::uint32_t t = 0; t < 5; ++t) {
      EXPECT_EQ(trials[t].trial, t);
      EXPECT_EQ(trials[t].cell_index, c);
      EXPECT_EQ(trials[t].psnr, synth_trial(c, t).psnr);
    }
  }
  // A key the segment does not hold reads back empty, not an error.
  EXPECT_TRUE(
      trials_for_key(reader, encode_cell_key(synth_coords(99))).empty());

  const std::vector<TrialRecord> streamed = all_trials(reader);
  ASSERT_EQ(streamed.size(), 50u);
  // Key order, then trial order: the segment is one ascending run here.
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i].cell_index, i / 5);
    EXPECT_EQ(streamed[i].trial, i % 5);
  }
}

TEST(Segment, WriterPullsCellsInKeyOrderAndRefusesBrokenInput) {
  // The writer's contract: cells strictly ascend by cell_key_less, each
  // cell's trials are pulled once, in that order, and every trial pulled
  // for a cell is of that cell.
  const std::string path = tmp_path("contract.seg");
  const StoreManifest identity = synth_manifest(4, 2);
  std::map<std::uint64_t, std::vector<std::vector<std::uint8_t>>> encoded;
  for (std::uint64_t c = 0; c < 4; ++c) {
    for (std::uint32_t t = 0; t < 2; ++t) {
      encoded[c].push_back(trial_bytes(synth_trial(c, t)));
    }
  }
  std::vector<std::uint64_t> pulled;
  const SegmentTrials serve = serve_trials(encoded);
  const auto write = [&](const std::vector<std::uint64_t>& order,
                         const SegmentTrials& trials_of) {
    std::vector<campaign::CellStats> cells;
    for (const std::uint64_t c : order) cells.push_back(synth_stats(c, 2));
    pulled.clear();
    return write_segment(path, 0, 1, identity, cells,
                         [&](const campaign::CellStats& cell) {
                           pulled.push_back(cell.index);
                           return trials_of(cell);
                         });
  };

  // Key order is index order on the single "delay_s" axis.
  EXPECT_EQ(write({0, 1, 2, 3}, serve).trial_count, 8u);
  EXPECT_EQ(pulled, (std::vector<std::uint64_t>{0, 1, 2, 3}));
  EXPECT_EQ(all_trials(SegmentReader{path}).size(), 8u);

  EXPECT_THROW((void)write({0, 2, 1, 3}, serve), std::invalid_argument);
  EXPECT_THROW((void)write({0, 1, 1, 3}, serve), std::invalid_argument);
  // Cell 1's trials handed over as cell 2's.
  const SegmentTrials foreign = [&](const campaign::CellStats& cell) {
    campaign::CellStats as = cell;
    if (cell.index == 2) as.index = 1;
    return serve(as);
  };
  EXPECT_THROW((void)write({0, 1, 2, 3}, foreign), std::invalid_argument);
}

TEST(Segment, SingleCellQueryReadsOneBlockOfMany) {
  const std::string path = tmp_path("blocks.seg");
  SegmentWriteOptions options;
  options.block_bytes = 512;  // force many small blocks
  write_cells(path, 0, 1, synth_manifest(64, 8), synth_segment_cells(64, 8),
                options);

  const SegmentReader reader{path};
  ASSERT_GT(reader.trial_block_count(), 8u);

  obs::Counter& blocks = obs::counter("persist.segment_blocks_read");
  obs::Counter& bytes = obs::counter("persist.segment_bytes_read");
  const std::uint64_t blocks_before = blocks.value();
  const std::uint64_t bytes_before = bytes.value();
  const std::vector<TrialRecord> trials =
      trials_for_key(reader, encode_cell_key(synth_coords(37)));
  ASSERT_EQ(trials.size(), 8u);
  EXPECT_EQ(blocks.value() - blocks_before, 1u);
  // One block out of >8: well under a quarter of the file.
  EXPECT_LT(bytes.value() - bytes_before, reader.file_bytes() / 4);
}

TEST(Segment, TruncationAnywhereIsRejectedNotMisread) {
  const std::string path = tmp_path("torn.seg");
  SegmentWriteOptions options;
  options.block_bytes = 512;
  write_cells(path, 0, 1, synth_manifest(32, 6), synth_segment_cells(32, 6),
                options);
  const std::uint64_t size = std::filesystem::file_size(path);

  // Deterministic sample of truncation points across the whole file —
  // mid-block, mid-index, mid-footer — plus the exact footer boundary.
  std::mt19937 rng{0xc0ffee};
  std::vector<std::uint64_t> cuts{0, 1, size - 1, size - kSegmentFooterFrameBytes,
                                  size - kSegmentFooterFrameBytes - 1};
  std::uniform_int_distribution<std::uint64_t> dist{2, size - 2};
  for (int i = 0; i < 40; ++i) cuts.push_back(dist(rng));

  const std::string torn = tmp_path("torn_cut.seg");
  for (const std::uint64_t cut : cuts) {
    std::filesystem::copy_file(
        path, torn, std::filesystem::copy_options::overwrite_existing);
    std::filesystem::resize_file(torn, cut);
    try {
      const SegmentReader reader{torn};
      // The constructor only validates footer + index; force every
      // block read too. Any damage must throw — never partial data.
      (void)reader.cells();
      (void)all_trials(reader);
      FAIL() << "truncation at " << cut << " of " << size
             << " was not detected";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string{e.what()}.find("segment"), std::string::npos)
          << "truncation at " << cut << " threw an unnamed error: "
          << e.what();
    }
  }
}

TEST(Segment, DamagedLevelsSidecarIsRejectedByName) {
  const std::string path = tmp_path("sidecar.store");
  write_synth_store(path, 16, 4);
  ASSERT_GT(compact_store(path).segments_live, 0u);

  const std::string sidecar = levels_manifest_path(path);
  const std::uint64_t size = std::filesystem::file_size(sidecar);
  std::filesystem::resize_file(sidecar, size / 2);
  try {
    (void)read_levels_manifest(path);
    FAIL() << "torn sidecar was not detected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("levels manifest"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)StoreReader{path}, std::runtime_error);
}

/// Rewrites the record file at `path` with the payload of its record
/// `from_end` places before the last one replaced. The frames before it
/// keep their offsets, and the new frame has a valid CRC.
void replace_record_payload(const std::string& path, std::size_t from_end,
                            std::span<const std::uint8_t> payload) {
  std::vector<Record> records;
  {
    RecordBuffer reader{path};
    while (const std::optional<RecordView> rec = reader.next()) {
      records.push_back(
          {rec->type, {rec->payload.begin(), rec->payload.end()}});
    }
  }
  ASSERT_LT(from_end, records.size());
  records[records.size() - 1 - from_end].payload.assign(payload.begin(),
                                                       payload.end());
  RecordWriter writer{path};
  for (const Record& rec : records) writer.append(rec.type, rec.payload);
}

TEST(Segment, HugeIndexAndSidecarCountsAreRejected) {
  // Counts far beyond the payload once reached reserve() and surfaced as
  // std::length_error or std::bad_alloc; both are malformed input.
  const std::string segment = tmp_path("huge_count.seg");
  write_cells(segment, 0, 1, synth_manifest(4, 2), synth_segment_cells(4, 2));
  const std::string store = tmp_path("huge_count.store");
  write_synth_store(store, 4, 2);
  ASSERT_GT(compact_store(store).segments_live, 0u);
  for (const std::uint64_t huge :
       {std::uint64_t{1} << 40, std::uint64_t{1} << 62}) {
    util::ByteWriter index;  // the trial-block count opens the index
    index.varint(huge);
    replace_record_payload(segment, 1, index.bytes());  // index, footer last
    EXPECT_THROW((void)SegmentReader{segment}, std::invalid_argument) << huge;

    util::ByteWriter levels;
    levels.u32(kLevelsManifestFormatVersion);
    levels.u64(1);
    levels.blob(encode_store_manifest(synth_manifest(4, 2)));
    levels.varint(huge);  // segment count
    replace_record_payload(levels_manifest_path(store), 0, levels.bytes());
    EXPECT_THROW((void)read_levels_manifest(store), std::invalid_argument)
        << huge;
  }
}

TEST(Segment, CompactionKeepsStatsByteIdenticalAtScale) {
  const std::string path = tmp_path("identity.store");
  write_synth_store(path, 300, 30, /*duplicate_every=*/2);
  const std::string flat = stats_bytes(path);
  const std::string flat_filtered =
      stats_bytes(path, {{CellFilter::parse_clause("delay_s=37,130,299")}});

  // Default compaction: one sorted segment; the duplicated trials drop,
  // so at this scale the store must actually shrink.
  const CompactionResult result = compact_store(path);
  EXPECT_EQ(result.trials_dropped, 150u * 30u);  // every other cell doubled
  EXPECT_EQ(result.segments_live, 1u);
  EXPECT_LT(result.bytes_after, result.bytes_before);

  EXPECT_EQ(stats_bytes(path), flat);
  EXPECT_EQ(stats_bytes(path, {{CellFilter::parse_clause("delay_s=37,130,299")}}),
            flat_filtered);

  // Re-compacting is byte-stable.
  const CompactionResult again = compact_store(path);
  EXPECT_EQ(again.trials_dropped, 0u);
  EXPECT_EQ(again.bytes_after, again.bytes_before);
  EXPECT_EQ(again.generation, result.generation);
  EXPECT_EQ(stats_bytes(path), flat);
}

TEST(Segment, LegacyTwoSegmentStoreCompactsToOneWithIdentity) {
  // Cells 0..69 at level 1, cells 60..119 at level 0: the ten shared
  // cells are bit-identical copies, as a resumed sweep would leave.
  const std::string path = tmp_path("legacy_tiered.store");
  write_two_segment_store(path, synth_manifest(120, 10),
                          synth_segment_cells(70, 10),
                          synth_segment_cells(60, 10, /*first=*/60));
  ASSERT_EQ(StoreReader{path}.levels()->segments.size(), 2u);

  // Two live segments + a bare log read identically to the same 120
  // cells written flat in one go.
  const std::string flat = tmp_path("legacy_tiered_flat.store");
  write_synth_store(flat, 120, 10);
  const CellFilter filter{{CellFilter::parse_clause("delay_s=5,64,119")}};
  const std::string want = stats_bytes(flat);
  const std::string want_filtered = stats_bytes(flat, filter);
  EXPECT_EQ(stats_bytes(path), want);
  EXPECT_EQ(stats_bytes(path, filter), want_filtered);

  // Compaction folds both into one level-0 segment and deletes them.
  const CompactionResult result = compact_store(path);
  EXPECT_EQ(result.segments_written, 1u);
  EXPECT_EQ(result.segments_live, 1u);
  EXPECT_EQ(result.trials_dropped, 10u * 10u);
  EXPECT_EQ(result.cells_dropped, 10u);
  EXPECT_EQ(result.generation, 3u);
  const std::optional<LevelsManifest> levels = read_levels_manifest(path);
  ASSERT_TRUE(levels.has_value());
  ASSERT_EQ(levels->segments.size(), 1u);
  EXPECT_EQ(levels->segments[0].level, 0u);
  EXPECT_EQ(levels->segments[0].sequence, 3u);
  std::size_t segment_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(path).parent_path())) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("legacy_tiered.store.g")) ++segment_files;
  }
  EXPECT_EQ(segment_files, 1u);

  EXPECT_EQ(stats_bytes(path), want);
  EXPECT_EQ(stats_bytes(path, filter), want_filtered);
}

TEST(Segment, IndexedCellReadTouchesFractionOfBigStore) {
  // The acceptance-scale store: 2000 cells x 50 trials = 100k trials.
  const std::string path = tmp_path("big.store");
  write_synth_store(path, 2000, 50);
  ASSERT_EQ(compact_store(path).segments_live, 1u);

  const StoreReader reader{path};
  ASSERT_GE(reader.store_bytes(), 1u << 21);  // sanity: multi-MB store

  obs::Counter& bytes = obs::counter("persist.segment_bytes_read");
  const std::uint64_t before = bytes.value();
  const auto cell = reader.read_cell(synth_coords(1234));
  ASSERT_TRUE(cell.has_value());
  EXPECT_EQ(cell->stats.index, 1234u);
  ASSERT_EQ(cell->trials.size(), 50u);
  const std::uint64_t delta = bytes.value() - before;
  // One cell's blocks, not the store: under 5% of the file. (cells()
  // scans the aggregate blocks too, which dominate this delta — trial
  // data, the bulk of the store, stays untouched.)
  EXPECT_LT(delta * 20, reader.store_bytes());
}

TEST(Segment, TailerCountsSurviveCompaction) {
  const std::string path = tmp_path("tailer.store");
  write_synth_store(path, 50, 6);

  StoreTailer tailer{path};
  const StoreTailer::Counts before = tailer.poll();
  EXPECT_EQ(before.trials, 300u);
  EXPECT_EQ(before.cells, 50u);

  ASSERT_EQ(compact_store(path).segments_live, 1u);
  const StoreTailer::Counts after = tailer.poll();  // generation rebase
  EXPECT_EQ(after.trials, 300u);
  EXPECT_EQ(after.cells, 50u);

  // New appends on top of the trimmed log keep counting incrementally.
  {
    CampaignStore store{path, synth_manifest(50, 6),
                        CampaignStore::Mode::kResume};
    EXPECT_EQ(store.completed_count(), 50u);
  }
  const StoreTailer::Counts resumed = tailer.poll();
  EXPECT_EQ(resumed.trials, 300u);
  EXPECT_EQ(resumed.cells, 50u);
}

TEST(Segment, TailerHealsATornTailAndCountsEachRecordOnce) {
  // A live store read while an append is in flight: the tailer sees the
  // file absent, then every prefix of a real log (shorter than the magic,
  // cut mid-header or mid-body), then the rest of the bytes arriving. The
  // record that was torn on the first poll must count exactly once.
  const std::string ref = tmp_path("tailer_heal_ref.store");
  write_synth_store(ref, 3, 2);
  std::vector<std::uint8_t> bytes;
  {
    std::ifstream in{ref, std::ios::binary};
    bytes.assign(std::istreambuf_iterator<char>{in}, {});
  }
  // Each frame's end and record type, walked by the length prefixes.
  std::vector<std::pair<std::size_t, std::uint8_t>> frames;
  for (std::size_t at = kRecordMagic.size(); at < bytes.size();) {
    const std::uint8_t type = bytes[at + 8];
    at += 8 + util::ByteReader{std::span{bytes}.subspan(at, 4)}.u32();
    frames.emplace_back(at, type);
  }
  ASSERT_EQ(frames.back().first, bytes.size());
  const auto counts_within = [&](std::size_t size) {
    StoreTailer::Counts want;
    for (const auto& [end, type] : frames) {
      if (end > size) break;
      want.trials += type == kRecTrial;
      want.cells += type == kRecCell;
    }
    return want;
  };
  const auto write = [](const std::string& path,
                        std::span<const std::uint8_t> part, bool append) {
    std::ofstream out{path, std::ios::binary |
                                (append ? std::ios::app : std::ios::trunc)};
    out.write(reinterpret_cast<const char*>(part.data()),
              static_cast<std::streamsize>(part.size()));
  };

  const std::string path = tmp_path("tailer_heal.store");
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    SCOPED_TRACE("cut at " + std::to_string(cut));
    std::filesystem::remove(path);
    StoreTailer tailer{path};
    StoreTailer::Counts got = tailer.poll();  // no store yet
    EXPECT_EQ(got.trials, 0u);
    EXPECT_EQ(got.cells, 0u);

    write(path, std::span{bytes}.first(cut), /*append=*/false);
    got = tailer.poll();
    const StoreTailer::Counts intact = counts_within(cut);
    EXPECT_EQ(got.trials, intact.trials);
    EXPECT_EQ(got.cells, intact.cells);

    write(path, std::span{bytes}.subspan(cut), /*append=*/true);
    for (int poll = 0; poll < 2; ++poll) {
      got = tailer.poll();
      EXPECT_EQ(got.trials, 6u);
      EXPECT_EQ(got.cells, 3u);
    }
  }
}

/// 4 defenses x 25 delays x 10 models = 1000 cells whose key order is
/// NOT their index order: the string labels are listed out of
/// lexicographic order and the delays descend, so a segment's groups come
/// back permuted against the cell index and the merge must reorder them.
StoreManifest scrambled_manifest(std::uint32_t trials_per_cell) {
  StoreManifest m = synth_manifest(1, trials_per_cell);
  m.axes.clear();
  campaign::AxisSpec defense;
  defense.name = "defense";
  for (const char* d : {"zeta", "alpha", "mid", "beta"}) {
    defense.values.push_back(campaign::AxisValue::of_string(d));
  }
  campaign::AxisSpec delay;
  delay.name = "delay_s";
  delay.kind = campaign::AxisKind::kDouble;
  for (int i = 24; i >= 0; --i) {
    delay.values.push_back(campaign::AxisValue::of_number(2.5 * i));
  }
  campaign::AxisSpec model;
  model.name = "model";
  for (const char* name : {"m9", "m1", "m5", "m0", "m7", "m2", "m8", "m3",
                           "m6", "m4"}) {
    model.values.push_back(campaign::AxisValue::of_string(name));
  }
  m.axes = {defense, delay, model};
  m.grid_cells = 4 * 25 * 10;
  return m;
}

/// Row-major coordinates of `index`, first axis outermost.
std::vector<campaign::AxisCoordinate> scrambled_coords(const StoreManifest& m,
                                                       std::uint64_t index) {
  std::vector<campaign::AxisCoordinate> coords(m.axes.size());
  for (std::size_t a = m.axes.size(); a-- > 0;) {
    const std::vector<campaign::AxisValue>& values = m.axes[a].values;
    coords[a] = {m.axes[a].name, values[index % values.size()]};
    index /= values.size();
  }
  return coords;
}

/// Trial whose psnr carries `generation`, so a test can tell which copy
/// of a rewritten (cell, trial) a reader returned.
TrialRecord generation_trial(std::uint64_t cell, std::uint32_t trial,
                             int generation) {
  TrialRecord t = synth_trial(cell, trial);
  t.psnr += 1000.0 * generation;
  return t;
}

TEST(SegmentMerge, LastCopyWinsAcrossTwoSegmentsAndTheLogTail) {
  const std::string path = tmp_path("overlap.store");
  const StoreManifest manifest = synth_manifest(40, 6);
  // Every write in order; replaying into last-wins maps is the reference.
  std::map<std::pair<std::uint64_t, std::uint32_t>, TrialRecord> want_trials;
  std::map<std::uint64_t, campaign::CellStats> want_cells;
  const auto cell = [&](std::uint64_t c, std::uint32_t first,
                        std::uint32_t last, int generation) {
    CellInput out;
    for (std::uint32_t t = first; t < last; ++t) {
      out.trials.push_back(generation_trial(c, t, generation));
      want_trials[{c, t}] = out.trials.back();
    }
    out.stats = synth_stats(c, 6);
    out.stats.mean_psnr_db += 1000.0 * generation;
    want_cells[c] = out.stats;
    return out;
  };
  std::vector<CellInput> older;
  for (std::uint64_t c = 0; c < 40; ++c) older.push_back(cell(c, 0, 6, 0));
  // The newer segment rewrites trials 2..4 of cells 5..14.
  std::vector<CellInput> newer;
  for (std::uint64_t c = 5; c < 15; ++c) newer.push_back(cell(c, 2, 5, 1));
  write_two_segment_store(path, manifest, std::move(older), std::move(newer));
  {  // the log tail rewrites cells 10..19 on top — cell 12 twice
    CampaignStore store{path, manifest, CampaignStore::Mode::kResume};
    const auto write = [&](const CellInput& rewrite) {
      for (const TrialRecord& t : rewrite.trials) store.append_trial(t);
      store.complete_cell(rewrite.stats);
    };
    for (std::uint64_t c = 10; c < 20; ++c) write(cell(c, 0, 4, 2));
    write(cell(12, 1, 3, 3));
  }

  const StoreReader reader{path};
  EXPECT_TRUE(reader.segmented());
  const StoreContents contents = read_all(reader);
  ASSERT_EQ(contents.trials.size(), want_trials.size());
  std::size_t i = 0;
  for (const auto& [key, want] : want_trials) {
    const TrialRecord& got = contents.trials[i++];
    EXPECT_EQ(got.cell_index, key.first);
    EXPECT_EQ(got.trial, key.second);
    EXPECT_EQ(got.psnr, want.psnr) << "cell " << key.first << " trial "
                                   << key.second;
  }
  ASSERT_EQ(contents.cells.size(), want_cells.size());
  i = 0;
  for (const auto& [index, want] : want_cells) {
    EXPECT_EQ(contents.cells[i].index, index);
    EXPECT_EQ(contents.cells[i++].mean_psnr_db, want.mean_psnr_db);
  }

  // The single-cell and filtered paths resolve the same winners.
  const std::optional<StoreReader::CellData> cell12 =
      reader.read_cell(synth_coords(12));
  ASSERT_TRUE(cell12.has_value());
  ASSERT_EQ(cell12->trials.size(), 6u);
  for (std::uint32_t t = 0; t < 6; ++t) {
    EXPECT_EQ(cell12->trials[t].psnr, (want_trials[{12, t}].psnr));
  }
  const CellFilter filter{{CellFilter::parse_clause("delay_s=3,7,12,17")}};
  const StoreContents filtered = read_matching(reader, filter);
  ASSERT_EQ(filtered.trials.size(), 4u * 6u);
  for (const TrialRecord& t : filtered.trials) {
    EXPECT_EQ(t.psnr, (want_trials[{t.cell_index, t.trial}].psnr));
  }
}

TEST(SegmentMerge, ResumeTakesTheNewestCopyOfACell) {
  // Two segments hold different copies of cell 3, and the log a third
  // of cell 5: resume's completed map must be the reader's last-wins
  // merge — the newer segment's copy, the log's over both.
  const std::string path = tmp_path("resume_newest.store");
  const StoreManifest manifest = synth_manifest(8, 4);
  std::vector<CellInput> newer = synth_segment_cells(3, 4, 3);
  for (CellInput& cell : newer) cell.stats.mean_psnr_db += 1000.0;
  write_two_segment_store(path, manifest, synth_segment_cells(8, 4),
                          std::move(newer));
  {
    CampaignStore store{path, manifest, CampaignStore::Mode::kResume};
    campaign::CellStats rewrite = synth_stats(5, 4);
    rewrite.mean_psnr_db += 2000.0;
    store.complete_cell(rewrite);
  }

  const std::vector<campaign::CellStats> cells = StoreReader{path}.cells();
  ASSERT_EQ(cells.size(), 8u);
  EXPECT_EQ(cells[3].mean_psnr_db, synth_stats(3, 4).mean_psnr_db + 1000.0);
  EXPECT_EQ(cells[5].mean_psnr_db, synth_stats(5, 4).mean_psnr_db + 2000.0);
  const CampaignStore store{path, manifest, CampaignStore::Mode::kResume};
  ASSERT_EQ(store.completed_count(), cells.size());
  for (const campaign::CellStats& want : cells) {
    const campaign::CellStats* got = store.completed_stats(want.index);
    ASSERT_NE(got, nullptr) << "cell " << want.index;
    EXPECT_EQ(encode_cell(*got), encode_cell(want)) << "cell " << want.index;
  }
}

/// The SweepData a last-wins replay of every write gives: the replay's
/// completed cells and trials, restricted to the cells `keep` accepts
/// (orphans count as cells that are not completed).
template <typename Keep>
SweepData replay_sweep(const std::map<std::uint64_t, campaign::CellStats>& cells,
                       const std::map<TrialRecord::Key, TrialRecord>& trials,
                       Keep keep) {
  SweepData out;
  for (const auto& [index, cell] : cells) {
    if (keep(index)) out.cells.push_back(cell);
  }
  for (const auto& [key, trial] : trials) {
    if (keep(key.first)) out.trials.push_back(trial);
  }
  return out;
}

/// Checks `got` — anything with cells and trials — against `want`
/// record for record, by encoded bytes.
template <typename Got>
void expect_same_sweep(const Got& got, const SweepData& want,
                       const std::string& view) {
  ASSERT_EQ(got.cells.size(), want.cells.size()) << view;
  for (std::size_t i = 0; i < want.cells.size(); ++i) {
    EXPECT_EQ(encode_cell(got.cells[i]), encode_cell(want.cells[i]))
        << view << " cell " << i;
  }
  ASSERT_EQ(got.trials.size(), want.trials.size()) << view;
  for (std::size_t i = 0; i < want.trials.size(); ++i) {
    EXPECT_EQ(trial_bytes(got.trials[i]), trial_bytes(want.trials[i]))
        << view << " record " << i;
  }
}

/// Cell `c`'s coordinates in the random merge test: a string, an enum, a
/// double and a bool axis, then a second "defense" coordinate that no
/// clause may see (the first coordinate on an axis decides). Each round
/// draws a variant per cell, so one round's cells vary on every axis but
/// delay_s, which keeps keys unique per cell.
std::vector<campaign::AxisCoordinate> mixed_coords(std::uint64_t c,
                                                   std::uint64_t variant) {
  static constexpr const char* kDefenses[] = {"none", "scrub", "zero"};
  using campaign::AxisValue;
  return {{"defense", AxisValue::of_string(kDefenses[(c + variant) % 3])},
          {"mode", AxisValue::of_enum((c + variant / 2) % 2 == 0 ? "lax"
                                                                 : "strict")},
          {"delay_s", AxisValue::of_number(2.5 * double(c))},
          {"flag", AxisValue::of_bool((c / 2 + variant) % 2 == 1)},
          {"defense", AxisValue::of_string(kDefenses[(c + 1) % 3])}};
}

/// The filter's verdict on decoded coordinates, by AxisValue::label() of
/// each clause axis's first coordinate: the oracle the encoded-key
/// matcher is checked against.
bool decoded_match(const CellFilter& filter,
                   const std::vector<campaign::AxisCoordinate>& coords) {
  return std::ranges::all_of(filter.clauses, [&](const CellFilter::Clause& c) {
    const campaign::AxisValue* value = campaign::find_coord(coords, c.axis);
    return value != nullptr && std::ranges::count(c.labels, value->label()) > 0;
  });
}

/// 1-3 random clauses over mixed_coords' axes, each with 1-3 labels, and
/// now and then one on an axis no cell has.
template <typename Uniform>
CellFilter random_filter(Uniform& uniform, std::uint64_t cells) {
  const std::vector<std::pair<std::string, std::vector<std::string>>> axes{
      {"defense", {"none", "scrub", "zero"}},
      {"mode", {"lax", "strict"}},
      {"delay_s", {}},
      {"flag", {"0", "1"}}};
  CellFilter filter;
  for (std::uint64_t n = uniform(1, 3); n > 0; --n) {
    const auto& [axis, labels] = axes[uniform(0, axes.size() - 1)];
    std::string spec = axis + "=";
    for (std::uint64_t k = uniform(1, 3); k > 0; --k) {
      spec += labels.empty()
                  ? campaign::table::format_double(
                        2.5 * double(uniform(0, cells - 1)))
                  : labels[uniform(0, labels.size() - 1)];
      spec += k > 1 ? "," : "";
    }
    filter.clauses.push_back(CellFilter::parse_clause(spec));
  }
  if (uniform(0, 7) == 0) {
    filter.clauses.push_back(CellFilter::parse_clause("scrubber_Bps=0"));
  }
  return filter;
}

/// What `read` throws, "" when it returns.
template <typename Read>
std::string thrown_by(Read read) {
  try {
    read();
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

TEST(SegmentMerge, RandomStoresMatchALastWinsReplayOfEveryWrite) {
  // 1-3 segments, then a log tail that rewrites cells (some twice),
  // streams a resume's duplicates and orphan trials of cells that never
  // complete, and ends torn. Every copy of a cell carries the
  // coordinates drawn for it that round, under a manifest that lists the
  // axes without values (so mixed kinds and a repeated axis are legal).
  // Every read path — the collected reads, load_sweep, and
  // the statistics analyzed off the per-cell walk, whole and under random
  // filters — must equal a last-wins map replay of the writes (filtered
  // after the merge, on the winners' decoded coordinates), and so must a
  // compacted copy of the store, restricted to the completed cells. A
  // malformed cell record outside a filter's selection fails the filtered
  // walk as it fails the full one.
  constexpr std::uint64_t kCells = 24;
  constexpr std::uint32_t kTrials = 6;
  StoreManifest manifest = synth_manifest(kCells, kTrials);
  manifest.axes.clear();
  for (const campaign::AxisCoordinate& coord : mixed_coords(0, 0)) {
    manifest.axes.push_back({coord.axis, coord.value.kind, {}});
  }
  std::mt19937_64 rng{0x5e9};
  const auto uniform = [&](std::uint64_t lo, std::uint64_t hi) {
    return std::uniform_int_distribution<std::uint64_t>{lo, hi}(rng);
  };
  for (int round = 0; round < 12; ++round) {
    const std::string path = tmp_path("random_merge.store");
    std::map<TrialRecord::Key, TrialRecord> want_trials;
    std::map<std::uint64_t, campaign::CellStats> want_cells;
    std::size_t trial_records = 0;  // every trial and cell record written
    std::size_t cell_records = 0;
    int generation = 0;
    std::vector<std::uint64_t> variant(kCells);
    for (std::uint64_t& v : variant) v = uniform(0, 2);
    // Trials [first, last) of cell `c`, as one write of `generation`.
    const auto make_cell = [&](std::uint64_t c, std::uint32_t first,
                               std::uint32_t last) {
      CellInput out;
      for (std::uint32_t t = first; t < last; ++t) {
        out.trials.push_back(generation_trial(c, t, generation));
      }
      out.stats = synth_stats(c, kTrials);
      out.stats.coords = mixed_coords(c, variant[c]);
      out.stats.mean_psnr_db += 1000.0 * generation;
      return out;
    };
    const auto replay = [&](const CellInput& cell, bool completes) {
      for (const TrialRecord& t : cell.trials) want_trials[t.key()] = t;
      trial_records += cell.trials.size();
      if (completes) want_cells[cell.stats.index] = cell.stats;
      cell_records += completes;
    };
    // Cell `c` in a random trial range, never empty.
    const auto random_cell = [&](std::uint64_t c) {
      const auto first = static_cast<std::uint32_t>(uniform(0, kTrials - 1));
      const auto last =
          static_cast<std::uint32_t>(uniform(first + 1, kTrials));
      return make_cell(c, first, last);
    };

    std::vector<std::vector<CellInput>> segments(uniform(1, 3));
    for (std::vector<CellInput>& segment : segments) {
      ++generation;
      for (std::uint64_t c = 0; c < kCells; ++c) {
        if (uniform(0, 2) == 0) continue;  // a cell per segment, or none
        segment.push_back(random_cell(c));
        replay(segment.back(), true);
      }
    }
    write_segment_store(path, manifest, segments);
    {
      CampaignStore store{path, manifest, CampaignStore::Mode::kResume};
      for (int write = 0; write < 12; ++write) {
        ++generation;
        // Cells >= kCells - 4 never complete: their trials are orphans.
        const std::uint64_t c = uniform(0, kCells - 1);
        const CellInput cell = random_cell(c);
        // Trials stream in any order; a cell's own writes stay distinct.
        std::vector<TrialRecord> order = cell.trials;
        std::shuffle(order.begin(), order.end(), rng);
        for (const TrialRecord& t : order) store.append_trial(t);
        if (uniform(0, 3) == 0) {  // a resume re-streams the same bytes
          for (const TrialRecord& t : cell.trials) store.append_trial(t);
          trial_records += cell.trials.size();
        }
        const bool completes = c < kCells - 4;
        if (completes) store.complete_cell(cell.stats);
        replay(cell, completes);
      }
    }
    {  // a torn tail: a frame cut short after the last intact record
      std::ofstream log{path, std::ios::binary | std::ios::app};
      const std::string torn(uniform(1, 12), '\x7f');
      log.write(torn.data(), static_cast<std::streamsize>(torn.size()));
    }

    const StoreReader reader{path};
    ASSERT_TRUE(reader.truncated_tail());
    const auto expect_trials = [&](const std::vector<TrialRecord>& got,
                                   const auto& wanted, const char* view) {
      std::vector<TrialRecord> want;
      for (const auto& [key, t] : want_trials) {
        if (wanted(t.cell_index)) want.push_back(t);
      }
      ASSERT_EQ(got.size(), want.size()) << view << " round " << round;
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(trial_bytes(got[i]), trial_bytes(want[i]))
            << view << " round " << round << " record " << i;
      }
    };
    const StoreContents all = read_all(reader);
    ASSERT_EQ(all.cells.size(), want_cells.size());
    std::size_t i = 0;
    for (const auto& [index, want] : want_cells) {
      EXPECT_EQ(encode_cell(all.cells[i++]), encode_cell(want));
    }
    expect_trials(all.trials, [](std::uint64_t) { return true; }, "read_all");

    const auto everything = [](std::uint64_t) { return true; };
    const SweepData want_all = replay_sweep(want_cells, want_trials, everything);
    const SweepData loaded = load_sweep({path});
    expect_same_sweep(loaded, want_all, "load_sweep round " +
                                            std::to_string(round));
    EXPECT_TRUE(loaded.truncated_tail);
    EXPECT_EQ(loaded.duplicate_cells + loaded.duplicate_trials, 0u);
    EXPECT_TRUE(expect_stats_at_every_worker_count(
                    {path}, {}, renderings(campaign::analyze_sweep(want_all)),
                    "round " + std::to_string(round))
                    .truncated_tail);

    for (int f = 0; f < 4; ++f) {
      const CellFilter filter = random_filter(uniform, kCells);
      const auto in_filter = [&](std::uint64_t c) {
        return want_cells.contains(c) &&
               decoded_match(filter, want_cells.at(c).coords);
      };
      const SweepData want = replay_sweep(want_cells, want_trials, in_filter);
      const std::string view =
          "filter " + std::to_string(f) + " round " + std::to_string(round);
      // The full view decoded, then filtered: the same cells.
      std::vector<campaign::CellStats> decoded = reader.cells();
      std::erase_if(decoded, [&](const campaign::CellStats& cell) {
        return !decoded_match(filter, cell.coords);
      });
      ASSERT_EQ(decoded.size(), want.cells.size()) << view;
      for (std::size_t k = 0; k < decoded.size(); ++k) {
        EXPECT_EQ(encode_cell(decoded[k]), encode_cell(want.cells[k])) << view;
      }
      expect_same_sweep(read_matching(reader, filter), want,
                        "read_matching " + view);
      expect_same_sweep(load_sweep({path}, filter), want,
                        "filtered load_sweep " + view);
      expect_stats_at_every_worker_count(
          {path}, filter, renderings(campaign::analyze_sweep(want)), view);
    }

    for (std::uint64_t c = 0; c < kCells; ++c) {
      if (!want_cells.contains(c)) {
        for (std::uint64_t v = 0; v < 3; ++v) {
          EXPECT_FALSE(reader.read_cell(mixed_coords(c, v)).has_value())
              << "cell " << c;
        }
        continue;
      }
      const std::optional<StoreReader::CellData> cell =
          reader.read_cell(want_cells[c].coords);
      ASSERT_TRUE(cell.has_value()) << "cell " << c;
      EXPECT_EQ(encode_cell(cell->stats), encode_cell(want_cells[c]));
      expect_trials(cell->trials, [&](std::uint64_t k) { return k == c; },
                    "read_cell");
    }

    {  // a CRC-valid cell record that cannot be decoded, outside the filter
      const std::string broken = copy_store(path, "random_malformed");
      const std::uint64_t c = uniform(0, kCells - 1);
      campaign::CellStats stats = synth_stats(c, kTrials);
      stats.coords = mixed_coords(c, 0);
      std::vector<std::uint8_t> payload = encode_cell(stats);
      if (round % 2 == 0) {
        payload.pop_back();  // the counters cut short
      } else {
        util::ByteWriter w;  // a coordinate of unknown kind
        w.varint(c);
        w.varint(1);
        w.str("flag");
        w.u8(9);
        w.u8(1);
        payload = w.take();
      }
      {
        RecordWriter log{broken, [](const RecordView&) {}};
        log.append(kRecCell, payload);
      }
      const std::string full =
          thrown_by([&] { (void)read_all(StoreReader{broken}); });
      EXPECT_FALSE(full.empty()) << "round " << round;
      const CellFilter other{{CellFilter::parse_clause(
          "delay_s=" +
          campaign::table::format_double(2.5 * double((c + 1) % kCells)))}};
      EXPECT_EQ(
          thrown_by([&] { (void)read_matching(StoreReader{broken}, other); }),
          full)
          << "round " << round;
      EXPECT_EQ(thrown_by([&] { (void)load_sweep({broken}, other); }), full)
          << "round " << round;
    }

    // Compacting a copy drops the torn tail, the orphans and every
    // superseded copy, and keeps the replay of the completed cells.
    const std::string copy = copy_store(path, "random_compact");
    const CompactionResult compacted = compact_store(copy);
    const auto completed = [&](std::uint64_t c) {
      return want_cells.contains(c);
    };
    const SweepData want_completed =
        replay_sweep(want_cells, want_trials, completed);
    const std::string view = "compacted round " + std::to_string(round);
    EXPECT_EQ(compacted.segments_live, 1u) << view;
    EXPECT_EQ(compacted.trials_dropped,
              trial_records - want_completed.trials.size())
        << view;
    EXPECT_EQ(compacted.cells_dropped, cell_records - want_cells.size())
        << view;
    const StoreContents folded = read_all(StoreReader{copy});
    EXPECT_FALSE(folded.truncated_tail) << view;
    expect_same_sweep(folded, want_completed, view);
    // Nothing is left to drop: a second compaction is a no-op.
    const CompactionResult again = compact_store(copy);
    EXPECT_EQ(again.bytes_after, again.bytes_before) << view;
    EXPECT_EQ(again.trials_dropped + again.cells_dropped, 0u) << view;
    EXPECT_EQ(again.segments_written, 0u) << view;
    EXPECT_EQ(again.generation, compacted.generation) << view;
  }
}

TEST(GridKeys, ACellRecordOffItsGridKeyFailsEveryRead) {
  // On a full-grid store (its manifest lists every value, so cell i's key
  // is delay_s=i), a CRC-valid cell record appended to the log, flat or
  // compacted, fails every read with a named error: whether a filter
  // selects it or not, and whether the lookup hits it.
  constexpr std::uint64_t kCells = 8;
  const std::string flat = tmp_path("grid_keys.store");
  write_synth_store(flat, kCells, 3);
  const std::string packed = copy_store(flat, "grid_keys_packed");
  ASSERT_GT(compact_store(packed).segments_live, 0u);

  struct Bad {
    const char* name;
    campaign::CellStats cell;
    std::string error;     ///< the message, before the store's path
    const char* selected;  ///< a filter that selects the record
  };
  campaign::CellStats misplaced = synth_stats(2, 3);
  misplaced.coords = synth_coords(5);
  const std::vector<Bad> bads{
      {"misplaced", misplaced,
       "persist: cell 2 key does not match its grid index (corrupt store): ",
       "delay_s=5"},
      {"beyond", synth_stats(kCells, 3),
       "persist: cell index beyond grid in ", "delay_s=8"}};
  const CellFilter other{{CellFilter::parse_clause("delay_s=1")}};
  for (const std::string& base : {flat, packed}) {
    for (const Bad& bad : bads) {
      const std::string path =
          copy_store(base, base == flat ? "grid_keys_flat_bad"
                                        : "grid_keys_packed_bad");
      {
        RecordWriter log{path, [](const RecordView&) {}};
        log.append(kRecCell, encode_cell(bad.cell));
      }
      const std::string want = bad.error + path;
      const std::string view = std::string{bad.name} + " in " + base;
      const StoreReader reader{path};
      const CellFilter selected{{CellFilter::parse_clause(bad.selected)}};
      EXPECT_EQ(thrown_by([&] { (void)reader.cells(); }), want) << view;
      EXPECT_EQ(thrown_by([&] { (void)reader.walk({}); }), want) << view;
      EXPECT_EQ(thrown_by([&] { (void)reader.walk(selected); }), want)
          << view;
      EXPECT_EQ(thrown_by([&] { (void)reader.walk(other); }), want) << view;
      EXPECT_EQ(thrown_by([&] { (void)reader.read_cell(bad.cell.coords); }),
                want)
          << view;
      EXPECT_EQ(thrown_by([&] { (void)load_sweep({path}); }), want) << view;
      EXPECT_EQ(thrown_by([&] { (void)compact_store(path); }), want) << view;
    }
  }
}

TEST(SegmentMerge, WorkersDirWalkMatchesAReplayAndRefusesAConflictingCopy) {
  // One sweep's cells spread over 2-3 worker stores, flat or compacted:
  // a cell may be completed in several (byte-identical copies), and a
  // killed worker's partial trials of a cell another worker completed
  // may sit beside it. The union — load_sweep's SweepData, its duplicate
  // counters, and the stats analyzed off the walk, with and without a
  // filter — must equal the replay; one altered copy must be refused.
  constexpr std::uint64_t kCells = 30;
  constexpr std::uint32_t kTrials = 5;
  const StoreManifest manifest = synth_manifest(kCells, kTrials);
  std::mt19937_64 rng{0x3a11};
  const auto uniform = [&](std::uint64_t lo, std::uint64_t hi) {
    return std::uniform_int_distribution<std::uint64_t>{lo, hi}(rng);
  };
  const auto dir = std::filesystem::temp_directory_path() /
                   "msa_segment_tests" / "workers";
  for (int round = 0; round < 8; ++round) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::size_t stores = uniform(2, 3);
    std::vector<std::string> paths;
    for (std::size_t s = 0; s < stores; ++s) {
      // append(), not "w" + std::string: g++ 12 -O3 misreports the latter
      // under -Wrestrict.
      paths.push_back(
          (dir / std::string{"w"}.append(std::to_string(s)).append(".store"))
              .string());
    }
    std::map<TrialRecord::Key, TrialRecord> want_trials;
    std::map<std::uint64_t, campaign::CellStats> want_cells;
    std::size_t want_duplicate_cells = 0;
    std::size_t want_duplicate_trials = 0;
    // Per store, the keys it was written and the cells it completed.
    std::vector<std::set<TrialRecord::Key>> held(stores);
    std::vector<std::set<std::uint64_t>> completed(stores);
    {
      std::vector<std::unique_ptr<CampaignStore>> writers;
      for (const std::string& path : paths) {
        writers.push_back(std::make_unique<CampaignStore>(
            path, manifest, CampaignStore::Mode::kCreate));
      }
      for (std::uint64_t c = 0; c < kCells; ++c) {
        // Trials of cells >= kCells - 3 are orphans in every store.
        const bool completes = c < kCells - 3;
        std::size_t cell_copies = 0;
        for (std::size_t s = 0; s < stores; ++s) {
          const std::uint64_t role = uniform(0, 3);  // 0: none, 1: partial
          if (role == 0) continue;
          const std::uint32_t count =
              role == 1 ? static_cast<std::uint32_t>(uniform(1, kTrials))
                        : kTrials;
          for (std::uint32_t t = 0; t < count; ++t) {
            writers[s]->append_trial(synth_trial(c, t));
            held[s].insert({c, t});
          }
          if (role >= 2 && completes) {
            writers[s]->complete_cell(synth_stats(c, kTrials));
            completed[s].insert(c);
            want_cells[c] = synth_stats(c, kTrials);
            ++cell_copies;
          }
        }
        want_duplicate_cells += cell_copies > 0 ? cell_copies - 1 : 0;
      }
    }
    if (uniform(0, 1) == 1) {  // one worker's store compacted, which
      ASSERT_EQ(compact_store(paths[0]).segments_live, 1u);
      std::erase_if(held[0], [&](const TrialRecord::Key& key) {
        return !completed[0].contains(key.first);  // drops its orphans
      });
    }
    // The trials: the union by key of what every store holds, a key
    // held by k stores counting k - 1 duplicates.
    std::map<TrialRecord::Key, std::size_t> copies;
    for (const std::set<TrialRecord::Key>& keys : held) {
      for (const TrialRecord::Key& key : keys) {
        want_trials[key] = synth_trial(key.first, key.second);
        ++copies[key];
      }
    }
    for (const auto& [key, k] : copies) want_duplicate_trials += k - 1;

    const auto everything = [](std::uint64_t) { return true; };
    const SweepData want_all = replay_sweep(want_cells, want_trials, everything);
    const SweepData loaded = load_sweep(sweep_store_paths(dir.string()));
    const std::string view = "workers round " + std::to_string(round);
    expect_same_sweep(loaded, want_all, view);
    EXPECT_EQ(loaded.duplicate_cells, want_duplicate_cells) << view;
    EXPECT_EQ(loaded.duplicate_trials, want_duplicate_trials) << view;
    const SweepInfo walked = expect_stats_at_every_worker_count(
        paths, {}, renderings(campaign::analyze_sweep(want_all)), view);
    EXPECT_EQ(walked.duplicate_cells, want_duplicate_cells) << view;
    EXPECT_EQ(walked.duplicate_trials, want_duplicate_trials) << view;
    const CellFilter filter{{CellFilter::parse_clause("delay_s=1,4,9,27")}};
    const auto in_filter = [&](std::uint64_t c) {
      return want_cells.contains(c) && (c == 1 || c == 4 || c == 9 || c == 27);
    };
    expect_stats_at_every_worker_count(
        paths, filter,
        renderings(campaign::analyze_sweep(
            replay_sweep(want_cells, want_trials, in_filter))),
        "filtered " + view);
    expect_same_sweep(load_sweep(paths, filter),
                      replay_sweep(want_cells, want_trials, in_filter),
                      "filtered " + view);

    // One more store holding an altered copy of a trial the sweep has.
    const TrialRecord victim = std::next(want_trials.begin(),
        static_cast<std::ptrdiff_t>(uniform(0, want_trials.size() - 1)))->second;
    {
      const std::string rogue = (dir / "w9.store").string();
      CampaignStore store{rogue, manifest, CampaignStore::Mode::kCreate};
      TrialRecord altered = victim;
      altered.psnr += 0.5;
      store.append_trial(altered);
    }
    const std::string want =
        "persist: trial (" + std::to_string(victim.cell_index) + ", " +
        std::to_string(victim.trial) +
        ") has conflicting copies (corrupt store or mixed sweeps): " +
        (dir / "w9.store").string();
    EXPECT_EQ(thrown_by([&] {
                (void)load_sweep(sweep_store_paths(dir.string()));
              }),
              want)
        << view;
    for (const unsigned workers : kWorkerCounts) {
      EXPECT_EQ(thrown_by([&] {
                  (void)campaign::analyze_stores(
                      sweep_store_paths(dir.string()), {}, workers);
                }),
                want)
          << view << " at " << workers << " workers";
    }
  }
}

TEST(SegmentMerge, FlatAndCompactedStoresOf1e5TrialsGiveEqualStats) {
  const StoreManifest manifest = scrambled_manifest(100);
  const std::string flat = tmp_path("scrambled.store");
  {
    CampaignStore store{flat, manifest, CampaignStore::Mode::kCreate};
    // Cells complete out of index order, as a threaded sweep's do, and
    // every seventh cell's trials are streamed twice (a resume's
    // bit-identical duplicates).
    for (std::uint64_t k = 0; k < manifest.grid_cells; ++k) {
      const std::uint64_t c = (k * 379) % manifest.grid_cells;
      for (int copy = 0; copy < (c % 7 == 0 ? 2 : 1); ++copy) {
        for (std::uint32_t t = 0; t < 100; ++t) {
          store.append_trial(synth_trial(c, t));
        }
      }
      campaign::CellStats stats = synth_stats(c, 100);
      stats.coords = scrambled_coords(manifest, c);
      store.complete_cell(stats);
    }
  }
  const std::string compacted = tmp_path("scrambled_compacted.store");
  std::filesystem::copy_file(flat, compacted);
  ASSERT_EQ(compact_store(compacted).segments_live, 1u);

  const StoreContents a = read_all(StoreReader{flat});
  const StoreContents b = read_all(StoreReader{compacted});
  ASSERT_EQ(a.trials.size(), 100000u);
  ASSERT_EQ(b.trials.size(), a.trials.size());
  for (std::size_t i = 0; i < a.trials.size(); ++i) {
    ASSERT_EQ(trial_bytes(a.trials[i]), trial_bytes(b.trials[i])) << i;
  }
  EXPECT_EQ(stats_bytes(compacted), stats_bytes(flat));
  const CellFilter filter{{CellFilter::parse_clause("defense=alpha,zeta"),
                           CellFilter::parse_clause("model=m0,m9")}};
  EXPECT_EQ(stats_bytes(compacted, filter), stats_bytes(flat, filter));
  // Above the parallel threshold: the compacted walk reads its blocks
  // on several threads too.
  for (const std::string& path : {flat, compacted}) {
    expect_stats_at_every_worker_count({path}, {}, stats_bytes(flat), path);
    expect_stats_at_every_worker_count({path}, filter,
                                       stats_bytes(flat, filter), path);
  }
}

TEST(AnalyzeStores, EveryWorkerCountAddsInTheSerialOrder) {
  // Fractional PSNRs pooled over many cells: the marginals' sums round
  // differently if any cell is added out of index order or any chunk is
  // summed on its own first, and format_double prints every bit.
  const StoreManifest manifest = scrambled_manifest(20);
  const std::string flat = tmp_path("fractional.store");
  std::mt19937_64 rng{0xf7ac};
  std::uniform_real_distribution<double> psnr{5.0, 30.0};
  {
    CampaignStore store{flat, manifest, CampaignStore::Mode::kCreate};
    for (std::uint64_t c = 0; c < manifest.grid_cells; ++c) {
      for (std::uint32_t t = 0; t < 20; ++t) {
        TrialRecord trial = synth_trial(c, t);
        trial.psnr = psnr(rng);
        store.append_trial(trial);
      }
      campaign::CellStats stats = synth_stats(c, 20);
      stats.coords = scrambled_coords(manifest, c);
      store.complete_cell(stats);
    }
  }
  const std::string compacted = tmp_path("fractional_compacted.store");
  std::filesystem::copy_file(flat, compacted);
  ASSERT_EQ(compact_store(compacted).segments_live, 1u);
  const CellFilter filter{{CellFilter::parse_clause("model=m1,m4,m7")}};
  for (const std::string& path : {flat, compacted}) {
    expect_stats_at_every_worker_count({path}, {}, stats_bytes(path), path);
    expect_stats_at_every_worker_count({path}, filter,
                                       stats_bytes(path, filter), path);
  }
}

TEST(AnalyzeStores, TheLowestFailingChunksErrorIsThrown) {
  // Cells 9 and 10 completed without trials. At 2 workers the grid's
  // 160 cells are cut into 16 chunks of 10, so the two sit in chunks 0
  // and 1: chunk 1 fails at its first cell while chunk 0 is still
  // summarizing nine heavy cells, but cell 9's error is the one a serial
  // walk throws, and the one thrown at every count.
  const std::string path = tmp_path("two_bad_cells.store");
  {
    CampaignStore store{path, synth_manifest(160, 2),
                        CampaignStore::Mode::kCreate};
    for (std::uint64_t c = 0; c < 160; ++c) {
      const std::uint32_t trials = c < 9 ? 5000 : c < 11 ? 0 : 2;
      for (std::uint32_t t = 0; t < trials; ++t) {
        store.append_trial(synth_trial(c, t));
      }
      store.complete_cell(synth_stats(c, 2));
    }
  }
  const std::string want =
      "stats: completed cell 9 has no trial records (incompatible or "
      "hand-edited store)";
  EXPECT_EQ(thrown_by([&] { (void)stats_bytes(path); }), want);
  for (int round = 0; round < 3; ++round) {
    for (const unsigned workers : kWorkerCounts) {
      EXPECT_EQ(thrown_by([&] {
                  (void)campaign::analyze_stores({path}, {}, workers);
                }),
                want)
          << workers << " workers";
    }
  }
}

TEST(Segment, FreshCreateRefusesStaleSidecar) {
  const std::string path = tmp_path("stale.store");
  write_synth_store(path, 8, 2);
  ASSERT_EQ(compact_store(path).segments_live, 1u);
  std::filesystem::remove(path);  // log gone, sidecar + segment remain

  EXPECT_THROW((CampaignStore{path, synth_manifest(8, 2),
                              CampaignStore::Mode::kCreateOrResume}),
               std::runtime_error);
  remove_segment_files(path);  // the documented operator remedy
  CampaignStore store{path, synth_manifest(8, 2),
                      CampaignStore::Mode::kCreateOrResume};
  EXPECT_EQ(store.completed_count(), 0u);
}


/// CRC-32 of the file at `path` (zlib's crc32, as the CI drill computes).
std::uint32_t file_crc(const std::filesystem::path& path) {
  std::ifstream in{path, std::ios::binary};
  EXPECT_TRUE(in.is_open()) << path;
  const std::string bytes{std::istreambuf_iterator<char>{in}, {}};
  return util::crc32(std::string_view{bytes});
}

/// The three files a compaction leaves, by CRC-32: the segment it wrote,
/// the `.levels` sidecar naming it, and the trimmed log.
struct CompactedCrcs {
  std::uint32_t segment = 0;
  std::uint32_t levels = 0;
  std::uint32_t log = 0;
};

CompactedCrcs compacted_crcs(const std::string& store) {
  const std::optional<LevelsManifest> levels = read_levels_manifest(store);
  EXPECT_TRUE(levels.has_value() && levels->segments.size() == 1u);
  if (!levels.has_value() || levels->segments.size() != 1u) return {};
  return {file_crc(segment_path(store, levels->segments[0])),
          file_crc(levels_manifest_path(store)), file_crc(store)};
}

TEST(Segment, CompactedBytesArePinned) {
  {  // The golden store, compacted as a copy that keeps its file name.
    // The pins live in tests/data/golden_4axis.compacted.crc, which
    // scripts/ci_compact_sweep.sh checks its own compacted copy against.
    const std::string data = MSA_TEST_DATA_DIR;
    const std::string store =
        (pinned_dir("golden") / "golden_4axis.store").string();
    std::filesystem::copy_file(data + "/golden_4axis.store", store);
    ASSERT_EQ(compact_store(store).segments_written, 1u);
    const CompactedCrcs got = compacted_crcs(store);

    std::ifstream pins{data + "/golden_4axis.compacted.crc"};
    ASSERT_TRUE(pins.is_open());
    std::map<std::string, std::uint32_t> want;
    for (std::string line; std::getline(pins, line);) {
      if (line.empty() || line.front() == '#') continue;
      std::istringstream fields{line};
      std::string file;
      std::string crc;
      fields >> file >> crc;
      want[file] = static_cast<std::uint32_t>(std::stoul(crc, nullptr, 16));
    }
    ASSERT_EQ(want.size(), 3u);
    EXPECT_EQ(got.segment, want["golden_4axis.store.g000001.seg"]);
    EXPECT_EQ(got.levels, want["golden_4axis.store.levels"]);
    EXPECT_EQ(got.log, want["golden_4axis.store"]);
  }

  // A segment of several blocks, its cells' key order not their index
  // order, with a log tail on top that rewrites trials and cells (cell
  // 3 twice), streams a resume's duplicates and the orphan trials of
  // cells that never complete, and carries one unknown record type.
  const std::string store = (pinned_dir("built") / "built.store").string();
  const StoreManifest manifest = scrambled_manifest(4);
  const auto stats = [&](std::uint64_t c, int generation) {
    campaign::CellStats out = synth_stats(c, 4);
    out.coords = scrambled_coords(manifest, c);
    out.mean_psnr_db += 1000.0 * generation;
    return out;
  };
  {
    CampaignStore log{store, manifest, CampaignStore::Mode::kCreate};
    for (std::uint64_t c = 0; c < 996; ++c) {
      for (std::uint32_t t = 0; t < 4; ++t) {
        log.append_trial(synth_trial(c, t));
      }
      log.complete_cell(stats(c, 0));
    }
  }
  ASSERT_EQ(compact_store(store).segments_written, 1u);
  {
    CampaignStore log{store, manifest, CampaignStore::Mode::kResume};
    const auto rewrite = [&](std::uint64_t c, std::uint32_t first,
                             std::uint32_t last, int generation) {
      for (std::uint32_t t = first; t < last; ++t) {
        log.append_trial(generation_trial(c, t, generation));
      }
      log.complete_cell(stats(c, generation));
    };
    rewrite(3, 0, 4, 1);
    rewrite(9, 1, 3, 1);
    rewrite(3, 2, 4, 2);
    for (std::uint32_t t = 0; t < 4; ++t) {  // a resume's duplicates
      log.append_trial(synth_trial(996, t));
      log.append_trial(synth_trial(996, t));
    }
    log.complete_cell(stats(996, 0));
    for (std::uint32_t t = 0; t < 3; ++t) {  // orphans
      log.append_trial(synth_trial(998, t));
      log.append_trial(synth_trial(999, t));
    }
  }
  {
    RecordWriter log{store, [](const RecordView&) {}};
    const std::vector<std::uint8_t> future = {0x01, 0x80, 0xfe};
    log.append(0x6d, future);
  }
  const std::optional<LevelsManifest> first = read_levels_manifest(store);
  ASSERT_TRUE(first.has_value());
  ASSERT_GE(SegmentReader{segment_path(store, first->segments[0])}
                .trial_block_count(),
            3u);
  const CompactionResult result = compact_store(store);
  EXPECT_EQ(result.segments_written, 1u);
  EXPECT_EQ(result.trials_dropped, 4u + 2u + 2u + 4u + 6u);
  EXPECT_EQ(result.cells_dropped, 3u);
  const CompactedCrcs got = compacted_crcs(store);
  EXPECT_EQ(got.segment, 0x4a22dd1au);
  EXPECT_EQ(got.levels, 0x7fe4b00fu);
  EXPECT_EQ(got.log, 0x7ad7b2d2u);
}

TEST(Segment, CompactionReencodesNonCanonicalLogTrials) {
  // A trial payload with trailing bytes after its last field, under a
  // valid CRC: it decodes, and compaction writes the canonical encoding
  // of what it decoded, never the stored bytes.
  const std::string store = tmp_path("trailing.store");
  const StoreManifest manifest = synth_manifest(2, 2);
  {
    RecordWriter log{store};
    log.append(kRecManifest, encode_store_manifest(manifest));
    for (std::uint64_t c = 0; c < 2; ++c) {
      for (std::uint32_t t = 0; t < 2; ++t) {
        std::vector<std::uint8_t> payload = trial_bytes(synth_trial(c, t));
        if (c == 1 && t == 0) payload.insert(payload.end(), {0xde, 0xad});
        log.append(kRecTrial, payload);
      }
      log.append(kRecCell, encode_cell(synth_stats(c, 2)));
    }
  }
  ASSERT_EQ(compact_store(store).segments_written, 1u);

  const std::optional<LevelsManifest> levels = read_levels_manifest(store);
  ASSERT_TRUE(levels.has_value());
  const SegmentReader segment{segment_path(store, levels->segments[0])};
  std::vector<std::vector<std::uint8_t>> blobs;
  std::vector<std::uint8_t> frame;
  for (std::size_t b = 0; b < segment.trial_block_count(); ++b) {
    for (const SegmentReader::TrialGroup& group :
         read_block(segment, b, frame)) {
      util::ByteReader r{group.trials};
      for (std::uint64_t i = 0; i < group.count; ++i) {
        const std::span<const std::uint8_t> blob = r.blob();
        blobs.emplace_back(blob.begin(), blob.end());
      }
    }
  }
  ASSERT_EQ(blobs.size(), 4u);
  for (std::size_t i = 0; i < blobs.size(); ++i) {
    EXPECT_EQ(blobs[i], trial_bytes(synth_trial(i / 2, i % 2))) << i;
  }
}

}  // namespace
}  // namespace msa::persist
