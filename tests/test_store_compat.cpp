// Store compat tests against a CHECKED-IN store from the oldest sweeps:
// the legacy four-axis schema with no value lists in its manifest, and
// the fingerprint of the binary that wrote it. The contract: today's
// reader loads it, reproduces that binary's stats output byte for byte
// (tests/data/golden_v1_stats.*), diffs it against a freshly-run store
// with every delta exactly zero, and compaction keeps all of that. A
// store whose manifest carries any other format version is refused by
// name on every read path.
//
// The sweep was first written by the pre-axis-schema binary with:
//   campaign_sweep --trials 2 --threads 2 --defenses baseline,zero_on_free
//                  --models resnet50_pt --delays 0,5 --scrubbers 0
// over the default 96x96 base scenario, in a format-1 log (a manifest
// without axes, four named axis fields per cell record) that stats
// goldens were taken from. tests/data/golden_4axis.store is that log
// rewritten once into today's format, record for record: the manifest
// re-encoded with the four legacy axes (names and kinds, no values), each
// cell record re-encoded as an ordered-coordinate cell, and the trial
// records copied verbatim.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <optional>
#include <string>

#include "campaign/compare.h"
#include "campaign/grid.h"
#include "campaign/runner.h"
#include "campaign/stats.h"
#include "persist/campaign_store.h"
#include "persist/manifest.h"
#include "persist/record_io.h"
#include "persist/store_codec.h"
#include "persist/store_reader.h"
#include "store_contents.h"
#include "util/bytes.h"

namespace msa::persist {
namespace {

std::string data_path(const char* name) {
  return std::string{MSA_TEST_DATA_DIR} + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  EXPECT_TRUE(in.is_open()) << path;
  return {std::istreambuf_iterator<char>{in}, {}};
}

std::string tmp_copy_of_golden(const char* name) {
  const auto dir = std::filesystem::temp_directory_path() / "msa_compat_tests";
  std::filesystem::create_directories(dir);
  const auto path = dir / name;
  std::filesystem::remove(path);
  // A previous run may have compacted this copy: drop its levels
  // sidecar and segments, or the fresh flat copy would mismatch them.
  remove_segment_files(path.string());
  std::filesystem::copy_file(data_path("golden_4axis.store"), path);
  return path.string();
}

/// The grid the golden store was swept over (the CLI defaults of the
/// binary that wrote it, narrowed to 4 cells).
campaign::GridBuilder golden_grid() {
  attack::ScenarioConfig base;
  base.image_width = 96;
  base.image_height = 96;
  campaign::GridBuilder grid{base};
  grid.defenses({"baseline", "zero_on_free"})
      .models({"resnet50_pt"})
      .attack_delays_s({0.0, 5.0})
      .scrubber_rates({0.0});
  return grid;
}

TEST(StoreCompat, GoldenStoreLoadsWithLegacyFourAxisSchema) {
  // Only today's record types: one manifest, trials, cells.
  RecordBuffer records{data_path("golden_4axis.store")};
  std::size_t counts[3] = {0, 0, 0};
  while (const std::optional<RecordView> rec = records.next()) {
    if (rec->type == kRecManifest) ++counts[0];
    if (rec->type == kRecTrial) ++counts[1];
    if (rec->type == kRecCell) ++counts[2];
  }
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 8u);
  EXPECT_EQ(counts[2], 4u);

  const StoreContents contents =
      read_all(StoreReader{data_path("golden_4axis.store")});
  EXPECT_FALSE(contents.truncated_tail);
  ASSERT_EQ(contents.manifest.axes.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(contents.manifest.axes[i].name,
              campaign::legacy_axis_names()[i]);
    // The writer of the original log recorded no value lists; the
    // rewritten manifest has names and kinds only.
    EXPECT_TRUE(contents.manifest.axes[i].values.empty());
  }
  ASSERT_EQ(contents.cells.size(), 4u);
  for (const campaign::CellStats& cell : contents.cells) {
    ASSERT_EQ(cell.coords.size(), 4u);
    EXPECT_EQ(cell.coords[0].axis, "defense");
    EXPECT_EQ(cell.coords[1].axis, "model");
    EXPECT_EQ(cell.coords[1].value.str, "resnet50_pt");
    EXPECT_EQ(cell.coords[2].axis, "delay_s");
    EXPECT_EQ(cell.coords[3].axis, "scrubber_Bps");
    EXPECT_EQ(cell.coords[3].value.num, 0.0);
    EXPECT_EQ(cell.trials, 2u);
  }
}

TEST(StoreCompat, V1StatsOutputIsByteIdenticalToPreRefactorBinary) {
  const SweepData data = load_sweep({data_path("golden_4axis.store")});
  const campaign::StatsReport report = campaign::analyze_sweep(data);
  EXPECT_EQ(report.to_text(), read_file(data_path("golden_v1_stats.txt")));
  EXPECT_EQ(report.to_csv(), read_file(data_path("golden_v1_stats.csv")));
  // The CLI terminates JSON output with one newline; to_json() does not.
  EXPECT_EQ(report.to_json() + "\n",
            read_file(data_path("golden_v1_stats.json")));
}

TEST(StoreCompat, V1DiffsAgainstFreshV2StoreWithZeroDeltas) {
  // Re-run the golden grid with today's binary into a fresh store, then
  // diff: every cell must pair on the legacy axes with every delta
  // exactly zero (trial reseeding has not changed since the golden).
  const campaign::GridBuilder grid = golden_grid();
  campaign::CampaignOptions options;
  options.threads = 2;
  options.trials_per_cell = 2;

  StoreManifest manifest;
  manifest.grid_fingerprint = grid.fingerprint();
  manifest.grid_cells = grid.full_size();
  manifest.trials_per_cell = options.trials_per_cell;
  manifest.trial_salt = options.trial_salt;
  manifest.axes = grid.axis_schema();

  const auto dir = std::filesystem::temp_directory_path() / "msa_compat_tests";
  std::filesystem::create_directories(dir);
  const std::string fresh_path = (dir / "fresh.store").string();
  std::filesystem::remove(fresh_path);
  {
    campaign::CampaignRunner runner{options};
    CampaignStore store{fresh_path, manifest, CampaignStore::Mode::kCreate};
    (void)runner.run(grid, store);
  }

  const campaign::StatsReport golden = campaign::analyze_sweep(
      load_sweep({data_path("golden_4axis.store")}));
  const campaign::StatsReport fresh =
      campaign::analyze_sweep(load_sweep({fresh_path}));
  const campaign::DiffReport diff = campaign::diff_sweeps(golden, fresh);

  EXPECT_EQ(diff.shared_axes, campaign::legacy_axis_names());
  ASSERT_EQ(diff.cells.size(), 4u);
  EXPECT_TRUE(diff.only_in_a.empty());
  EXPECT_TRUE(diff.only_in_b.empty());
  EXPECT_EQ(diff.significant_cells, 0u);
  for (const campaign::CellDelta& d : diff.cells) {
    EXPECT_EQ(d.success_delta, 0.0);
    EXPECT_EQ(d.denial_delta, 0.0);
    EXPECT_EQ(d.p50_shift, 0.0);
    EXPECT_EQ(d.p90_shift, 0.0);
    EXPECT_EQ(d.p99_shift, 0.0);
  }
  for (const campaign::AxisDelta& d : diff.marginals) {
    EXPECT_EQ(d.success_delta, 0.0);
    EXPECT_EQ(d.mean_psnr_shift, 0.0);
  }
}

TEST(StoreCompat, VersionOneManifestIsRefusedByName) {
  // A format-1 manifest record: the fixed identity fields and no axis
  // schema. Every read path refuses it by its version.
  const campaign::GridBuilder grid = golden_grid();
  util::ByteWriter v1;
  v1.u32(1);
  v1.u64(grid.fingerprint());
  v1.u64(grid.full_size());
  v1.u32(2);  // trials per cell
  v1.u64(0);  // trial salt
  v1.u32(0);  // shard index
  v1.u32(1);  // shard count
  const auto dir = std::filesystem::temp_directory_path() / "msa_compat_tests";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "version_one.store").string();
  {
    RecordWriter writer{path};
    writer.append(kRecManifest, v1.bytes());
  }

  StoreManifest manifest;
  manifest.grid_fingerprint = grid.fingerprint();
  manifest.grid_cells = grid.full_size();
  manifest.trials_per_cell = 2;
  manifest.axes = grid.axis_schema();
  const auto expect_refused = [](const std::function<void()>& read) {
    try {
      read();
      ADD_FAILURE() << "a version-1 store was read";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string{e.what()}.find(
                    "persist: unsupported store format version 1"),
                std::string::npos)
          << e.what();
    }
  };
  expect_refused([&] { (void)StoreReader{path}; });
  expect_refused([&] {
    (void)CampaignStore{path, manifest, CampaignStore::Mode::kResume};
  });
  expect_refused([&] { (void)merge_stores({path}); });
}

TEST(StoreCompat, TwoKeysForOneCellIndexAreConflictingCopies) {
  // The golden manifest lists no values, so no key can be checked against
  // its index; but a second copy of cell 1 under other coordinates is
  // refused by every read that meets both copies. A filter that selects
  // one copy alone gets that copy, with the trials of its index.
  const std::string path = tmp_copy_of_golden("conflict.store");
  const std::vector<campaign::CellStats> golden = StoreReader{path}.cells();
  ASSERT_EQ(golden.size(), 4u);
  campaign::CellStats moved = golden[1];
  for (campaign::AxisCoordinate& coord : moved.coords) {
    if (coord.axis == "delay_s") {
      coord.value = campaign::AxisValue::of_number(7.5);
    }
  }
  moved.mean_psnr_db += 1.0;
  {
    RecordWriter log{path, [](const RecordView&) {}};
    log.append(kRecCell, encode_cell(moved));
  }
  const StoreReader reader{path};
  const auto thrown = [](const std::function<void()>& read) {
    try {
      read();
    } catch (const std::runtime_error& e) {
      return std::string{e.what()};
    }
    return std::string{};
  };
  const std::string conflict =
      "persist: cell 1 has conflicting copies (corrupt store or mixed "
      "sweeps): " +
      path;
  const auto filter = [](const std::string& spec) {
    return CellFilter{{CellFilter::parse_clause(spec)}};
  };
  EXPECT_EQ(thrown([&] { (void)reader.cells(); }), conflict);
  EXPECT_EQ(thrown([&] { (void)reader.walk({}); }), conflict);
  EXPECT_EQ(thrown([&] { (void)reader.walk(filter("model=resnet50_pt")); }),
            conflict);

  const auto trial_bytes = [](const TrialRecord& t) {
    util::ByteWriter w;
    encode_trial(t, w);
    return w.take();
  };
  const StoreContents original =
      read_all(StoreReader{data_path("golden_4axis.store")});
  std::vector<std::vector<std::uint8_t>> cell_1_trials;
  for (const TrialRecord& t : original.trials) {
    if (t.cell_index == 1) cell_1_trials.push_back(trial_bytes(t));
  }
  ASSERT_EQ(cell_1_trials.size(), 2u);
  const auto expect_cell = [&](StoreReader::CellWalk& walk,
                               const campaign::CellStats& want) {
    const std::optional<CellTrials> cell = walk.next();
    ASSERT_TRUE(cell.has_value());
    ASSERT_NE(cell->stats, nullptr);
    EXPECT_EQ(encode_cell(*cell->stats), encode_cell(want));
    if (cell->index != 1) return;
    ASSERT_EQ(cell->trials.size(), cell_1_trials.size());
    for (std::size_t i = 0; i < cell_1_trials.size(); ++i) {
      EXPECT_EQ(trial_bytes(cell->trials[i]), cell_1_trials[i]);
    }
  };
  StoreReader::CellWalk moved_alone = reader.walk(filter("delay_s=7.5"));
  expect_cell(moved_alone, moved);
  EXPECT_FALSE(moved_alone.next().has_value());

  const std::string delay =
      campaign::find_coord(golden[1].coords, "delay_s")->label();
  StoreReader::CellWalk original_alone =
      reader.walk(filter("delay_s=" + delay));
  for (const campaign::CellStats& cell : golden) {
    if (campaign::find_coord(cell.coords, "delay_s")->label() == delay) {
      expect_cell(original_alone, cell);
    }
  }
  EXPECT_FALSE(original_alone.next().has_value());
}

TEST(StoreCompat, CompactedGoldenReproducesStatsGoldens) {
  const std::string path = tmp_copy_of_golden("compacted.store");
  const std::string stats_before = campaign::analyze_sweep(
      load_sweep({path})).to_csv();

  const CompactionResult result = compact_store(path);
  EXPECT_EQ(result.cells_dropped, 0u);
  EXPECT_EQ(result.trials_dropped, 0u);

  const StoreReader reader{path};
  EXPECT_TRUE(reader.segmented());
  EXPECT_EQ(read_all(reader).cells.size(), 4u);
  // The compacted store reads back to the same report bytes — the
  // checked-in goldens included.
  const campaign::StatsReport report =
      campaign::analyze_sweep(load_sweep({path}));
  EXPECT_EQ(report.to_csv(), stats_before);
  EXPECT_EQ(report.to_text(), read_file(data_path("golden_v1_stats.txt")));
  EXPECT_EQ(report.to_csv(), read_file(data_path("golden_v1_stats.csv")));
  // The CLI terminates JSON output with one newline; to_json() does not.
  EXPECT_EQ(report.to_json() + "\n",
            read_file(data_path("golden_v1_stats.json")));

  // Compacting the already-segmented store is byte-stable.
  const CompactionResult again = compact_store(path);
  EXPECT_EQ(again.bytes_after, again.bytes_before);
  EXPECT_EQ(campaign::analyze_sweep(load_sweep({path})).to_csv(),
            stats_before);
}

}  // namespace
}  // namespace msa::persist
