// Campaign store tests: the durability/resume/sharding contract. The
// load-bearing properties are byte-identity — a resumed or sharded sweep
// must reproduce the uninterrupted single-process report exactly — and
// crash recovery: a torn tail costs only the incomplete cell.
#include "persist/campaign_store.h"
#include "persist/store_reader.h"
#include "store_contents.h"

#include <gtest/gtest.h>

#include "persist/manifest.h"
#include "persist/store_codec.h"
#include "util/bytes.h"

#include <algorithm>
#include <bit>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "campaign/grid.h"
#include "campaign/report.h"
#include "campaign/runner.h"
#include "campaign/stats.h"

namespace msa::persist {
namespace {

using campaign::CampaignCell;
using campaign::CampaignOptions;
using campaign::CampaignRunner;
using campaign::CellStats;
using campaign::GridBuilder;
using campaign::SweepReport;

std::string tmp_store(const char* name) {
  const auto dir = std::filesystem::temp_directory_path() / "msa_store_tests";
  std::filesystem::create_directories(dir);
  const auto path = dir / name;
  std::filesystem::remove(path);
  // A previous run may have compacted this store: clear the levels
  // sidecar and segment files too, or a fresh create refuses the debris.
  persist::remove_segment_files(path.string());
  return path.string();
}

attack::ScenarioConfig small_base() {
  attack::ScenarioConfig cfg;
  cfg.system = os::SystemConfig::test_small();
  cfg.image_width = 48;
  cfg.image_height = 48;
  return cfg;
}

/// 2 defenses x 2 delays x 2 scrubbers = 8 cells mixing successes,
/// scrub-defeated scrapes and denial-free baselines.
GridBuilder small_grid() {
  GridBuilder grid{small_base()};
  grid.defenses({"baseline", "zero_on_free"})
      .attack_delays_s({0.0, 5.0})
      .scrubber_rates({0.0, 512.0 * 1024});
  return grid;
}

CampaignOptions make_options(unsigned threads, unsigned trials = 2) {
  CampaignOptions options;
  options.threads = threads;
  options.trials_per_cell = trials;
  return options;
}

StoreManifest manifest_for(const GridBuilder& grid,
                           const CampaignOptions& options,
                           std::uint32_t shard_index = 0,
                           std::uint32_t shard_count = 1) {
  StoreManifest m;
  m.grid_fingerprint = grid.fingerprint();
  m.grid_cells = grid.full_size();
  m.trials_per_cell = options.trials_per_cell;
  m.trial_salt = options.trial_salt;
  m.shard_index = shard_index;
  m.shard_count = shard_count;
  m.axes = grid.axis_schema();
  return m;
}

TEST(GridShard, PartitionIsDisjointAndComplete) {
  GridBuilder full = small_grid();
  ASSERT_EQ(full.full_size(), 8u);

  std::vector<bool> covered(8, false);
  std::size_t total = 0;
  for (std::uint32_t s = 0; s < 3; ++s) {
    GridBuilder shard = small_grid();
    shard.shard(s, 3);
    const auto cells = shard.build();
    EXPECT_EQ(cells.size(), shard.size());
    EXPECT_EQ(shard.full_size(), 8u);
    for (const CampaignCell& cell : cells) {
      EXPECT_EQ(cell.index % 3, s);
      ASSERT_LT(cell.index, covered.size());
      EXPECT_FALSE(covered[cell.index]) << "cell in two shards";
      covered[cell.index] = true;
    }
    total += cells.size();
  }
  EXPECT_EQ(total, 8u);

  // Shard cells are the same cells as the full build, global indices kept.
  const auto all = full.build();
  GridBuilder s1 = small_grid();
  const auto slice = s1.shard(1, 3).build();
  for (const CampaignCell& cell : slice) {
    EXPECT_EQ(cell.coords, all[cell.index].coords);
  }
}

TEST(GridShard, BadShardArgumentsThrow) {
  GridBuilder grid = small_grid();
  EXPECT_THROW(grid.shard(0, 0), std::invalid_argument);
  EXPECT_THROW(grid.shard(2, 2), std::invalid_argument);
}

TEST(GridShard, FingerprintIsShardInvariantButAxisSensitive) {
  GridBuilder a = small_grid();
  GridBuilder b = small_grid();
  b.shard(1, 4);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());

  GridBuilder c = small_grid();
  c.attack_delays_s({0.0, 6.0});
  EXPECT_NE(a.fingerprint(), c.fingerprint());
}

TEST(CampaignStore, RoundTripMatchesInMemoryReport) {
  const GridBuilder grid = small_grid();
  const CampaignOptions options = make_options(2);
  CampaignRunner runner{options};
  const SweepReport in_memory = runner.run(grid);

  const std::string path = tmp_store("roundtrip.store");
  {
    CampaignStore store{path, manifest_for(grid, options),
                        CampaignStore::Mode::kCreate};
    const SweepReport stored = runner.run(grid, store);
    EXPECT_EQ(stored.to_csv(), in_memory.to_csv());
    EXPECT_EQ(store.completed_count(), 8u);
  }

  // Reload from disk alone: byte-identical CSV and JSON.
  const SweepReport reloaded = merge_stores({path});
  EXPECT_EQ(reloaded.to_csv(), in_memory.to_csv());
  EXPECT_EQ(reloaded.to_json(), in_memory.to_json());
}

TEST(CampaignStore, TrialStreamReconstructsCellAggregates) {
  const GridBuilder grid = small_grid();
  const CampaignOptions options = make_options(4, 3);
  const std::string path = tmp_store("trialstream.store");
  {
    CampaignRunner runner{options};
    CampaignStore store{path, manifest_for(grid, options),
                        CampaignStore::Mode::kCreate};
    (void)runner.run(grid, store);
  }

  const StoreContents contents = read_all(StoreReader{path});
  EXPECT_FALSE(contents.truncated_tail);
  ASSERT_EQ(contents.cells.size(), 8u);
  ASSERT_EQ(contents.trials.size(), 8u * 3u);

  // Re-accumulate the per-trial stream; it must land on the exact stored
  // aggregates (same doubles bit for bit, since both sides ran the same
  // accumulation in trial order).
  for (const CellStats& cell : contents.cells) {
    CellStats rebuilt;
    rebuilt.index = cell.index;
    rebuilt.coords = cell.coords;
    for (const TrialRecord& t : contents.trials) {
      if (t.cell_index != cell.index) continue;
      attack::ScenarioResult result;
      result.denied = t.denied;
      result.denial_reason = t.denial_reason;
      result.model_identified_correctly = t.model_identified;
      result.pixel_match = t.pixel_match;
      result.psnr = t.psnr;
      result.descriptor_pixel_match = t.descriptor_pixel_match;
      rebuilt.accumulate(result);
    }
    rebuilt.finalize();
    EXPECT_EQ(rebuilt.trials, cell.trials);
    EXPECT_EQ(rebuilt.full_successes, cell.full_successes);
    EXPECT_EQ(rebuilt.model_identified, cell.model_identified);
    EXPECT_EQ(rebuilt.denials, cell.denials);
    EXPECT_EQ(rebuilt.first_denial_reason, cell.first_denial_reason);
    EXPECT_EQ(rebuilt.mean_pixel_match, cell.mean_pixel_match);
    EXPECT_EQ(rebuilt.mean_psnr_db, cell.mean_psnr_db);
    EXPECT_EQ(rebuilt.mean_descriptor_pixel_match,
              cell.mean_descriptor_pixel_match);
  }
}

TEST(CampaignStore, InterruptedSweepResumesByteIdentical) {
  // The acceptance criterion: interrupt after K cells, reopen, finish —
  // the final report matches an uninterrupted run at any thread count.
  const GridBuilder grid = small_grid();
  const CampaignOptions options = make_options(1, 2);
  CampaignRunner uninterrupted{make_options(4, 2)};
  const SweepReport golden = uninterrupted.run(grid);

  const std::string path = tmp_store("resume.store");
  {
    CampaignRunner runner{options};
    CampaignStore store{path, manifest_for(grid, options),
                        CampaignStore::Mode::kCreate};
    (void)runner.run(grid, store, /*max_new_cells=*/3);  // "crash" here
    EXPECT_EQ(store.completed_count(), 3u);
  }

  std::size_t resumed_total = 0;
  CampaignOptions resume_options = make_options(4, 2);
  resume_options.on_cell_done = [&](std::size_t, std::size_t total) {
    resumed_total = total;
  };
  CampaignRunner resumer{resume_options};
  CampaignStore store{path, manifest_for(grid, resume_options),
                      CampaignStore::Mode::kResume};
  const SweepReport finished = resumer.run(grid, store);
  EXPECT_EQ(resumed_total, 5u);  // only the cells the "crash" lost
  EXPECT_EQ(store.completed_count(), 8u);
  EXPECT_EQ(finished.to_csv(), golden.to_csv());
  EXPECT_EQ(finished.to_json(), golden.to_json());
}

TEST(CampaignStore, TornTailRedoesOnlyIncompleteCell) {
  const GridBuilder grid = small_grid();
  const CampaignOptions options = make_options(1, 2);
  CampaignRunner runner{options};
  const SweepReport golden = runner.run(grid);

  const std::string path = tmp_store("torntail.store");
  {
    CampaignStore store{path, manifest_for(grid, options),
                        CampaignStore::Mode::kCreate};
    (void)runner.run(grid, store);
  }
  // Tear the tail: with one worker the file ends with the last cell's
  // completion record, so this reverts exactly one cell to "incomplete".
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 5);

  std::size_t redone = 0;
  CampaignOptions resume_options = make_options(2, 2);
  resume_options.on_cell_done = [&](std::size_t, std::size_t total) {
    redone = total;
  };
  CampaignRunner resumer{resume_options};
  CampaignStore store{path, manifest_for(grid, resume_options),
                      CampaignStore::Mode::kResume};
  EXPECT_EQ(store.completed_count(), 7u);
  const SweepReport finished = resumer.run(grid, store);
  EXPECT_EQ(redone, 1u);
  EXPECT_EQ(finished.to_csv(), golden.to_csv());
}

TEST(CampaignStore, ResumesFromEveryPrefixOfAStore) {
  // A store cut at any byte resumes. A cut inside the magic is no store:
  // kResume refuses it and kCreateOrResume starts over. A cut inside the
  // manifest frame starts over with a new manifest. Any later cut keeps
  // exactly the cell records it holds whole. Either way, finishing the
  // sweep gives the uninterrupted report byte for byte.
  GridBuilder grid{small_base()};
  grid.attack_delays_s({0.0, 5.0, 60.0});
  ASSERT_EQ(grid.full_size(), 3u);
  const CampaignOptions options = make_options(1, 1);
  const StoreManifest manifest = manifest_for(grid, options);
  CampaignRunner runner{options};
  const SweepReport golden = runner.run(grid);

  const std::string full = tmp_store("prefix_full.store");
  {
    CampaignStore store{full, manifest, CampaignStore::Mode::kCreate};
    (void)runner.run(grid, store);
  }
  const auto read = [](const std::string& path) {
    std::ifstream in{path, std::ios::binary};
    return std::string{std::istreambuf_iterator<char>{in}, {}};
  };
  const std::string bytes = read(full);
  // Where the manifest frame and each cell record end.
  std::uint64_t manifest_end = 0;
  std::vector<std::uint64_t> cell_ends;
  {
    RecordBuffer log{full};
    while (const std::optional<RecordView> rec = log.next()) {
      if (rec->type == kRecManifest && manifest_end == 0) {
        manifest_end = log.valid_bytes();
      } else if (rec->type == kRecCell) {
        cell_ends.push_back(log.valid_bytes());
      }
    }
  }
  ASSERT_EQ(cell_ends.size(), 3u);

  const std::string path = tmp_store("prefix.store");
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    {
      std::ofstream out{path, std::ios::binary | std::ios::trunc};
      out.write(bytes.data(), static_cast<std::streamsize>(cut));
    }
    CampaignStore::Mode mode = CampaignStore::Mode::kResume;
    if (cut < kRecordMagic.size()) {
      try {
        CampaignStore refused{path, manifest, mode};
        ADD_FAILURE() << "kResume opened a cut inside the magic";
      } catch (const std::runtime_error& e) {
        EXPECT_EQ(std::string{e.what()},
                  "persist: no store to resume: " + path);
      }
      mode = CampaignStore::Mode::kCreateOrResume;
    }
    CampaignStore store{path, manifest, mode};
    if (cut < manifest_end) {
      EXPECT_EQ(read(path), bytes.substr(0, manifest_end));
    }
    EXPECT_EQ(store.completed_count(),
              static_cast<std::size_t>(std::ranges::count_if(
                  cell_ends, [&](std::uint64_t end) { return end <= cut; })));
    const SweepReport finished = runner.run(grid, store);
    EXPECT_EQ(finished.to_csv(), golden.to_csv());
    EXPECT_EQ(finished.to_json(), golden.to_json());
  }
}

TEST(CampaignStore, ManifestMismatchAndModeErrors) {
  const GridBuilder grid = small_grid();
  const CampaignOptions options = make_options(1, 2);
  const std::string path = tmp_store("mismatch.store");
  {
    CampaignStore store{path, manifest_for(grid, options),
                        CampaignStore::Mode::kCreate};
  }

  // Same path, different trial count: a different sweep.
  EXPECT_THROW((CampaignStore{path, manifest_for(grid, make_options(1, 3)),
                              CampaignStore::Mode::kResume}),
               std::runtime_error);
  // Different grid axes: different fingerprint.
  GridBuilder other = small_grid();
  other.defenses({"baseline"});
  EXPECT_THROW((CampaignStore{path, manifest_for(other, options),
                              CampaignStore::Mode::kResume}),
               std::runtime_error);
  // kCreate refuses to clobber, kResume refuses to invent.
  EXPECT_THROW((CampaignStore{path, manifest_for(grid, options),
                              CampaignStore::Mode::kCreate}),
               std::runtime_error);
  EXPECT_THROW((CampaignStore{tmp_store("absent.store"),
                              manifest_for(grid, options),
                              CampaignStore::Mode::kResume}),
               std::runtime_error);

  // A runner whose trials/salt disagree with the store must refuse.
  CampaignStore store{path, manifest_for(grid, options),
                      CampaignStore::Mode::kResume};
  CampaignRunner wrong_trials{make_options(1, 3)};
  EXPECT_THROW((void)wrong_trials.run(grid, store), std::invalid_argument);
}

TEST(CampaignStore, CreateOrResumeTakesBothBranches) {
  const GridBuilder grid = small_grid();
  const CampaignOptions options = make_options(1, 1);
  const std::string path = tmp_store("createorresume.store");

  // File absent: behaves like kCreate.
  {
    CampaignRunner runner{options};
    CampaignStore store{path, manifest_for(grid, options),
                        CampaignStore::Mode::kCreateOrResume};
    (void)runner.run(grid, store, /*max_new_cells=*/2);
    EXPECT_EQ(store.completed_count(), 2u);
  }
  // File present: behaves like kResume — completed cells survive, and a
  // mismatched manifest is still rejected.
  {
    CampaignStore store{path, manifest_for(grid, options),
                        CampaignStore::Mode::kCreateOrResume};
    EXPECT_EQ(store.completed_count(), 2u);
  }
  EXPECT_THROW((CampaignStore{path, manifest_for(grid, make_options(1, 5)),
                              CampaignStore::Mode::kCreateOrResume}),
               std::runtime_error);
}

TEST(CampaignStore, WrongShardCellsRejected) {
  const GridBuilder grid = small_grid();
  const CampaignOptions options = make_options(1, 1);
  const std::string path = tmp_store("wrongshard.store");
  CampaignStore store{path, manifest_for(grid, options, /*shard_index=*/1,
                                         /*shard_count=*/2),
                      CampaignStore::Mode::kCreate};
  GridBuilder shard0 = small_grid();
  shard0.shard(0, 2);
  CampaignRunner runner{options};
  EXPECT_THROW((void)runner.run(shard0, store), std::invalid_argument);
}

TEST(CampaignStore, ShardedSweepMergesToSingleProcessReport) {
  const GridBuilder grid = small_grid();
  const CampaignOptions options = make_options(2, 2);
  CampaignRunner single{make_options(4, 2)};
  const SweepReport golden = single.run(grid);

  std::vector<std::string> paths;
  for (std::uint32_t s = 0; s < 2; ++s) {
    GridBuilder shard = small_grid();
    shard.shard(s, 2);
    const std::string path =
        tmp_store((std::string{"shard"} + std::to_string(s) + ".store").c_str());
    CampaignRunner runner{options};
    CampaignStore store{path, manifest_for(shard, options, s, 2),
                        CampaignStore::Mode::kCreate};
    (void)runner.run(shard, store);
    paths.push_back(path);
  }

  const SweepReport merged = merge_stores(paths);
  EXPECT_EQ(merged.to_csv(), golden.to_csv());
  EXPECT_EQ(merged.to_json(), golden.to_json());

  // Merge order must not matter: report is reassembled in grid order.
  const SweepReport reversed = merge_stores({paths[1], paths[0]});
  EXPECT_EQ(reversed.to_csv(), golden.to_csv());
}

TEST(CampaignStore, FsyncBatchingChangesNoBytes) {
  // fsync is a durability knob, not a format knob: a store written with
  // --fsync-every 1 is byte-identical to the default flush-only store.
  // One worker thread: the trial-record interleaving (not the report) is
  // schedule-dependent at higher thread counts.
  const GridBuilder grid = small_grid();
  const CampaignOptions options = make_options(1, 2);
  const std::string plain = tmp_store("fsync_off.store");
  const std::string synced = tmp_store("fsync_on.store");
  {
    CampaignRunner runner{options};
    CampaignStore store{plain, manifest_for(grid, options),
                        CampaignStore::Mode::kCreate};
    (void)runner.run(grid, store);
  }
  {
    CampaignRunner runner{options};
    StoreOptions durability;
    durability.fsync_every = 1;
    CampaignStore store{synced, manifest_for(grid, options),
                        CampaignStore::Mode::kCreate, durability};
    (void)runner.run(grid, store);
    store.sync();  // the explicit final sync point is also byte-neutral
  }
  std::ifstream a{plain, std::ios::binary};
  std::ifstream b{synced, std::ios::binary};
  const std::string bytes_a{std::istreambuf_iterator<char>{a}, {}};
  const std::string bytes_b{std::istreambuf_iterator<char>{b}, {}};
  EXPECT_EQ(bytes_a, bytes_b);
}

TEST(CampaignStore, CompactionDropsSupersededRecords) {
  // A resume leaves duplicate trial records behind (the interrupted
  // cell's trials are re-streamed); compaction removes them without
  // changing what any reader sees.
  const GridBuilder grid = small_grid();
  const CampaignOptions options = make_options(1, 2);
  CampaignRunner runner{options};
  const SweepReport golden = runner.run(grid);

  const std::string path = tmp_store("compact.store");
  {
    CampaignStore store{path, manifest_for(grid, options),
                        CampaignStore::Mode::kCreate};
    (void)runner.run(grid, store);
  }
  // Tear the final cell record: its trials stay behind as duplicates
  // once the resume re-runs the cell.
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 5);
  {
    CampaignRunner resumer{options};
    CampaignStore store{path, manifest_for(grid, options),
                        CampaignStore::Mode::kResume};
    (void)resumer.run(grid, store);
  }
  const StoreContents before = read_all(StoreReader{path});
  ASSERT_EQ(before.cells.size(), 8u);

  const CompactionResult result = compact_store(path);
  EXPECT_GT(result.trials_dropped, 0u);  // the re-streamed duplicates
  EXPECT_EQ(result.cells_dropped, 0u);   // every cell completed once
  // (bytes_after vs bytes_before is asserted at scale in test_segment:
  // on a tiny 8-cell store the segment index/footer can outweigh the
  // dropped duplicates.)
  EXPECT_EQ(result.segments_written, 1u);
  EXPECT_EQ(result.segments_live, 1u);
  EXPECT_TRUE(StoreReader{path}.segmented());

  // Identical view after compaction, and still a valid mergeable store.
  const StoreContents after = read_all(StoreReader{path});
  EXPECT_FALSE(after.truncated_tail);
  ASSERT_EQ(after.cells.size(), before.cells.size());
  ASSERT_EQ(after.trials.size(), before.trials.size());
  const SweepReport merged = merge_stores({path});
  EXPECT_EQ(merged.to_csv(), golden.to_csv());
  EXPECT_EQ(merged.to_json(), golden.to_json());

  // Re-compacting a compact store is a no-op.
  const CompactionResult again = compact_store(path);
  EXPECT_EQ(again.trials_dropped, 0u);
  EXPECT_EQ(again.bytes_after, again.bytes_before);
}

TEST(CampaignStore, CompactionDropsOrphanTrialsAndTornTail) {
  // A sweep killed mid-cell leaves that cell's already-streamed trials
  // behind with no completion record — orphans a future resume will
  // supersede. Compaction drops them (and the torn tail) now, and the
  // compacted store still resumes to the golden report.
  const GridBuilder grid = small_grid();
  const CampaignOptions options = make_options(1, 2);
  const std::string path = tmp_store("compact_orphans.store");
  {
    CampaignRunner runner{options};
    CampaignStore store{path, manifest_for(grid, options),
                        CampaignStore::Mode::kCreate};
    (void)runner.run(grid, store);
  }
  // Tear the last cell's completion record mid-frame: its trials become
  // orphans and the file ends in garbage.
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 5);
  ASSERT_TRUE(read_all(StoreReader{path}).truncated_tail);

  const CompactionResult result = compact_store(path);
  EXPECT_EQ(result.cells_dropped, 0u);
  EXPECT_EQ(result.trials_dropped, 2u);  // the incomplete cell's 2 trials
  const StoreContents after = read_all(StoreReader{path});
  EXPECT_FALSE(after.truncated_tail);
  EXPECT_EQ(after.cells.size(), 7u);
  EXPECT_EQ(after.trials.size(), 14u);  // only completed cells' trials

  // The compacted store still resumes to the full golden report.
  CampaignRunner resumer{options};
  const SweepReport golden = resumer.run(grid);
  CampaignStore store{path, manifest_for(grid, options),
                      CampaignStore::Mode::kResume};
  const SweepReport finished = resumer.run(grid, store);
  EXPECT_EQ(finished.to_csv(), golden.to_csv());
}

/// Every file of `path`'s store — log, sidecar, segments — by name.
std::map<std::string, std::string> store_files(const std::string& path) {
  const std::filesystem::path store{path};
  std::map<std::string, std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(store.parent_path())) {
    const std::string name = entry.path().filename().string();
    if (!name.starts_with(store.filename().string())) continue;
    std::ifstream in{entry.path(), std::ios::binary};
    files[name] = {std::istreambuf_iterator<char>{in}, {}};
  }
  return files;
}

TEST(CampaignStore, CompactionRefusesAStoreALiveWriterHasOpen) {
  const GridBuilder grid = small_grid();
  const CampaignOptions options = make_options(1, 2);
  const std::string path = tmp_store("compact_live.store");
  {
    CampaignRunner runner{options};
    CampaignStore store{path, manifest_for(grid, options),
                        CampaignStore::Mode::kCreate};
    (void)runner.run(grid, store);

    // The writer could still append to the log compaction would trim.
    const std::map<std::string, std::string> before = store_files(path);
    try {
      (void)compact_store(path);
      FAIL() << "compacted a store a live writer holds";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string{e.what()}.find(
                    "persist: store is open by a live writer: " + path),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(store_files(path), before);
  }
  const CompactionResult result = compact_store(path);
  EXPECT_EQ(result.segments_written, 1u);
  EXPECT_EQ(read_all(StoreReader{path}).cells.size(), 8u);
}

TEST(CampaignStore, ConflictingManifestRecordsAreRejectedOnEveryReadPath) {
  const GridBuilder grid = small_grid();
  const CampaignOptions options = make_options(1, 1);
  const StoreManifest manifest = manifest_for(grid, options);
  const std::string path = tmp_store("two_manifests.store");
  {
    CampaignRunner runner{options};
    CampaignStore store{path, manifest, CampaignStore::Mode::kCreate};
    (void)runner.run(grid, store);
  }
  StoreManifest other = manifest;
  other.trial_salt += 1;
  {
    RecordWriter writer{path, [](const RecordView&) {}};
    writer.append(kRecManifest, encode_store_manifest(other));
  }
  const std::map<std::string, std::string> before = store_files(path);
  const auto expect_named = [&](const std::function<void()>& read) {
    try {
      read();
      FAIL() << "a log with two different manifests was read";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string{e.what()}.find(
                    "persist: conflicting manifest records in " + path),
                std::string::npos)
          << e.what();
    }
  };
  expect_named([&] { (void)read_all(StoreReader{path}); });
  expect_named([&] { (void)load_sweep({path}); });
  expect_named([&] { (void)merge_stores({path}); });
  expect_named([&] { (void)compact_store(path); });
  EXPECT_EQ(store_files(path), before);
  // Resume checks every manifest record against its own.
  EXPECT_THROW((CampaignStore{path, manifest, CampaignStore::Mode::kResume}),
               std::runtime_error);
}

TEST(CampaignStore, CompactionKeepsUnknownRecordTypesVerbatim) {
  const GridBuilder grid = small_grid();
  const CampaignOptions options = make_options(1, 1);
  const StoreManifest manifest = manifest_for(grid, options);
  const std::string path = tmp_store("unknown_records.store");
  const std::vector<std::uint8_t> first = {0x00, 0xff, 0x10};
  const std::vector<std::uint8_t> second = {};
  {
    CampaignRunner runner{options};
    CampaignStore store{path, manifest, CampaignStore::Mode::kCreate};
    (void)runner.run(grid, store);
  }
  {
    RecordWriter writer{path, [](const RecordView&) {}};
    writer.append(0x7e, first);
    writer.append(0x7f, second);
  }
  const std::string stats = campaign::analyze_sweep(load_sweep({path})).to_csv();

  ASSERT_EQ(compact_store(path).segments_written, 1u);
  std::vector<RecordView> log;
  RecordBuffer reader{path};
  while (std::optional<RecordView> rec = reader.next()) log.push_back(*rec);
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0].type, kRecManifest);
  EXPECT_EQ(decode_store_manifest(log[0].payload), manifest);
  EXPECT_EQ(log[1].type, 0x7e);
  EXPECT_TRUE(std::ranges::equal(log[1].payload, first));
  EXPECT_EQ(log[2].type, 0x7f);
  EXPECT_TRUE(std::ranges::equal(log[2].payload, second));
  EXPECT_EQ(campaign::analyze_sweep(load_sweep({path})).to_csv(), stats);
}

TEST(CampaignStore, LoadSweepDeduplicatesIdenticalCopiesOnly) {
  const GridBuilder grid = small_grid();
  const CampaignOptions options = make_options(1, 1);
  // Two "workers" that both completed the same cells — the lease-race
  // shape. Deterministic trials make the copies bit-identical.
  const std::string a = tmp_store("dup_a.store");
  const std::string b = tmp_store("dup_b.store");
  for (const std::string& path : {a, b}) {
    CampaignRunner runner{options};
    CampaignStore store{path, manifest_for(grid, options),
                        CampaignStore::Mode::kCreate};
    (void)runner.run(grid, store);
  }

  const SweepData data = load_sweep({a, b});
  EXPECT_EQ(data.cells.size(), 8u);
  EXPECT_EQ(data.duplicate_cells, 8u);
  EXPECT_EQ(data.duplicate_trials, 8u);
  // Identical duplicates merge to the single-process report, however
  // they are spread over the stores.
  const SweepReport merged = merge_stores({a, b});
  CampaignRunner runner{options};
  EXPECT_EQ(merged.to_csv(), runner.run(grid).to_csv());
  EXPECT_EQ(merge_stores({a, a}).to_csv(), merged.to_csv());

  // Conflicting bytes for the same key are corruption, never tolerated.
  const std::string c = tmp_store("dup_c.store");
  {
    CampaignStore store{c, manifest_for(grid, options),
                        CampaignStore::Mode::kCreate};
    // Hand-write a conflicting completed cell for index 0: its grid
    // key, other counters.
    CellStats fake = StoreReader{a}.cells().front();
    ASSERT_EQ(fake.index, 0u);
    fake.mean_psnr_db = -1.0;  // cannot match the real cell
    store.complete_cell(fake);
  }
  EXPECT_THROW((void)load_sweep({a, c}), std::runtime_error);
  EXPECT_THROW((void)merge_stores({a, c}), std::runtime_error);
}

/// Identity of the hand-written stores below: 16 cells of one axis.
StoreManifest hand_manifest() {
  StoreManifest m;
  m.grid_fingerprint = 0xd0d0cafeu;
  m.grid_cells = 16;
  m.trials_per_cell = 3;
  m.trial_salt = 9;
  campaign::AxisSpec axis;
  axis.name = "delay_s";
  axis.kind = campaign::AxisKind::kDouble;
  for (int i = 0; i < 16; ++i) {
    axis.values.push_back(campaign::AxisValue::of_number(i));
  }
  m.axes = {std::move(axis)};
  return m;
}

TrialRecord hand_trial(std::uint64_t cell, std::uint32_t trial) {
  TrialRecord t;
  t.cell_index = cell;
  t.trial = trial;
  t.model_identified = trial != 1;
  t.pixel_match = 0.5 + 0.125 * trial;
  t.psnr = 10.0 + static_cast<double>(cell);
  t.descriptor_pixel_match = 0.25;
  return t;
}

CellStats hand_cell(std::uint64_t index) {
  CellStats c;
  c.index = index;
  c.coords = {{"delay_s", campaign::AxisValue::of_number(
                              static_cast<double>(index))}};
  c.trials = 3;
  c.mean_psnr_db = 10.0 + static_cast<double>(index);
  return c;
}

/// (Re)writes `path` as a store holding `cells` completed (3 trials each)
/// plus `orphans`, (cell, trial) records of cells that never completed;
/// the edit hooks may alter a record before it is written.
void write_hand_store(
    const std::string& path, const std::vector<std::uint64_t>& cells,
    const std::vector<std::pair<std::uint64_t, std::uint32_t>>& orphans = {},
    const std::function<void(TrialRecord&)>& edit_trial = {},
    const std::function<void(CellStats&)>& edit_cell = {}) {
  std::filesystem::remove(path);
  CampaignStore store{path, hand_manifest(), CampaignStore::Mode::kCreate};
  for (const auto& [cell, trial] : orphans) {
    store.append_trial(hand_trial(cell, trial));
  }
  for (const std::uint64_t c : cells) {
    for (std::uint32_t t = 0; t < 3; ++t) {
      TrialRecord trial = hand_trial(c, t);
      if (edit_trial) edit_trial(trial);
      store.append_trial(trial);
    }
    CellStats stats = hand_cell(c);
    if (edit_cell) edit_cell(stats);
    store.complete_cell(stats);
  }
}

TEST(CampaignStore, LoadSweepCountsDuplicatesAcrossSeveralStores) {
  const std::string a = tmp_store("multi_a.store");
  const std::string b = tmp_store("multi_b.store");
  const std::string c = tmp_store("multi_c.store");
  write_hand_store(a, {3, 0, 2, 1});
  write_hand_store(b, {2, 3, 5, 4}, {{9, 0}});
  write_hand_store(c, {7, 5, 0, 6}, {{9, 0}, {9, 1}});

  // Every order of the same three stores yields the same union, and the
  // same duplicates: cells 2, 3 (b) and 0, 5 (c) with their 3 trials
  // each, plus orphan (9, 0) twice over.
  for (const std::vector<std::string>& order :
       {std::vector{a, b, c}, std::vector{c, b, a}, std::vector{b, c, a}}) {
    const SweepData data = load_sweep(order);
    EXPECT_EQ(data.duplicate_cells, 4u);
    EXPECT_EQ(data.duplicate_trials, 4u * 3u + 1u);
    ASSERT_EQ(data.cells.size(), 8u);
    for (std::size_t i = 0; i < data.cells.size(); ++i) {
      EXPECT_EQ(data.cells[i].index, i);
    }
    ASSERT_EQ(data.trials.size(), 8u * 3u + 2u);
    for (std::size_t i = 0; i < 24; ++i) {
      EXPECT_EQ(data.trials[i].cell_index, i / 3);
      EXPECT_EQ(data.trials[i].trial, i % 3);
      util::ByteWriter got;
      util::ByteWriter want;
      encode_trial(data.trials[i], got);
      encode_trial(hand_trial(i / 3, i % 3), want);
      EXPECT_TRUE(std::ranges::equal(got.bytes(), want.bytes()));
    }
    EXPECT_EQ(data.trials[24].cell_index, 9u);
    EXPECT_EQ(data.trials[25].trial, 1u);
  }
  // A store listed twice is all duplicates.
  const SweepData twice = load_sweep({a, a});
  EXPECT_EQ(twice.duplicate_cells, 4u);
  EXPECT_EQ(twice.duplicate_trials, 12u);
}

TEST(CampaignStore, LoadSweepRejectsCopiesDifferingOnlyInDoubleBits) {
  const double nan_a = std::bit_cast<double>(0x7ff8000000000001ULL);
  const double nan_b = std::bit_cast<double>(0x7ff8000000000002ULL);
  const std::string base = tmp_store("bits_base.store");
  const std::string other = tmp_store("bits_other.store");
  const std::string twin = tmp_store("bits_twin.store");
  struct Case {
    double first;
    double second;
  };
  // Equal under operator== or both NaN: only the bytes tell them apart.
  for (const Case& k : {Case{0.0, -0.0}, Case{-0.0, 0.0}, Case{nan_a, nan_b},
                        Case{nan_a, -nan_a}}) {
    const auto set_trial = [](double v) {
      return [v](TrialRecord& t) {
        if (t.cell_index == 1 && t.trial == 2) t.descriptor_pixel_match = v;
      };
    };
    write_hand_store(base, {0, 1}, {}, set_trial(k.first));
    write_hand_store(other, {1, 2}, {}, set_trial(k.second));
    write_hand_store(twin, {1, 2}, {}, set_trial(k.first));
    try {
      (void)load_sweep({base, other});
      ADD_FAILURE() << "trial copies " << k.first << " / " << k.second
                    << " were accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string{e.what()}.find("trial (1, 2) has conflicting"),
                std::string::npos)
          << e.what();
    }
    // The same bits twice — NaN payload included — are a duplicate.
    EXPECT_EQ(load_sweep({base, twin}).duplicate_trials, 3u);

    const auto set_cell = [](double v) {
      return [v](CellStats& c) {
        if (c.index == 1) c.mean_pixel_match = v;
      };
    };
    write_hand_store(base, {0, 1}, {}, {}, set_cell(k.first));
    write_hand_store(other, {1, 2}, {}, {}, set_cell(k.second));
    write_hand_store(twin, {1, 2}, {}, {}, set_cell(k.first));
    try {
      (void)load_sweep({base, other});
      ADD_FAILURE() << "cell copies " << k.first << " / " << k.second
                    << " were accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string{e.what()}.find("cell 1 has conflicting"),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(load_sweep({base, twin}).duplicate_cells, 1u);
  }
}

TEST(CampaignStore, MergeRejectsDuplicateAndIncompleteShards) {
  const GridBuilder grid = small_grid();
  const CampaignOptions options = make_options(2, 1);
  GridBuilder shard0 = small_grid();
  shard0.shard(0, 2);
  const std::string path = tmp_store("lonely.store");
  {
    CampaignRunner runner{options};
    CampaignStore store{path, manifest_for(shard0, options, 0, 2),
                        CampaignStore::Mode::kCreate};
    (void)runner.run(shard0, store);
  }
  // Half the grid missing.
  EXPECT_THROW((void)merge_stores({path}), std::runtime_error);
  // Same shard twice: its copies are identical, but the other half of
  // the grid is still missing.
  EXPECT_THROW((void)merge_stores({path, path}), std::runtime_error);
  EXPECT_THROW((void)merge_stores({}), std::runtime_error);
}

}  // namespace
}  // namespace msa::persist
