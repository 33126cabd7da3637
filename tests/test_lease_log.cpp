// Lease-log protocol tests: the claim/renew/complete/reset record
// stream, the incremental directory scanner, and the LeaseScheduler's
// reclamation edge cases — torn lease tails, two workers racing one
// cell (exactly-once completion), and a worker resurrecting after its
// lease was reclaimed (its stale completion must be ignored).
#include "persist/lease_log.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/grid.h"
#include "campaign/runner.h"
#include "persist/campaign_store.h"
#include "persist/record_io.h"

namespace msa::persist {
namespace {

using campaign::CampaignCell;
using campaign::CampaignOptions;
using campaign::CampaignRunner;
using campaign::CellStats;
using campaign::ClaimedCell;
using campaign::GridBuilder;

std::string tmp_dir(const char* name) {
  const auto dir =
      std::filesystem::temp_directory_path() / "msa_lease_tests" / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

attack::ScenarioConfig small_base() {
  attack::ScenarioConfig cfg;
  cfg.system = os::SystemConfig::test_small();
  cfg.image_width = 48;
  cfg.image_height = 48;
  return cfg;
}

/// 2 defenses x 2 delays = 4 cells; small enough that protocol tests can
/// enumerate every claim.
GridBuilder small_grid() {
  GridBuilder grid{small_base()};
  grid.defenses({"baseline", "zero_on_free"}).attack_delays_s({0.0, 5.0});
  return grid;
}

StoreManifest manifest_for(const GridBuilder& grid, unsigned trials = 1) {
  StoreManifest m;
  m.grid_fingerprint = grid.fingerprint();
  m.grid_cells = grid.full_size();
  m.trials_per_cell = trials;
  m.trial_salt = CampaignOptions{}.trial_salt;
  return m;
}

/// Scheduler options tuned for tests: leases expire after one idle scan
/// round and idle waits are ~instant, so reclamation paths run in
/// milliseconds without wall-clock assumptions.
LeaseSchedulerOptions fast_expiry() {
  LeaseSchedulerOptions options;
  options.expiry_scans = 1;
  options.idle_backoff = std::chrono::milliseconds{1};
  return options;
}

TEST(LeaseLog, RecordsVisibleToScanner) {
  const std::string dir = tmp_dir("visible");
  const GridBuilder grid = small_grid();
  const StoreManifest manifest = manifest_for(grid);

  LeaseLog log{LeaseScheduler::lease_path(dir, "w0"), manifest};
  log.claim(2);
  log.renew(2);
  log.claim(1);
  log.complete(2);

  LeaseDirScanner scanner{dir, "other.lease", manifest};
  scanner.refresh(/*idle=*/false);
  ASSERT_TRUE(scanner.workers().contains("w0.lease"));
  const WorkerLeaseState& w0 = scanner.workers().at("w0.lease");
  EXPECT_TRUE(w0.manifest_checked);
  EXPECT_EQ(w0.claimed, (std::set<std::uint64_t>{1}));
  EXPECT_EQ(w0.completed, (std::set<std::uint64_t>{2}));
  EXPECT_TRUE(scanner.completed_elsewhere(2));
  EXPECT_FALSE(scanner.completed_elsewhere(1));
}

TEST(LeaseLog, IncrementalScanOnlyReadsNewRecords) {
  const std::string dir = tmp_dir("incremental");
  const GridBuilder grid = small_grid();
  const StoreManifest manifest = manifest_for(grid);

  LeaseLog log{LeaseScheduler::lease_path(dir, "w0"), manifest};
  log.claim(0);

  LeaseDirScanner scanner{dir, "me.lease", manifest};
  scanner.refresh(false);
  const std::uint64_t frames_then = scanner.workers().at("w0.lease").frames;
  const std::uint64_t bytes_then = scanner.workers().at("w0.lease").valid_bytes;
  EXPECT_GT(frames_then, 0u);

  // No growth: idle refreshes age the worker; busy refreshes do not.
  scanner.refresh(/*idle=*/false);
  EXPECT_EQ(scanner.workers().at("w0.lease").stale_scans, 0u);
  scanner.refresh(/*idle=*/true);
  scanner.refresh(/*idle=*/true);
  EXPECT_EQ(scanner.workers().at("w0.lease").stale_scans, 2u);

  // Growth resets staleness and only the delta is parsed.
  log.complete(0);
  scanner.refresh(/*idle=*/true);
  const WorkerLeaseState& w0 = scanner.workers().at("w0.lease");
  EXPECT_EQ(w0.stale_scans, 0u);
  EXPECT_EQ(w0.frames, frames_then + 1);
  EXPECT_GT(w0.valid_bytes, bytes_then);
  EXPECT_TRUE(w0.completed.contains(0));
}

TEST(LeaseLog, TornTailIsDroppedOnReopenAndByScanner) {
  const std::string dir = tmp_dir("torntail");
  const GridBuilder grid = small_grid();
  const StoreManifest manifest = manifest_for(grid);
  const std::string path = LeaseScheduler::lease_path(dir, "w0");

  {
    LeaseLog log{path, manifest};
    log.claim(0);
    log.complete(0);
    log.claim(1);
  }
  // Tear mid-frame: the claim of cell 1 loses its trailing bytes.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 2);

  // The scanner never sees the torn claim...
  LeaseDirScanner scanner{dir, "me.lease", manifest};
  scanner.refresh(false);
  EXPECT_EQ(scanner.workers().at("w0.lease").claimed,
            (std::set<std::uint64_t>{}));
  EXPECT_TRUE(scanner.workers().at("w0.lease").completed.contains(0));

  // ...and a reopened log (worker restart) recovers cleanly: completions
  // survive, the torn tail is gone, and appends keep working.
  LeaseLog reopened{path, manifest};
  EXPECT_TRUE(reopened.completed().contains(0));
  reopened.claim(3);
  scanner.refresh(false);
  EXPECT_TRUE(scanner.workers().at("w0.lease").claimed.contains(3));
}

/// The bytes of the file at `path`.
std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  return {std::istreambuf_iterator<char>{in}, {}};
}

/// Writes `bytes` to `path`, replacing the file or appending to it.
void write_bytes(const std::string& path, std::span<const std::uint8_t> bytes,
                 bool append) {
  std::ofstream out{path, std::ios::binary |
                              (append ? std::ios::app : std::ios::trunc)};
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

TEST(LeaseLog, TornTailHealsOnReparseAndEachFrameCountsOnce) {
  // A peer's log read while an append is in flight: the scanner sees a
  // file absent, then every prefix of a real log (shorter than the magic,
  // cut mid-header or mid-body), then the rest of the bytes arriving. The
  // frame that was torn on the first pass must count exactly once.
  const std::string ref_dir = tmp_dir("heal_ref");
  const std::string dir = tmp_dir("heal");
  const StoreManifest manifest = manifest_for(small_grid());
  const std::string ref = LeaseScheduler::lease_path(ref_dir, "w0");
  // Offsets just past each frame: the file size after each flushed append.
  std::vector<std::size_t> ends;
  {
    LeaseLog log{ref, manifest};
    ends.push_back(std::filesystem::file_size(ref));
    log.claim(0);
    ends.push_back(std::filesystem::file_size(ref));
    log.complete(0);
    ends.push_back(std::filesystem::file_size(ref));
    log.claim(300);  // a two-byte varint payload
    ends.push_back(std::filesystem::file_size(ref));
    log.renew(300);
    ends.push_back(std::filesystem::file_size(ref));
  }
  const std::vector<std::uint8_t> bytes = file_bytes(ref);
  ASSERT_EQ(bytes.size(), ends.back());
  const std::string path = LeaseScheduler::lease_path(dir, "w0");

  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    SCOPED_TRACE("cut at " + std::to_string(cut));
    std::filesystem::remove(path);
    LeaseDirScanner scanner{dir, "me.lease", manifest};
    scanner.refresh(/*idle=*/false);  // no log yet
    EXPECT_TRUE(scanner.workers().empty());

    write_bytes(path, std::span{bytes}.first(cut), /*append=*/false);
    scanner.refresh(/*idle=*/false);
    const WorkerLeaseState& w0 = scanner.workers().at("w0.lease");
    const std::size_t intact =
        std::upper_bound(ends.begin(), ends.end(), cut) - ends.begin();
    EXPECT_EQ(w0.frames, intact);
    EXPECT_EQ(w0.valid_bytes, intact == 0 ? (cut < kRecordMagic.size()
                                                 ? 0
                                                 : kRecordMagic.size())
                                          : ends[intact - 1]);
    EXPECT_EQ(w0.stale_scans, 0u);

    write_bytes(path, std::span{bytes}.subspan(cut), /*append=*/true);
    scanner.refresh(/*idle=*/true);
    EXPECT_EQ(w0.frames, ends.size());
    EXPECT_EQ(w0.valid_bytes, bytes.size());
    EXPECT_EQ(w0.claimed, (std::set<std::uint64_t>{300}));
    EXPECT_EQ(w0.completed, (std::set<std::uint64_t>{0}));
    EXPECT_EQ(w0.stale_scans, cut == bytes.size() ? 1u : 0u);

    // Nothing new: the healed frame is not parsed a second time.
    scanner.refresh(/*idle=*/true);
    EXPECT_EQ(w0.frames, ends.size());
    EXPECT_EQ(w0.stale_scans, cut == bytes.size() ? 2u : 1u);
  }
}

TEST(LeaseLog, ResetVoidsPreviousLifeClaims) {
  const std::string dir = tmp_dir("reset");
  const GridBuilder grid = small_grid();
  const StoreManifest manifest = manifest_for(grid);
  const std::string path = LeaseScheduler::lease_path(dir, "w0");

  {
    LeaseLog log{path, manifest};
    log.claim(0);
    log.claim(1);
    log.complete(1);
  }  // "crash" with cell 0 still leased

  LeaseDirScanner scanner{dir, "me.lease", manifest};
  scanner.refresh(false);
  EXPECT_TRUE(scanner.workers().at("w0.lease").claimed.contains(0));

  // Restart appends a reset: peers drop the dead life's claims without
  // waiting out the expiry scans; completions stand.
  LeaseLog restarted{path, manifest};
  scanner.refresh(false);
  const WorkerLeaseState& w0 = scanner.workers().at("w0.lease");
  EXPECT_EQ(w0.claimed, (std::set<std::uint64_t>{}));
  EXPECT_TRUE(w0.completed.contains(1));
}

TEST(LeaseLog, EmptyDebrisFilesAreTreatedAsFresh) {
  // SIGKILL between file creation and the magic write leaves a
  // zero-byte file; the owner must start fresh on restart, not throw
  // bad-magic forever (which would brick the worker id).
  const std::string dir = tmp_dir("debris");
  const GridBuilder grid = small_grid();
  const StoreManifest manifest = manifest_for(grid);

  const std::string lease = LeaseScheduler::lease_path(dir, "w0");
  const std::string store = LeaseScheduler::store_path(dir, "w0");
  { std::ofstream f{lease, std::ios::binary}; }
  { std::ofstream f{store, std::ios::binary}; }

  LeaseLog log{lease, manifest};
  log.claim(1);
  CampaignStore st{store, manifest, CampaignStore::Mode::kCreateOrResume};
  EXPECT_EQ(st.completed_count(), 0u);

  LeaseDirScanner scanner{dir, "me.lease", manifest};
  scanner.refresh(false);
  EXPECT_TRUE(scanner.workers().at("w0.lease").claimed.contains(1));

  // Explicit kResume still refuses the debris with a clear error.
  std::filesystem::remove(store);
  { std::ofstream f{store, std::ios::binary}; }
  EXPECT_THROW((CampaignStore{store, manifest, CampaignStore::Mode::kResume}),
               std::runtime_error);
}

TEST(LeaseLog, CutShortPayloadsAreRejectedAsMalformed) {
  // A CRC-valid frame whose payload is a strict prefix of a real one —
  // not a torn tail, which the frame CRC catches — makes the scanner
  // throw std::invalid_argument and no other type. Every record of a
  // real log is cut at every length in turn.
  const std::string dir = tmp_dir("cut_payload");
  const StoreManifest manifest = manifest_for(small_grid());
  const std::string path = LeaseScheduler::lease_path(dir, "w0");
  {
    LeaseLog log{path, manifest};
    log.claim(300);  // a two-byte varint payload
    log.complete(300);
  }
  std::vector<Record> records;
  {
    RecordBuffer reader{path};
    while (const std::optional<RecordView> rec = reader.next()) {
      records.push_back(
          {rec->type, {rec->payload.begin(), rec->payload.end()}});
    }
  }
  ASSERT_EQ(records.size(), 3u);  // manifest, claim, complete
  for (std::size_t i = 0; i < records.size(); ++i) {
    const std::span<const std::uint8_t> payload = records[i].payload;
    for (std::size_t len = 0; len < payload.size(); ++len) {
      {
        RecordWriter writer{path};
        for (std::size_t j = 0; j < i; ++j) {
          writer.append(records[j].type, records[j].payload);
        }
        writer.append(records[i].type, payload.first(len));
      }
      LeaseDirScanner scanner{dir, "me.lease", manifest};
      EXPECT_THROW(scanner.refresh(false), std::invalid_argument)
          << "record " << i << " cut to " << len << " of " << payload.size();
    }
  }
}

TEST(LeaseLog, WrongSweepAndForeignFilesRejected) {
  const std::string dir = tmp_dir("foreign");
  const GridBuilder grid = small_grid();
  const StoreManifest manifest = manifest_for(grid);
  { LeaseLog log{LeaseScheduler::lease_path(dir, "w0"), manifest}; }

  // Reopening with a different sweep identity is refused.
  GridBuilder other = small_grid();
  other.attack_delays_s({0.0, 6.0});
  EXPECT_THROW(
      (LeaseLog{LeaseScheduler::lease_path(dir, "w0"), manifest_for(other)}),
      std::runtime_error);

  // A scanner meeting a peer from a different sweep throws too.
  LeaseDirScanner scanner{dir, "me.lease", manifest_for(other)};
  EXPECT_THROW(scanner.refresh(false), std::runtime_error);

  // A campaign store masquerading as a lease log is not a lease log.
  CampaignStore store{(std::filesystem::path{dir} / "fake.lease").string(),
                      manifest, CampaignStore::Mode::kCreate};
  LeaseDirScanner scan2{dir, "w0.lease", manifest};
  EXPECT_THROW(scan2.refresh(false), std::runtime_error);
}

TEST(LeaseScheduler, SingleWorkerDrainsWholeGrid) {
  const std::string dir = tmp_dir("single");
  const GridBuilder grid = small_grid();
  const StoreManifest manifest = manifest_for(grid);

  LeaseScheduler scheduler{dir, "w0", grid.build(), manifest, nullptr,
                           fast_expiry()};
  EXPECT_EQ(scheduler.planned(), 4u);

  std::set<std::uint64_t> seen;
  std::set<std::size_t> slots;
  for (int i = 0; i < 4; ++i) {
    std::optional<ClaimedCell> claim = scheduler.acquire();
    ASSERT_TRUE(claim.has_value());
    EXPECT_TRUE(seen.insert(claim->cell.index).second) << "cell twice";
    EXPECT_TRUE(slots.insert(claim->slot).second) << "slot twice";
    CellStats stats;
    stats.index = claim->cell.index;
    bool persisted = false;
    EXPECT_TRUE(scheduler.commit(*claim, stats, [&] { persisted = true; }));
    EXPECT_TRUE(persisted);
  }
  EXPECT_EQ(slots, (std::set<std::size_t>{0, 1, 2, 3}));
  EXPECT_FALSE(scheduler.acquire().has_value());  // drained
  EXPECT_EQ(scheduler.telemetry().claims, 4u);
  EXPECT_EQ(scheduler.telemetry().steals, 0u);
}

TEST(LeaseScheduler, PeersClaimDisjointCellsAndSeeCompletions) {
  const std::string dir = tmp_dir("disjoint");
  const GridBuilder grid = small_grid();
  const StoreManifest manifest = manifest_for(grid);

  LeaseScheduler a{dir, "wa", grid.build(), manifest, nullptr, fast_expiry()};
  LeaseScheduler b{dir, "wb", grid.build(), manifest, nullptr, fast_expiry()};

  // Alternate claims; the live peer's leases are never handed out twice.
  std::set<std::uint64_t> seen;
  std::vector<std::pair<LeaseScheduler*, ClaimedCell>> claims;
  for (int i = 0; i < 4; ++i) {
    LeaseScheduler* s = (i % 2 == 0) ? &a : &b;
    std::optional<ClaimedCell> claim = s->acquire();
    ASSERT_TRUE(claim.has_value());
    EXPECT_TRUE(seen.insert(claim->cell.index).second)
        << "two workers claimed cell " << claim->cell.index;
    claims.push_back({s, *claim});
  }
  for (auto& [s, claim] : claims) {
    CellStats stats;
    stats.index = claim.cell.index;
    EXPECT_TRUE(s->commit(claim, stats, {}));
  }
  // Both drain: each sees the other's completions.
  EXPECT_FALSE(a.acquire().has_value());
  EXPECT_FALSE(b.acquire().has_value());
}

TEST(LeaseScheduler, ExpiredLeaseIsStolenAndStaleCompletionIgnored) {
  // The full reclamation story on a 1-cell grid: A claims the only cell
  // and goes silent (SIGKILL stand-in); B waits out the expiry scans,
  // steals, completes. A then "resurrects" and tries to commit — which
  // must be refused, with A's persist callback never invoked.
  const std::string dir = tmp_dir("steal");
  GridBuilder grid{small_base()};  // 1x1x1x1 = single cell
  const StoreManifest manifest = manifest_for(grid);

  LeaseScheduler a{dir, "wa", grid.build(), manifest, nullptr, fast_expiry()};
  std::optional<ClaimedCell> a_claim = a.acquire();
  ASSERT_TRUE(a_claim.has_value());
  // A stops appending here: from B's view its lease goes stale.

  LeaseScheduler b{dir, "wb", grid.build(), manifest, nullptr, fast_expiry()};
  std::optional<ClaimedCell> b_claim = b.acquire();  // blocks ~1 idle round
  ASSERT_TRUE(b_claim.has_value());
  EXPECT_EQ(b_claim->cell.index, a_claim->cell.index);
  EXPECT_EQ(b.telemetry().steals, 1u);

  CellStats stats;
  stats.index = b_claim->cell.index;
  bool b_persisted = false;
  EXPECT_TRUE(b.commit(*b_claim, stats, [&] { b_persisted = true; }));
  EXPECT_TRUE(b_persisted);

  // A resurrects: its completion lost the race and must not persist.
  bool a_persisted = false;
  EXPECT_FALSE(a.commit(*a_claim, stats, [&] { a_persisted = true; }));
  EXPECT_FALSE(a_persisted);
  EXPECT_EQ(a.telemetry().forfeits, 1u);

  EXPECT_FALSE(a.acquire().has_value());
  EXPECT_FALSE(b.acquire().has_value());
}

TEST(LeaseScheduler, VanishedPeerLogStillExpires) {
  // A peer's lease file deleted out from under the sweep (operator
  // cleanup, tmpwatch) can never grow again; its frozen claims must age
  // to expiry like any silent peer's, not block the grid forever.
  const std::string dir = tmp_dir("vanished");
  GridBuilder grid{small_base()};  // single cell
  const StoreManifest manifest = manifest_for(grid);

  {
    LeaseLog a{LeaseScheduler::lease_path(dir, "wa"), manifest};
    a.claim(0);
  }
  LeaseScheduler b{dir, "wb", grid.build(), manifest, nullptr, fast_expiry()};
  // B has seen A's claim; now the file disappears with the claim open.
  std::filesystem::remove(LeaseScheduler::lease_path(dir, "wa"));

  std::optional<ClaimedCell> claim = b.acquire();
  ASSERT_TRUE(claim.has_value());
  EXPECT_EQ(claim->cell.index, 0u);
  EXPECT_EQ(b.telemetry().steals, 1u);
}

TEST(LeaseScheduler, LiveLeaseIsNotStolenWhileRenewed) {
  const std::string dir = tmp_dir("renewed");
  GridBuilder grid{small_base()};  // single cell
  const StoreManifest manifest = manifest_for(grid);

  LeaseScheduler a{dir, "wa", grid.build(), manifest, nullptr, fast_expiry()};
  std::optional<ClaimedCell> a_claim = a.acquire();
  ASSERT_TRUE(a_claim.has_value());

  // B polls while A keeps renewing: with A's log growing between B's
  // scans the lease never expires, so B must still be waiting when A
  // finally completes.
  // Wide expiry margin so scheduler jitter cannot fake a death: the
  // steal would need ~200 consecutive silent idle scans while the
  // renewer appends every 200us.
  LeaseSchedulerOptions patient = fast_expiry();
  patient.expiry_scans = 200;
  LeaseScheduler b{dir, "wb", grid.build(), manifest, nullptr, patient};
  std::thread renewer{[&] {
    for (int i = 0; i < 50; ++i) {
      a.renew(*a_claim);
      std::this_thread::sleep_for(std::chrono::microseconds{200});
    }
    CellStats stats;
    stats.index = a_claim->cell.index;
    ASSERT_TRUE(a.commit(*a_claim, stats, {}));
  }};
  std::optional<ClaimedCell> b_claim = b.acquire();
  renewer.join();
  EXPECT_FALSE(b_claim.has_value());  // grid completed by A, nothing to do
  EXPECT_EQ(b.telemetry().steals, 0u);
}

TEST(LeaseScheduler, RestartResumesOwnStoreAndRepairsLog) {
  const std::string dir = tmp_dir("restart");
  const GridBuilder grid = small_grid();
  const StoreManifest manifest = manifest_for(grid);
  const std::string store_path = LeaseScheduler::store_path(dir, "w0");
  attack::ProfileCache cache;

  // First life: completes 2 of 4 cells through a real store, then the
  // lease log "loses" the second completion (simulating a kill between
  // the store flush and the lease append — tear the last lease record).
  {
    CampaignStore store{store_path, manifest, CampaignStore::Mode::kCreate};
    LeaseScheduler s{dir, "w0", grid.build(), manifest, &store, fast_expiry()};
    for (int i = 0; i < 2; ++i) {
      std::optional<ClaimedCell> claim = s.acquire();
      ASSERT_TRUE(claim.has_value());
      CellStats stats = CampaignRunner::score_cell(
          claim->cell, manifest.trials_per_cell, manifest.trial_salt, {},
          &cache);
      ASSERT_TRUE(s.commit(*claim, stats, [&] { store.complete_cell(stats); }));
    }
  }
  const std::string lease = LeaseScheduler::lease_path(dir, "w0");
  std::filesystem::resize_file(lease, std::filesystem::file_size(lease) - 3);

  // Second life: the store still knows both completions; the scheduler
  // repairs the missing lease record and only plans the remaining cells.
  CampaignStore store{store_path, manifest, CampaignStore::Mode::kResume};
  EXPECT_EQ(store.completed_count(), 2u);
  LeaseScheduler s{dir, "w0", grid.build(), manifest, &store, fast_expiry()};
  EXPECT_EQ(s.planned(), 2u);

  const std::vector<std::uint64_t> done_list = store.completed_cells();
  const std::set<std::uint64_t> done(done_list.begin(), done_list.end());
  for (int i = 0; i < 2; ++i) {
    std::optional<ClaimedCell> claim = s.acquire();
    ASSERT_TRUE(claim.has_value());
    EXPECT_FALSE(done.contains(claim->cell.index)) << "re-ran a done cell";
    CellStats stats = CampaignRunner::score_cell(
        claim->cell, manifest.trials_per_cell, manifest.trial_salt, {},
        &cache);
    ASSERT_TRUE(s.commit(*claim, stats, [&] { store.complete_cell(stats); }));
  }
  EXPECT_FALSE(s.acquire().has_value());
  EXPECT_EQ(store.completed_count(), 4u);

  // And the repaired log satisfies a fresh peer immediately.
  LeaseScheduler peer{dir, "w1", grid.build(), manifest, nullptr,
                      fast_expiry()};
  EXPECT_EQ(peer.planned(), 0u);
  EXPECT_FALSE(peer.acquire().has_value());
}

TEST(LeaseScheduler, AbortUnblocksIdleWait) {
  const std::string dir = tmp_dir("abort");
  GridBuilder grid{small_base()};  // single cell
  const StoreManifest manifest = manifest_for(grid);

  LeaseScheduler a{dir, "wa", grid.build(), manifest, nullptr, fast_expiry()};
  ASSERT_TRUE(a.acquire().has_value());  // hold the only cell

  LeaseSchedulerOptions patient;
  patient.expiry_scans = 1000000;  // B would wait (almost) forever
  patient.idle_backoff = std::chrono::milliseconds{50};
  LeaseScheduler b{dir, "wb", grid.build(), manifest, nullptr, patient};
  std::thread aborter{[&] {
    std::this_thread::sleep_for(std::chrono::milliseconds{20});
    b.abort();
  }};
  EXPECT_FALSE(b.acquire().has_value());
  aborter.join();
}

TEST(LeaseScheduler, RejectsBadWorkerIdsAndMismatchedStore) {
  const std::string dir = tmp_dir("badid");
  const GridBuilder grid = small_grid();
  const StoreManifest manifest = manifest_for(grid);

  EXPECT_FALSE(LeaseScheduler::valid_worker_id(""));
  EXPECT_FALSE(LeaseScheduler::valid_worker_id("a/b"));
  EXPECT_FALSE(LeaseScheduler::valid_worker_id("a b"));
  EXPECT_TRUE(LeaseScheduler::valid_worker_id("node-3_gpu0"));
  EXPECT_THROW((LeaseScheduler{dir, "a/b", grid.build(), manifest}),
               std::invalid_argument);

  // A store pinned to a different sweep cannot seed the scheduler.
  GridBuilder other = small_grid();
  other.attack_delays_s({0.0, 7.0});
  CampaignStore store{LeaseScheduler::store_path(dir, "w0"),
                      manifest_for(other), CampaignStore::Mode::kCreate};
  EXPECT_THROW(
      (LeaseScheduler{dir, "w0", grid.build(), manifest, &store}),
      std::invalid_argument);
}

}  // namespace
}  // namespace msa::persist
