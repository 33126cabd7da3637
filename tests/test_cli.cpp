// `campaign_sweep` exit codes, tested in-process through
// cli::campaign_cli_main: every usage error exits 2 with a first stderr
// line that names the flag or subcommand at fault, followed by the
// usage; the runtime-failure, incomplete-sweep and success codes are
// pinned alongside.
#include "cli/campaign_cli.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <unistd.h>

#include "obs/trace.h"
#include "persist/campaign_store.h"
#include "persist/record_io.h"
#include "persist/store_codec.h"
#include "persist/store_reader.h"
#include "util/crc32.h"

namespace msa::cli {
namespace {

struct CliRun {
  int code = -1;
  std::string out;
  std::string err;

  [[nodiscard]] std::string first_err_line() const {
    return err.substr(0, err.find('\n'));
  }
};

CliRun run_cli(std::vector<std::string> args) {
  args.insert(args.begin(), "campaign_sweep");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  CliRun run;
  run.code = campaign_cli_main(static_cast<int>(args.size()), argv.data());
  run.out = testing::internal::GetCapturedStdout();
  run.err = testing::internal::GetCapturedStderr();
  return run;
}

/// A fresh per-process scratch directory, removed on destruction.
struct ScratchDir {
  std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("msa_cli_tests_" + std::to_string(::getpid()));
  ScratchDir() {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() { std::filesystem::remove_all(path); }
};

struct Case {
  std::vector<std::string> argv;
  int code;
  std::string first_line;  ///< substring of the first stderr line
};

/// One cell on the smallest legacy grid: baseline x resnet50 x delay 0 x
/// no scrubber, one trial.
const std::vector<std::string> kOneCell{
    "--defenses", "baseline", "--models", "resnet50_pt", "--delays", "0",
    "--scrubbers", "0", "--threads", "1", "--quiet"};

std::vector<std::string> one_cell(std::vector<std::string> extra) {
  std::vector<std::string> argv = kOneCell;
  argv.insert(argv.end(), extra.begin(), extra.end());
  return argv;
}

TEST(CampaignCli, ExitCodesAndFirstStderrLine) {
  const ScratchDir scratch;
  const std::string store = (scratch.path / "budget.store").string();
  // Stores for the merge rows: a complete one-cell sweep, one shard of a
  // two-cell sweep, and a copy of the complete store whose cell record
  // was rewritten with different counters.
  const std::string full = (scratch.path / "full.store").string();
  const std::string shard = (scratch.path / "shard.store").string();
  const std::string conflict = (scratch.path / "conflict.store").string();
  ASSERT_EQ(run_cli(one_cell({"--store", full})).code, 0);
  ASSERT_EQ(run_cli(one_cell({"--delays", "0,5", "--shard", "0/2", "--store",
                              shard}))
                .code,
            0);
  std::filesystem::copy_file(full, conflict);
  {
    const persist::StoreReader reader{full};
    campaign::CellStats cell = reader.cells().front();
    cell.mean_psnr_db += 1.0;
    persist::CampaignStore rewrite{conflict, reader.manifest(),
                                   persist::CampaignStore::Mode::kResume};
    rewrite.complete_cell(cell);
  }
  std::vector<Case> cases{
      // Success, runtime failure, sweep incomplete.
      {{"axes"}, 0, ""},
      {{"merge", (scratch.path / "missing.store").string(), "--quiet"},
       1,
       "merge failed"},
      // Identical copies merge; a gap or a conflicting copy does not.
      {{"merge", full, full, "--quiet"}, 0, ""},
      {{"merge", shard, "--quiet"}, 1, "merged stores cover 1 of 2 cells"},
      {{"merge", full, conflict, "--quiet"},
       1,
       "cell 0 has conflicting copies"},
      {one_cell({"--delays", "0,5", "--store", store, "--cell-budget", "1"}),
       3,
       "cell budget reached"},

      // The legacy grid flags are --axis aliases: bad values and repeats
      // are usage errors, as for --axis itself.
      {{"--defenses", "nope"}, 2, "--defenses: bad value 'nope'"},
      {{"--models", "bogus"}, 2, "--models: bad value 'bogus'"},
      {{"--delays", "1,1"}, 2, "--delays: bad value '1,1'"},
      {{"--defenses", "baseline,baseline"}, 2, "--defenses: bad value"},
      {{"--axis", "defense=nope"}, 2, "--axis: bad value 'defense=nope'"},
      {{"--axis", "model=bogus"}, 2, "--axis: bad value 'model=bogus'"},
      {{"--axis", "power_cycled=0,0"}, 2, "--axis: bad value"},

      // Values the shell drills check: --axis names and values, the
      // non-finite and negative --delays/--scrubbers.
      {{"--axis", "nosuch=1"}, 2, "--axis: bad value 'nosuch=1'"},
      {{"--axis", "power_cycled=yes"}, 2, "--axis: bad value"},
      {{"--axis", "delay_s=5x"}, 2, "--axis: bad value"},
      {{"--axis", "corrupt_fraction=1.5"}, 2, "--axis: bad value"},
      {{"--axis", "power_cycled=1,1"}, 2, "--axis: bad value"},
      {{"--axis", "power_cycled"}, 2, "--axis: bad value"},
      {{"--axis", "=1"}, 2, "--axis: bad value '=1'"},
      {{"--axis", "firewall=on"}, 2, "--axis: bad value"},
      {{"--delays", "nan"}, 2, "--delays: bad value 'nan'"},
      {{"--delays", "inf"}, 2, "--delays: bad value 'inf'"},
      {{"--delays", "-1"}, 2, "--delays: bad value '-1'"},
      {{"--delays", "-0.5"}, 2, "--delays: bad value '-0.5'"},
      {{"--delays", "1e999"}, 2, "--delays: bad value '1e999'"},
      {{"--scrubbers", "nan"}, 2, "--scrubbers: bad value 'nan'"},
      {{"--scrubbers", "inf"}, 2, "--scrubbers: bad value 'inf'"},
      {{"--scrubbers", "-1"}, 2, "--scrubbers: bad value '-1'"},
      {{"--scrubbers", "-0.5"}, 2, "--scrubbers: bad value '-0.5'"},
      {{"--scrubbers", "1e999"}, 2, "--scrubbers: bad value '1e999'"},

      // diff gate flags, as the gate drill checks them.
      {{"diff", "--exit-on-significant", "--alpha", "0", "A", "B"}, 2,
       "--alpha: bad value '0'"},
      {{"diff", "--exit-on-significant", "--alpha", "1", "A", "B"}, 2,
       "--alpha: bad value '1'"},
      {{"diff", "--exit-on-significant", "--alpha", "1.5", "A", "B"}, 2,
       "--alpha: bad value '1.5'"},
      {{"diff", "--exit-on-significant", "--alpha", "nan", "A", "B"}, 2,
       "--alpha: bad value 'nan'"},
      {{"diff", "--exit-on-significant", "--alpha", "-0.05", "A", "B"}, 2,
       "--alpha: bad value '-0.05'"},
      {{"diff", "--exit-on-significant", "--alpha", "", "A", "B"}, 2,
       "--alpha: bad value ''"},
      {{"diff", "--exit-on-significant", "--direction", "sideways", "A", "B"},
       2,
       "--direction: bad value 'sideways'"},
      {{"diff", "--exit-on-significant", "--direction", "", "A", "B"}, 2,
       "--direction: bad value ''"},
      {{"diff", "--exit-on-significant", "--direction", "regress,improve",
        "A", "B"},
       2,
       "--direction: bad value 'regress,improve'"},
      {{"diff", "--exit-on-significant", "--metric", "psnr_p99", "A", "B"}, 2,
       "--metric: bad value 'psnr_p99'"},
      {{"diff", "--alpha", "0.01", "A", "B"}, 2,
       "--alpha: requires --exit-on-significant"},
      {{"diff", "A"}, 2, "diff: wants two sides A B, got 1"},

      // Errors that once printed only the usage block.
      {{"--threads"}, 2, "--threads: missing value N"},
      {{"--csv"}, 2, "--csv: missing value PATH"},
      {{"--format", "json"}, 2, "unknown flag '--format'"},
      {{"stats", "--format", "xml", "S"}, 2, "--format: bad value 'xml'"},
      {{"axes", "extra"}, 2, "axes: unexpected argument 'extra'"},
      {{"stats"}, 2, "stats: wants --workers-dir DIR or STORE..."},

      // Numbers and cross-flag rules.
      {{"--threads", "0"}, 2, "--threads: bad value '0'"},
      {{"--trials", "-1"}, 2, "--trials: bad value '-1'"},
      {{"--shard", "2/2"}, 2, "--shard: bad value '2/2'"},
      {{"--worker-id", "a b"}, 2, "--worker-id: bad value 'a b'"},
      {{"--resume"}, 2, "--resume/--cell-budget: require --store"},
      {{"compact"}, 2, "compact: wants STORE..."},
      {{"progress"}, 2, "progress: wants --workers-dir DIR"},
      {{"progress", "--workers-dir", (scratch.path / "none").string()}, 2,
       "--workers-dir: bad value"},
  };
  for (const Case& c : cases) {
    std::string label;
    for (const std::string& arg : c.argv) label += " '" + arg + "'";
    SCOPED_TRACE("campaign_sweep" + label);
    const CliRun run = run_cli(c.argv);
    EXPECT_EQ(run.code, c.code) << run.err;
    EXPECT_NE(run.first_err_line().find(c.first_line), std::string::npos)
        << run.err;
    // A usage error is followed by the usage, and nothing reaches stdout.
    if (c.code == 2) {
      EXPECT_NE(run.err.find("\nusage: campaign_sweep"), std::string::npos);
      EXPECT_EQ(run.out, "");
    }
  }
}

TEST(CampaignCli, TraceOutOnStoreSubcommandsLeavesOutputUnchanged) {
  const ScratchDir scratch;
  const std::string a = (scratch.path / "a.store").string();
  const std::string b = (scratch.path / "b.store").string();
  ASSERT_EQ(run_cli(one_cell({"--delays", "0,5", "--store", a})).code, 0);
  ASSERT_EQ(run_cli(one_cell({"--delays", "0,5", "--store", b})).code, 0);
  const auto read = [](const std::filesystem::path& path) {
    std::ifstream in{path};
    return std::string{std::istreambuf_iterator<char>{in}, {}};
  };
  const std::string trace = (scratch.path / "trace.json").string();
  const std::vector<std::vector<std::string>> commands{
      {"stats", "--format", "csv", a},
      {"diff", "--format", "json", "--exit-on-significant", a, b},
      {"compact", a}};
  const std::vector<std::vector<std::string>> spans{
      {"store_open", "walk_cells", "walk_sweep", "analyze_sweep",
       "render"},
      {"walk_sweep", "analyze_sweep", "diff_sweeps", "render",
       "evaluate_gate"},
      {"store_open", "compact_store"}};
  for (std::size_t i = 0; i < commands.size(); ++i) {
    SCOPED_TRACE(commands[i].front());
    const CliRun plain = run_cli(commands[i]);
    std::vector<std::string> traced = commands[i];
    traced.insert(traced.begin() + 1, {"--trace-out", trace});
    const CliRun run = run_cli(traced);
    EXPECT_EQ(run.code, plain.code) << run.err;
    EXPECT_EQ(run.out, plain.out);
    // A second compact is a no-op and reports different byte counts.
    if (commands[i].front() != "compact") {
      EXPECT_EQ(run.err, plain.err);
    }
    const std::string json = read(trace);
    for (const std::string& span : spans[i]) {
      EXPECT_NE(json.find("\"name\":\"" + span + "\""), std::string::npos)
          << span;
    }
    obs::Trace::disable();
    obs::Trace::clear();
  }
  // An unwritable trace file is a runtime failure, after the report.
  const std::string unwritable = (scratch.path / "no/such/dir.json").string();
  const CliRun run = run_cli({"stats", "--trace-out", unwritable, b});
  EXPECT_EQ(run.code, 1);
  EXPECT_NE(run.err.find("cannot write"), std::string::npos) << run.err;
  obs::Trace::disable();
  obs::Trace::clear();
}

TEST(CampaignCli, CompactTraceNamesReadWriteAndFsyncUnderCompactStore) {
  const ScratchDir scratch;
  const std::string store = (scratch.path / "c.store").string();
  ASSERT_EQ(run_cli(one_cell({"--delays", "0,5", "--store", store})).code, 0);
  const std::string trace = (scratch.path / "trace.json").string();
  const CliRun run = run_cli({"compact", "--trace-out", trace, store});
  ASSERT_EQ(run.code, 0) << run.err;

  std::ifstream in{trace};
  const std::string json{std::istreambuf_iterator<char>{in}, {}};
  const std::vector<std::string> inner{"compact_read", "write_segment",
                                       "fsync"};
  for (const std::string& name : inner) {
    EXPECT_NE(json.find("\"name\":\"" + name + "\""), std::string::npos)
        << name;
  }
  // Every instance of each sits inside the one compact_store span.
  std::vector<obs::TraceSpan> spans;
  for (const obs::ThreadTrace& thread : obs::Trace::snapshot()) {
    spans.insert(spans.end(), thread.spans.begin(), thread.spans.end());
  }
  const auto named = [&](const std::string& name) {
    std::vector<obs::TraceSpan> out;
    for (const obs::TraceSpan& span : spans) {
      if (span.name == name) out.push_back(span);
    }
    return out;
  };
  const std::vector<obs::TraceSpan> outer = named("compact_store");
  ASSERT_EQ(outer.size(), 1u);
  for (const std::string& name : inner) {
    const std::vector<obs::TraceSpan> found = named(name);
    EXPECT_FALSE(found.empty()) << name;
    for (const obs::TraceSpan& span : found) {
      EXPECT_GE(span.start_ns, outer[0].start_ns) << name;
      EXPECT_LE(span.start_ns + span.dur_ns,
                outer[0].start_ns + outer[0].dur_ns)
          << name;
    }
  }
  obs::Trace::disable();
  obs::Trace::clear();
}

TEST(CampaignCli, StatsRefusesACellRecordOffItsGridKey) {
  // A one-cell sweep's store, with a second record of cell 0 under other
  // coordinates, or a record of cell 1, beyond the grid.
  const ScratchDir scratch;
  const std::string full = (scratch.path / "full.store").string();
  ASSERT_EQ(run_cli(one_cell({"--store", full})).code, 0);
  const persist::StoreReader reader{full};
  campaign::CellStats misplaced = reader.cells().front();
  for (campaign::AxisCoordinate& coord : misplaced.coords) {
    if (coord.axis == "delay_s") {
      coord.value = campaign::AxisValue::of_number(5.0);
    }
  }
  campaign::CellStats beyond = reader.cells().front();
  beyond.index = 1;
  const std::vector<std::pair<campaign::CellStats, std::string>> bads{
      {misplaced,
       "stats failed: persist: cell 0 key does not match its grid index "
       "(corrupt store): "},
      {beyond, "stats failed: persist: cell index beyond grid in "}};
  for (const auto& [cell, error] : bads) {
    const std::string bad =
        (scratch.path / ("bad" + std::to_string(cell.index) + ".store"))
            .string();
    std::filesystem::copy_file(full, bad);
    {
      persist::RecordWriter log{bad, [](const persist::RecordView&) {}};
      log.append(persist::kRecCell, persist::encode_cell(cell));
    }
    const CliRun run = run_cli({"stats", bad});
    EXPECT_EQ(run.code, 1) << error;
    EXPECT_EQ(run.first_err_line(), error + bad);
  }
}

TEST(CampaignCli, AliasesApplyBeforeEveryAxisFlag) {
  // --axis overrides an alias naming the same axis wherever it appears,
  // so both orders sweep delay 5, as --delays 5 alone does.
  const CliRun alone = run_cli(one_cell({"--delays", "5"}));
  ASSERT_EQ(alone.code, 0) << alone.err;
  EXPECT_NE(alone.out.find(",5,0,1,"), std::string::npos) << alone.out;
  for (const std::vector<std::string>& flags :
       {std::vector<std::string>{"--axis", "delay_s=5", "--delays", "60"},
        std::vector<std::string>{"--delays", "60", "--axis", "delay_s=5"}}) {
    const CliRun run = run_cli(one_cell(flags));
    ASSERT_EQ(run.code, 0) << run.err;
    EXPECT_EQ(run.out, alone.out);
  }
}

/// A 1000-cell sweep whose cell-key order is not its index order (labels
/// listed out of lexicographic order, delays descending), 6 trials per
/// cell drawn from `seed` by raw mt19937_64 words (the engine is exactly
/// specified; the distributions are not). The log also carries a
/// resume's duplicates, a rewritten cell and orphan trials of two cells
/// that never complete. `shift` raises cells' success odds in defense
/// "mid", so a diff against seed-mate stores has something to find.
void write_pinned_store(const std::string& path, std::uint64_t seed,
                        bool shift) {
  persist::StoreManifest m;
  m.grid_fingerprint = 0xd1ffu + seed;
  m.trials_per_cell = 6;
  m.trial_salt = seed;
  campaign::AxisSpec defense{"defense", campaign::AxisKind::kString, {}};
  for (const char* d : {"zeta", "alpha", "mid", "beta"}) {
    defense.values.push_back(campaign::AxisValue::of_string(d));
  }
  campaign::AxisSpec delay{"delay_s", campaign::AxisKind::kDouble, {}};
  for (int i = 24; i >= 0; --i) {
    delay.values.push_back(campaign::AxisValue::of_number(2.5 * i));
  }
  campaign::AxisSpec model{"model", campaign::AxisKind::kString, {}};
  for (const char* name : {"m9", "m1", "m5", "m0", "m7", "m2", "m8", "m3",
                           "m6", "m4"}) {
    model.values.push_back(campaign::AxisValue::of_string(name));
  }
  m.axes = {defense, delay, model};
  m.grid_cells = 4 * 25 * 10;

  std::mt19937_64 rng{seed};
  const auto trial = [&](std::uint64_t cell, std::uint32_t t) {
    persist::TrialRecord r;
    r.cell_index = cell;
    r.trial = t;
    const std::uint64_t bits = rng();
    const bool mid = (cell / 250) == 2;
    r.denied = bits % 11 == 0;
    if (r.denied) {
      r.denial_reason = bits % 2 ? "firewall" : "debugger refused the attach";
    }
    r.model_identified = !r.denied && (bits >> 8) % 4 < (shift && mid ? 3u : 2u);
    r.pixel_match = (bits >> 16) % 3 == 0 ? 0.5 : 1.0;
    r.psnr = 10.0 + static_cast<double>((bits >> 24) % 40000) / 1000.0;
    r.descriptor_pixel_match = static_cast<double>((bits >> 40) % 8) / 8.0;
    return r;
  };
  const auto stats = [&](std::uint64_t cell) {
    campaign::CellStats s;
    s.index = cell;
    std::uint64_t rest = cell;
    s.coords.resize(m.axes.size());
    for (std::size_t a = m.axes.size(); a-- > 0;) {
      const auto& values = m.axes[a].values;
      s.coords[a] = {m.axes[a].name, values[rest % values.size()]};
      rest /= values.size();
    }
    s.trials = 6;
    return s;
  };
  persist::CampaignStore store{path, m, persist::CampaignStore::Mode::kCreate};
  for (std::uint64_t k = 0; k < m.grid_cells; ++k) {
    const std::uint64_t c = (k * 379) % m.grid_cells;  // threaded order
    if (c == 998 || c == 999) continue;  // never completes
    std::vector<persist::TrialRecord> trials;
    for (std::uint32_t t = 0; t < 6; ++t) trials.push_back(trial(c, t));
    for (const persist::TrialRecord& t : trials) store.append_trial(t);
    if (c % 97 == 0) {  // a resume's bit-identical duplicates
      for (const persist::TrialRecord& t : trials) store.append_trial(t);
    }
    store.complete_cell(stats(c));
  }
  for (std::uint32_t t = 0; t < 3; ++t) {  // cell 7 rewritten, last wins
    store.append_trial(trial(7, t));
  }
  store.complete_cell(stats(7));
  for (std::uint32_t t = 0; t < 4; ++t) {  // orphans
    store.append_trial(trial(998, t));
    store.append_trial(trial(999, t));
  }
}

TEST(CampaignCli, StatsAndDiffBytesArePinned) {
  // CRC-32s of every rendering of `stats` and of a gated `diff`, over a
  // store of several segment blocks and its flat twin: a refactor of the
  // read or analysis path must not move a byte of either. The pins were
  // computed by the read path that decoded every trial into one vector.
  const ScratchDir scratch;
  const std::string flat_a = (scratch.path / "a.store").string();
  const std::string flat_b = (scratch.path / "b.store").string();
  write_pinned_store(flat_a, 1, false);
  write_pinned_store(flat_b, 2, true);
  {  // a torn tail on B: the diff warns about it
    std::ofstream log{flat_b, std::ios::binary | std::ios::app};
    log.write("\x7f\x7f\x7f", 3);
  }
  const std::string packed_a = (scratch.path / "ca.store").string();
  const std::string packed_b = (scratch.path / "cb.store").string();
  std::filesystem::copy_file(flat_a, packed_a);
  std::filesystem::copy_file(flat_b, packed_b);
  ASSERT_EQ(run_cli({"compact", packed_a, packed_b}).code, 0);
  {
    const persist::StoreReader reader{packed_a};
    ASSERT_TRUE(reader.segmented());
    const persist::SegmentReader segment{persist::segment_path(
        packed_a, reader.levels()->segments.at(0))};
    ASSERT_GE(segment.trial_block_count(), 2u);
  }

  const auto crc = [](const std::string& bytes) {
    char hex[9];
    std::snprintf(hex, sizeof hex, "%08x", util::crc32(std::string_view{bytes}));
    return std::string{hex};
  };
  std::vector<std::string> got;
  for (const std::string& store : {flat_a, packed_a}) {
    for (const char* format : {"text", "csv", "json"}) {
      const CliRun run = run_cli({"stats", "--format", format, store});
      ASSERT_EQ(run.code, 0) << run.err;
      got.push_back(crc(run.out));
    }
  }
  for (const auto& [a, b] : {std::pair{flat_a, flat_b},
                             std::pair{packed_a, packed_b}}) {
    const CliRun run = run_cli(
        {"diff", "--format", "csv", "--exit-on-significant", a, b});
    got.push_back(std::to_string(run.code));
    got.push_back(crc(run.out));
    // Stderr names the stores; pin it with the scratch directory cut.
    std::string err = run.err;
    for (std::size_t at; (at = err.find(scratch.path.string())) !=
                         std::string::npos;) {
      err.erase(at, scratch.path.string().size());
    }
    got.push_back(crc(err));
  }
  // stats text, CSV, JSON of flat A, then of compacted A (the CSV
  // carries no orphan count, so it matches across the two); then per
  // diff pair the exit code, stdout and stderr (only the flat B has a
  // torn tail to warn about).
  const std::vector<std::string> want{
      "6f106f02", "9b574108", "40e3b252", "99e4cfae", "9b574108", "09b0c5b5",
      "4",        "2b779343", "7d24b637", "4",        "2b779343", "cb15cdc5"};
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace msa::cli
