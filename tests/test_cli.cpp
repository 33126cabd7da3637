// `campaign_sweep` exit codes, tested in-process through
// cli::campaign_cli_main: every usage error exits 2 with a first stderr
// line that names the flag or subcommand at fault, followed by the
// usage; the runtime-failure, incomplete-sweep and success codes are
// pinned alongside.
#include "cli/campaign_cli.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <unistd.h>

#include "obs/trace.h"
#include "persist/campaign_store.h"
#include "persist/store_reader.h"

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
      {"store_open", "read_matching", "load_sweep", "analyze_sweep",
       "render"},
      {"load_sweep", "analyze_sweep", "diff_sweeps", "render",
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

}  // namespace
}  // namespace msa::cli
