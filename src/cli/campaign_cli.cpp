// `campaign_sweep`: fans the end-to-end scenario out over a cartesian grid
// of scenario knobs and prints (or writes) the aggregate report; its
// subcommands merge, analyze, diff, compact and watch the stores a sweep
// leaves behind. The usage text is rendered from the flag tables below;
// this comment keeps what the usage does not say.
//
// Durability and resume: with --store every finished trial and completed
// cell is streamed to a crash-safe record store, flushed per cell
// (--fsync-every adds fsync). An interrupted sweep continues with
// --resume, which skips the completed cells; the final report is
// byte-identical to an uninterrupted run, and so is `merge` over the
// stores of a --shard I/N partition.
//
// Lease model: with --workers-dir every worker process points at the same
// directory (a shared filesystem across machines works), leases cells
// through its own append-only lease log, and streams results into its own
// store there. A SIGKILLed worker's leases expire after --expiry-scans
// idle scans of --idle-backoff-ms each and survivors re-run its cells; a
// restarted worker (same --worker-id) resumes its store. Each worker
// exits only when the WHOLE grid is complete and prints the merged
// report, byte-identical to the single-process run.
//
// Diff alignment: each side of `diff A B` is a store file or a workers
// directory. Cells pair by AXIS VALUES on the axes the two sweeps share,
// never by index, so reordered, partially overlapping or
// differently-dimensioned grids still pair up; unmatched cells are listed
// per side. The --exit-on-significant permutation test is seeded from the
// two stores' grid fingerprints, so its verdict depends only on the pair
// of artifacts, not on thread count or shard layout.
#include "cli/campaign_cli.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "campaign/axis.h"
#include "campaign/compare.h"
#include "campaign/gate.h"
#include "campaign/grid.h"
#include "campaign/report.h"
#include "campaign/runner.h"
#include "campaign/stats.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "persist/campaign_store.h"
#include "persist/lease_log.h"
#include "util/monotime.h"
#include "util/strings.h"

namespace msa::cli {
namespace {

using Args = std::span<char* const>;
using OutputFormat = obs::MetricsFormat;
using AxisFlag = std::pair<std::string, std::vector<campaign::AxisValue>>;

/// A usage error; `line` names the flag or subcommand at fault.
/// Deliberately not a std::exception, so a command's runtime-failure
/// handler (exit 1) lets it through to the one usage-error report.
struct UsageError {
  std::string line;
};

/// One row of a flag table: spelling, metavar (nullptr for a switch),
/// one line of help, and the setter. A setter throws
/// std::invalid_argument with the reason a value is bad.
struct Flag {
  const char* name;
  const char* metavar;
  const char* help;
  std::function<void(const std::string&)> set;
};

/// One subcommand: its flag table, where its operands go (nullptr: it
/// takes none), and the body run once every flag parsed. The body throws
/// UsageError for the checks that span several flags.
struct Command {
  std::string name;  ///< "" for the sweep itself
  const char* synopsis;
  std::vector<Flag> flags;
  std::vector<std::string>* operands;
  std::function<int()> run;
};

std::string usage(const char* argv0, const Command& cmd) {
  const std::string prog = argv0;
  std::string out = "usage: " + prog;
  for (const std::string& part : {cmd.name, std::string(cmd.synopsis)}) {
    if (!part.empty()) out += " " + part;
  }
  out += "\n";
  if (cmd.name.empty()) {
    out += "       " + prog +
           " merge|stats|diff|compact|metrics|progress|axes ...\n";
  }
  for (const Flag& flag : cmd.flags) {
    std::string lhs = flag.name;
    if (flag.metavar != nullptr) lhs = lhs + " " + flag.metavar;
    lhs.resize(std::max<std::size_t>(lhs.size() + 1, 24), ' ');
    out += "  " + lhs + flag.help + "\n";
  }
  return out +
         "exit codes: 0 success, 1 runtime failure, 2 usage error, 3 sweep\n"
         "incomplete (cell budget reached), 4 regression gate tripped\n";
}

void parse(const Command& cmd, Args args) {
  const std::string where = cmd.name.empty() ? "" : cmd.name + ": ";
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string arg = args[i];
    if (arg.empty() || arg[0] != '-') {
      if (cmd.operands == nullptr) {
        throw UsageError{where + "unexpected argument '" + arg + "'"};
      }
      cmd.operands->push_back(arg);
      continue;
    }
    const auto flag =
        std::find_if(cmd.flags.begin(), cmd.flags.end(),
                     [&arg](const Flag& f) { return arg == f.name; });
    if (flag == cmd.flags.end()) {
      throw UsageError{where + "unknown flag '" + arg + "'"};
    }
    if (flag->metavar == nullptr) {
      flag->set("");
      continue;
    }
    if (i + 1 == args.size()) {
      throw UsageError{arg + ": missing value " + flag->metavar};
    }
    const std::string value = args[++i];
    try {
      flag->set(value);
    } catch (const std::invalid_argument& e) {
      throw UsageError{arg + ": bad value '" + value + "' (" + e.what() + ")"};
    }
  }
}

/// Parses `args` against `cmd` and runs it; every usage error, from a
/// setter, the parse or the body, ends here with exit 2.
int invoke(const char* argv0, const Command& cmd, Args args) {
  try {
    parse(cmd, args);
    return cmd.run();
  } catch (const UsageError& e) {
    std::fprintf(stderr, "%s\n%s", e.line.c_str(), usage(argv0, cmd).c_str());
    return 2;
  }
}

// --- value parsers and setters for the tables -------------------------

/// Rejects a flag value: `reason` says what the flag wants.
void want(bool ok, const std::string& reason) {
  if (!ok) throw std::invalid_argument(reason);
}

/// Plain decimal digits that fit in unsigned and are >= `min`; "-1" and
/// "+5" are refused, and "--threads 0" is a typo rather than a default.
unsigned integer(const std::string& s, unsigned min) {
  unsigned v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  want(ec == std::errc{} && end == s.data() + s.size() && v >= min,
       "want an integer >= " + std::to_string(min));
  return v;
}

/// The whole token as a finite real; strtod alone takes "nan" and "inf".
double finite(const std::string& s) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  want(!s.empty() && end == s.c_str() + s.size() && std::isfinite(v),
       "want a finite number");
  return v;
}

auto text(std::string& out) {
  return [&out](const std::string& v) { out = v; };
}

auto enable(bool& out) {
  return [&out](const std::string&) { out = true; };
}

template <typename T>
auto at_least(unsigned min, T& out) {
  return [min, &out](const std::string& v) { out = integer(v, min); };
}

Flag format_flag(OutputFormat& out) {
  return {"--format", "text|csv|json", "output format (default text)",
          [&out](const std::string& v) {
            want(v == "text" || v == "csv" || v == "json",
                 "want text|csv|json");
            out = v == "text" ? OutputFormat::kText
                  : v == "csv" ? OutputFormat::kCsv
                               : OutputFormat::kJson;
          }};
}

Flag cells_flag(persist::CellFilter& filter) {
  return {"--cells", "AXIS=V1[,V2...]",
          "only cells matching every clause (repeatable; values by label)",
          [&filter](const std::string& v) {
            filter.clauses.push_back(persist::CellFilter::parse_clause(v));
          }};
}

/// --trace-out, shared by the sweep and the store subcommands.
Flag trace_flag(std::string& out) {
  return {"--trace-out", "FILE", "write pipeline spans as Chrome trace JSON",
          text(out)};
}

/// The one value parser behind --axis and its four legacy aliases:
/// typed, range-checked, duplicate-free values for the axis `name`.
AxisFlag axis_values(const std::string& name, const std::string& list) {
  // axis_descriptor's message lists the registered axes.
  const campaign::AxisDescriptor& axis = campaign::axis_descriptor(name);
  AxisFlag out{name, {}};
  for (const std::string& piece : util::split(list, ',')) {
    campaign::AxisValue value = campaign::parse_axis_value(axis, piece);
    if (std::find(out.second.begin(), out.second.end(), value) !=
        out.second.end()) {
      throw std::invalid_argument("axis '" + name + "' repeats value '" +
                                  value.label() + "'");
    }
    out.second.push_back(std::move(value));
  }
  return out;
}

/// The one text|csv|json switch for stats and diff reports; JSON gains
/// the trailing newline the text and CSV renderings end with.
template <typename Report>
void print_report(const Report& report, OutputFormat format) {
  TRACE_SPAN("campaign", "render");
  const std::string out = format == OutputFormat::kText ? report.to_text()
                          : format == OutputFormat::kCsv
                              ? report.to_csv()
                              : report.to_json() + "\n";
  std::fputs(out.c_str(), stdout);
}

void warn_torn_tail(const std::string& what) {
  std::fprintf(stderr,
               "[campaign] warning: %s had a torn tail (crashed writer); "
               "its unflushed records were skipped\n",
               what.c_str());
}

bool write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return false;
  const bool ok = std::fwrite(content.data(), 1, content.size(), f) ==
                  content.size();
  return std::fclose(f) == 0 && ok;
}

/// Starts recording spans when --trace-out names a file. Recording
/// starts before any worker thread exists, so every thread's ring is
/// live from its first span.
void start_trace(const std::string& path) {
  if (!path.empty()) obs::Trace::enable();
}

/// Writes the recorded spans to --trace-out's file, if one was named;
/// false, after saying so on stderr, when it cannot be written.
bool write_trace(const std::string& path) {
  if (path.empty() || write_file(path, obs::Trace::chrome_json())) return true;
  std::fprintf(stderr, "cannot write %s\n", path.c_str());
  return false;
}

/// Writes the report CSV to --csv (else to stdout, unless `metrics`
/// holds stdout) and JSON to --json, then the stderr summary.
int emit_report(const campaign::SweepReport& report,
                const std::string& csv_path, const std::string& json_path,
                bool csv_to_stdout, bool quiet) {
  const std::string csv = report.to_csv();
  if (csv_path.empty()) {
    if (csv_to_stdout) std::fputs(csv.c_str(), stdout);
  } else if (!write_file(csv_path, csv)) {
    std::fprintf(stderr, "cannot write %s\n", csv_path.c_str());
    return 1;
  }
  if (!json_path.empty() && !write_file(json_path, report.to_json())) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  if (!quiet) {
    std::fprintf(stderr,
                 "[campaign] %zu trials: %zu full successes, %zu denials\n",
                 report.total_trials(), report.total_full_successes(),
                 report.total_denials());
  }
  return 0;
}

// --- subcommands ------------------------------------------------------

int axes_main(const char* argv0, Args args) {
  return invoke(argv0, {"axes", "", {}, nullptr, [] {
    for (const campaign::AxisDescriptor& axis : campaign::axis_registry()) {
      std::string kind = campaign::axis_kind_name(axis.kind);
      if (!axis.enum_labels.empty()) {
        kind += '{';
        for (std::size_t i = 0; i < axis.enum_labels.size(); ++i) {
          if (i > 0) kind += '|';
          kind += axis.enum_labels[i];
        }
        kind += '}';
      }
      std::printf("%-22s %-10s %s\n", axis.name.c_str(), kind.c_str(),
                  axis.description.c_str());
    }
    return 0;
  }}, args);
}

int merge_main(const char* argv0, Args args) {
  bool quiet = false;
  std::string csv_path;
  std::string json_path;
  std::string workers_dir;
  std::vector<std::string> stores;
  return invoke(argv0, {"merge", "[flags] (--workers-dir DIR | STORE...)",
    {{"--workers-dir", "DIR", "merge every *.store of a workers dir",
      text(workers_dir)},
     {"--csv", "PATH", "write the report CSV here instead of stdout",
      text(csv_path)},
     {"--json", "PATH", "also write the report as JSON", text(json_path)},
     {"--quiet", nullptr, "no summary on stderr", enable(quiet)}},
    &stores, [&] {
    if (workers_dir.empty() == stores.empty()) {
      throw UsageError{"merge: wants --workers-dir DIR or STORE..., not both"};
    }
    campaign::SweepReport report;
    try {
      if (!workers_dir.empty()) stores = persist::list_store_files(workers_dir);
      if (stores.empty()) {  // only a workers dir can list none
        throw std::runtime_error("no *.store files in " + workers_dir);
      }
      report = persist::merge_stores(stores);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "merge failed: %s\n", e.what());
      return 1;
    }
    if (!quiet) {
      std::fprintf(stderr, "[campaign] merged %zu store(s): %zu cells\n",
                   stores.size(), report.cells.size());
    }
    return emit_report(report, csv_path, json_path, true, quiet);
  }}, args);
}

int stats_main(const char* argv0, Args args) {
  OutputFormat format = OutputFormat::kText;
  std::string workers_dir;
  std::string trace_out;
  std::vector<std::string> stores;
  persist::CellFilter filter;
  return invoke(argv0, {"stats", "[flags] (--workers-dir DIR | STORE...)",
    {format_flag(format), cells_flag(filter),
     {"--workers-dir", "DIR", "read every *.store of a workers dir",
      text(workers_dir)},
     trace_flag(trace_out)},
    &stores, [&] {
    if (workers_dir.empty() == stores.empty()) {
      throw UsageError{"stats: wants --workers-dir DIR or STORE..., not both"};
    }
    start_trace(trace_out);
    try {
      const campaign::SweepAnalysis analysis = campaign::analyze_stores(
          workers_dir.empty() ? stores
                              : persist::sweep_store_paths(workers_dir),
          filter);
      print_report(analysis.report, format);
      if (analysis.info.truncated_tail) warn_torn_tail("a store");
    } catch (const std::exception& e) {
      std::fprintf(stderr, "stats failed: %s\n", e.what());
      return 1;
    }
    return write_trace(trace_out) ? 0 : 1;
  }}, args);
}

int diff_main(const char* argv0, Args args) {
  OutputFormat format = OutputFormat::kText;
  bool gate_enabled = false;
  const char* gate_flag = nullptr;  // the first gate-tuning flag given
  campaign::GateSpec spec;
  persist::CellFilter filter;
  std::string trace_out;
  std::vector<std::string> sides;
  // Gate-tuning setters record that a tuning flag appeared.
  const auto tuning = [&gate_flag](const char* flag, auto set) {
    return [&gate_flag, flag, set](const std::string& v) {
      if (gate_flag == nullptr) gate_flag = flag;
      set(v);
    };
  };
  return invoke(argv0, {"diff",
    "[flags] A B   (A and B are each a store file or a workers dir)",
    {format_flag(format), cells_flag(filter),
     {"--exit-on-significant", nullptr,
      "gate: exit 4 when the whole-grid permutation test trips",
      enable(gate_enabled)},
     {"--metric", "M", "gate metric: success_rate|denial|psnr_p50",
      tuning("--metric", [&spec](const std::string& v) {
        want(campaign::parse_diff_metric(v, &spec.metric),
             "want success_rate|denial|psnr_p50");
      })},
     {"--direction", "D", "gate direction: regress|improve|any",
      tuning("--direction", [&spec](const std::string& v) {
        want(campaign::parse_gate_direction(v, &spec.direction),
             "want regress|improve|any");
      })},
     // 0 can never trip and 1 always trips: both are mistakes.
     {"--alpha", "A", "gate significance level in (0,1) (default 0.05)",
      tuning("--alpha", [&spec](const std::string& v) {
        spec.alpha = finite(v);
        want(spec.alpha > 0.0 && spec.alpha < 1.0, "want a number in (0,1)");
      })},
     {"--min-effect", "E", "gate minimum effect size >= 0 (default 0)",
      tuning("--min-effect", [&spec](const std::string& v) {
        spec.min_effect = finite(v);
        want(spec.min_effect >= 0.0, "want a number >= 0");
      })},
     {"--permutations", "N", "gate resample count (default 10000)",
      tuning("--permutations", at_least(1, spec.iterations))},
     trace_flag(trace_out)},
    &sides, [&] {
    if (sides.size() != 2) {
      throw UsageError{"diff: wants two sides A B, got " +
                       std::to_string(sides.size())};
    }
    if (gate_flag != nullptr && !gate_enabled) {
      throw UsageError{std::string(gate_flag) +
                       ": requires --exit-on-significant"};
    }
    start_trace(trace_out);
    int rc = 0;
    try {
      // Each side is analyzed straight off its stores, one cell's trials
      // in memory at a time.
      const auto analyze = [&filter](const std::string& path) {
        return campaign::analyze_stores(persist::sweep_store_paths(path),
                                        filter);
      };
      const campaign::SweepAnalysis a = analyze(sides[0]);
      const campaign::SweepAnalysis b = analyze(sides[1]);
      if (a.info.truncated_tail) warn_torn_tail(sides[0]);
      if (b.info.truncated_tail) warn_torn_tail(sides[1]);
      const campaign::DiffReport report =
          campaign::diff_sweeps(a.report, b.report);
      print_report(report, format);
      if (gate_enabled) {
        const campaign::GateResult gate = campaign::evaluate_gate(
            report, spec,
            campaign::gate_seed(a.info.manifest.grid_fingerprint,
                                b.info.manifest.grid_fingerprint));
        std::fprintf(stderr, "[campaign] %s\n", gate.verdict_line().c_str());
        if (gate.tripped()) rc = 4;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "diff failed: %s\n", e.what());
      return 1;
    }
    return write_trace(trace_out) ? rc : 1;
  }}, args);
}

int compact_main(const char* argv0, Args args) {
  std::string trace_out;
  std::vector<std::string> stores;
  return invoke(argv0, {"compact", "STORE...   (rewrite each store into one "
                        "sorted segment; a store in use is refused)",
                        {trace_flag(trace_out)}, &stores, [&] {
    if (stores.empty()) throw UsageError{"compact: wants STORE..."};
    start_trace(trace_out);
    for (const std::string& path : stores) {
      try {
        const persist::CompactionResult result = persist::compact_store(path);
        std::fprintf(stderr,
                     "[campaign] compacted %s: %llu -> %llu bytes, "
                     "%zu segment(s) (%zu trial record(s), %zu cell "
                     "record(s) dropped)\n",
                     path.c_str(),
                     static_cast<unsigned long long>(result.bytes_before),
                     static_cast<unsigned long long>(result.bytes_after),
                     result.segments_live, result.trials_dropped,
                     result.cells_dropped);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "compact failed: %s\n", e.what());
        return 1;
      }
    }
    return write_trace(trace_out) ? 0 : 1;
  }}, args);
}

/// Read-only live view over a work-stealing workers directory: exits 0
/// once the grid is complete (at once with --once).
int progress_main(const char* argv0, Args args) {
  std::string workers_dir;
  bool once = false;
  unsigned interval_ms = 1000;
  return invoke(argv0, {"progress", "--workers-dir DIR [flags]",
    {{"--workers-dir", "DIR", "the workers dir to watch (never written)",
      text(workers_dir)},
     {"--once", nullptr, "print one snapshot and exit", enable(once)},
     {"--interval-ms", "M", "poll period (default 1000)",
      at_least(1, interval_ms)}},
    nullptr, [&] {
    if (workers_dir.empty()) {
      throw UsageError{"progress: wants --workers-dir DIR"};
    }
    // A directory with no lease log yet has nothing to observe: the flag
    // pointed at the wrong place.
    std::optional<obs::ProgressView> view;
    try {
      view.emplace(workers_dir);
    } catch (const std::exception& e) {
      throw UsageError{"--workers-dir: bad value '" + workers_dir + "' (" +
                       e.what() + ")"};
    }
    try {
      if (once) {
        std::fputs(obs::ProgressView::render(view->poll(), -1.0).c_str(),
                   stdout);
        return 0;
      }
      const bool tty = isatty(STDOUT_FILENO) != 0;
      const std::uint64_t start_ns = util::monotonic_ns();
      std::optional<std::uint64_t> baseline;
      for (;;) {
        const obs::ProgressSnapshot snapshot = view->poll();
        if (!baseline) baseline = snapshot.completed_cells;
        // Rate over this observer's own window: cells completed since the
        // first poll, not since the sweep began (a late-joining watcher
        // would otherwise report a stale, inflated rate).
        const std::uint64_t elapsed = util::monotonic_ns() - start_ns;
        double cells_per_s = -1.0;
        if (elapsed > 0 && snapshot.completed_cells > *baseline) {
          cells_per_s =
              static_cast<double>(snapshot.completed_cells - *baseline) *
              1e9 / static_cast<double>(elapsed);
        }
        if (tty) std::fputs("\x1b[H\x1b[J", stdout);
        std::fputs(obs::ProgressView::render(snapshot, cells_per_s).c_str(),
                   stdout);
        std::fflush(stdout);
        if (snapshot.complete()) return 0;
        std::this_thread::sleep_for(std::chrono::milliseconds{interval_ms});
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "progress failed: %s\n", e.what());
    }
    return 1;
  }}, args);
}

struct SweepFlags {
  bool metrics_mode = false;
  OutputFormat metrics_format = OutputFormat::kText;
  unsigned threads = 0;  // 0 = util::cpu_count() (the flag rejects 0)
  unsigned trials = 1;
  unsigned shard_index = 0;
  unsigned shard_count = 1;
  unsigned cell_budget = 0;  // 0 = unlimited
  unsigned fsync_every = 0;  // 0 = flush only (default durability)
  unsigned expiry_scans = 8;
  unsigned idle_backoff_ms = 25;
  bool resume = false;
  bool quiet = false;
  std::string trace_out;
  std::string store_path;
  std::string workers_dir;
  std::string worker_id;
  std::string csv_path;
  std::string json_path;
  std::vector<AxisFlag> aliases;  // --defenses/--models/--delays/--scrubbers
  std::vector<AxisFlag> axes;     // --axis, applied after every alias
};

int run_sweep(const SweepFlags& f) {
  if (f.store_path.empty() && (f.resume || f.cell_budget != 0)) {
    throw UsageError{"--resume/--cell-budget: require --store"};
  }
  if (f.workers_dir.empty() != f.worker_id.empty()) {
    throw UsageError{"--workers-dir/--worker-id: each needs the other"};
  }
  if (!f.workers_dir.empty() && (!f.store_path.empty() || f.resume ||
                                 f.cell_budget != 0 || f.shard_count > 1)) {
    throw UsageError{"--workers-dir: work-stealing excludes "
                     "--store/--resume/--shard/--cell-budget"};
  }

  // Export happens after run() joins.
  start_trace(f.trace_out);

  attack::ScenarioConfig base;
  base.image_width = 96;
  base.image_height = 96;

  // Defaults: 2 defenses x 2 models x 3 delays x 2 scrubber rates = 24
  // cells spanning "attack wins" to "scrubber beat the attacker".
  campaign::GridBuilder grid{base};
  grid.defenses({"baseline", "zero_on_free"})
      .models({"resnet50_pt", "squeezenet_pt"})
      .attack_delays_s({0.0, 5.0, 60.0})
      .scrubber_rates({0.0, 4.0 * 1024 * 1024});
  for (const std::vector<AxisFlag>* list : {&f.aliases, &f.axes}) {
    for (const auto& [name, values] : *list) grid.axis(name, values);
  }
  if (f.shard_count > 1) grid.shard(f.shard_index, f.shard_count);

  campaign::CampaignOptions options;
  options.threads = f.threads;
  options.trials_per_cell = f.trials;
  if (!f.quiet) {
    options.on_cell_done = [](std::size_t done, std::size_t total) {
      std::fprintf(stderr, "\r[campaign] %zu/%zu cells", done, total);
      if (done == total) std::fputc('\n', stderr);
    };
  }

  // The cache.* registry counters are process-wide, so this sweep's share
  // is the delta across it.
  const auto cache_counters = [] {
    return std::array<std::uint64_t, 4>{
        obs::counter("cache.profile_hits").value(),
        obs::counter("cache.profile_misses").value(),
        obs::counter("cache.twin_boards_built").value(),
        obs::counter("cache.twin_boards_reused").value()};
  };
  const std::array<std::uint64_t, 4> cache_before = cache_counters();

  campaign::SweepReport report;
  std::size_t shard_cells = 0;
  std::size_t completed = 0;
  try {
    campaign::CampaignRunner runner{options};
    shard_cells = grid.size();
    if (!f.quiet) {
      std::fprintf(stderr,
                   "[campaign] %zu cells x %u trial(s) on %u thread(s)%s\n",
                   shard_cells, f.trials, runner.thread_count(),
                   !f.workers_dir.empty() ? " (work-stealing)"
                   : f.shard_count > 1    ? " (sharded)"
                                          : "");
    }
    persist::StoreManifest manifest;
    manifest.grid_fingerprint = grid.fingerprint();
    manifest.grid_cells = grid.full_size();
    manifest.trials_per_cell = f.trials;
    manifest.trial_salt = options.trial_salt;
    manifest.shard_index = f.shard_index;
    manifest.shard_count = f.shard_count;
    manifest.axes = grid.axis_schema();
    if (!f.workers_dir.empty()) {
      // Work-stealing mode: lease cells from the shared directory, stream
      // results into this worker's own store there, and return only when
      // the WHOLE grid is complete, so every worker emits the same
      // merged report.
      std::filesystem::create_directories(f.workers_dir);
      persist::CampaignStore store{
          persist::LeaseScheduler::store_path(f.workers_dir, f.worker_id),
          manifest, persist::CampaignStore::Mode::kCreateOrResume,
          persist::StoreOptions{f.fsync_every}};
      persist::LeaseSchedulerOptions lease_options;
      lease_options.expiry_scans = f.expiry_scans;
      lease_options.idle_backoff = std::chrono::milliseconds{f.idle_backoff_ms};
      persist::LeaseScheduler scheduler{f.workers_dir,  f.worker_id,
                                        grid.build(),   manifest,
                                        &store,         lease_options};
      if (!f.quiet && scheduler.planned() < shard_cells) {
        std::fprintf(stderr, "[campaign] joining: %zu/%zu cells already done\n",
                     shard_cells - scheduler.planned(), shard_cells);
      }
      (void)runner.run(scheduler, store);
      const persist::LeaseScheduler::Telemetry t = scheduler.telemetry();
      if (!f.quiet) {
        std::fprintf(stderr,
                     "[campaign] worker %s: %llu claim(s) (%llu stolen), "
                     "%llu forfeit(s), %llu scan(s), %zu cell(s) in store\n",
                     f.worker_id.c_str(),
                     static_cast<unsigned long long>(t.claims),
                     static_cast<unsigned long long>(t.steals),
                     static_cast<unsigned long long>(t.forfeits),
                     static_cast<unsigned long long>(t.scans),
                     store.completed_count());
      }
      report = persist::merge_stores(
          persist::list_store_files(f.workers_dir));
      completed = shard_cells;
    } else if (f.store_path.empty()) {
      report = runner.run(grid);
      completed = shard_cells;
    } else {
      persist::CampaignStore store{
          f.store_path, manifest,
          f.resume ? persist::CampaignStore::Mode::kResume
                   : persist::CampaignStore::Mode::kCreate,
          persist::StoreOptions{f.fsync_every}};
      if (f.resume && !f.quiet) {
        std::fprintf(stderr, "[campaign] resuming: %zu/%zu cells on disk\n",
                     store.completed_count(), shard_cells);
      }
      report = runner.run(grid, store, f.cell_budget);
      completed = store.completed_count();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign failed: %s\n", e.what());
    return 1;
  }

  // In lease mode the report is the merged cross-worker one; this
  // process's cache traffic would not describe it.
  if (!f.quiet && f.workers_dir.empty()) {
    const std::array<std::uint64_t, 4> now = cache_counters();
    std::fprintf(stderr,
                 "[campaign] profile cache: %llu hits, %llu misses "
                 "(%llu twin boards built, %llu reused)\n",
                 static_cast<unsigned long long>(now[0] - cache_before[0]),
                 static_cast<unsigned long long>(now[1] - cache_before[1]),
                 static_cast<unsigned long long>(now[2] - cache_before[2]),
                 static_cast<unsigned long long>(now[3] - cache_before[3]));
  }

  // The trace is written even when the cell budget cuts the sweep short:
  // a bounded invocation's spans are exactly what a CI drill inspects.
  if (!write_trace(f.trace_out)) return 1;

  if (completed < shard_cells) {
    std::fprintf(stderr,
                 "[campaign] cell budget reached: %zu/%zu cells persisted; "
                 "re-run with --resume to continue\n",
                 completed, shard_cells);
    return 3;
  }
  if (const int rc = emit_report(report, f.csv_path, f.json_path,
                                 !f.metrics_mode, f.quiet || f.metrics_mode)) {
    return rc;
  }
  if (f.metrics_mode) {
    std::fputs(obs::render_metrics(f.metrics_format).c_str(), stdout);
  }
  return 0;
}

/// The sweep behind both the default invocation and `metrics`, which
/// prints the metrics registry instead of the report CSV (--csv/--json
/// still write the report).
int sweep_main(const char* argv0, Args args, bool metrics_mode) {
  SweepFlags f;
  f.metrics_mode = metrics_mode;
  const auto alias = [&f](const char* axis) {
    return [&f, axis](const std::string& v) {
      f.aliases.push_back(axis_values(axis, v));
    };
  };
  Command cmd{metrics_mode ? "metrics" : "", "[flags]",
    {{"--threads", "N", "worker threads (default: one per core)",
      at_least(1, f.threads)},
     {"--trials", "N", "trials per cell (default 1)", at_least(1, f.trials)},
     {"--defenses", "A,B", "alias of --axis defense=A,B",
      alias("defense")},
     {"--models", "A,B", "alias of --axis model=A,B", alias("model")},
     {"--delays", "S1,S2", "alias of --axis delay_s=S1,S2",
      alias("delay_s")},
     {"--scrubbers", "R1,R2", "alias of --axis scrubber_Bps=R1,R2",
      alias("scrubber_Bps")},
     {"--axis", "NAME=V1,V2",
      "sweep a registered knob (see `axes`); applied after the aliases",
      [&f](const std::string& v) {
        const auto eq = v.find('=');
        want(eq != 0 && eq != std::string::npos && eq + 1 != v.size(),
             "want NAME=V1,V2,...");
        f.axes.push_back(axis_values(v.substr(0, eq), v.substr(eq + 1)));
      }},
     {"--store", "PATH", "stream trials and cells to a crash-safe store",
      text(f.store_path)},
     {"--resume", nullptr, "continue the interrupted --store sweep",
      enable(f.resume)},
     {"--shard", "I/N", "sweep only the cells with index % N == I",
      [&f](const std::string& v) {
        const auto slash = v.find('/');
        want(slash != std::string::npos, "want I/N");
        f.shard_index = integer(v.substr(0, slash), 0);
        f.shard_count = integer(v.substr(slash + 1), 1);
        want(f.shard_index < f.shard_count, "want I < N");
      }},
     {"--cell-budget", "K",
      "score at most K new cells; exit 3 if that leaves the shard short",
      at_least(1, f.cell_budget)},
     {"--workers-dir", "DIR",
      "work-stealing over a shared dir; excludes --store/--shard",
      text(f.workers_dir)},
     {"--worker-id", "ID", "this worker's name, [A-Za-z0-9_-]+",
      [&f](const std::string& v) {
        want(persist::LeaseScheduler::valid_worker_id(v),
             "want [A-Za-z0-9_-]+");
        f.worker_id = v;
      }},
     {"--expiry-scans", "K",
      "idle lease scans before a silent peer's cells are stolen",
      at_least(1, f.expiry_scans)},
     // Zero would busy-spin the endgame AND shrink the lease-expiry
     // window to ~nothing (mass-stealing live peers' cells).
     {"--idle-backoff-ms", "M", "sleep between idle lease scans (default 25)",
      at_least(1, f.idle_backoff_ms)},
     {"--fsync-every", "K", "fsync the store every K records (default: flush)",
      at_least(1, f.fsync_every)},
     trace_flag(f.trace_out),
     {"--csv", "PATH", "write the report CSV here instead of stdout",
      text(f.csv_path)},
     {"--json", "PATH", "also write the report as JSON", text(f.json_path)},
     {"--quiet", nullptr, "no progress or summary on stderr",
      enable(f.quiet)}},
    nullptr, [&f] { return run_sweep(f); }};
  if (metrics_mode) cmd.flags.push_back(format_flag(f.metrics_format));
  return invoke(argv0, cmd, args);
}

}  // namespace

int campaign_cli_main(int argc, char** argv) {
  if (argc < 1) return sweep_main("campaign_sweep", {}, false);
  const char* argv0 = argv[0];
  const Args args{argv + 1, static_cast<std::size_t>(argc - 1)};
  const std::string sub = args.empty() ? "" : args[0];
  const Args rest = args.empty() ? args : args.subspan(1);
  if (sub == "merge") return merge_main(argv0, rest);
  if (sub == "stats") return stats_main(argv0, rest);
  if (sub == "diff") return diff_main(argv0, rest);
  if (sub == "compact") return compact_main(argv0, rest);
  if (sub == "progress") return progress_main(argv0, rest);
  if (sub == "axes") return axes_main(argv0, rest);
  if (sub == "metrics") return sweep_main(argv0, rest, true);
  return sweep_main(argv0, args, false);
}

}  // namespace msa::cli
