// Store-backed sweep analysis: distributional statistics computed from
// the per-trial record stream (persist::SweepWalk), not
// from the per-cell means the report carries. This is the `campaign_sweep
// stats` subcommand's engine — percentiles need every trial, which only
// the store has. All output is deterministic: cells ascend by global
// index, marginals follow first-appearance order, doubles use the same
// shortest-round-trip formatting as the report CSV.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "persist/campaign_store.h"

namespace msa::campaign {

/// Wilson score interval for a binomial proportion — the small-n-safe
/// confidence interval for per-cell success rates (a normal interval is
/// garbage at the 3-of-5 sample sizes sweeps actually have).
struct WilsonInterval {
  double low = 0.0;
  double high = 0.0;
};

/// z defaults to the 95% two-sided normal quantile. trials == 0 yields
/// the no-information interval [0, 1].
[[nodiscard]] WilsonInterval wilson_interval(std::size_t successes,
                                             std::size_t trials,
                                             double z = 1.959964);

/// Nearest-rank percentile of an ASCENDING-sorted, non-empty sample;
/// q in [0, 100]. q = 0 is the minimum, q = 100 the maximum.
[[nodiscard]] double percentile_sorted(const std::vector<double>& sorted,
                                       double q);

/// The three per-cell PSNR percentiles.
struct Percentiles {
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

/// Nearest-rank p50/p90/p99 of a non-empty sample by selection — three
/// quickselects on increasing ranks, each over the part of the sample
/// the previous one left above its rank — instead of a sort. Equal to
/// percentile_sorted at 50/90/99 over the sorted sample. A sample with
/// NaNs has no order; selection still ends and returns values from it.
/// Reorders `sample`.
[[nodiscard]] Percentiles select_percentiles(std::vector<double>& sample);

/// Per-cell distribution over that cell's trial stream.
struct CellDistribution {
  std::uint64_t index = 0;
  /// Ordered axis coordinates, copied from the stored CellStats.
  std::vector<AxisCoordinate> coords;

  std::size_t trials = 0;
  std::size_t successes = 0;  ///< full successes (attack::is_full_success)
  std::size_t denials = 0;
  double p50_psnr = 0.0;
  double p90_psnr = 0.0;
  double p99_psnr = 0.0;
  double success_rate = 0.0;
  WilsonInterval success_ci;
};

/// One value of one sweep axis, pooled over every cell carrying it.
struct AxisMarginal {
  std::string axis;   ///< any swept axis name ("defense", "power_cycled", ...)
  std::string value;  ///< the axis value's label
  std::size_t trials = 0;
  std::size_t successes = 0;
  std::size_t denials = 0;
  double success_rate = 0.0;
  WilsonInterval success_ci;
  double mean_psnr = 0.0;
};

struct StatsReport {
  std::size_t trials_analyzed = 0;
  /// Trial records whose cell never completed (a killed worker's
  /// leftovers) — excluded from every statistic below.
  std::size_t orphan_trials = 0;
  std::vector<CellDistribution> cells;
  std::vector<AxisMarginal> marginals;

  /// Aligned text tables (cells, then marginals).
  [[nodiscard]] std::string to_text() const;
  /// One strict CSV table: a `section` column discriminates cell rows
  /// from marginal rows; columns the other section does not populate are
  /// empty. Doubles are round-trip exact (table::format_double).
  [[nodiscard]] std::string to_csv() const;
  /// {"trials_analyzed":..,"orphan_trials":..,"cells":[..],
  ///  "marginals":[..]} — doubles round-trip exact, infinities as the
  /// +/-1e999 sentinels, NaN as null.
  [[nodiscard]] std::string to_json() const;
};

/// One completed cell summarized: its distribution, and the sum of its
/// trials' PSNRs, which the marginals' mean needs.
struct CellSummary {
  CellDistribution dist;
  double psnr_sum = 0.0;
};

/// Builds a StatsReport one cell at a time, cells ascending by index —
/// the per-cell body of every analysis, so a sweep can be analyzed
/// straight off a store walk without collecting its trial stream. The
/// per-cell work is pure (summarize), so cells may be summarized on any
/// thread; only the fold, which adds into the marginals, must see the
/// cells in index order for the report to be byte-identical.
class StatsBuilder {
 public:
  /// One completed cell's trials, ascending by trial, summarized. Throws
  /// std::runtime_error when there are none (a store written by a
  /// pre-trial-stream tool).
  [[nodiscard]] static CellSummary summarize(
      const CellStats& cell, std::span<const persist::TrialRecord> trials);
  /// Adds a summarized cell to the marginals and appends its
  /// distribution; cells must come ascending by index.
  void fold(CellSummary summary);
  /// fold(summarize(cell, trials)).
  void add_cell(const CellStats& cell,
                std::span<const persist::TrialRecord> trials) {
    fold(summarize(cell, trials));
  }
  /// Counts trial records whose cell never completed.
  void add_orphans(std::size_t trials) noexcept {
    report_.orphan_trials += trials;
  }
  /// The report, marginals in axis-schema then first-appearance order.
  [[nodiscard]] StatsReport finish() &&;

 private:
  struct Marginal {
    std::size_t trials = 0;
    std::size_t successes = 0;
    std::size_t denials = 0;
    double psnr_sum = 0.0;
    std::size_t order = 0;  ///< first-appearance rank, for stable output
  };
  StatsReport report_;
  std::map<std::pair<std::string, std::string>, Marginal> marginals_;
  std::vector<std::string> axis_order_;  ///< first-appearance axis order
};

/// Computes the report from loaded store data in one pass. Only completed
/// cells are analyzed; their trial streams are complete by the store's
/// durability contract. Requires the order load_sweep produces — cells
/// strictly ascending by index, trials strictly ascending by (cell,
/// trial) — and throws std::invalid_argument naming the first record
/// out of order. Throws std::runtime_error when a completed cell has no
/// trial records at all (a store written by a pre-trial-stream tool).
[[nodiscard]] StatsReport analyze_sweep(const persist::SweepData& data);

/// A sweep analyzed straight off its stores, and what the walk learned
/// about them (identity, torn tails).
struct SweepAnalysis {
  StatsReport report;
  persist::SweepInfo info;
};

/// analyze_sweep(load_sweep(paths, filter)), byte for byte, off a
/// persist::SweepWalk on `threads` workers (0: one below
/// util::kParallelMinItems trial records, every core above). The grid's
/// index range is cut into contiguous chunks; the workers summarize
/// each chunk off a slice of the walk, holding one cell's trials at a
/// time, and the calling thread folds the summaries in index order, so
/// every double is added in the same order at any worker count. Throws
/// what load_sweep and analyze_sweep throw; when several chunks fail,
/// the error of the lowest one.
[[nodiscard]] SweepAnalysis analyze_stores(
    const std::vector<std::string>& paths, const persist::CellFilter& filter,
    unsigned threads = 0);

}  // namespace msa::campaign
