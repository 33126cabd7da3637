// Cross-sweep comparison: aligns the cells of two analyzed sweeps by
// AXIS VALUES (defense, model, delay, scrubber rate) — never by cell
// index — and reports per-cell and per-axis outcome deltas with
// Newcombe/Wilson confidence intervals on the success-rate difference.
// Index-independence is the point: two stores whose grids enumerate the
// same combinations in different orders (or only partially overlap)
// still pair up, and the unmatched remainder is reported per side
// instead of silently dropped. This is the `campaign_sweep diff`
// subcommand's engine, the one-command answer to "did defense family B
// beat defense family A under the same attack grid".
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/stats.h"

namespace msa::campaign {

/// Axis coordinates of a cell projected onto the axes both sweeps share
/// — the schema-driven join key for cross-sweep alignment (any axis set,
/// not just the legacy four). Ordered lexicographically over the
/// (axis, value) sequence so diff output is deterministic regardless of
/// either side's grid order.
struct AxisKey {
  std::vector<AxisCoordinate> coords;  ///< in shared-axis (side A) order

  friend bool operator==(const AxisKey&, const AxisKey&) = default;
  [[nodiscard]] bool operator<(const AxisKey& other) const;
  /// "axis=value/..." for error messages and text rows.
  [[nodiscard]] std::string label() const;
};

/// CI on a difference of proportions; excludes_zero() is the per-row
/// significance flag ("the grids disagree on this cell beyond what the
/// trial counts can explain").
struct DeltaInterval {
  double low = 0.0;
  double high = 0.0;
  [[nodiscard]] bool excludes_zero() const noexcept {
    return low > 0.0 || high < 0.0;
  }
};

/// Newcombe's score interval (MOVER over two Wilson intervals) for the
/// difference p_b - p_a. Small-n-safe like Wilson itself: never
/// degenerate at 0/n or n/n, always inside [-1, 1]. A side with zero
/// trials contributes the no-information interval [0, 1].
[[nodiscard]] DeltaInterval newcombe_interval(std::size_t successes_a,
                                              std::size_t trials_a,
                                              std::size_t successes_b,
                                              std::size_t trials_b,
                                              double z = 1.959964);

/// Significance level the per-cell flags are computed at: the two-sided
/// level matching the z = 1.959964 default of the Newcombe/Wilson
/// intervals. The gate engine takes its own --alpha; the emitted columns
/// are fixed here so diff output stays byte-stable.
inline constexpr double kSignificanceAlpha = 0.05;

/// Two-sided p-value for "the two proportions differ", obtained by
/// inverting the Newcombe interval: the largest z at which the interval
/// on p_b - p_a still excludes zero maps to p = 2 (1 - Phi(z)). This is
/// exactly consistent with the `significant` flag — p < alpha iff the
/// interval at alpha's z excludes zero — which is what makes
/// Benjamini–Hochberg over these p-values a pure tightening of the raw
/// flags. A side with zero trials (no information) yields 1, as does a
/// zero observed delta.
[[nodiscard]] double newcombe_p_value(std::size_t successes_a,
                                      std::size_t trials_a,
                                      std::size_t successes_b,
                                      std::size_t trials_b);

/// Benjamini–Hochberg step-up adjustment: returns the adjusted p-values
/// (q-values) in the input's order. Flagging q <= alpha controls the
/// false-discovery rate at alpha over the whole family — the
/// multiple-comparison correction a per-cell CI column on a big diff
/// matrix needs. Monotone by construction: every adjusted value is >=
/// its raw input and <= 1. Throws std::invalid_argument on a p-value
/// outside [0, 1] or NaN.
[[nodiscard]] std::vector<double> benjamini_hochberg(
    const std::vector<double>& p_values);

/// One axis-matched cell pair. Every delta is B minus A, so a positive
/// success_delta means the attack succeeds MORE under sweep B.
struct CellDelta {
  AxisKey key;
  std::uint64_t index_a = 0;  ///< global cell index on side A
  std::uint64_t index_b = 0;  ///< may differ — alignment is by key

  std::size_t trials_a = 0, trials_b = 0;
  std::size_t successes_a = 0, successes_b = 0;
  std::size_t denials_a = 0, denials_b = 0;

  double success_rate_a = 0.0, success_rate_b = 0.0;
  double success_delta = 0.0;       ///< rate_b - rate_a (exactly 0 on self)
  DeltaInterval success_delta_ci;   ///< Newcombe 95% on the delta
  bool significant = false;         ///< CI excludes zero (per-cell, raw)
  /// Two-sided Newcombe-inversion p-value for the success-rate delta.
  double p_value = 1.0;
  /// Benjamini–Hochberg adjusted p over this diff's matched cells.
  double p_value_fdr = 1.0;
  /// FDR-corrected flag: raw-significant AND adjusted p <= 0.05. The
  /// conjunction makes "FDR flags are a subset of the raw flags" exact
  /// instead of subject to quantile rounding; BH can only withdraw
  /// significance a raw CI granted, never add it.
  bool significant_fdr = false;

  double denial_rate_a = 0.0, denial_rate_b = 0.0;
  double denial_delta = 0.0;

  // PSNR percentile shifts, B minus A.
  double p50_shift = 0.0;
  double p90_shift = 0.0;
  double p99_shift = 0.0;
};

/// One axis value pooled over each side's own cells. Marginals are
/// matched by (axis, value) independently of cell matching: two sweeps
/// with disjoint defense families but a shared delay axis still compare
/// per-delay — exactly the cross-family question the paper asks.
struct AxisDelta {
  std::string axis;
  std::string value;

  std::size_t trials_a = 0, trials_b = 0;
  std::size_t successes_a = 0, successes_b = 0;
  std::size_t denials_a = 0, denials_b = 0;

  double success_rate_a = 0.0, success_rate_b = 0.0;
  double success_delta = 0.0;
  DeltaInterval success_delta_ci;
  bool significant = false;

  double denial_delta = 0.0;
  double mean_psnr_shift = 0.0;
};

struct DiffReport {
  /// Axes the two sweeps share, in side A's schema order — the
  /// projection the cell matching ran on (empty only when one side has
  /// no cells or the schemas are disjoint; then nothing matches).
  std::vector<std::string> shared_axes;
  /// Matched cells ascending by AxisKey.
  std::vector<CellDelta> cells;
  /// Cells with no axis-value partner on the other side, ascending by
  /// AxisKey (copies of the per-side distributions, untouched).
  std::vector<CellDistribution> only_in_a;
  std::vector<CellDistribution> only_in_b;
  /// Matched (axis, value) marginals, in side A's marginal order (axis
  /// blocks fixed, values by side-A first appearance).
  std::vector<AxisDelta> marginals;
  std::size_t significant_cells = 0;  ///< cells whose CI excludes zero
  /// Cells still significant after Benjamini–Hochberg FDR correction —
  /// the honest discovery count on a many-cell matrix.
  std::size_t significant_cells_fdr = 0;

  [[nodiscard]] std::string to_text() const;
  /// One strict CSV table; `section` is cell | axis | only_in_a |
  /// only_in_b, with the columns a section does not populate left empty.
  [[nodiscard]] std::string to_csv() const;
  /// {"matched_cells":..,"significant_cells":..,"cells":[..],
  ///  "only_in_a":[..],"only_in_b":[..],"marginals":[..]}
  [[nodiscard]] std::string to_json() const;
};

/// Aligns two analyzed sweeps on the axes their schemas share (a
/// legacy-four sweep against a superset included). Throws
/// std::runtime_error when one side carries two cells with the same
/// projected axis key — duplicate axis values in a grid, or a shared-axis
/// subset too coarse to separate one side's cells — since either makes
/// the pairing ambiguous. Sweeps sharing no axes simply match nothing:
/// every cell lists as one-sided, and only the (axis, value) marginals
/// compare.
[[nodiscard]] DiffReport diff_sweeps(const StatsReport& a,
                                     const StatsReport& b);

/// The comparable scalar metrics of a matched cell pair — what the gate
/// engine's whole-grid permutation test and per-cell thresholds run on.
enum class DiffMetric : std::uint8_t {
  kSuccessRate = 0,  ///< full-success rate (the paper's headline number)
  kDenialRate = 1,   ///< denial-of-service rate
  kPsnrP50 = 2,      ///< median reconstruction PSNR (dB)
};

/// "success_rate" | "denial" | "psnr_p50" — CLI spelling.
[[nodiscard]] const char* diff_metric_name(DiffMetric metric) noexcept;

/// Parses the CLI spelling; false on an unknown name.
[[nodiscard]] bool parse_diff_metric(std::string_view name,
                                     DiffMetric* metric) noexcept;

/// B-minus-A delta of one metric on one matched cell.
[[nodiscard]] double cell_metric_delta(const CellDelta& cell,
                                       DiffMetric metric) noexcept;

/// The paired per-cell deltas of `metric`, in the diff's matched-cell
/// order (ascending AxisKey — deterministic regardless of either store's
/// enumeration order, shard layout, or thread count). This is the input
/// to the whole-grid paired permutation test: one value per shared cell,
/// pairing by axis values having already been done by diff_sweeps.
[[nodiscard]] std::vector<double> paired_deltas(const DiffReport& diff,
                                                DiffMetric metric);

}  // namespace msa::campaign
