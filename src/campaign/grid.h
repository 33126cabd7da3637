// Cartesian sweep grids over attack::ScenarioConfig. A campaign is the
// paper's defense-matrix experiment scaled up: every combination of the
// swept axis values becomes one cell, and each cell is scored over a
// number of independent trials. The grid is built eagerly and in a
// deterministic order so a sweep's output is a pure function of (grid,
// trials), never of the thread schedule that executed it.
//
// Axes are schema-driven (campaign/axis.h): any registered
// ScenarioConfig knob can be swept with axis(name, values); the four
// historical setters are thin wrappers over the registry's legacy axes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "attack/scenario.h"
#include "campaign/axis.h"

namespace msa::campaign {

/// One point of the sweep: the fully-applied scenario config plus the
/// ordered axis coordinates it came from (the structural identity used
/// for report labelling and cross-sweep alignment).
struct CampaignCell {
  std::size_t index = 0;             ///< position in deterministic grid order
  std::vector<AxisCoordinate> coords;  ///< one entry per grid axis, in order
  attack::ScenarioConfig config;     ///< base config with every axis applied

  /// Value of `axis` on this cell, nullptr when the grid did not sweep it.
  [[nodiscard]] const AxisValue* coord(std::string_view axis) const {
    return find_coord(coords, axis);
  }
};

/// Builds the cartesian product over an ordered axis list applied to a
/// shared base config. A fresh builder carries the four legacy axes
/// (defense, model, delay_s, scrubber_Bps), each with a single neutral
/// value, so a builder with no setters called yields exactly one cell
/// (the base scenario under "baseline"). Setters replace an axis's value
/// list wholesale; axis() on a new name appends that axis to the sweep
/// order.
class GridBuilder {
 public:
  explicit GridBuilder(attack::ScenarioConfig base = {});

  /// Generic axis setter: `name` must be registered (campaign/axis.h),
  /// `values` non-empty and of the axis's kind — throws
  /// std::invalid_argument otherwise. Value-level validation (unknown
  /// presets, out-of-range numbers, duplicates) happens in validate()/
  /// build().
  GridBuilder& axis(const std::string& name, std::vector<AxisValue> values);

  // Legacy wrappers over axis() — the historical four-axis surface.
  GridBuilder& defenses(std::vector<std::string> preset_names);
  GridBuilder& models(std::vector<std::string> model_names);
  GridBuilder& attack_delays_s(std::vector<double> delays);
  GridBuilder& scrubber_rates(std::vector<double> bytes_per_s);

  /// Restricts build() to the cells whose global index i satisfies
  /// i % shard_count == shard_index — a deterministic, disjoint partition
  /// of the full grid so N processes can sweep N slices into separate
  /// stores and a merge reassembles them in grid order. Cell indices stay
  /// GLOBAL (full-grid) under sharding. Throws std::invalid_argument for
  /// shard_count == 0 or shard_index >= shard_count.
  GridBuilder& shard(std::uint32_t shard_index, std::uint32_t shard_count);

  /// Number of cells build() will produce (the shard slice when sharded).
  [[nodiscard]] std::size_t size() const noexcept;

  /// Cells in the FULL grid, ignoring shard().
  [[nodiscard]] std::size_t full_size() const noexcept;

  /// The ordered axis schema build() enumerates — what the store
  /// manifest serializes so readers know a sweep's structure.
  [[nodiscard]] const std::vector<AxisSpec>& axis_schema() const noexcept {
    return axes_;
  }

  /// Stable 64-bit identity of the full grid: FNV-1a over the base value
  /// of EVERY registered axis (swept or not — two experiments differing
  /// only in, say, power_cycled can never share a store path) plus the
  /// ordered swept-axis schema. Identical for every shard of the same
  /// sweep — it is the value a campaign store's manifest pins so
  /// resume/merge can reject a store from a different experiment.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept;

  /// Validates every axis value list without materializing cells:
  /// duplicate values on an axis (colliding axis keys downstream) and
  /// values the axis rejects (unknown preset/model, out-of-range number)
  /// throw std::invalid_argument naming the axis. build() calls this.
  void validate() const;

  /// Materializes the grid (or its shard slice). Order is the nested
  /// loop over axes in schema order (first axis outermost), so cell
  /// indices are stable across runs and thread counts. Throws
  /// std::invalid_argument on validate() failure.
  [[nodiscard]] std::vector<CampaignCell> build() const;

 private:
  attack::ScenarioConfig base_;
  std::vector<AxisSpec> axes_;
  std::uint32_t shard_index_ = 0;
  std::uint32_t shard_count_ = 1;
};

}  // namespace msa::campaign
