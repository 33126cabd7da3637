// Typed axis schema for campaign sweeps. An axis is one sweepable knob of
// attack::ScenarioConfig — its name, value type, and the applier that
// folds a value into a config. The registry below names every knob a
// campaign can sweep, so opening a new scenario family (power-cycle decay
// curves, post-mortem scans, corruption fractions) is a registry entry
// instead of a five-layer surgery across grid, store, stats, diff, and
// the CLI.
//
// Everything downstream consumes this schema: GridBuilder enumerates the
// cartesian product over an ordered axis list, CampaignCell/CellStats
// carry ordered (axis, value) coordinates instead of hard-coded fields,
// the store manifest serializes the schema, stats computes per-(axis,
// value) marginals over whatever axes a sweep used, and diff aligns
// cells across the axes two sweeps share. The pairing discipline is
// structural throughout: cells join on axis VALUES, never on enumeration
// order.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "attack/scenario.h"

namespace msa::campaign {

/// Value type of one axis. The kind is part of a value's identity: a
/// string "0" and a number 0 never compare equal, so a store written
/// with mismatched kinds can never silently pair with a correct one.
enum class AxisKind : std::uint8_t {
  kString = 0,  ///< free-form label validated per axis (preset, model)
  kDouble = 1,  ///< finite double (axis validators restrict range)
  kBool = 2,    ///< flag knob; canonical labels "0" / "1"
  kEnum = 3,    ///< one of a fixed label set (firewall mode, ACL mode)
};

/// "string" | "double" | "bool" | "enum" — for tables and messages.
[[nodiscard]] const char* axis_kind_name(AxisKind kind) noexcept;

/// One typed axis value. Exactly one payload member is active per kind
/// (kString/kEnum -> str, kDouble -> num, kBool -> flag); the factory
/// functions keep the inactive members zeroed so defaulted equality is
/// exact.
struct AxisValue {
  AxisKind kind = AxisKind::kString;
  std::string str;
  double num = 0.0;
  bool flag = false;

  [[nodiscard]] static AxisValue of_string(std::string s);
  [[nodiscard]] static AxisValue of_enum(std::string s);
  [[nodiscard]] static AxisValue of_number(double v);
  [[nodiscard]] static AxisValue of_bool(bool b);

  /// Canonical text form: the string/enum label, format_double for
  /// numbers (round-trip exact), "0"/"1" for bools. This is the label
  /// marginals and CLI parsing round-trip through.
  [[nodiscard]] std::string label() const;

  friend bool operator==(const AxisValue&, const AxisValue&) = default;
  /// Total order: kind first, then the active payload. Doubles must be
  /// finite (grid validation rejects NaN before values reach any map).
  [[nodiscard]] bool operator<(const AxisValue& other) const;
};

/// One (axis, value) binding on a cell — the unit of the structural
/// coordinate that replaces the old defense/model/delay/scrubber fields.
struct AxisCoordinate {
  std::string axis;
  AxisValue value;

  friend bool operator==(const AxisCoordinate&, const AxisCoordinate&) =
      default;
};

/// The value of `axis` in an ordered coordinate list, nullptr when the
/// list does not carry that axis.
[[nodiscard]] const AxisValue* find_coord(
    const std::vector<AxisCoordinate>& coords, std::string_view axis);

/// "a=x/b=y/..." over the coordinates — error messages and text rows.
[[nodiscard]] std::string coords_label(
    const std::vector<AxisCoordinate>& coords);

/// Serializable schema entry: one swept axis and its ordered value list.
/// This is what the store manifest pins (and what GridBuilder enumerates)
/// — plain data, no behavior, so persist can round-trip it.
struct AxisSpec {
  std::string name;
  AxisKind kind = AxisKind::kString;
  std::vector<AxisValue> values;

  friend bool operator==(const AxisSpec&, const AxisSpec&) = default;
};

/// Behavior of one registered axis: how to validate a value and how to
/// fold it into a scenario config.
struct AxisDescriptor {
  std::string name;
  AxisKind kind = AxisKind::kString;
  /// kEnum only: the allowed labels, in canonical order.
  std::vector<std::string> enum_labels;
  /// One-line description for `campaign_sweep axes` and the README table.
  std::string description;
  /// Folds a (validated) value into the config. For the defense axis
  /// this applies the whole preset; for plain knobs it sets one field.
  std::function<void(attack::ScenarioConfig&, const AxisValue&)> apply;
  /// Reads the axis's current value out of a config — the base value
  /// GridBuilder::fingerprint() folds in for every axis, swept or not,
  /// so two experiments differing only in an unswept knob cannot share
  /// a store path.
  std::function<AxisValue(const attack::ScenarioConfig&)> read;
  /// Axis-specific validation beyond the kind check; returns "" when the
  /// value is acceptable, else a human-readable reason.
  std::function<std::string(const AxisValue&)> validate;
};

/// Every sweepable ScenarioConfig knob, in a fixed registry order (the
/// legacy four first — their names are the store/stats compatibility
/// surface — then the scenario-family knobs). The registry is built once
/// and immutable.
[[nodiscard]] const std::vector<AxisDescriptor>& axis_registry();

/// Registry lookup by name; nullptr when unknown.
[[nodiscard]] const AxisDescriptor* find_axis(std::string_view name);

/// Registry lookup that throws std::invalid_argument (with the known
/// axis names in the message) for an unknown name.
[[nodiscard]] const AxisDescriptor& axis_descriptor(const std::string& name);

/// Parses one CLI token into a typed value for `axis` (strtod for
/// doubles, 0/1/true/false for bools, the label set for enums) and runs
/// the axis validator. Throws std::invalid_argument with the axis name
/// and offending token on any failure.
[[nodiscard]] AxisValue parse_axis_value(const AxisDescriptor& axis,
                                         const std::string& text);

/// Kind check plus the axis validator; "" when ok, else the reason.
[[nodiscard]] std::string check_axis_value(const AxisDescriptor& axis,
                                           const AxisValue& value);

/// Names of the four legacy axes (defense, model, delay_s, scrubber_Bps)
/// in their historical grid order — the default axes of a fresh
/// GridBuilder.
[[nodiscard]] const std::vector<std::string>& legacy_axis_names();

}  // namespace msa::campaign
