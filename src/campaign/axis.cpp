#include "campaign/axis.h"

#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "campaign/table.h"
#include "defense/presets.h"
#include "vitis/model_zoo.h"

namespace msa::campaign {

const char* axis_kind_name(AxisKind kind) noexcept {
  switch (kind) {
    case AxisKind::kString: return "string";
    case AxisKind::kDouble: return "double";
    case AxisKind::kBool: return "bool";
    case AxisKind::kEnum: return "enum";
  }
  return "?";
}

AxisValue AxisValue::of_string(std::string s) {
  AxisValue v;
  v.kind = AxisKind::kString;
  v.str = std::move(s);
  return v;
}

AxisValue AxisValue::of_enum(std::string s) {
  AxisValue v;
  v.kind = AxisKind::kEnum;
  v.str = std::move(s);
  return v;
}

AxisValue AxisValue::of_number(double value) {
  AxisValue v;
  v.kind = AxisKind::kDouble;
  v.num = value;
  return v;
}

AxisValue AxisValue::of_bool(bool b) {
  AxisValue v;
  v.kind = AxisKind::kBool;
  v.flag = b;
  return v;
}

std::string AxisValue::label() const {
  switch (kind) {
    case AxisKind::kString:
    case AxisKind::kEnum:
      return str;
    case AxisKind::kDouble:
      return table::format_double(num);
    case AxisKind::kBool:
      return flag ? "1" : "0";
  }
  return "?";
}

bool AxisValue::operator<(const AxisValue& other) const {
  if (kind != other.kind) return kind < other.kind;
  switch (kind) {
    case AxisKind::kString:
    case AxisKind::kEnum:
      return str < other.str;
    case AxisKind::kDouble:
      return num < other.num;
    case AxisKind::kBool:
      return flag < other.flag;
  }
  return false;
}

const AxisValue* find_coord(const std::vector<AxisCoordinate>& coords,
                            std::string_view axis) {
  for (const AxisCoordinate& c : coords) {
    if (c.axis == axis) return &c.value;
  }
  return nullptr;
}

std::string coords_label(const std::vector<AxisCoordinate>& coords) {
  std::string out;
  for (const AxisCoordinate& c : coords) {
    if (!out.empty()) out += '/';
    out += c.axis + "=" + c.value.label();
  }
  return out;
}

namespace {

std::string finite_nonnegative(const AxisValue& v) {
  if (!std::isfinite(v.num)) return "value must be finite";
  if (v.num < 0.0) return "value must be non-negative";
  return "";
}

std::string finite_positive(const AxisValue& v) {
  if (!std::isfinite(v.num)) return "value must be finite";
  if (v.num <= 0.0) return "value must be positive";
  return "";
}

/// Integral doubles only — the encoding for integer-typed config knobs
/// (image dims, seeds, byte counts). 2^53 is the largest width at which
/// every integer is exactly representable.
std::string nonnegative_integer(const AxisValue& v, double max) {
  if (!std::isfinite(v.num)) return "value must be finite";
  if (v.num < 0.0) return "value must be non-negative";
  if (v.num != std::floor(v.num)) return "value must be an integer";
  if (v.num > max) return "value exceeds " + table::format_double(max);
  return "";
}

std::vector<AxisDescriptor> build_registry() {
  std::vector<AxisDescriptor> axes;

  // --- the legacy four: their names are the store/stats/diff
  // compatibility surface with the oldest stores -----------------------
  axes.push_back({
      "defense", AxisKind::kString, {},
      "defense preset applied to the victim board (defense::all_presets)",
      [](attack::ScenarioConfig& cfg, const AxisValue& v) {
        cfg = defense::preset(v.str).apply(cfg);
      },
      // A base config is by definition the un-hardened baseline; presets
      // are deltas applied on top of it.
      [](const attack::ScenarioConfig&) {
        return AxisValue::of_string("baseline");
      },
      [](const AxisValue& v) -> std::string {
        for (const defense::DefensePreset& p : defense::all_presets()) {
          if (p.name == v.str) return "";
        }
        return "unknown defense preset '" + v.str + "'";
      },
  });
  axes.push_back({
      "model", AxisKind::kString, {},
      "zoo model the victim runs (vitis::model_zoo)",
      [](attack::ScenarioConfig& cfg, const AxisValue& v) {
        cfg.model_name = v.str;
      },
      [](const attack::ScenarioConfig& cfg) {
        return AxisValue::of_string(cfg.model_name);
      },
      [](const AxisValue& v) -> std::string {
        return vitis::zoo_has_model(v.str)
                   ? ""
                   : "unknown zoo model '" + v.str + "'";
      },
  });
  axes.push_back({
      "delay_s", AxisKind::kDouble, {},
      "seconds between victim exit and the scrape",
      [](attack::ScenarioConfig& cfg, const AxisValue& v) {
        cfg.attack_delay_s = v.num;
      },
      [](const attack::ScenarioConfig& cfg) {
        return AxisValue::of_number(cfg.attack_delay_s);
      },
      finite_nonnegative,
  });
  axes.push_back({
      "scrubber_Bps", AxisKind::kDouble, {},
      "background scrubber-daemon throughput, bytes/second (0 = off)",
      [](attack::ScenarioConfig& cfg, const AxisValue& v) {
        cfg.scrubber_bytes_per_s = v.num;
      },
      [](const attack::ScenarioConfig& cfg) {
        return AxisValue::of_number(cfg.scrubber_bytes_per_s);
      },
      finite_nonnegative,
  });

  // --- post-termination timeline knobs --------------------------------
  axes.push_back({
      "power_cycled", AxisKind::kBool, {},
      "interrupt DRAM refresh for the whole delay (board power cycle)",
      [](attack::ScenarioConfig& cfg, const AxisValue& v) {
        cfg.power_cycled = v.flag;
      },
      [](const attack::ScenarioConfig& cfg) {
        return AxisValue::of_bool(cfg.power_cycled);
      },
      nullptr,
  });
  axes.push_back({
      "retention_half_life_s", AxisKind::kDouble, {},
      "cell-decay half-life under power loss, seconds",
      [](attack::ScenarioConfig& cfg, const AxisValue& v) {
        cfg.retention_half_life_s = v.num;
      },
      [](const attack::ScenarioConfig& cfg) {
        return AxisValue::of_number(cfg.retention_half_life_s);
      },
      finite_positive,
  });

  // --- attacker strategy ----------------------------------------------
  axes.push_back({
      "post_mortem_scan", AxisKind::kBool, {},
      "miss the live window; raw physical sweep of the allocator pool",
      [](attack::ScenarioConfig& cfg, const AxisValue& v) {
        cfg.post_mortem_scan = v.flag;
      },
      [](const attack::ScenarioConfig& cfg) {
        return AxisValue::of_bool(cfg.post_mortem_scan);
      },
      nullptr,
  });
  axes.push_back({
      "scan_bytes", AxisKind::kDouble, {},
      "bytes swept in post-mortem mode (0 = 4x profiled heap)",
      [](attack::ScenarioConfig& cfg, const AxisValue& v) {
        cfg.scan_bytes = static_cast<std::uint64_t>(v.num);
      },
      [](const attack::ScenarioConfig& cfg) {
        return AxisValue::of_number(static_cast<double>(cfg.scan_bytes));
      },
      [](const AxisValue& v) { return nonnegative_integer(v, 0x1p53); },
  });

  // --- input corruption (the paper's Fig. 4 family) -------------------
  axes.push_back({
      "corrupt_image", AxisKind::kBool, {},
      "corrupt the victim input to the 0xFFFFFF sentinel",
      [](attack::ScenarioConfig& cfg, const AxisValue& v) {
        cfg.corrupt_image = v.flag;
      },
      [](const attack::ScenarioConfig& cfg) {
        return AxisValue::of_bool(cfg.corrupt_image);
      },
      nullptr,
  });
  axes.push_back({
      "corrupt_fraction", AxisKind::kDouble, {},
      "fraction of the input corrupted, [0,1]; sweeping it implies "
      "corrupt_image",
      // A fraction sweep without the flag would score identical cells;
      // sweeping the fraction therefore turns corruption on.
      [](attack::ScenarioConfig& cfg, const AxisValue& v) {
        cfg.corrupt_image = true;
        cfg.corrupt_fraction = v.num;
      },
      [](const attack::ScenarioConfig& cfg) {
        return AxisValue::of_number(cfg.corrupt_fraction);
      },
      [](const AxisValue& v) -> std::string {
        if (!std::isfinite(v.num)) return "value must be finite";
        if (v.num < 0.0 || v.num > 1.0) return "value must be in [0,1]";
        return "";
      },
  });

  // --- platform defenses beyond the preset axis -----------------------
  axes.push_back({
      "firewall", AxisKind::kEnum,
      {"disabled", "live_owner_only", "owner_or_residue"},
      "physical-access firewall mode on the devmem path",
      [](attack::ScenarioConfig& cfg, const AxisValue& v) {
        if (v.str == "disabled") cfg.firewall = dbg::FirewallMode::kDisabled;
        else if (v.str == "live_owner_only")
          cfg.firewall = dbg::FirewallMode::kLiveOwnerOnly;
        else cfg.firewall = dbg::FirewallMode::kOwnerOrResidue;
      },
      [](const attack::ScenarioConfig& cfg) {
        switch (cfg.firewall) {
          case dbg::FirewallMode::kDisabled:
            return AxisValue::of_enum("disabled");
          case dbg::FirewallMode::kLiveOwnerOnly:
            return AxisValue::of_enum("live_owner_only");
          case dbg::FirewallMode::kOwnerOrResidue:
            return AxisValue::of_enum("owner_or_residue");
        }
        return AxisValue::of_enum("disabled");
      },
      nullptr,
  });
  axes.push_back({
      "debugger_acl", AxisKind::kEnum,
      {"unrestricted", "owner_only", "disabled"},
      "debugger ACL mode on the victim board",
      [](attack::ScenarioConfig& cfg, const AxisValue& v) {
        if (v.str == "unrestricted") cfg.acl.mode = dbg::AclMode::kUnrestricted;
        else if (v.str == "owner_only") cfg.acl.mode = dbg::AclMode::kOwnerOnly;
        else cfg.acl.mode = dbg::AclMode::kDisabled;
      },
      [](const attack::ScenarioConfig& cfg) {
        switch (cfg.acl.mode) {
          case dbg::AclMode::kUnrestricted:
            return AxisValue::of_enum("unrestricted");
          case dbg::AclMode::kOwnerOnly:
            return AxisValue::of_enum("owner_only");
          case dbg::AclMode::kDisabled:
            return AxisValue::of_enum("disabled");
        }
        return AxisValue::of_enum("unrestricted");
      },
      nullptr,
  });

  // --- victim input geometry ------------------------------------------
  axes.push_back({
      "image_width", AxisKind::kDouble, {},
      "victim input width, pixels",
      [](attack::ScenarioConfig& cfg, const AxisValue& v) {
        cfg.image_width = static_cast<std::uint32_t>(v.num);
      },
      [](const attack::ScenarioConfig& cfg) {
        return AxisValue::of_number(static_cast<double>(cfg.image_width));
      },
      [](const AxisValue& v) -> std::string {
        const std::string e = nonnegative_integer(v, 4096.0);
        if (!e.empty()) return e;
        return v.num < 1.0 ? "value must be positive" : "";
      },
  });
  axes.push_back({
      "image_height", AxisKind::kDouble, {},
      "victim input height, pixels",
      [](attack::ScenarioConfig& cfg, const AxisValue& v) {
        cfg.image_height = static_cast<std::uint32_t>(v.num);
      },
      [](const attack::ScenarioConfig& cfg) {
        return AxisValue::of_number(static_cast<double>(cfg.image_height));
      },
      [](const AxisValue& v) -> std::string {
        const std::string e = nonnegative_integer(v, 4096.0);
        if (!e.empty()) return e;
        return v.num < 1.0 ? "value must be positive" : "";
      },
  });
  axes.push_back({
      "image_seed", AxisKind::kDouble, {},
      "victim input generator seed",
      [](attack::ScenarioConfig& cfg, const AxisValue& v) {
        cfg.image_seed = static_cast<std::uint64_t>(v.num);
      },
      [](const attack::ScenarioConfig& cfg) {
        return AxisValue::of_number(static_cast<double>(cfg.image_seed));
      },
      [](const AxisValue& v) { return nonnegative_integer(v, 0x1p53); },
  });

  return axes;
}

}  // namespace

const std::vector<AxisDescriptor>& axis_registry() {
  static const std::vector<AxisDescriptor> registry = build_registry();
  return registry;
}

const AxisDescriptor* find_axis(std::string_view name) {
  for (const AxisDescriptor& axis : axis_registry()) {
    if (axis.name == name) return &axis;
  }
  return nullptr;
}

const AxisDescriptor& axis_descriptor(const std::string& name) {
  if (const AxisDescriptor* axis = find_axis(name)) return *axis;
  std::string known;
  for (const AxisDescriptor& axis : axis_registry()) {
    if (!known.empty()) known += ", ";
    known += axis.name;
  }
  throw std::invalid_argument("campaign: unknown axis '" + name +
                              "' (known axes: " + known + ")");
}

std::string check_axis_value(const AxisDescriptor& axis,
                             const AxisValue& value) {
  if (value.kind != axis.kind) {
    return std::string("axis '") + axis.name + "' takes " +
           axis_kind_name(axis.kind) + " values, got " +
           axis_kind_name(value.kind);
  }
  if (axis.kind == AxisKind::kEnum) {
    for (const std::string& label : axis.enum_labels) {
      if (label == value.str) return "";
    }
    std::string allowed;
    for (const std::string& label : axis.enum_labels) {
      if (!allowed.empty()) allowed += "|";
      allowed += label;
    }
    return "axis '" + axis.name + "' takes one of " + allowed + ", got '" +
           value.str + "'";
  }
  if (axis.validate) {
    const std::string err = axis.validate(value);
    if (!err.empty()) {
      return "axis '" + axis.name + "': " + err + " (got '" + value.label() +
             "')";
    }
  }
  return "";
}

AxisValue parse_axis_value(const AxisDescriptor& axis,
                           const std::string& text) {
  AxisValue value;
  switch (axis.kind) {
    case AxisKind::kString:
      value = AxisValue::of_string(text);
      break;
    case AxisKind::kEnum:
      value = AxisValue::of_enum(text);
      break;
    case AxisKind::kDouble: {
      char* end = nullptr;
      const double v = std::strtod(text.c_str(), &end);
      if (text.empty() || end != text.c_str() + text.size()) {
        throw std::invalid_argument("campaign: axis '" + axis.name +
                                    "': not a number: '" + text + "'");
      }
      value = AxisValue::of_number(v);
      break;
    }
    case AxisKind::kBool: {
      if (text == "0" || text == "false") value = AxisValue::of_bool(false);
      else if (text == "1" || text == "true") value = AxisValue::of_bool(true);
      else {
        throw std::invalid_argument("campaign: axis '" + axis.name +
                                    "': not a bool (0/1/true/false): '" +
                                    text + "'");
      }
      break;
    }
  }
  const std::string err = check_axis_value(axis, value);
  if (!err.empty()) throw std::invalid_argument("campaign: " + err);
  return value;
}

const std::vector<std::string>& legacy_axis_names() {
  static const std::vector<std::string> names{"defense", "model", "delay_s",
                                             "scrubber_Bps"};
  return names;
}

}  // namespace msa::campaign
