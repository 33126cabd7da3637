#include "campaign/grid.h"

#include <bit>
#include <stdexcept>
#include <utility>

namespace msa::campaign {

GridBuilder::GridBuilder(attack::ScenarioConfig base) : base_{std::move(base)} {
  // The legacy four axes, each with its neutral value, so a fresh builder
  // yields exactly one baseline cell in the historical axis order.
  axes_.push_back({"defense", AxisKind::kString,
                   {AxisValue::of_string("baseline")}});
  axes_.push_back({"model", AxisKind::kString,
                   {AxisValue::of_string(base_.model_name)}});
  axes_.push_back({"delay_s", AxisKind::kDouble, {AxisValue::of_number(0.0)}});
  axes_.push_back({"scrubber_Bps", AxisKind::kDouble,
                   {AxisValue::of_number(0.0)}});
}

GridBuilder& GridBuilder::axis(const std::string& name,
                               std::vector<AxisValue> values) {
  const AxisDescriptor& descriptor = axis_descriptor(name);  // throws unknown
  if (values.empty()) {
    throw std::invalid_argument("campaign: axis '" + name +
                                "' needs at least one value");
  }
  for (const AxisValue& v : values) {
    if (v.kind != descriptor.kind) {
      throw std::invalid_argument(
          std::string("campaign: axis '") + name + "' takes " +
          axis_kind_name(descriptor.kind) + " values, got " +
          axis_kind_name(v.kind));
    }
  }
  for (AxisSpec& existing : axes_) {
    if (existing.name == name) {
      existing.values = std::move(values);
      return *this;
    }
  }
  axes_.push_back({name, descriptor.kind, std::move(values)});
  return *this;
}

GridBuilder& GridBuilder::defenses(std::vector<std::string> preset_names) {
  std::vector<AxisValue> values;
  values.reserve(preset_names.size());
  for (auto& name : preset_names) {
    values.push_back(AxisValue::of_string(std::move(name)));
  }
  return axis("defense", std::move(values));
}

GridBuilder& GridBuilder::models(std::vector<std::string> model_names) {
  // Historical contract: an empty model list means "the base model".
  if (model_names.empty()) model_names.push_back(base_.model_name);
  std::vector<AxisValue> values;
  values.reserve(model_names.size());
  for (auto& name : model_names) {
    values.push_back(AxisValue::of_string(std::move(name)));
  }
  return axis("model", std::move(values));
}

GridBuilder& GridBuilder::attack_delays_s(std::vector<double> delays) {
  std::vector<AxisValue> values;
  values.reserve(delays.size());
  for (const double d : delays) values.push_back(AxisValue::of_number(d));
  return axis("delay_s", std::move(values));
}

GridBuilder& GridBuilder::scrubber_rates(std::vector<double> bytes_per_s) {
  std::vector<AxisValue> values;
  values.reserve(bytes_per_s.size());
  for (const double b : bytes_per_s) values.push_back(AxisValue::of_number(b));
  return axis("scrubber_Bps", std::move(values));
}

GridBuilder& GridBuilder::shard(std::uint32_t shard_index,
                                std::uint32_t shard_count) {
  if (shard_count == 0 || shard_index >= shard_count) {
    throw std::invalid_argument("campaign: bad shard " +
                                std::to_string(shard_index) + "/" +
                                std::to_string(shard_count));
  }
  shard_index_ = shard_index;
  shard_count_ = shard_count;
  return *this;
}

std::size_t GridBuilder::full_size() const noexcept {
  std::size_t product = 1;
  for (const AxisSpec& axis : axes_) product *= axis.values.size();
  return product;
}

std::size_t GridBuilder::size() const noexcept {
  const std::size_t full = full_size();
  // Cells i with i % count == index: one per full stride plus the ragged
  // head.
  return full / shard_count_ + (shard_index_ < full % shard_count_ ? 1 : 0);
}

std::uint64_t GridBuilder::fingerprint() const noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix_byte = [&h](std::uint8_t b) noexcept {
    h ^= b;
    h *= 0x100000001b3ULL;
  };
  const auto mix_u64 = [&](std::uint64_t v) noexcept {
    for (int shift = 0; shift < 64; shift += 8) {
      mix_byte(static_cast<std::uint8_t>((v >> shift) & 0xff));
    }
  };
  const auto mix_str = [&](const std::string& s) noexcept {
    mix_u64(s.size());  // length prefix keeps {"a","b"} != {"ab"}
    for (const char c : s) mix_byte(static_cast<std::uint8_t>(c));
  };
  const auto mix_value = [&](const AxisValue& v) noexcept {
    mix_byte(static_cast<std::uint8_t>(v.kind));
    switch (v.kind) {
      case AxisKind::kString:
      case AxisKind::kEnum:
        mix_str(v.str);
        break;
      case AxisKind::kDouble:
        mix_u64(std::bit_cast<std::uint64_t>(v.num));
        break;
      case AxisKind::kBool:
        mix_byte(v.flag ? 1 : 0);
        break;
    }
  };

  // Scheme tag, fixed forever: it feeds every fingerprint, so changing
  // it would change the fingerprint of every existing store and make each
  // one refuse resume and merge.
  mix_str("msa-axis-schema-v2");

  // Every registered axis's BASE value, swept or not. This is the
  // satellite bugfix: experiments differing only in an unswept knob
  // (power_cycled, corrupt_fraction, ...) get distinct fingerprints and
  // can no longer share a store path.
  for (const AxisDescriptor& axis : axis_registry()) {
    mix_str(axis.name);
    mix_value(axis.read(base_));
  }

  // The swept schema: ordered axis names and their ordered value lists.
  mix_u64(axes_.size());
  for (const AxisSpec& axis : axes_) {
    mix_str(axis.name);
    mix_byte(static_cast<std::uint8_t>(axis.kind));
    mix_u64(axis.values.size());
    for (const AxisValue& v : axis.values) mix_value(v);
  }
  return h;
}

void GridBuilder::validate() const {
  for (const AxisSpec& axis : axes_) {
    const AxisDescriptor& descriptor = axis_descriptor(axis.name);
    for (std::size_t i = 0; i < axis.values.size(); ++i) {
      const std::string err = check_axis_value(descriptor, axis.values[i]);
      if (!err.empty()) throw std::invalid_argument("campaign: " + err);
      for (std::size_t j = i + 1; j < axis.values.size(); ++j) {
        if (axis.values[i] == axis.values[j]) {
          throw std::invalid_argument(
              "campaign: axis '" + axis.name + "' has duplicate value '" +
              axis.values[i].label() +
              "' (every value on an axis must be distinct)");
        }
      }
    }
  }
}

std::vector<CampaignCell> GridBuilder::build() const {
  validate();

  std::vector<const AxisDescriptor*> descriptors;
  descriptors.reserve(axes_.size());
  for (const AxisSpec& axis : axes_) {
    descriptors.push_back(&axis_descriptor(axis.name));
  }

  std::vector<CampaignCell> cells;
  cells.reserve(size());
  const std::size_t full = full_size();
  // Odometer over the axis value lists, last axis fastest — the same
  // nested-loop order (first axis outermost) the four-loop code used, so
  // cell indices are stable across the refactor.
  std::vector<std::size_t> odo(axes_.size(), 0);
  for (std::size_t index = 0; index < full; ++index) {
    if (index % shard_count_ == shard_index_) {
      CampaignCell cell;
      cell.index = index;
      cell.config = base_;
      cell.coords.reserve(axes_.size());
      for (std::size_t a = 0; a < axes_.size(); ++a) {
        const AxisValue& value = axes_[a].values[odo[a]];
        descriptors[a]->apply(cell.config, value);
        cell.coords.push_back({axes_[a].name, value});
      }
      cells.push_back(std::move(cell));
    }
    for (std::size_t a = axes_.size(); a-- > 0;) {
      if (++odo[a] < axes_[a].values.size()) break;
      odo[a] = 0;
    }
  }
  return cells;
}

}  // namespace msa::campaign
