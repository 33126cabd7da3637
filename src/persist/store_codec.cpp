#include "persist/store_codec.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace msa::persist {

namespace {

constexpr std::uint8_t kTrialDenied = 1u << 0;
constexpr std::uint8_t kTrialModelIdentified = 1u << 1;

void encode_cell_counters(util::ByteWriter& w, const campaign::CellStats& c) {
  w.varint(c.trials);
  w.varint(c.full_successes);
  w.varint(c.model_identified);
  w.varint(c.denials);
  w.f64(c.mean_pixel_match);
  w.f64(c.mean_psnr_db);
  w.f64(c.mean_descriptor_pixel_match);
  w.str(c.first_denial_reason);
}

void decode_cell_counters(util::ByteReader& r, campaign::CellStats& c) {
  c.trials = static_cast<std::size_t>(r.varint());
  c.full_successes = static_cast<std::size_t>(r.varint());
  c.model_identified = static_cast<std::size_t>(r.varint());
  c.denials = static_cast<std::size_t>(r.varint());
  c.mean_pixel_match = r.f64();
  c.mean_psnr_db = r.f64();
  c.mean_descriptor_pixel_match = r.f64();
  c.first_denial_reason = r.str();
}

}  // namespace

void encode_axis_value(util::ByteWriter& w, const campaign::AxisValue& v) {
  w.u8(static_cast<std::uint8_t>(v.kind));
  switch (v.kind) {
    case campaign::AxisKind::kString:
    case campaign::AxisKind::kEnum:
      w.str(v.str);
      break;
    case campaign::AxisKind::kDouble:
      w.f64(v.num);
      break;
    case campaign::AxisKind::kBool:
      w.u8(v.flag ? 1 : 0);
      break;
  }
}

AxisValueBytes read_axis_value(util::ByteReader& r) {
  const std::uint8_t kind = r.u8();
  switch (kind) {
    case static_cast<std::uint8_t>(campaign::AxisKind::kString):
    case static_cast<std::uint8_t>(campaign::AxisKind::kEnum):
      return {static_cast<campaign::AxisKind>(kind), r.blob()};
    case static_cast<std::uint8_t>(campaign::AxisKind::kDouble):
      return {campaign::AxisKind::kDouble, r.bytes(8)};
    case static_cast<std::uint8_t>(campaign::AxisKind::kBool):
      return {campaign::AxisKind::kBool, r.bytes(1)};
    default:
      throw std::runtime_error("persist: unknown axis-value kind " +
                               std::to_string(kind));
  }
}

campaign::AxisValue decode_axis_value(util::ByteReader& r) {
  const AxisValueBytes v = read_axis_value(r);
  switch (v.kind) {
    case campaign::AxisKind::kString:
      return campaign::AxisValue::of_string({v.bytes.begin(), v.bytes.end()});
    case campaign::AxisKind::kEnum:
      return campaign::AxisValue::of_enum({v.bytes.begin(), v.bytes.end()});
    case campaign::AxisKind::kDouble:
      return campaign::AxisValue::of_number(util::ByteReader{v.bytes}.f64());
    case campaign::AxisKind::kBool:
      break;
  }
  return campaign::AxisValue::of_bool(v.bytes.front() != 0);
}

void encode_trial(const TrialRecord& t, util::ByteWriter& w) {
  w.varint(t.cell_index);
  w.varint(t.trial);
  std::uint8_t flags = 0;
  if (t.denied) flags |= kTrialDenied;
  if (t.model_identified) flags |= kTrialModelIdentified;
  w.u8(flags);
  w.f64(t.pixel_match);
  w.f64(t.psnr);
  w.f64(t.descriptor_pixel_match);
  w.str(t.denial_reason);
}

TrialRecord decode_trial(std::span<const std::uint8_t> payload) {
  util::ByteReader r{payload};
  TrialRecord t;
  t.cell_index = r.varint();
  t.trial = static_cast<std::uint32_t>(r.varint());
  const std::uint8_t flags = r.u8();
  t.denied = (flags & kTrialDenied) != 0;
  t.model_identified = (flags & kTrialModelIdentified) != 0;
  t.pixel_match = r.f64();
  t.psnr = r.f64();
  t.descriptor_pixel_match = r.f64();
  t.denial_reason = r.str();
  return t;
}

TrialRecord::Key decode_trial_key(std::span<const std::uint8_t> payload) {
  util::ByteReader r{payload};
  const std::uint64_t cell = r.varint();
  return {cell, static_cast<std::uint32_t>(r.varint())};
}

std::vector<std::uint8_t> encode_cell(const campaign::CellStats& c) {
  util::ByteWriter w;
  w.varint(c.index);
  w.varint(c.coords.size());
  for (const campaign::AxisCoordinate& coord : c.coords) {
    w.str(coord.axis);
    encode_axis_value(w, coord.value);
  }
  encode_cell_counters(w, c);
  return w.take();
}

campaign::CellStats decode_cell(CellBytes payload) {
  util::ByteReader r{payload};
  campaign::CellStats c;
  c.index = static_cast<std::size_t>(r.varint());
  const std::uint64_t coords = r.count();
  c.coords.reserve(coords);
  for (std::uint64_t i = 0; i < coords; ++i) {
    std::string axis = r.str();
    campaign::AxisValue value = decode_axis_value(r);
    c.coords.push_back({std::move(axis), std::move(value)});
  }
  decode_cell_counters(r, c);
  return c;
}

CellKeyView read_cell_key(CellBytes payload) {
  util::ByteReader r{payload};
  CellKeyView out;
  out.index = r.varint();
  const std::size_t key = r.position();
  for (std::uint64_t coords = r.count(); coords > 0; --coords) {
    (void)r.blob();
    (void)read_axis_value(r);
  }
  out.key = payload.subspan(key, r.position() - key);
  // The counters, as decode_cell_counters reads them.
  for (int i = 0; i < 4; ++i) (void)r.varint();
  for (int i = 0; i < 3; ++i) (void)r.u64();
  (void)r.blob();
  return out;
}

std::vector<std::uint8_t> encode_cell_key(
    const std::vector<campaign::AxisCoordinate>& coords) {
  util::ByteWriter w;
  w.varint(coords.size());
  for (const campaign::AxisCoordinate& coord : coords) {
    w.str(coord.axis);
    encode_axis_value(w, coord.value);
  }
  return w.take();
}

std::vector<campaign::AxisCoordinate> decode_cell_key(
    std::span<const std::uint8_t> bytes) {
  util::ByteReader r{bytes};
  const std::uint64_t n = r.count();
  std::vector<campaign::AxisCoordinate> coords;
  coords.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string axis = r.str();
    campaign::AxisValue value = decode_axis_value(r);
    coords.push_back({std::move(axis), std::move(value)});
  }
  return coords;
}

bool cell_key_less(const std::vector<campaign::AxisCoordinate>& a,
                   const std::vector<campaign::AxisCoordinate>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i].axis != b[i].axis) return a[i].axis < b[i].axis;
    if (!(a[i].value == b[i].value)) return a[i].value < b[i].value;
  }
  return a.size() < b.size();
}

}  // namespace msa::persist
