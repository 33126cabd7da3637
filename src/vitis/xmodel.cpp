#include "vitis/xmodel.h"

#include <array>
#include <stdexcept>

#include "obs/metrics.h"
#include "util/crc32.h"

namespace msa::vitis {

namespace {

obs::Counter& encodes_metric() {
  static obs::Counter& c = obs::counter("vitis.xmodel_encodes");
  return c;
}

constexpr std::array<std::uint8_t, 6> kMagic{'X', 'M', 'D', 'L', '1', '\0'};
constexpr std::uint16_t kVersion = 1;

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFF));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 24) & 0xFF));
}

void put_string(std::vector<std::uint8_t>& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

std::uint16_t get_u16(std::span<const std::uint8_t> blob, std::size_t& pos) {
  if (pos + 2 > blob.size()) throw std::invalid_argument("xmodel: truncated u16");
  const std::uint16_t v = static_cast<std::uint16_t>(
      blob[pos] | (static_cast<std::uint16_t>(blob[pos + 1]) << 8));
  pos += 2;
  return v;
}

std::uint32_t get_u32(std::span<const std::uint8_t> blob, std::size_t& pos) {
  if (pos + 4 > blob.size()) throw std::invalid_argument("xmodel: truncated u32");
  const std::uint32_t v = static_cast<std::uint32_t>(blob[pos]) |
                          (static_cast<std::uint32_t>(blob[pos + 1]) << 8) |
                          (static_cast<std::uint32_t>(blob[pos + 2]) << 16) |
                          (static_cast<std::uint32_t>(blob[pos + 3]) << 24);
  pos += 4;
  return v;
}

std::string get_string(std::span<const std::uint8_t> blob, std::size_t& pos) {
  const std::uint32_t len = get_u32(blob, pos);
  if (len > blob.size() || pos + len > blob.size()) {
    throw std::invalid_argument("xmodel: truncated string");
  }
  std::string s{blob.begin() + static_cast<std::ptrdiff_t>(pos),
                blob.begin() + static_cast<std::ptrdiff_t>(pos + len)};
  pos += len;
  return s;
}

}  // namespace

XModel::XModel(std::string name, std::string framework, TensorShape input_shape,
               std::vector<std::string> aux_strings,
               std::vector<std::unique_ptr<Layer>> layers)
    : XModel{std::move(name), std::move(framework), input_shape,
             std::move(aux_strings), std::move(layers), {}} {
  encoded_ = encode();
}

XModel::XModel(std::string name, std::string framework, TensorShape input_shape,
               std::vector<std::string> aux_strings,
               std::vector<std::unique_ptr<Layer>> layers,
               std::vector<std::uint8_t> encoded)
    : name_{std::move(name)},
      framework_{std::move(framework)},
      input_shape_{input_shape},
      aux_strings_{std::move(aux_strings)},
      layers_{std::move(layers)},
      encoded_{std::move(encoded)} {
  if (name_.empty()) throw std::invalid_argument("XModel: empty name");
  if (layers_.empty()) throw std::invalid_argument("XModel: no layers");
  // Validate the layer chain composes.
  TensorShape s = input_shape_;
  for (const auto& layer : layers_) s = layer->output_shape(s);
}

std::string XModel::install_path() const {
  return "/usr/share/vitis_ai_library/models/" + name_ + "/" + name_ + ".xmodel";
}

std::size_t XModel::param_bytes() const noexcept {
  std::size_t total = 0;
  for (const auto& layer : layers_) total += layer->param_bytes();
  return total;
}

std::uint32_t XModel::num_classes() const {
  TensorShape s = input_shape_;
  for (const auto& layer : layers_) s = layer->output_shape(s);
  return s.c;
}

std::vector<float> XModel::infer(const Tensor& input) const {
  if (!(input.shape() == input_shape_)) {
    throw std::invalid_argument("XModel::infer: input shape mismatch");
  }
  Tensor t = input;
  for (const auto& layer : layers_) t = layer->forward(t);
  return softmax(t);
}

std::vector<std::uint8_t> XModel::encode() const {
  encodes_metric().add();
  // Range-construct rather than insert into an empty vector: GCC 12's
  // -Wstringop-overflow misfires on the latter at -O2 and the build is
  // warning-clean under -Werror.
  std::vector<std::uint8_t> out(kMagic.begin(), kMagic.end());
  put_u16(out, kVersion);
  put_string(out, name_);
  put_string(out, framework_);
  put_u32(out, static_cast<std::uint32_t>(aux_strings_.size()));
  for (const auto& s : aux_strings_) put_string(out, s);
  put_u32(out, input_shape_.c);
  put_u32(out, input_shape_.h);
  put_u32(out, input_shape_.w);
  put_u32(out, static_cast<std::uint32_t>(layers_.size()));
  for (const auto& layer : layers_) layer->serialize(out);
  put_u32(out, util::crc32(out));
  return out;
}

XModel XModel::deserialize_at(std::span<const std::uint8_t> blob,
                              std::size_t offset, std::size_t* consumed) {
  std::size_t pos = offset;
  if (blob.size() < offset || blob.size() - offset < kMagic.size() + 2 + 4) {
    throw std::invalid_argument("xmodel: too short");
  }
  for (const std::uint8_t m : kMagic) {
    if (blob[pos++] != m) throw std::invalid_argument("xmodel: bad magic");
  }
  const std::uint16_t version = get_u16(blob, pos);
  if (version != kVersion) throw std::invalid_argument("xmodel: bad version");

  std::string name = get_string(blob, pos);
  std::string framework = get_string(blob, pos);
  const std::uint32_t n_aux = get_u32(blob, pos);
  if (n_aux > 1024) throw std::invalid_argument("xmodel: implausible aux count");
  std::vector<std::string> aux;
  aux.reserve(n_aux);
  for (std::uint32_t i = 0; i < n_aux; ++i) aux.push_back(get_string(blob, pos));
  TensorShape in_shape;
  in_shape.c = get_u32(blob, pos);
  in_shape.h = get_u32(blob, pos);
  in_shape.w = get_u32(blob, pos);
  const std::uint32_t n_layers = get_u32(blob, pos);
  if (n_layers > 1024) throw std::invalid_argument("xmodel: implausible layer count");
  std::vector<std::unique_ptr<Layer>> layers;
  layers.reserve(n_layers);
  for (std::uint32_t i = 0; i < n_layers; ++i) {
    layers.push_back(deserialize_layer(blob, pos));
  }

  // The container ends with a CRC-32 over everything since `offset`.
  const std::uint32_t stored_crc = get_u32(blob, pos);
  const std::uint32_t computed =
      util::crc32(blob.subspan(offset, pos - 4 - offset));
  if (stored_crc != computed) throw std::invalid_argument("xmodel: CRC mismatch");

  if (consumed) *consumed = pos - offset;
  std::vector<std::uint8_t> encoded(
      blob.begin() + static_cast<std::ptrdiff_t>(offset),
      blob.begin() + static_cast<std::ptrdiff_t>(pos));
  return XModel{std::move(name), std::move(framework), in_shape,
                std::move(aux),  std::move(layers),    std::move(encoded)};
}

XModel XModel::deserialize(const std::vector<std::uint8_t>& blob) {
  std::size_t consumed = 0;
  XModel m = deserialize_at(blob, 0, &consumed);
  if (consumed != blob.size()) {
    throw std::invalid_argument("xmodel: trailing bytes");
  }
  return m;
}

const std::array<std::uint8_t, 6>& XModel::magic() noexcept { return kMagic; }

}  // namespace msa::vitis
