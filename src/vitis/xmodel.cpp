#include "vitis/xmodel.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "obs/metrics.h"
#include "util/bytes.h"
#include "util/crc32.h"

namespace msa::vitis {

namespace {

obs::Counter& encodes_metric() {
  static obs::Counter& c = obs::counter("vitis.xmodel_encodes");
  return c;
}

constexpr std::array<std::uint8_t, 6> kMagic{'X', 'M', 'D', 'L', '1', '\0'};
constexpr std::uint16_t kVersion = 1;

// Strings carry a u32 length, not the codec's varint one.
void put_string(util::ByteWriter& out, const std::string& s) {
  out.u32(static_cast<std::uint32_t>(s.size()));
  out.raw({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
}

std::string get_string(util::ByteReader& in) {
  const std::span<const std::uint8_t> s = in.bytes(in.u32());
  return {s.begin(), s.end()};
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
  util::ByteWriter out;
  // Byte by byte: GCC 12's -Wstringop-overflow misfires at -O3 on a
  // range insert into the empty buffer, and the build is -Werror clean.
  for (const std::uint8_t m : kMagic) out.u8(m);
  out.u16(kVersion);
  put_string(out, name_);
  put_string(out, framework_);
  out.u32(static_cast<std::uint32_t>(aux_strings_.size()));
  for (const auto& s : aux_strings_) put_string(out, s);
  out.u32(input_shape_.c);
  out.u32(input_shape_.h);
  out.u32(input_shape_.w);
  out.u32(static_cast<std::uint32_t>(layers_.size()));
  for (const auto& layer : layers_) layer->serialize(out);
  out.u32(util::crc32(out.bytes()));
  return out.take();
}

XModel XModel::deserialize_at(std::span<const std::uint8_t> blob,
                              std::size_t offset, std::size_t* consumed) {
  if (offset > blob.size()) throw std::invalid_argument("xmodel: too short");
  const std::span<const std::uint8_t> at = blob.subspan(offset);
  util::ByteReader in{at};
  if (!std::ranges::equal(in.bytes(kMagic.size()), kMagic)) {
    throw std::invalid_argument("xmodel: bad magic");
  }
  if (in.u16() != kVersion) throw std::invalid_argument("xmodel: bad version");

  std::string name = get_string(in);
  std::string framework = get_string(in);
  const std::uint32_t n_aux = in.u32();
  if (n_aux > 1024) throw std::invalid_argument("xmodel: implausible aux count");
  std::vector<std::string> aux;
  aux.reserve(n_aux);
  for (std::uint32_t i = 0; i < n_aux; ++i) aux.push_back(get_string(in));
  TensorShape in_shape;
  in_shape.c = in.u32();
  in_shape.h = in.u32();
  in_shape.w = in.u32();
  const std::uint32_t n_layers = in.u32();
  if (n_layers > 1024) throw std::invalid_argument("xmodel: implausible layer count");
  std::vector<std::unique_ptr<Layer>> layers;
  layers.reserve(n_layers);
  for (std::uint32_t i = 0; i < n_layers; ++i) {
    layers.push_back(deserialize_layer(in));
  }

  // The container ends with a CRC-32 over everything before it.
  const std::size_t body = in.position();
  if (in.u32() != util::crc32(at.first(body))) {
    throw std::invalid_argument("xmodel: CRC mismatch");
  }

  if (consumed) *consumed = in.position();
  const std::span<const std::uint8_t> container = at.first(in.position());
  return XModel{std::move(name), std::move(framework), in_shape, std::move(aux),
                std::move(layers), {container.begin(), container.end()}};
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
