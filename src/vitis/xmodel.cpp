#include "vitis/xmodel.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string_view>

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

std::string_view get_string(util::ByteReader& in) {
  const std::span<const std::uint8_t> s = in.bytes(in.u32());
  return {reinterpret_cast<const char*>(s.data()), s.size()};
}

TensorShape shape_after(const std::unique_ptr<Layer>& layer,
                        const TensorShape& in) {
  return layer->output_shape(in);
}

TensorShape shape_after(const LayerRecord& layer, const TensorShape& in) {
  return layer.output_shape(in);
}

/// What every model satisfies, built or parsed: a name, at least one
/// layer, and a layer chain that composes from the input shape.
template <typename Layers>
void check_model(std::string_view name, TensorShape shape, const Layers& layers) {
  if (name.empty()) throw std::invalid_argument("XModel: empty name");
  if (layers.empty()) throw std::invalid_argument("XModel: no layers");
  for (const auto& layer : layers) shape = shape_after(layer, shape);
}

/// A container read and checked in full, as views into its bytes.
struct Container {
  std::span<const std::uint8_t> bytes;  ///< the whole container, CRC included
  std::string_view name;
  std::string_view framework;
  std::vector<std::string_view> aux;
  TensorShape input;
  std::vector<LayerRecord> layers;
};

/// The one container parser: reads the container at blob[offset] and
/// makes every check a parsed model must pass, building nothing.
Container read_container(std::span<const std::uint8_t> blob, std::size_t offset) {
  if (offset > blob.size()) throw std::invalid_argument("xmodel: too short");
  const std::span<const std::uint8_t> at = blob.subspan(offset);
  util::ByteReader in{at};
  if (!std::ranges::equal(in.bytes(kMagic.size()), kMagic)) {
    throw std::invalid_argument("xmodel: bad magic");
  }
  if (in.u16() != kVersion) throw std::invalid_argument("xmodel: bad version");

  Container c;
  c.name = get_string(in);
  c.framework = get_string(in);
  const std::uint32_t n_aux = in.u32();
  if (n_aux > 1024) throw std::invalid_argument("xmodel: implausible aux count");
  c.aux.reserve(n_aux);
  for (std::uint32_t i = 0; i < n_aux; ++i) c.aux.push_back(get_string(in));
  c.input.c = in.u32();
  c.input.h = in.u32();
  c.input.w = in.u32();
  const std::uint32_t n_layers = in.u32();
  if (n_layers > 1024) throw std::invalid_argument("xmodel: implausible layer count");
  c.layers.reserve(n_layers);
  for (std::uint32_t i = 0; i < n_layers; ++i) c.layers.push_back(read_layer(in));

  // The container ends with a CRC-32 over everything before it.
  const std::size_t body = in.position();
  if (in.u32() != util::crc32(at.first(body))) {
    throw std::invalid_argument("xmodel: CRC mismatch");
  }
  c.bytes = at.first(in.position());
  check_model(c.name, c.input, c.layers);
  return c;
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
  check_model(name_, input_shape_, layers_);
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
  const Container c = read_container(blob, offset);
  std::vector<std::unique_ptr<Layer>> layers;
  layers.reserve(c.layers.size());
  for (const LayerRecord& r : c.layers) layers.push_back(make_layer(r));
  if (consumed) *consumed = c.bytes.size();
  return XModel{std::string{c.name},
                std::string{c.framework},
                c.input,
                {c.aux.begin(), c.aux.end()},
                std::move(layers),
                {c.bytes.begin(), c.bytes.end()}};
}

ContainerProbe XModel::probe_at(std::span<const std::uint8_t> blob,
                                std::size_t offset) {
  const Container c = read_container(blob, offset);
  ContainerProbe probe{std::string{c.name}, 0, c.bytes.size()};
  for (const LayerRecord& r : c.layers) probe.param_bytes += r.param_bytes();
  return probe;
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
