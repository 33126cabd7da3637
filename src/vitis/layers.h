// Quantized inference layers: int8 weights/activations with int32
// accumulation and a per-layer right-shift requantization (0..31), the
// standard fixed-point scheme DPU-class accelerators use.
//
// Conv2d runs as a pixel-lane int16 GEMM. Its weights are packed once,
// at construction, as (w[2q], w[2q+1]) tap pairs per output channel;
// forward() gathers each block of 8 output pixels' patches into a
// [pair][pixel][2] int16 column (padding read as zeros) and multiplies it
// against 4 output channels at a time in registers, then requantizes the
// 4x8 block into one 8-byte store per output plane. Its scratch is
// thread_local, so forward() stays const and one layer may run on many
// threads at once. Dense is a 1x1 Conv2d on its input viewed as [in,1,1]
// and runs through the same packing and block kernel: there is no second
// GEMM. MaxPool2d takes column then row maxima with a vector byte max.
// The kernels dispatch on util::simd_level(): every one has an SSE2 form
// at the sse2 level and above, and the conv block kernel also an AVX2
// form at avx2 (one 256-bit column load and four vpmaddwd per tap pair,
// one 8-lane accumulator per channel). A scalar loop is the fallback
// (and the only path elsewhere, AArch64 and -DMSA_ENABLE_SIMD=OFF
// included); integer arithmetic is exact in any order, so every level
// yields bit-identical outputs.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/bytes.h"
#include "vitis/tensor.h"

namespace msa::vitis {

enum class LayerKind : std::uint8_t {
  kConv2d = 1,
  kMaxPool2d = 2,
  kGlobalAvgPool = 3,
  kDense = 4,
};

class Layer {
 public:
  virtual ~Layer() = default;

  [[nodiscard]] virtual LayerKind kind() const noexcept = 0;
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual TensorShape output_shape(const TensorShape& in) const = 0;
  [[nodiscard]] virtual Tensor forward(const Tensor& in) const = 0;
  /// Bytes of parameters (weights + biases) this layer stages into DRAM.
  [[nodiscard]] virtual std::size_t param_bytes() const noexcept = 0;
  /// Appends the layer descriptor + parameters to an xmodel blob.
  virtual void serialize(util::ByteWriter& out) const = 0;
};

class Conv2d final : public Layer {
 public:
  /// Weights are laid out [out_c][in_c][k][k]; bias per out channel.
  /// Throws std::invalid_argument on a zero kernel or stride, a
  /// parameter count that does not match, or requant_shift > 31.
  Conv2d(std::uint32_t in_c, std::uint32_t out_c, std::uint32_t k,
         std::uint32_t stride, std::uint32_t pad, bool relu,
         std::uint32_t requant_shift, std::vector<std::int8_t> weights,
         std::vector<std::int32_t> bias);

  [[nodiscard]] LayerKind kind() const noexcept override {
    return LayerKind::kConv2d;
  }
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] TensorShape output_shape(const TensorShape& in) const override;
  [[nodiscard]] Tensor forward(const Tensor& in) const override;
  [[nodiscard]] std::size_t param_bytes() const noexcept override;
  void serialize(util::ByteWriter& out) const override;

  [[nodiscard]] const std::vector<std::int8_t>& weights() const noexcept {
    return weights_;
  }
  [[nodiscard]] const std::vector<std::int32_t>& bias() const noexcept {
    return bias_;
  }

 private:
  friend class Dense;

  /// forward() without its trace span, on CHW data of shape `ish` at `src`.
  [[nodiscard]] Tensor run(const std::int8_t* src, const TensorShape& ish) const;

  std::uint32_t in_c_, out_c_, k_, stride_, pad_;
  bool relu_;
  std::uint32_t requant_shift_;
  std::vector<std::int8_t> weights_;
  std::vector<std::int32_t> bias_;
  std::size_t pairs_ = 0;             ///< ceil(in_c*k*k / 2) tap pairs
  /// [ceil(out_c/4)][pairs_][4][2]: tap pairs of 4 channels side by side,
  /// zero padded past the patch and past out_c.
  std::vector<std::int16_t> packed_;
};

class MaxPool2d final : public Layer {
 public:
  MaxPool2d(std::uint32_t k, std::uint32_t stride);

  [[nodiscard]] LayerKind kind() const noexcept override {
    return LayerKind::kMaxPool2d;
  }
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] TensorShape output_shape(const TensorShape& in) const override;
  [[nodiscard]] Tensor forward(const Tensor& in) const override;
  [[nodiscard]] std::size_t param_bytes() const noexcept override { return 0; }
  void serialize(util::ByteWriter& out) const override;

 private:
  std::uint32_t k_, stride_;
};

class GlobalAvgPool final : public Layer {
 public:
  [[nodiscard]] LayerKind kind() const noexcept override {
    return LayerKind::kGlobalAvgPool;
  }
  [[nodiscard]] std::string name() const override { return "global_avg_pool"; }
  [[nodiscard]] TensorShape output_shape(const TensorShape& in) const override;
  [[nodiscard]] Tensor forward(const Tensor& in) const override;
  [[nodiscard]] std::size_t param_bytes() const noexcept override { return 0; }
  void serialize(util::ByteWriter& out) const override;
};

class Dense final : public Layer {
 public:
  /// Takes any input of volume `in`, read as [in,1,1]; weights
  /// [out][in], bias per output. Throws std::invalid_argument on a
  /// parameter count that does not match or requant_shift > 31.
  Dense(std::uint32_t in, std::uint32_t out, bool relu,
        std::uint32_t requant_shift, std::vector<std::int8_t> weights,
        std::vector<std::int32_t> bias);

  [[nodiscard]] LayerKind kind() const noexcept override {
    return LayerKind::kDense;
  }
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] TensorShape output_shape(const TensorShape& in) const override;
  [[nodiscard]] Tensor forward(const Tensor& in) const override;
  [[nodiscard]] std::size_t param_bytes() const noexcept override;
  void serialize(util::ByteWriter& out) const override;

 private:
  Conv2d conv_;  ///< in -> out, k=1, stride 1, no padding
};

/// One serialized layer as a container holds it: its fields, and views
/// of its parameter bytes in the container (valid while those bytes are).
struct LayerRecord {
  LayerKind kind{};
  std::uint32_t in_c = 0;   ///< Dense: input volume
  std::uint32_t out_c = 0;  ///< Dense: outputs
  std::uint32_t k = 0;
  std::uint32_t stride = 0;
  std::uint32_t pad = 0;
  bool relu = false;
  std::uint32_t shift = 0;
  std::span<const std::uint8_t> weights;  ///< int8 each
  std::span<const std::uint8_t> bias;     ///< little-endian int32 each

  /// The built layer's output_shape(), with the same checks.
  [[nodiscard]] TensorShape output_shape(const TensorShape& in) const;
  /// The built layer's param_bytes().
  [[nodiscard]] std::size_t param_bytes() const noexcept {
    return weights.size() + bias.size();
  }
};

/// Reads one serialized layer (inverse of Layer::serialize) and makes
/// every check its constructor would, in the same order, without
/// building it. Throws std::invalid_argument on malformed input.
[[nodiscard]] LayerRecord read_layer(util::ByteReader& in);

/// Builds the layer a read_layer() record describes.
[[nodiscard]] std::unique_ptr<Layer> make_layer(const LayerRecord& record);

/// make_layer(read_layer(in)).
[[nodiscard]] std::unique_ptr<Layer> deserialize_layer(util::ByteReader& in);

/// Softmax over a [C,1,1] logits tensor -> probabilities.
[[nodiscard]] std::vector<float> softmax(const Tensor& logits);

}  // namespace msa::vitis
