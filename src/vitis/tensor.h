// Quantized (int8) CHW tensor, the data type our DPU-analogue inference
// engine computes on. The Vitis-AI DPU is an int8 accelerator; modelling
// that keeps staged weight/activation buffers byte-comparable with what a
// real deployment would leave in DRAM.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "img/image.h"

namespace msa::vitis {

struct TensorShape {
  std::uint32_t c = 0;
  std::uint32_t h = 0;
  std::uint32_t w = 0;

  [[nodiscard]] std::size_t volume() const noexcept {
    return static_cast<std::size_t>(c) * h * w;
  }
  bool operator==(const TensorShape&) const = default;
};

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(TensorShape shape, std::int8_t fill = 0);

  [[nodiscard]] const TensorShape& shape() const noexcept { return shape_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }

  // at/set stay bounds-checked but live in the header: inference kernels
  // used to spend a double-digit share of a trial on out-of-line calls
  // to these two accessors (billions of calls per sweep).
  [[nodiscard]] std::int8_t at(std::uint32_t c, std::uint32_t y,
                               std::uint32_t x) const {
    if (c >= shape_.c || y >= shape_.h || x >= shape_.w) {
      throw std::out_of_range("Tensor::at");
    }
    return data_[(static_cast<std::size_t>(c) * shape_.h + y) * shape_.w + x];
  }
  void set(std::uint32_t c, std::uint32_t y, std::uint32_t x, std::int8_t v) {
    if (c >= shape_.c || y >= shape_.h || x >= shape_.w) {
      throw std::out_of_range("Tensor::set");
    }
    data_[(static_cast<std::size_t>(c) * shape_.h + y) * shape_.w + x] = v;
  }

  [[nodiscard]] const std::vector<std::int8_t>& data() const noexcept {
    return data_;
  }
  [[nodiscard]] std::vector<std::int8_t>& data() noexcept { return data_; }

 private:
  TensorShape shape_;
  std::vector<std::int8_t> data_;
};

/// Quantizes an RGB image to a 3xHxW int8 tensor: channel value v maps to
/// v - 128 (symmetric zero-point), matching typical DPU preprocessing.
[[nodiscard]] Tensor tensor_from_image(const img::Image& image);

/// The runtime's whole input preprocessing in one pass over row-major
/// RGB888 bytes of a src_w x src_h image: nearest-neighbour resize to
/// out_w x out_h and the quantization above. Equal to
/// tensor_from_image(resize_nearest(Image::from_rgb_bytes(rgb, src_w,
/// src_h), out_w, out_h)), and throws the std::invalid_argument that
/// would: too few bytes, or a zero dimension.
[[nodiscard]] Tensor tensor_from_rgb_bytes(std::span<const std::uint8_t> rgb,
                                           std::uint32_t src_w,
                                           std::uint32_t src_h,
                                           std::uint32_t out_w,
                                           std::uint32_t out_h);

}  // namespace msa::vitis
