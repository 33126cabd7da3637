#include "vitis/tensor.h"

#include <stdexcept>

namespace msa::vitis {

Tensor::Tensor(TensorShape shape, std::int8_t fill) : shape_{shape} {
  if (shape.volume() == 0) throw std::invalid_argument("Tensor: empty shape");
  data_.assign(shape.volume(), fill);
}

Tensor tensor_from_image(const img::Image& image) {
  const std::uint32_t h = image.height();
  const std::uint32_t w = image.width();
  Tensor t{TensorShape{3, h, w}};
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  const img::Rgb* src = image.pixels().data();
  std::int8_t* r = t.data().data();
  std::int8_t* g = r + plane;
  std::int8_t* b = g + plane;
  for (std::size_t i = 0; i < plane; ++i) {
    r[i] = static_cast<std::int8_t>(static_cast<int>(src[i].r) - 128);
    g[i] = static_cast<std::int8_t>(static_cast<int>(src[i].g) - 128);
    b[i] = static_cast<std::int8_t>(static_cast<int>(src[i].b) - 128);
  }
  return t;
}

Tensor tensor_from_rgb_bytes(std::span<const std::uint8_t> rgb,
                             std::uint32_t src_w, std::uint32_t src_h,
                             std::uint32_t out_w, std::uint32_t out_h) {
  // The messages of the Image steps this pass replaces.
  if (rgb.size() < static_cast<std::size_t>(src_w) * src_h * 3) {
    throw std::invalid_argument("Image::from_rgb_bytes: not enough bytes");
  }
  if (src_w == 0 || src_h == 0 || out_w == 0 || out_h == 0) {
    throw std::invalid_argument("Image: zero dimension");
  }
  Tensor t{TensorShape{3, out_h, out_w}};
  const std::size_t plane = static_cast<std::size_t>(out_h) * out_w;
  // Byte offset of each output column's source pixel within a row: the
  // same x * src_w / out_w as resize_nearest, divided once per column.
  std::vector<std::size_t> cols(out_w);
  for (std::uint32_t x = 0; x < out_w; ++x) {
    cols[x] = 3 * static_cast<std::size_t>(
                      static_cast<std::uint64_t>(x) * src_w / out_w);
  }
  for (std::uint32_t y = 0; y < out_h; ++y) {
    const std::uint64_t sy = static_cast<std::uint64_t>(y) * src_h / out_h;
    const std::uint8_t* row = rgb.data() + sy * src_w * 3;
    std::int8_t* r = t.data().data() + std::size_t{y} * out_w;
    std::int8_t* g = r + plane;
    std::int8_t* b = g + plane;
    for (std::uint32_t x = 0; x < out_w; ++x) {
      const std::uint8_t* p = row + cols[x];
      r[x] = static_cast<std::int8_t>(static_cast<int>(p[0]) - 128);
      g[x] = static_cast<std::int8_t>(static_cast<int>(p[1]) - 128);
      b[x] = static_cast<std::int8_t>(static_cast<int>(p[2]) - 128);
    }
  }
  return t;
}

}  // namespace msa::vitis
