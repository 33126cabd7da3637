#include "img/image.h"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "img/score_kernels.h"

namespace msa::img {

Image::Image(std::uint32_t width, std::uint32_t height, Rgb fill)
    : width_{width}, height_{height} {
  if (width == 0 || height == 0) {
    throw std::invalid_argument("Image: zero dimension");
  }
  pixels_.assign(static_cast<std::size_t>(width) * height, fill);
}

Rgb& Image::at(std::uint32_t x, std::uint32_t y) {
  if (x >= width_ || y >= height_) throw std::out_of_range("Image::at");
  return pixels_[static_cast<std::size_t>(y) * width_ + x];
}

const Rgb& Image::at(std::uint32_t x, std::uint32_t y) const {
  if (x >= width_ || y >= height_) throw std::out_of_range("Image::at");
  return pixels_[static_cast<std::size_t>(y) * width_ + x];
}

std::vector<std::uint32_t> Image::to_words() const {
  std::vector<std::uint32_t> out;
  out.reserve(pixels_.size());
  for (const Rgb& p : pixels_) out.push_back(p.packed());
  return out;
}

Image Image::from_words(std::span<const std::uint32_t> words,
                        std::uint32_t width, std::uint32_t height) {
  if (words.size() < static_cast<std::size_t>(width) * height) {
    throw std::invalid_argument("Image::from_words: not enough words");
  }
  Image img{width, height};
  for (std::size_t i = 0; i < img.pixels_.size(); ++i) {
    img.pixels_[i] = Rgb::from_packed(words[i]);
  }
  return img;
}

Image Image::from_rgb_bytes(std::span<const std::uint8_t> bytes,
                            std::uint32_t width, std::uint32_t height) {
  if (bytes.size() < static_cast<std::size_t>(width) * height * 3) {
    throw std::invalid_argument("Image::from_rgb_bytes: not enough bytes");
  }
  Image img{width, height};
  std::memcpy(img.pixels_.data(), bytes.data(), img.pixels_.size() * 3);
  return img;
}

void Image::fill_region(Rgb pixel, double fraction) {
  if (fraction <= 0.0) return;
  if (fraction > 1.0) fraction = 1.0;
  const std::size_t count =
      static_cast<std::size_t>(fraction * static_cast<double>(pixels_.size()));
  for (std::size_t i = 0; i < count; ++i) pixels_[i] = pixel;
}

Image make_test_image(std::uint32_t width, std::uint32_t height,
                      std::uint64_t seed) {
  Image img{width, height};
  util::Prng prng{seed};
  // Low-frequency gradients give the image structure; PRNG noise gives it
  // texture so reconstruction errors are visible in metrics.
  const double fx = 255.0 / static_cast<double>(width);
  const double fy = 255.0 / static_cast<double>(height);
  Rgb* px = img.pixels().data();
  for (std::uint32_t y = 0; y < height; ++y) {
    Rgb* row = px + static_cast<std::size_t>(y) * width;
    for (std::uint32_t x = 0; x < width; ++x) {
      const auto noise = static_cast<std::uint8_t>(prng.below(32));
      Rgb p;
      p.r = static_cast<std::uint8_t>(
          std::min(255.0, x * fx * 0.8 + noise));
      p.g = static_cast<std::uint8_t>(
          std::min(255.0, y * fy * 0.8 + noise));
      p.b = static_cast<std::uint8_t>(
          std::min(255.0, (x * fx + y * fy) * 0.4 + noise));
      row[x] = p;
    }
  }
  return img;
}

Image resize_nearest(const Image& src, std::uint32_t width, std::uint32_t height) {
  Image out{width, height};
  const Rgb* sp = src.pixels().data();
  Rgb* dp = out.pixels().data();
  for (std::uint32_t y = 0; y < height; ++y) {
    const std::uint32_t sy = static_cast<std::uint32_t>(
        static_cast<std::uint64_t>(y) * src.height() / height);
    const Rgb* srow = sp + static_cast<std::size_t>(sy) * src.width();
    Rgb* drow = dp + static_cast<std::size_t>(y) * width;
    for (std::uint32_t x = 0; x < width; ++x) {
      const std::uint32_t sx = static_cast<std::uint32_t>(
          static_cast<std::uint64_t>(x) * src.width() / width);
      drow[x] = srow[sx];
    }
  }
  return out;
}

double pixel_match_fraction(const Image& a, const Image& b) {
  if (a.width() != b.width() || a.height() != b.height() || a.empty()) {
    return 0.0;
  }
  const std::size_t same = detail::match_count(
      a.rgb_bytes().data(), b.rgb_bytes().data(), a.pixel_count());
  return static_cast<double>(same) / static_cast<double>(a.pixel_count());
}

double psnr_db(const Image& a, const Image& b) {
  if (a.width() != b.width() || a.height() != b.height() || a.empty()) {
    return -1.0;
  }
  // The u64 total of squared byte differences is <= 195075 * pixels,
  // far below 2^53 for any image we handle, so the double conversion is
  // exact and matches the old double-accumulation loop bit for bit.
  const std::span<const std::uint8_t> ba = a.rgb_bytes();
  const std::uint64_t se =
      detail::squared_error(ba.data(), b.rgb_bytes().data(), ba.size());
  const double mse = static_cast<double>(se) / static_cast<double>(ba.size());
  if (mse == 0.0) return 99.0;
  return 10.0 * std::log10(255.0 * 255.0 / mse);
}

}  // namespace msa::img
