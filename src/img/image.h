// RGB888 image type plus the manipulations the paper's experiment uses:
// corrupting an image to the 0xFFFFFF sentinel (Fig. 4), filling with the
// 0x555555 profiling marker, and similarity metrics for judging how much
// of the victim's input the attack reconstructed.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/prng.h"

namespace msa::img {

/// Three packed bytes, so a pixel array is its RGB888 byte stream.
struct Rgb {
  std::uint8_t r = 0;
  std::uint8_t g = 0;
  std::uint8_t b = 0;

  bool operator==(const Rgb&) const = default;

  /// 0x00RRGGBB packing — the 32-bit word layout the runtime stages into
  /// DRAM, and what a devmem read of a pixel returns.
  [[nodiscard]] std::uint32_t packed() const noexcept {
    return (static_cast<std::uint32_t>(r) << 16) |
           (static_cast<std::uint32_t>(g) << 8) | b;
  }
  [[nodiscard]] static Rgb from_packed(std::uint32_t w) noexcept {
    return Rgb{static_cast<std::uint8_t>((w >> 16) & 0xFF),
               static_cast<std::uint8_t>((w >> 8) & 0xFF),
               static_cast<std::uint8_t>(w & 0xFF)};
  }
};

static_assert(sizeof(Rgb) == 3);

/// The corrupted-image sentinel the paper writes over the input (Fig. 4b).
inline constexpr Rgb kCorruptPixel{0xFF, 0xFF, 0xFF};
/// The offline-profiling marker (paper Step 4.b: "changing pixel values to
/// 0x555555").
inline constexpr Rgb kProfilingPixel{0x55, 0x55, 0x55};

class Image {
 public:
  Image() = default;
  Image(std::uint32_t width, std::uint32_t height, Rgb fill = {});

  [[nodiscard]] std::uint32_t width() const noexcept { return width_; }
  [[nodiscard]] std::uint32_t height() const noexcept { return height_; }
  [[nodiscard]] std::size_t pixel_count() const noexcept { return pixels_.size(); }
  [[nodiscard]] bool empty() const noexcept { return pixels_.empty(); }

  [[nodiscard]] Rgb& at(std::uint32_t x, std::uint32_t y);
  [[nodiscard]] const Rgb& at(std::uint32_t x, std::uint32_t y) const;

  [[nodiscard]] std::span<const Rgb> pixels() const noexcept { return pixels_; }
  [[nodiscard]] std::span<Rgb> pixels() noexcept { return pixels_; }

  /// Row-major packed 0x00RRGGBB words (one pixel per 32-bit word).
  [[nodiscard]] std::vector<std::uint32_t> to_words() const;
  [[nodiscard]] static Image from_words(std::span<const std::uint32_t> words,
                                        std::uint32_t width, std::uint32_t height);

  /// Row-major raw RGB888 bytes (3 bytes per pixel, no padding) — the
  /// in-memory form the victim's runtime stages into its heap. A fully
  /// corrupted (0xFFFFFF) image therefore reads back as unbroken FF bytes,
  /// reproducing the "FFFF FFFF" rows in the paper's Fig. 12 hexdump.
  /// rgb_bytes() is a view of the pixels themselves; to_rgb_bytes() copies.
  [[nodiscard]] std::span<const std::uint8_t> rgb_bytes() const noexcept {
    return {reinterpret_cast<const std::uint8_t*>(pixels_.data()),
            pixels_.size() * 3};
  }
  [[nodiscard]] std::vector<std::uint8_t> to_rgb_bytes() const {
    return {rgb_bytes().begin(), rgb_bytes().end()};
  }
  [[nodiscard]] static Image from_rgb_bytes(std::span<const std::uint8_t> bytes,
                                            std::uint32_t width,
                                            std::uint32_t height);

  /// Overwrites a fraction of the image (top rows) with `pixel`. The paper
  /// corrupts ~the whole input but displays only ~80 % of it; fraction=1.0
  /// reproduces the experiment, smaller fractions support partial-corruption
  /// sweeps.
  void fill_region(Rgb pixel, double fraction = 1.0);

  bool operator==(const Image&) const = default;

 private:
  std::uint32_t width_ = 0;
  std::uint32_t height_ = 0;
  std::vector<Rgb> pixels_;
};

/// Deterministic synthetic "photograph": smooth gradients plus PRNG
/// texture, seeded — used as the victim's input everywhere the real
/// experiment used Xilinx's sample JPEG.
[[nodiscard]] Image make_test_image(std::uint32_t width, std::uint32_t height,
                                    std::uint64_t seed);

/// Nearest-neighbour resize (the runtime's input preprocessing step).
[[nodiscard]] Image resize_nearest(const Image& src, std::uint32_t width,
                                   std::uint32_t height);

/// Fraction of pixels identical between two equally sized images; 0 for
/// size mismatch.
[[nodiscard]] double pixel_match_fraction(const Image& a, const Image& b);

/// PSNR in dB between equally sized images (infinity -> returned as 99.0
/// sentinel for identical images). Returns negative value on size mismatch.
[[nodiscard]] double psnr_db(const Image& a, const Image& b);

}  // namespace msa::img
