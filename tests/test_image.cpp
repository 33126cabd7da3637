#include "img/image.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/crc32.h"

namespace msa::img {
namespace {

TEST(Rgb, PackedRoundTrip) {
  const Rgb p{0x12, 0x34, 0x56};
  EXPECT_EQ(p.packed(), 0x123456u);
  EXPECT_EQ(Rgb::from_packed(0x123456), p);
}

TEST(Rgb, SentinelValues) {
  EXPECT_EQ(kCorruptPixel.packed(), 0xFFFFFFu);
  EXPECT_EQ(kProfilingPixel.packed(), 0x555555u);
}

TEST(Image, ConstructionAndFill) {
  Image img{4, 3, Rgb{1, 2, 3}};
  EXPECT_EQ(img.width(), 4u);
  EXPECT_EQ(img.height(), 3u);
  EXPECT_EQ(img.pixel_count(), 12u);
  EXPECT_EQ(img.at(3, 2), (Rgb{1, 2, 3}));
}

TEST(Image, ZeroDimensionThrows) {
  EXPECT_THROW((Image{0, 5}), std::invalid_argument);
  EXPECT_THROW((Image{5, 0}), std::invalid_argument);
}

TEST(Image, AtOutOfRangeThrows) {
  Image img{2, 2};
  EXPECT_THROW((void)img.at(2, 0), std::out_of_range);
  EXPECT_THROW((void)img.at(0, 2), std::out_of_range);
}

TEST(Image, RgbBytesRoundTrip) {
  const Image img = make_test_image(7, 5, 3);
  const auto bytes = img.to_rgb_bytes();
  EXPECT_EQ(bytes.size(), 7u * 5 * 3);
  EXPECT_EQ(Image::from_rgb_bytes(bytes, 7, 5), img);
}

TEST(Image, RgbBytesOrderIsRGB) {
  Image img{1, 1, Rgb{0xAA, 0xBB, 0xCC}};
  const auto bytes = img.to_rgb_bytes();
  EXPECT_EQ(bytes[0], 0xAA);
  EXPECT_EQ(bytes[1], 0xBB);
  EXPECT_EQ(bytes[2], 0xCC);
}

TEST(Image, FromRgbBytesTooShortThrows) {
  std::vector<std::uint8_t> bytes(10);
  EXPECT_THROW(Image::from_rgb_bytes(bytes, 2, 2), std::invalid_argument);
}

TEST(Image, WordsRoundTrip) {
  const Image img = make_test_image(6, 6, 11);
  EXPECT_EQ(Image::from_words(img.to_words(), 6, 6), img);
}

TEST(Image, CorruptedImageIsAllFF) {
  // The paper's Fig. 4 corruption: pixels become 0xFFFFFF, so the raw
  // bytes staged to DRAM become an unbroken FF run.
  Image img = make_test_image(8, 8, 1);
  img.fill_region(kCorruptPixel, 1.0);
  for (const std::uint8_t b : img.to_rgb_bytes()) EXPECT_EQ(b, 0xFF);
}

TEST(Image, PartialFillRegion) {
  Image img{10, 10, Rgb{0, 0, 0}};
  img.fill_region(Rgb{9, 9, 9}, 0.2);
  std::size_t filled = 0;
  for (const Rgb& p : img.pixels()) {
    if (p == Rgb{9, 9, 9}) ++filled;
  }
  EXPECT_EQ(filled, 20u);
}

TEST(Image, FillRegionClampsFraction) {
  Image img{2, 2, Rgb{1, 1, 1}};
  img.fill_region(Rgb{2, 2, 2}, 5.0);
  for (const Rgb& p : img.pixels()) EXPECT_EQ(p, (Rgb{2, 2, 2}));
  img.fill_region(Rgb{3, 3, 3}, -1.0);
  for (const Rgb& p : img.pixels()) EXPECT_EQ(p, (Rgb{2, 2, 2}));
}

TEST(TestImage, DeterministicPerSeed) {
  EXPECT_EQ(make_test_image(16, 16, 5), make_test_image(16, 16, 5));
  EXPECT_NE(make_test_image(16, 16, 5), make_test_image(16, 16, 6));
}

/// make_test_image as first written, in double precision: the
/// definition any faster form (integer or table) must reproduce byte
/// for byte.
Image reference_test_image(std::uint32_t width, std::uint32_t height,
                           std::uint64_t seed) {
  Image img{width, height};
  util::Prng prng{seed};
  const double fx = 255.0 / static_cast<double>(width);
  const double fy = 255.0 / static_cast<double>(height);
  Rgb* px = img.pixels().data();
  for (std::uint32_t y = 0; y < height; ++y) {
    for (std::uint32_t x = 0; x < width; ++x, ++px) {
      const auto noise = static_cast<std::uint8_t>(prng.below(32));
      Rgb& p = *px;
      p.r = static_cast<std::uint8_t>(std::min(255.0, x * fx * 0.8 + noise));
      p.g = static_cast<std::uint8_t>(std::min(255.0, y * fy * 0.8 + noise));
      p.b = static_cast<std::uint8_t>(
          std::min(255.0, (x * fx + y * fy) * 0.4 + noise));
    }
  }
  return img;
}

TEST(Image, MakeTestImageBytesArePinned) {
  // Every size up to 130x130, each at its own seed, plus several seeds
  // at sizes whose gradients hit integers often (divisors of 204).
  for (std::uint32_t w = 1; w <= 130; ++w) {
    for (std::uint32_t h = 1; h <= 130; ++h) {
      const std::uint64_t seed = w * 131 + h;
      ASSERT_EQ(make_test_image(w, h, seed), reference_test_image(w, h, seed))
          << w << "x" << h << " seed " << seed;
    }
  }
  for (const std::uint64_t seed : {1ULL, 7ULL, 0xDEADBEEFULL, ~0ULL}) {
    for (const std::uint32_t side : {1u, 12u, 17u, 51u, 96u, 102u, 128u}) {
      ASSERT_EQ(make_test_image(side, side, seed),
                reference_test_image(side, side, seed))
          << side << "x" << side << " seed " << seed;
    }
  }
  // The victim input of the default scenario geometry.
  EXPECT_EQ(util::crc32(make_test_image(96, 96, 1).to_rgb_bytes()),
            0x66EE8A17u);
}

TEST(Metrics, IdenticalImages) {
  const Image img = make_test_image(12, 12, 2);
  EXPECT_DOUBLE_EQ(pixel_match_fraction(img, img), 1.0);
  EXPECT_DOUBLE_EQ(psnr_db(img, img), 99.0);
}

TEST(Metrics, SizeMismatch) {
  const Image a = make_test_image(4, 4, 1);
  const Image b = make_test_image(5, 5, 1);
  EXPECT_DOUBLE_EQ(pixel_match_fraction(a, b), 0.0);
  EXPECT_LT(psnr_db(a, b), 0.0);
}

TEST(Metrics, PartialMatchFraction) {
  Image a{10, 1, Rgb{0, 0, 0}};
  Image b = a;
  for (std::uint32_t x = 0; x < 5; ++x) b.at(x, 0) = Rgb{1, 1, 1};
  EXPECT_DOUBLE_EQ(pixel_match_fraction(a, b), 0.5);
}

TEST(Metrics, PsnrDecreasesWithDamage) {
  const Image original = make_test_image(16, 16, 3);
  Image slightly = original;
  slightly.at(0, 0) = Rgb{255, 255, 255};
  Image badly = original;
  badly.fill_region(Rgb{255, 255, 255}, 0.5);
  EXPECT_GT(psnr_db(original, slightly), psnr_db(original, badly));
  EXPECT_GT(psnr_db(original, badly), 0.0);
}

TEST(Resize, IdentityWhenSameSize) {
  const Image img = make_test_image(9, 9, 4);
  EXPECT_EQ(resize_nearest(img, 9, 9), img);
}

TEST(Resize, DownscaleSamplesSource) {
  Image img{4, 4, Rgb{0, 0, 0}};
  img.at(0, 0) = Rgb{10, 10, 10};
  const Image half = resize_nearest(img, 2, 2);
  EXPECT_EQ(half.width(), 2u);
  EXPECT_EQ(half.at(0, 0), (Rgb{10, 10, 10}));
}

TEST(Resize, UpscaleReplicates) {
  Image img{2, 1, Rgb{5, 5, 5}};
  img.at(1, 0) = Rgb{7, 7, 7};
  const Image big = resize_nearest(img, 4, 2);
  EXPECT_EQ(big.at(0, 0), (Rgb{5, 5, 5}));
  EXPECT_EQ(big.at(1, 1), (Rgb{5, 5, 5}));
  EXPECT_EQ(big.at(2, 0), (Rgb{7, 7, 7}));
  EXPECT_EQ(big.at(3, 1), (Rgb{7, 7, 7}));
}

}  // namespace
}  // namespace msa::img
