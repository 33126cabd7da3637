#include "vitis/layers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>

#include "simd_levels.h"
#include "util/prng.h"

namespace msa::vitis {
namespace {

TEST(Tensor, ShapeAndAccess) {
  Tensor t{TensorShape{2, 3, 4}};
  EXPECT_EQ(t.size(), 24u);
  t.set(1, 2, 3, 42);
  EXPECT_EQ(t.at(1, 2, 3), 42);
  EXPECT_EQ(t.at(0, 0, 0), 0);
}

TEST(Tensor, OutOfRangeThrows) {
  Tensor t{TensorShape{1, 2, 2}};
  EXPECT_THROW((void)t.at(1, 0, 0), std::out_of_range);
  EXPECT_THROW(t.set(0, 2, 0, 1), std::out_of_range);
}

TEST(Tensor, EmptyShapeThrows) {
  EXPECT_THROW((Tensor{TensorShape{0, 4, 4}}), std::invalid_argument);
}

TEST(Tensor, FromImageQuantizes) {
  img::Image im{2, 1};
  im.at(0, 0) = img::Rgb{128, 0, 255};
  im.at(1, 0) = img::Rgb{200, 100, 50};
  const Tensor t = tensor_from_image(im);
  EXPECT_EQ(t.shape(), (TensorShape{3, 1, 2}));
  EXPECT_EQ(t.at(0, 0, 0), 0);      // r=128 -> 0
  EXPECT_EQ(t.at(1, 0, 0), -128);   // g=0 -> -128
  EXPECT_EQ(t.at(2, 0, 0), 127);    // b=255 -> 127
  EXPECT_EQ(t.at(0, 0, 1), 72);     // r=200 -> 72
}

TEST(Tensor, FromRgbBytesEqualsResizeThenQuantize) {
  struct Case {
    std::uint32_t sw, sh, ow, oh;
  };
  const Case cases[] = {
      {5, 3, 13, 11},     // upsample
      {100, 75, 64, 64},  // downsample, non-divisible
      {128, 96, 64, 64},  // downsample, divisible
      {7, 5, 3, 4},       // down in x, up in y
      {64, 64, 64, 64},   // equal size
      {1, 1, 1, 1},
      {1, 1, 5, 7},
      {9, 1, 2, 3},
  };
  for (const Case& c : cases) {
    const img::Image src = img::make_test_image(c.sw, c.sh, c.sw * 31 + c.oh);
    const std::vector<std::uint8_t> rgb = src.to_rgb_bytes();
    const Tensor want = tensor_from_image(img::resize_nearest(
        img::Image::from_rgb_bytes(rgb, c.sw, c.sh), c.ow, c.oh));
    const Tensor got = tensor_from_rgb_bytes(rgb, c.sw, c.sh, c.ow, c.oh);
    EXPECT_EQ(got.shape(), want.shape()) << c.sw << "x" << c.sh;
    EXPECT_EQ(got.data(), want.data()) << c.sw << "x" << c.sh << " -> "
                                       << c.ow << "x" << c.oh;
  }
}

TEST(Tensor, FromRgbBytesThrowsWhatTheUnfusedStepsThrow) {
  const auto error = [](auto&& f) {
    try {
      f();
    } catch (const std::invalid_argument& e) {
      return std::string{e.what()};
    }
    return std::string{"<no throw>"};
  };
  const std::vector<std::uint8_t> rgb(4 * 3 * 3, 0x40);
  struct Case {
    std::size_t bytes;
    std::uint32_t sw, sh, ow, oh;
  };
  const Case cases[] = {{rgb.size(), 4, 3, 0, 8}, {rgb.size(), 4, 3, 8, 0},
                        {rgb.size(), 0, 3, 8, 8}, {rgb.size(), 4, 0, 8, 8},
                        {rgb.size() - 1, 4, 3, 8, 8}, {0, 0, 0, 0, 0}};
  for (const Case& c : cases) {
    const std::span<const std::uint8_t> bytes{rgb.data(), c.bytes};
    const std::string want = error([&] {
      (void)tensor_from_image(img::resize_nearest(
          img::Image::from_rgb_bytes(bytes, c.sw, c.sh), c.ow, c.oh));
    });
    EXPECT_NE(want, "<no throw>");
    EXPECT_EQ(error([&] {
                (void)tensor_from_rgb_bytes(bytes, c.sw, c.sh, c.ow, c.oh);
              }),
              want)
        << c.bytes << " bytes, " << c.sw << "x" << c.sh << " -> " << c.ow
        << "x" << c.oh;
  }
}

Conv2d identity_conv1x1() {
  // Single 1x1 kernel with weight 1, shift 0: passes channel 0 through.
  return Conv2d{1, 1, 1, 1, 0, /*relu=*/false, /*shift=*/0, {1}, {0}};
}

TEST(Conv2d, IdentityKernelPassesThrough) {
  Tensor in{TensorShape{1, 2, 2}};
  in.set(0, 0, 0, 5);
  in.set(0, 1, 1, -7);
  const Tensor out = identity_conv1x1().forward(in);
  EXPECT_EQ(out.at(0, 0, 0), 5);
  EXPECT_EQ(out.at(0, 1, 1), -7);
}

TEST(Conv2d, ReluClampsNegative) {
  Conv2d conv{1, 1, 1, 1, 0, /*relu=*/true, 0, {1}, {0}};
  Tensor in{TensorShape{1, 1, 1}};
  in.set(0, 0, 0, -5);
  EXPECT_EQ(conv.forward(in).at(0, 0, 0), 0);
}

TEST(Conv2d, KnownSumKernel) {
  // 3x3 all-ones kernel, no padding: output = sum of the window.
  Conv2d conv{1, 1, 3, 1, 0, false, 0, std::vector<std::int8_t>(9, 1), {0}};
  Tensor in{TensorShape{1, 3, 3}};
  std::int8_t v = 1;
  for (std::uint32_t y = 0; y < 3; ++y) {
    for (std::uint32_t x = 0; x < 3; ++x) in.set(0, y, x, v++);
  }
  const Tensor out = conv.forward(in);
  EXPECT_EQ(out.shape(), (TensorShape{1, 1, 1}));
  EXPECT_EQ(out.at(0, 0, 0), 45);  // 1+2+...+9
}

TEST(Conv2d, BiasApplied) {
  Conv2d conv{1, 1, 1, 1, 0, false, 0, {0}, {17}};
  Tensor in{TensorShape{1, 1, 1}};
  EXPECT_EQ(conv.forward(in).at(0, 0, 0), 17);
}

TEST(Conv2d, RequantShiftScalesDown) {
  Conv2d conv{1, 1, 1, 1, 0, false, /*shift=*/3, {64}, {0}};
  Tensor in{TensorShape{1, 1, 1}};
  in.set(0, 0, 0, 8);  // 64*8 = 512; >>3 = 64
  EXPECT_EQ(conv.forward(in).at(0, 0, 0), 64);
}

TEST(Conv2d, SaturatesToInt8) {
  Conv2d conv{1, 1, 1, 1, 0, false, 0, {127}, {0}};
  Tensor in{TensorShape{1, 1, 1}};
  in.set(0, 0, 0, 127);  // 16129 clamps to 127
  EXPECT_EQ(conv.forward(in).at(0, 0, 0), 127);
}

TEST(Conv2d, StrideAndPaddingGeometry) {
  Conv2d conv{3, 8, 3, 2, 1, true, 6, std::vector<std::int8_t>(8 * 3 * 9, 0),
              std::vector<std::int32_t>(8, 0)};
  EXPECT_EQ(conv.output_shape(TensorShape{3, 64, 64}),
            (TensorShape{8, 32, 32}));
  EXPECT_EQ(conv.output_shape(TensorShape{3, 9, 9}), (TensorShape{8, 5, 5}));
}

TEST(Conv2d, ChannelMismatchThrows) {
  Conv2d conv = identity_conv1x1();
  EXPECT_THROW(conv.forward(Tensor{TensorShape{2, 2, 2}}),
               std::invalid_argument);
}

TEST(Conv2d, ParameterSizeValidation) {
  EXPECT_THROW((Conv2d{1, 1, 3, 1, 0, false, 0, {1, 2}, {0}}),
               std::invalid_argument);
  EXPECT_THROW((Conv2d{1, 1, 3, 1, 0, false, 0,
                       std::vector<std::int8_t>(9, 0), {0, 0}}),
               std::invalid_argument);
}

TEST(MaxPool2d, TakesWindowMax) {
  MaxPool2d pool{2, 2};
  Tensor in{TensorShape{1, 2, 4}};
  in.set(0, 0, 0, 3);
  in.set(0, 1, 1, 9);
  in.set(0, 0, 2, -1);
  in.set(0, 1, 3, -2);
  const Tensor out = pool.forward(in);
  EXPECT_EQ(out.shape(), (TensorShape{1, 1, 2}));
  EXPECT_EQ(out.at(0, 0, 0), 9);
  EXPECT_EQ(out.at(0, 0, 1), 0);  // max of {-1, 0, 0, -2} is 0
}

TEST(MaxPool2d, TooSmallInputThrows) {
  MaxPool2d pool{3, 1};
  EXPECT_THROW(pool.forward(Tensor{TensorShape{1, 2, 2}}),
               std::invalid_argument);
}

TEST(GlobalAvgPool, AveragesPerChannel) {
  GlobalAvgPool gap;
  Tensor in{TensorShape{2, 2, 2}};
  for (std::uint32_t y = 0; y < 2; ++y) {
    for (std::uint32_t x = 0; x < 2; ++x) {
      in.set(0, y, x, 8);
      in.set(1, y, x, static_cast<std::int8_t>(-4));
    }
  }
  const Tensor out = gap.forward(in);
  EXPECT_EQ(out.shape(), (TensorShape{2, 1, 1}));
  EXPECT_EQ(out.at(0, 0, 0), 8);
  EXPECT_EQ(out.at(1, 0, 0), -4);
}

TEST(Dense, MatVecWithBias) {
  // 2 -> 2: y0 = x0 + 2*x1 + 1 ; y1 = -x0 + 3 (weights row-major [out][in])
  Dense d{2, 2, false, 0, {1, 2, -1, 0}, {1, 3}};
  Tensor in{TensorShape{2, 1, 1}};
  in.set(0, 0, 0, 4);
  in.set(1, 0, 0, 5);
  const Tensor out = d.forward(in);
  EXPECT_EQ(out.at(0, 0, 0), 15);
  EXPECT_EQ(out.at(1, 0, 0), -1);
}

TEST(Dense, InputSizeMismatchThrows) {
  Dense d{4, 2, false, 0, std::vector<std::int8_t>(8, 0), {0, 0}};
  EXPECT_THROW(d.forward(Tensor{TensorShape{3, 1, 1}}), std::invalid_argument);
}

TEST(Softmax, SumsToOneAndOrdersLogits) {
  Tensor logits{TensorShape{3, 1, 1}};
  logits.set(0, 0, 0, 10);
  logits.set(1, 0, 0, 20);
  logits.set(2, 0, 0, -10);
  const auto probs = softmax(logits);
  const double sum = std::accumulate(probs.begin(), probs.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-6);
  EXPECT_GT(probs[1], probs[0]);
  EXPECT_GT(probs[0], probs[2]);
}

/// One layer of every kind.
std::vector<std::unique_ptr<Layer>> every_kind() {
  std::vector<std::unique_ptr<Layer>> layers;
  layers.push_back(std::make_unique<Conv2d>(
      2, 3, 3, 2, 1, true, 6, std::vector<std::int8_t>(2 * 3 * 9, 7),
      std::vector<std::int32_t>{-1, 0, 1}));
  layers.push_back(std::make_unique<MaxPool2d>(2, 2));
  layers.push_back(std::make_unique<GlobalAvgPool>());
  layers.push_back(std::make_unique<Dense>(
      3, 5, false, 4, std::vector<std::int8_t>(15, -3),
      std::vector<std::int32_t>(5, 9)));
  return layers;
}

TEST(LayerSerialization, RoundTripsEveryKind) {
  const std::vector<std::unique_ptr<Layer>> layers = every_kind();
  util::ByteWriter blob;
  for (const auto& l : layers) l->serialize(blob);

  util::ByteReader reader{blob.bytes()};
  for (const auto& original : layers) {
    const auto copy = deserialize_layer(reader);
    EXPECT_EQ(copy->kind(), original->kind());
    EXPECT_EQ(copy->name(), original->name());
    EXPECT_EQ(copy->param_bytes(), original->param_bytes());
    // Behavioural equality on a probe input.
    const TensorShape probe{original->kind() == LayerKind::kDense
                                ? TensorShape{3, 1, 1}
                                : TensorShape{2, 8, 8}};
    const Tensor in{probe, 3};
    EXPECT_EQ(original->forward(in).data(), copy->forward(in).data());
  }
  EXPECT_TRUE(reader.done());
}

// ---- kernel equality against a naive gather ------------------------------

using util::SimdCapGuard;
using util::SimdLevel;
using util::simd_level_name;
using util::simd_levels_up_to_detected;

std::int8_t reference_requantize(std::int32_t acc, std::uint32_t shift,
                                 bool relu) {
  std::int32_t v = std::clamp(acc >> shift, -128, 127);
  if (relu && v < 0) v = 0;
  return static_cast<std::int8_t>(v);
}

std::vector<std::int8_t> random_int8s(util::Prng& prng, std::size_t n) {
  std::vector<std::int8_t> v(n);
  for (auto& x : v) x = static_cast<std::int8_t>(prng.below(256));
  return v;
}

/// Per output pixel: bias plus every in-bounds weight x input product of
/// its window; taps in the padding border add nothing.
Tensor reference_conv(const Tensor& in, std::uint32_t out_c, std::uint32_t k,
                      std::uint32_t stride, std::uint32_t pad, bool relu,
                      std::uint32_t shift, const std::vector<std::int8_t>& w,
                      const std::vector<std::int32_t>& bias) {
  const TensorShape s = in.shape();
  Tensor out{TensorShape{out_c, (s.h + 2 * pad - k) / stride + 1,
                         (s.w + 2 * pad - k) / stride + 1}};
  for (std::uint32_t oc = 0; oc < out_c; ++oc) {
    for (std::uint32_t oy = 0; oy < out.shape().h; ++oy) {
      for (std::uint32_t ox = 0; ox < out.shape().w; ++ox) {
        std::int32_t acc = bias[oc];
        for (std::uint32_t ic = 0; ic < s.c; ++ic) {
          for (std::uint32_t ky = 0; ky < k; ++ky) {
            for (std::uint32_t kx = 0; kx < k; ++kx) {
              const std::int64_t iy = std::int64_t{oy} * stride + ky - pad;
              const std::int64_t ix = std::int64_t{ox} * stride + kx - pad;
              if (iy < 0 || ix < 0 || iy >= s.h || ix >= s.w) continue;
              acc += w[((std::size_t{oc} * s.c + ic) * k + ky) * k + kx] *
                     in.at(ic, static_cast<std::uint32_t>(iy),
                           static_cast<std::uint32_t>(ix));
            }
          }
        }
        out.set(oc, oy, ox, reference_requantize(acc, shift, relu));
      }
    }
  }
  return out;
}

TEST(LayerKernels, ConvMatchesNaiveGatherSimdOnAndOff) {
  util::Prng prng{0xC0DEULL};
  int one_by_one = 0;
  int unaligned = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint32_t k = std::array<std::uint32_t, 3>{1, 3, 5}[prng.below(3)];
    const auto stride = static_cast<std::uint32_t>(prng.between(1, 3));
    const auto pad = static_cast<std::uint32_t>(prng.between(0, 2));
    const auto in_c = static_cast<std::uint32_t>(prng.between(1, 9));
    const auto out_c = static_cast<std::uint32_t>(prng.between(1, 9));
    // Every fourth case is the smallest legal input: a 1x1 output when
    // the kernel outgrows the padding.
    const std::uint32_t min_hw = k > 2 * pad ? k - 2 * pad : 1;
    const std::uint64_t extra = trial % 4 == 0 ? 1 : 12;
    const auto h = static_cast<std::uint32_t>(min_hw + prng.below(extra));
    const auto w = static_cast<std::uint32_t>(min_hw + prng.below(extra));
    const bool relu = prng.below(2) == 1;
    const auto shift = static_cast<std::uint32_t>(prng.below(12));
    const std::vector<std::int8_t> weights =
        random_int8s(prng, std::size_t{out_c} * in_c * k * k);
    std::vector<std::int32_t> bias(out_c);
    for (auto& b : bias) b = static_cast<std::int32_t>(prng.below(2001)) - 1000;
    Tensor in{TensorShape{in_c, h, w}};
    in.data() = random_int8s(prng, in.size());

    const Conv2d conv{in_c, out_c, k, stride, pad, relu, shift, weights, bias};
    const Tensor want =
        reference_conv(in, out_c, k, stride, pad, relu, shift, weights, bias);
    one_by_one += want.shape().h * want.shape().w == 1;
    unaligned += (in_c * k * k) % 8 != 0;
    for (const SimdLevel level : simd_levels_up_to_detected()) {
      const SimdCapGuard cap{level};
      const Tensor got = conv.forward(in);
      ASSERT_EQ(got.shape(), want.shape());
      EXPECT_EQ(got.data(), want.data())
          << "k=" << k << " stride=" << stride << " pad=" << pad
          << " in_c=" << in_c << " out_c=" << out_c << " " << h << "x" << w
          << " " << simd_level_name(level);
    }
  }
  EXPECT_GT(one_by_one, 0);
  EXPECT_GT(unaligned, 0);

  struct Case {
    std::uint32_t in_c, out_c, k, stride, pad, h, w, shift;
    bool extremes;  ///< int8 extremes only, biases of +-2^20
  };
  std::vector<Case> cases;
  // Every zoo conv geometry (3x3, stride 2, pad 1): the 3-channel 64x64
  // first layers (1024 output pixels), the detector's 32x32 second layer
  // (256), and the classifiers' 16x16 (64) and 8x8 (16) layers; out_c
  // runs over 8/12/16/24/32/48/64, not all multiples of the block.
  for (const auto [in_c, out_c, side] :
       std::vector<std::array<std::uint32_t, 3>>{
           {3, 8, 64}, {3, 12, 64}, {3, 16, 64}, {16, 32, 32},
           {8, 16, 16}, {8, 24, 16}, {12, 24, 16}, {16, 32, 16},
           {16, 24, 8}, {24, 32, 8}, {24, 48, 8}, {32, 64, 8}}) {
    cases.push_back({in_c, out_c, 3, 2, 1, side, side, 6, false});
  }
  // 1x1 convs: 16->64 (8 k-pairs per block) and the fewest k-pairs a
  // conv can have, one (in_c 1 and 2), where the avx2 and sse2 kernels
  // time alike.
  cases.push_back({16, 64, 1, 1, 0, 28, 28, 6, false});
  cases.push_back({1, 8, 1, 1, 0, 9, 9, 4, false});
  cases.push_back({2, 8, 1, 1, 0, 9, 9, 4, true});
  for (const std::uint32_t shift : {0u, 8u, 16u, 31u}) {
    cases.push_back({7, 9, 3, 1, 1, 11, 11, shift, true});
    cases.push_back({3, 5, 5, 2, 2, 13, 13, shift, true});
  }
  // Partial last blocks whose windows span a row jump: the lanes past
  // the end repeat the last window, so the block's first and last
  // windows can sit exactly 7 strides apart although the windows between
  // them are not evenly spaced (6x5: windows 32,35,36,37,38,39,39,39).
  for (const auto [k, pad, h, w] : std::vector<std::array<std::uint32_t, 4>>{
           {3, 1, 6, 5}, {3, 1, 3, 2}, {3, 1, 5, 6}, {5, 2, 2, 2}}) {
    cases.push_back({1, 1, k, 1, pad, h, w, 4, false});
    cases.push_back({3, 6, k, 1, pad, h, w, 4, false});
  }
  for (const Case& c : cases) {
    const auto extreme = [&prng] {
      return static_cast<std::int8_t>(prng.below(2) == 0 ? -128 : 127);
    };
    std::vector<std::int8_t> weights =
        random_int8s(prng, std::size_t{c.out_c} * c.in_c * c.k * c.k);
    std::vector<std::int32_t> bias(c.out_c);
    for (auto& b : bias) b = static_cast<std::int32_t>(prng.below(2001)) - 1000;
    Tensor in{TensorShape{c.in_c, c.h, c.w}};
    in.data() = random_int8s(prng, in.size());
    if (c.extremes) {
      for (auto& v : weights) v = extreme();
      for (auto& v : in.data()) v = extreme();
      for (auto& b : bias) b = prng.below(2) == 0 ? -(1 << 20) : (1 << 20);
    }
    for (const bool relu : {true, false}) {
      const Conv2d conv{c.in_c, c.out_c, c.k,     c.stride,
                        c.pad,  relu,    c.shift, weights,
                        bias};
      const Tensor want = reference_conv(in, c.out_c, c.k, c.stride, c.pad,
                                         relu, c.shift, weights, bias);
      for (const SimdLevel level : simd_levels_up_to_detected()) {
        const SimdCapGuard cap{level};
        EXPECT_EQ(conv.forward(in).data(), want.data())
            << conv.name() << " on " << c.h << "x" << c.w << " shift "
            << c.shift << (relu ? " relu" : "") << " "
            << simd_level_name(level);
      }
    }
  }
}

/// Window max over k x k at stride, as a plain loop.
Tensor reference_pool(const Tensor& in, std::uint32_t k, std::uint32_t stride) {
  const TensorShape s = in.shape();
  Tensor out{TensorShape{s.c, (s.h - k) / stride + 1, (s.w - k) / stride + 1}};
  for (std::uint32_t c = 0; c < s.c; ++c) {
    for (std::uint32_t oy = 0; oy < out.shape().h; ++oy) {
      for (std::uint32_t ox = 0; ox < out.shape().w; ++ox) {
        std::int8_t best = -128;
        for (std::uint32_t ky = 0; ky < k; ++ky) {
          for (std::uint32_t kx = 0; kx < k; ++kx) {
            best = std::max(best, in.at(c, oy * stride + ky, ox * stride + kx));
          }
        }
        out.set(c, oy, ox, best);
      }
    }
  }
  return out;
}

TEST(LayerKernels, MaxPoolMatchesNaiveSimdOnAndOff) {
  util::Prng prng{0x9001ULL};
  int overlapping = 0;
  int gapped = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const auto k = static_cast<std::uint32_t>(prng.between(1, 4));
    const auto stride = static_cast<std::uint32_t>(prng.between(1, 3));
    const auto c = static_cast<std::uint32_t>(prng.between(1, 20));
    // Odd and even sides, some narrower than one vector and some wider
    // than two.
    const auto h = static_cast<std::uint32_t>(k + prng.below(40));
    const auto w = static_cast<std::uint32_t>(k + prng.below(48));
    Tensor in{TensorShape{c, h, w}};
    in.data() = random_int8s(prng, in.size());
    // Plant both extremes so saturation at either end is exercised.
    in.data()[prng.below(in.size())] = -128;
    in.data()[prng.below(in.size())] = 127;
    if (trial % 5 == 0) std::fill(in.data().begin(), in.data().end(), -128);
    overlapping += stride < k;
    gapped += stride > k;

    const MaxPool2d pool{k, stride};
    const Tensor want = reference_pool(in, k, stride);
    for (const SimdLevel level : simd_levels_up_to_detected()) {
      const SimdCapGuard cap{level};
      const Tensor got = pool.forward(in);
      ASSERT_EQ(got.shape(), want.shape());
      EXPECT_EQ(got.data(), want.data())
          << "k=" << k << " stride=" << stride << " " << in.shape().c << "x"
          << in.shape().h << "x" << in.shape().w
          << " " << simd_level_name(level);
    }
  }
  EXPECT_GT(overlapping, 0);
  EXPECT_GT(gapped, 0);
}

TEST(LayerKernels, ConcurrentForwardIsIdentical) {
  // One shared layer of each kind with per-thread scratch, driven from
  // four threads at once on inputs of different sizes.
  util::Prng prng{0x7EADULL};
  const Conv2d conv{5, 11, 3, 1, 1, true, 7,
                    random_int8s(prng, 11 * 5 * 9),
                    std::vector<std::int32_t>(11, 300)};
  const MaxPool2d pool{3, 2};
  const Dense dense{45, 7, false, 5, random_int8s(prng, 45 * 7),
                    std::vector<std::int32_t>(7, -200)};
  constexpr int kThreads = 4;
  std::vector<Tensor> inputs;
  std::vector<Tensor> dense_inputs;
  std::vector<Tensor> want_conv;
  std::vector<Tensor> want_pool;
  std::vector<Tensor> want_dense;
  // The Dense inputs share a volume of 45 but not a shape.
  const std::array<TensorShape, kThreads> dense_shapes{
      TensorShape{45, 1, 1}, {5, 3, 3}, {9, 5, 1}, {1, 5, 9}};
  for (int t = 0; t < kThreads; ++t) {
    const auto side = static_cast<std::uint32_t>(9 + 13 * t);
    Tensor in{TensorShape{5, side, side + 3}};
    in.data() = random_int8s(prng, in.size());
    want_conv.push_back(conv.forward(in));
    want_pool.push_back(pool.forward(in));
    inputs.push_back(std::move(in));
    Tensor flat{dense_shapes[t]};
    flat.data() = random_int8s(prng, flat.size());
    want_dense.push_back(dense.forward(flat));
    dense_inputs.push_back(std::move(flat));
  }
  std::array<int, kThreads> mismatches{};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 50; ++rep) {
        mismatches[t] += conv.forward(inputs[t]).data() != want_conv[t].data();
        mismatches[t] += pool.forward(inputs[t]).data() != want_pool[t].data();
        mismatches[t] +=
            dense.forward(dense_inputs[t]).data() != want_dense[t].data();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << "thread " << t;
}

/// Per output: bias plus the dot product of its weight row with the
/// input's bytes in CHW order, whatever the input's shape.
Tensor reference_dense(const Tensor& in, std::uint32_t out_n, bool relu,
                       std::uint32_t shift, const std::vector<std::int8_t>& w,
                       const std::vector<std::int32_t>& bias) {
  const std::size_t in_n = in.size();
  Tensor out{TensorShape{out_n, 1, 1}};
  for (std::uint32_t o = 0; o < out_n; ++o) {
    std::int32_t acc = bias[o];
    for (std::size_t i = 0; i < in_n; ++i) {
      acc += w[o * in_n + i] * in.data()[i];
    }
    out.data()[o] = reference_requantize(acc, shift, relu);
  }
  return out;
}

TEST(LayerKernels, DenseMatchesNaiveDotSimdOnAndOff) {
  util::Prng prng{0xDE45EULL};
  struct Case {
    TensorShape in;  ///< any shape of volume `in`
    std::uint32_t out_n, shift;
    bool relu;
    bool extremes;  ///< int8 extremes only, biases of +-2^20
  };
  std::vector<Case> cases;
  for (int trial = 0; trial < 100; ++trial) {
    const auto in_n = static_cast<std::uint32_t>(prng.between(1, 70));
    const auto out_n = static_cast<std::uint32_t>(prng.between(1, 13));
    const bool relu = prng.below(2) == 1;
    const auto shift = static_cast<std::uint32_t>(prng.below(12));
    cases.push_back({{in_n, 1, 1}, out_n, shift, relu, false});
  }
  // Every zoo Dense geometry: out is 10 or 18, not a multiple of the
  // 4-channel block.
  for (const auto [in_n, out_n] : std::vector<std::array<std::uint32_t, 2>>{
           {64, 10}, {24, 10}, {48, 10}, {32, 10}, {32, 18}}) {
    for (const bool relu : {true, false}) {
      cases.push_back({{in_n, 1, 1}, out_n, 5, relu, false});
    }
  }
  for (const std::uint32_t shift : {0u, 8u, 16u, 31u}) {
    for (const bool relu : {true, false}) {
      cases.push_back({{64, 1, 1}, 10, shift, relu, true});
      cases.push_back({{7, 1, 1}, 5, shift, relu, true});
    }
  }
  // Flattened inputs: a [c,h,w] tensor is read as its CHW bytes.
  for (const TensorShape shape : std::vector<TensorShape>{
           {4, 4, 4}, {16, 2, 2}, {1, 8, 8}, {1, 1, 64}, {2, 3, 5}, {3, 1, 7}}) {
    cases.push_back({shape, 10, 5, false, false});
    cases.push_back({shape, 18, 4, true, false});
  }
  for (const Case& c : cases) {
    const auto in_n = static_cast<std::uint32_t>(c.in.volume());
    const auto extreme = [&prng] {
      return static_cast<std::int8_t>(prng.below(2) == 0 ? -128 : 127);
    };
    std::vector<std::int8_t> weights =
        random_int8s(prng, std::size_t{in_n} * c.out_n);
    std::vector<std::int32_t> bias(c.out_n);
    for (auto& b : bias) b = static_cast<std::int32_t>(prng.below(2001)) - 1000;
    Tensor in{c.in};
    in.data() = random_int8s(prng, in.size());
    if (c.extremes) {
      for (auto& v : weights) v = extreme();
      for (auto& v : in.data()) v = extreme();
      for (auto& b : bias) b = prng.below(2) == 0 ? -(1 << 20) : (1 << 20);
    }
    const Dense dense{in_n, c.out_n, c.relu, c.shift, weights, bias};
    const Tensor want = reference_dense(in, c.out_n, c.relu, c.shift, weights, bias);
    for (const SimdLevel level : simd_levels_up_to_detected()) {
      const SimdCapGuard cap{level};
      EXPECT_EQ(dense.forward(in).data(), want.data())
          << dense.name() << " on " << c.in.c << "x" << c.in.h << "x" << c.in.w
          << " shift " << c.shift << (c.relu ? " relu" : "")
          << (c.extremes ? " extremes" : "") << " " << simd_level_name(level);
    }
  }

  // A bad parameter count or shift is rejected by Dense's own checks.
  const auto what_of = [](std::size_t n_weights, std::size_t n_bias,
                          std::uint32_t shift) -> std::string {
    try {
      const Dense d{4, 3, false, shift, std::vector<std::int8_t>(n_weights),
                    std::vector<std::int32_t>(n_bias)};
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "no throw";
  };
  for (const std::string& what :
       {what_of(11, 3, 0), what_of(13, 3, 0), what_of(12, 2, 0),
        what_of(12, 4, 0), what_of(12, 3, 32)}) {
    EXPECT_TRUE(what.starts_with("Dense:")) << what;
  }
}

TEST(LayerSerialization, TruncatedBlobThrows) {
  // Every strict prefix of every kind's blob is rejected as malformed,
  // with no other exception type; each prefix is its own allocation so
  // the sanitizers see any read past it.
  for (const auto& layer : every_kind()) {
    util::ByteWriter blob;
    layer->serialize(blob);
    const std::span<const std::uint8_t> whole = blob.bytes();
    for (std::size_t len = 0; len < whole.size(); ++len) {
      const std::vector<std::uint8_t> prefix(whole.begin(),
                                             whole.begin() + len);
      util::ByteReader reader{prefix};
      EXPECT_THROW((void)deserialize_layer(reader), std::invalid_argument)
          << layer->name() << " prefix " << len << " of " << whole.size();
    }
  }
}

TEST(LayerSerialization, RequantShiftAbove31Throws) {
  // Offset of the u32 shift field: after the kind byte, five (conv) or
  // two (dense) u32 geometry fields, and the relu flag.
  const Conv2d conv{1, 1, 1, 1, 0, false, 31, {1}, {0}};
  const Dense dense{1, 1, false, 31, {1}, {0}};
  for (const auto& [layer, offset] :
       std::vector<std::pair<const Layer*, std::size_t>>{{&conv, 22},
                                                         {&dense, 10}}) {
    util::ByteWriter blob;
    layer->serialize(blob);
    std::vector<std::uint8_t> bytes(blob.bytes().begin(), blob.bytes().end());
    ASSERT_EQ(bytes[offset], 31);
    util::ByteReader ok{bytes};
    EXPECT_NO_THROW((void)deserialize_layer(ok)) << layer->name();
    for (const std::uint8_t shift : {32, 255}) {
      bytes[offset] = shift;
      util::ByteReader reader{bytes};
      EXPECT_THROW((void)deserialize_layer(reader), std::invalid_argument)
          << layer->name() << " shift " << int{shift};
    }
  }
  EXPECT_THROW((Conv2d{1, 1, 1, 1, 0, false, 32, {1}, {0}}),
               std::invalid_argument);
  EXPECT_THROW((Dense{1, 1, false, 32, {1}, {0}}), std::invalid_argument);
}

TEST(LayerSerialization, UnknownKindThrows) {
  const std::uint8_t blob[] = {0xEE};
  util::ByteReader reader{blob};
  EXPECT_THROW((void)deserialize_layer(reader), std::invalid_argument);
}

}  // namespace
}  // namespace msa::vitis
