#include "vitis/layers.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "img/score_kernels.h"
#include "obs/trace.h"

#if defined(MSA_ENABLE_SIMD) && (defined(__SSE2__) || defined(_M_X64))
#define MSA_SIMD_SSE2 1
#include <emmintrin.h>
#elif defined(MSA_ENABLE_SIMD) && defined(__aarch64__) && defined(__ARM_NEON)
#define MSA_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace msa::vitis {

namespace {

constexpr std::size_t kLane = 8;  // int16 lanes per 128-bit vector

std::size_t round_up_to_lane(std::size_t n) {
  return (n + kLane - 1) / kLane * kLane;
}

/// Sign-extends `rows` weight rows of `len` int8s each into int16 rows
/// of `row_len` (>= len), zero padded.
std::vector<std::int16_t> widen_rows(const std::vector<std::int8_t>& w,
                                     std::size_t rows, std::size_t len,
                                     std::size_t row_len) {
  std::vector<std::int16_t> out(rows * row_len, 0);
  for (std::size_t r = 0; r < rows; ++r) {
    std::copy_n(w.begin() + static_cast<std::ptrdiff_t>(r * len), len,
                out.begin() + static_cast<std::ptrdiff_t>(r * row_len));
  }
  return out;
}

// out[r] = sum_k w[r*len + k] * x[k] for r < rows; len is a multiple of
// kLane. Every product of two int8-range values fits pmaddwd's int16
// inputs and each pairwise sum fits int32, so all three kernels compute
// the same exact integer sums.
void matvec_scalar(const std::int16_t* w, std::size_t rows, std::size_t len,
                   const std::int16_t* x, std::int32_t* out) noexcept {
  for (std::size_t r = 0; r < rows; ++r) {
    const std::int16_t* row = w + r * len;
    std::int32_t acc = 0;
    for (std::size_t k = 0; k < len; ++k) {
      acc += static_cast<std::int32_t>(row[k]) * x[k];
    }
    out[r] = acc;
  }
}

#if defined(MSA_SIMD_SSE2)

__m128i madd_row(const std::int16_t* row, const std::int16_t* x,
                 std::size_t len) noexcept {
  __m128i acc = _mm_setzero_si128();
  for (std::size_t k = 0; k < len; k += kLane) {
    acc = _mm_add_epi32(
        acc, _mm_madd_epi16(
                 _mm_loadu_si128(reinterpret_cast<const __m128i*>(row + k)),
                 _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + k))));
  }
  return acc;
}

void matvec_sse2(const std::int16_t* w, std::size_t rows, std::size_t len,
                 const std::int16_t* x, std::int32_t* out) noexcept {
  std::size_t r = 0;
  // Four rows per step: each row's four partial lanes are transposed and
  // summed so one store writes four finished dot products.
  for (; r + 4 <= rows; r += 4) {
    const __m128i a0 = madd_row(w + r * len, x, len);
    const __m128i a1 = madd_row(w + (r + 1) * len, x, len);
    const __m128i a2 = madd_row(w + (r + 2) * len, x, len);
    const __m128i a3 = madd_row(w + (r + 3) * len, x, len);
    const __m128i s01 = _mm_add_epi32(_mm_unpacklo_epi32(a0, a1),
                                      _mm_unpackhi_epi32(a0, a1));
    const __m128i s23 = _mm_add_epi32(_mm_unpacklo_epi32(a2, a3),
                                      _mm_unpackhi_epi32(a2, a3));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + r),
                     _mm_add_epi32(_mm_unpacklo_epi64(s01, s23),
                                   _mm_unpackhi_epi64(s01, s23)));
  }
  for (; r < rows; ++r) {
    const __m128i a = madd_row(w + r * len, x, len);
    const __m128i s = _mm_add_epi32(a, _mm_unpackhi_epi64(a, a));
    out[r] = _mm_cvtsi128_si32(_mm_add_epi32(s, _mm_srli_si128(s, 4)));
  }
}

#elif defined(MSA_SIMD_NEON)

void matvec_neon(const std::int16_t* w, std::size_t rows, std::size_t len,
                 const std::int16_t* x, std::int32_t* out) noexcept {
  for (std::size_t r = 0; r < rows; ++r) {
    const std::int16_t* row = w + r * len;
    int32x4_t acc = vdupq_n_s32(0);
    for (std::size_t k = 0; k < len; k += kLane) {
      const int16x8_t a = vld1q_s16(row + k);
      const int16x8_t b = vld1q_s16(x + k);
      acc = vmlal_s16(acc, vget_low_s16(a), vget_low_s16(b));
      acc = vmlal_s16(acc, vget_high_s16(a), vget_high_s16(b));
    }
    out[r] = vaddvq_s32(acc);
  }
}

#endif

void matvec(const std::int16_t* w, std::size_t rows, std::size_t len,
            const std::int16_t* x, std::int32_t* out) noexcept {
#if defined(MSA_SIMD_SSE2)
  if (img::simd_enabled()) {
    matvec_sse2(w, rows, len, x, out);
    return;
  }
#elif defined(MSA_SIMD_NEON)
  if (img::simd_enabled()) {
    matvec_neon(w, rows, len, x, out);
    return;
  }
#endif
  matvec_scalar(w, rows, len, x, out);
}

/// Flags are encoded as exactly 0 or 1, so a parsed container is always
/// its own canonical encoding (XModel keeps the parsed bytes as such).
bool get_flag(util::ByteReader& in) {
  const std::uint8_t v = in.u8();
  if (v > 1) throw std::invalid_argument("xmodel: bad flag byte");
  return v == 1;
}

/// The parameter tail Conv2d and Dense share: a u32 weight count, the
/// int8 weights, a u32 bias count, the int32 biases.
void put_params(util::ByteWriter& out, const std::vector<std::int8_t>& weights,
                const std::vector<std::int32_t>& bias) {
  out.u32(static_cast<std::uint32_t>(weights.size()));
  out.raw({reinterpret_cast<const std::uint8_t*>(weights.data()),
           weights.size()});
  out.u32(static_cast<std::uint32_t>(bias.size()));
  for (const std::int32_t b : bias) out.u32(static_cast<std::uint32_t>(b));
}

struct Params {
  std::vector<std::int8_t> weights;
  std::vector<std::int32_t> bias;
};

Params get_params(util::ByteReader& in) {
  Params p;
  const std::span<const std::uint8_t> weights = in.bytes(in.u32());
  p.weights.assign(weights.begin(), weights.end());
  const std::uint32_t n_b = in.u32();
  // Validate the length BEFORE sizing the vector: residue parsing must
  // reject corrupted counts, not ask the allocator for 16 GiB.
  if (static_cast<std::uint64_t>(n_b) * 4 > in.remaining()) {
    throw std::invalid_argument("xmodel: truncated bias");
  }
  p.bias.resize(n_b);
  for (std::int32_t& b : p.bias) b = static_cast<std::int32_t>(in.u32());
  return p;
}

std::int8_t requantize(std::int32_t acc, std::uint32_t shift, bool relu) {
  const std::int32_t scaled = acc >> shift;
  return static_cast<std::int8_t>(std::clamp(scaled, relu ? 0 : -128, 127));
}

}  // namespace

// ---------------------------------------------------------------- Conv2d ---

Conv2d::Conv2d(std::uint32_t in_c, std::uint32_t out_c, std::uint32_t k,
               std::uint32_t stride, std::uint32_t pad, bool relu,
               std::uint32_t requant_shift, std::vector<std::int8_t> weights,
               std::vector<std::int32_t> bias)
    : in_c_{in_c},
      out_c_{out_c},
      k_{k},
      stride_{stride},
      pad_{pad},
      relu_{relu},
      requant_shift_{requant_shift},
      weights_{std::move(weights)},
      bias_{std::move(bias)} {
  if (stride_ == 0 || k_ == 0) throw std::invalid_argument("Conv2d: bad geometry");
  // Checked products: parsed residue may carry any geometry, and a
  // wrapped size must not pass for the weight count.
  std::size_t patch = 0;
  std::size_t expect = 0;
  if (__builtin_mul_overflow(std::size_t{in_c_}, std::size_t{k_} * k_, &patch) ||
      __builtin_mul_overflow(patch, std::size_t{out_c_}, &expect) ||
      weights_.size() != expect || bias_.size() != out_c_) {
    throw std::invalid_argument("Conv2d: parameter size mismatch");
  }
  row_len_ = round_up_to_lane(patch);
  wide_ = widen_rows(weights_, out_c_, patch, row_len_);
}

std::string Conv2d::name() const {
  return "conv" + std::to_string(k_) + "x" + std::to_string(k_) + "_" +
         std::to_string(in_c_) + "->" + std::to_string(out_c_);
}

TensorShape Conv2d::output_shape(const TensorShape& in) const {
  if (in.c != in_c_) throw std::invalid_argument("Conv2d: channel mismatch");
  if (in.h + 2 * pad_ < k_ || in.w + 2 * pad_ < k_) {
    throw std::invalid_argument("Conv2d: input smaller than kernel");
  }
  return TensorShape{out_c_, (in.h + 2 * pad_ - k_) / stride_ + 1,
                     (in.w + 2 * pad_ - k_) / stride_ + 1};
}

Tensor Conv2d::forward(const Tensor& in) const {
  TRACE_SPAN("vitis", "conv2d");
  const TensorShape os = output_shape(in.shape());
  Tensor out{os};
  const auto& ish = in.shape();
  std::int8_t* dst = out.data().data();
  const std::size_t out_plane = static_cast<std::size_t>(os.h) * os.w;
  // A zero-bordered int16 copy of the input: every tap of every window
  // is then an in-bounds read, and padding reads as zero.
  const std::size_t ph = ish.h + 2 * static_cast<std::size_t>(pad_);
  const std::size_t pw = ish.w + 2 * static_cast<std::size_t>(pad_);
  std::vector<std::int16_t> padded(in_c_ * ph * pw, 0);
  for (std::uint32_t ic = 0; ic < in_c_; ++ic) {
    for (std::uint32_t y = 0; y < ish.h; ++y) {
      const auto row =
          in.data().begin() +
          static_cast<std::ptrdiff_t>(
              (static_cast<std::size_t>(ic) * ish.h + y) * ish.w);
      std::copy(row, row + ish.w,
                padded.begin() + static_cast<std::ptrdiff_t>(
                                     (ic * ph + y + pad_) * pw + pad_));
    }
  }
  // The column's tail past in_c*k*k stays zero, matching the weight
  // rows' padding.
  std::vector<std::int16_t> col(row_len_, 0);
  std::vector<std::int32_t> acc(out_c_);
  std::size_t p = 0;  // output pixel index, oy * os.w + ox
  for (std::uint32_t oy = 0; oy < os.h; ++oy) {
    for (std::uint32_t ox = 0; ox < os.w; ++ox, ++p) {
      // im2col gather in weight order [ic][ky][kx].
      const std::int16_t* window =
          padded.data() + (static_cast<std::size_t>(oy) * pw + ox) * stride_;
      std::int16_t* c = col.data();
      for (std::uint32_t ic = 0; ic < in_c_; ++ic) {
        for (std::uint32_t ky = 0; ky < k_; ++ky, c += k_) {
          std::copy_n(window + (static_cast<std::size_t>(ic) * ph + ky) * pw,
                      k_, c);
        }
      }
      matvec(wide_.data(), out_c_, row_len_, col.data(), acc.data());
      for (std::uint32_t oc = 0; oc < out_c_; ++oc) {
        dst[oc * out_plane + p] =
            requantize(bias_[oc] + acc[oc], requant_shift_, relu_);
      }
    }
  }
  return out;
}

std::size_t Conv2d::param_bytes() const noexcept {
  return weights_.size() + bias_.size() * sizeof(std::int32_t);
}

void Conv2d::serialize(util::ByteWriter& out) const {
  out.u8(static_cast<std::uint8_t>(kind()));
  out.u32(in_c_);
  out.u32(out_c_);
  out.u32(k_);
  out.u32(stride_);
  out.u32(pad_);
  out.u8(relu_ ? 1 : 0);
  out.u32(requant_shift_);
  put_params(out, weights_, bias_);
}

// ------------------------------------------------------------- MaxPool2d ---

MaxPool2d::MaxPool2d(std::uint32_t k, std::uint32_t stride)
    : k_{k}, stride_{stride} {
  if (k_ == 0 || stride_ == 0) throw std::invalid_argument("MaxPool2d: bad geometry");
}

std::string MaxPool2d::name() const {
  return "maxpool" + std::to_string(k_) + "s" + std::to_string(stride_);
}

TensorShape MaxPool2d::output_shape(const TensorShape& in) const {
  if (in.h < k_ || in.w < k_) {
    throw std::invalid_argument("MaxPool2d: input smaller than window");
  }
  return TensorShape{in.c, (in.h - k_) / stride_ + 1, (in.w - k_) / stride_ + 1};
}

Tensor MaxPool2d::forward(const Tensor& in) const {
  TRACE_SPAN("vitis", "pool");
  const TensorShape os = output_shape(in.shape());
  Tensor out{os};
  const auto& ish = in.shape();
  const std::int8_t* src = in.data().data();
  std::int8_t* dst = out.data().data();
  const std::size_t in_plane = static_cast<std::size_t>(ish.h) * ish.w;
  const std::size_t out_plane = static_cast<std::size_t>(os.h) * os.w;
  for (std::uint32_t c = 0; c < os.c; ++c) {
    const std::int8_t* plane = src + static_cast<std::size_t>(c) * in_plane;
    std::int8_t* out_plane_p = dst + static_cast<std::size_t>(c) * out_plane;
    for (std::uint32_t oy = 0; oy < os.h; ++oy) {
      std::int8_t* out_row = out_plane_p + static_cast<std::size_t>(oy) * os.w;
      for (std::uint32_t ox = 0; ox < os.w; ++ox) {
        const std::int8_t* win =
            plane + static_cast<std::size_t>(oy) * stride_ * ish.w +
            static_cast<std::size_t>(ox) * stride_;
        std::int8_t best = -128;
        for (std::uint32_t ky = 0; ky < k_; ++ky) {
          const std::int8_t* row = win + static_cast<std::size_t>(ky) * ish.w;
          for (std::uint32_t kx = 0; kx < k_; ++kx) {
            best = std::max(best, row[kx]);
          }
        }
        out_row[ox] = best;
      }
    }
  }
  return out;
}

void MaxPool2d::serialize(util::ByteWriter& out) const {
  out.u8(static_cast<std::uint8_t>(kind()));
  out.u32(k_);
  out.u32(stride_);
}

// --------------------------------------------------------- GlobalAvgPool ---

TensorShape GlobalAvgPool::output_shape(const TensorShape& in) const {
  return TensorShape{in.c, 1, 1};
}

Tensor GlobalAvgPool::forward(const Tensor& in) const {
  TRACE_SPAN("vitis", "pool");
  const auto& ish = in.shape();
  Tensor out{TensorShape{ish.c, 1, 1}};
  const std::int64_t area = static_cast<std::int64_t>(ish.h) * ish.w;
  const std::int8_t* src = in.data().data();
  const std::size_t plane = static_cast<std::size_t>(ish.h) * ish.w;
  for (std::uint32_t c = 0; c < ish.c; ++c) {
    const std::int8_t* p = src + static_cast<std::size_t>(c) * plane;
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < plane; ++i) sum += p[i];
    out.set(c, 0, 0, static_cast<std::int8_t>(sum / area));
  }
  return out;
}

void GlobalAvgPool::serialize(util::ByteWriter& out) const {
  out.u8(static_cast<std::uint8_t>(kind()));
}

// ------------------------------------------------------------------ Dense ---

Dense::Dense(std::uint32_t in, std::uint32_t out, bool relu,
             std::uint32_t requant_shift, std::vector<std::int8_t> weights,
             std::vector<std::int32_t> bias)
    : in_{in},
      out_{out},
      relu_{relu},
      requant_shift_{requant_shift},
      weights_{std::move(weights)},
      bias_{std::move(bias)} {
  if (weights_.size() != static_cast<std::size_t>(in_) * out_ ||
      bias_.size() != out_) {
    throw std::invalid_argument("Dense: parameter size mismatch");
  }
  row_len_ = round_up_to_lane(in_);
  wide_ = widen_rows(weights_, out_, in_, row_len_);
}

std::string Dense::name() const {
  return "dense_" + std::to_string(in_) + "->" + std::to_string(out_);
}

TensorShape Dense::output_shape(const TensorShape& in) const {
  if (in.volume() != in_) throw std::invalid_argument("Dense: input mismatch");
  return TensorShape{out_, 1, 1};
}

Tensor Dense::forward(const Tensor& in) const {
  if (in.shape().volume() != in_) {
    throw std::invalid_argument("Dense: input mismatch");
  }
  TRACE_SPAN("vitis", "dense");
  Tensor out{TensorShape{out_, 1, 1}};
  std::vector<std::int16_t> col(row_len_, 0);
  std::copy(in.data().begin(), in.data().end(), col.begin());
  std::vector<std::int32_t> acc(out_);
  matvec(wide_.data(), out_, row_len_, col.data(), acc.data());
  for (std::uint32_t o = 0; o < out_; ++o) {
    out.data()[o] = requantize(bias_[o] + acc[o], requant_shift_, relu_);
  }
  return out;
}

std::size_t Dense::param_bytes() const noexcept {
  return weights_.size() + bias_.size() * sizeof(std::int32_t);
}

void Dense::serialize(util::ByteWriter& out) const {
  out.u8(static_cast<std::uint8_t>(kind()));
  out.u32(in_);
  out.u32(out_);
  out.u8(relu_ ? 1 : 0);
  out.u32(requant_shift_);
  put_params(out, weights_, bias_);
}

// ---------------------------------------------------------- deserializer ---

std::unique_ptr<Layer> deserialize_layer(util::ByteReader& in) {
  const auto kind = static_cast<LayerKind>(in.u8());
  switch (kind) {
    case LayerKind::kConv2d: {
      const std::uint32_t in_c = in.u32();
      const std::uint32_t out_c = in.u32();
      const std::uint32_t k = in.u32();
      const std::uint32_t stride = in.u32();
      const std::uint32_t pad = in.u32();
      const bool relu = get_flag(in);
      const std::uint32_t shift = in.u32();
      Params p = get_params(in);
      return std::make_unique<Conv2d>(in_c, out_c, k, stride, pad, relu, shift,
                                      std::move(p.weights), std::move(p.bias));
    }
    case LayerKind::kMaxPool2d: {
      const std::uint32_t k = in.u32();
      const std::uint32_t stride = in.u32();
      return std::make_unique<MaxPool2d>(k, stride);
    }
    case LayerKind::kGlobalAvgPool:
      return std::make_unique<GlobalAvgPool>();
    case LayerKind::kDense: {
      const std::uint32_t n_in = in.u32();
      const std::uint32_t n_out = in.u32();
      const bool relu = get_flag(in);
      const std::uint32_t shift = in.u32();
      Params p = get_params(in);
      return std::make_unique<Dense>(n_in, n_out, relu, shift,
                                     std::move(p.weights), std::move(p.bias));
    }
  }
  throw std::invalid_argument("xmodel: unknown layer kind");
}

std::vector<float> softmax(const Tensor& logits) {
  const auto& data = logits.data();
  float max_v = -1e30f;
  for (const std::int8_t v : data) max_v = std::max(max_v, static_cast<float>(v));
  std::vector<float> out(data.size());
  float sum = 0.0f;
  for (std::size_t i = 0; i < data.size(); ++i) {
    out[i] = std::exp((static_cast<float>(data[i]) - max_v) / 8.0f);
    sum += out[i];
  }
  for (auto& v : out) v /= sum;
  return out;
}

}  // namespace msa::vitis
