#include "vitis/layers.h"

#include <algorithm>
#include <cmath>
#include <cstring>
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

// ---- conv: 4 output channels x 8 output pixels per register block ----
//
// Weights are packed [channel block][k-pair q][channel j][2]: the int16
// pair (w[2q], w[2q+1]) of channel 4*block+j, one 32-bit pmaddwd lane,
// zero past the patch and past out_c. The column of one 8-pixel block is
// [q][pixel][2], the same pairs of the pixel's patch. Each pair product
// w0*x0 + w1*x1 of int8-range values fits int32, and every backend adds
// the pairs with int32 wrap-around, so all three produce identical sums.

constexpr std::size_t kBlockOc = 4;
constexpr std::size_t kBlockPx = 8;
/// int16s of packed weights per k-pair of a channel block.
constexpr std::size_t kPackedPair = 2 * kBlockOc;

struct ConvScratch {
  std::vector<std::int16_t> padded;  ///< zero-bordered input, [c][ph][pw]
  std::vector<std::size_t> taps;     ///< offset of each pair tap in padded
  std::vector<std::size_t> windows;  ///< window offset of each output pixel
  std::vector<std::int16_t> col;     ///< one block: [k-pair][pixel][2]
};

/// Per-thread scratch: forward() stays const, allocation-free once warm,
/// and safe to call on one layer from many threads at once.
thread_local ConvScratch t_conv;

/// bias + acc with int32 wrap-around, as paddd computes it.
std::int32_t wrapping_add(std::int32_t a, std::int32_t b) noexcept {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(a) +
                                   static_cast<std::uint32_t>(b));
}

std::int8_t requantize(std::int32_t acc, std::uint32_t shift, bool relu) {
  const std::int32_t scaled = acc >> shift;
  return static_cast<std::int8_t>(std::clamp(scaled, relu ? 0 : -128, 127));
}

/// out[j][p] = requantize(bias[j] + sum_q w(j, q) . col(p, q)).
void conv_block_scalar(const std::int16_t* w, const std::int16_t* col,
                       std::size_t pairs, const std::int32_t* bias,
                       std::uint32_t shift, bool relu,
                       std::int8_t (*out)[kBlockPx]) noexcept {
  std::uint32_t acc[kBlockOc][kBlockPx] = {};
  for (std::size_t q = 0; q < pairs; ++q, w += kPackedPair, col += 2 * kBlockPx) {
    for (std::size_t j = 0; j < kBlockOc; ++j) {
      const std::int16_t* wj = w + 2 * j;
      for (std::size_t p = 0; p < kBlockPx; ++p) {
        acc[j][p] += static_cast<std::uint32_t>(wj[0] * col[2 * p] +
                                                wj[1] * col[2 * p + 1]);
      }
    }
  }
  for (std::size_t j = 0; j < kBlockOc; ++j) {
    for (std::size_t p = 0; p < kBlockPx; ++p) {
      out[j][p] = requantize(
          wrapping_add(bias[j], static_cast<std::int32_t>(acc[j][p])), shift,
          relu);
    }
  }
}

#if defined(MSA_SIMD_SSE2)

/// Adds pair products of 8 pixels with channel J's weight pair, taken
/// from the block's four pairs `wq`, to the channel's two 4-pixel
/// accumulators.
template <int J>
void madd_channel(__m128i wq, __m128i x_lo, __m128i x_hi, __m128i& acc_lo,
                  __m128i& acc_hi) noexcept {
  const __m128i w = _mm_shuffle_epi32(wq, J * 0x55);
  acc_lo = _mm_add_epi32(acc_lo, _mm_madd_epi16(x_lo, w));
  acc_hi = _mm_add_epi32(acc_hi, _mm_madd_epi16(x_hi, w));
}

/// bias add, arithmetic shift, saturate to int16, relu, saturate to
/// int8: eight finished output bytes of one channel.
void requant_store(__m128i lo, __m128i hi, std::int32_t bias, __m128i shift,
                   bool relu, std::int8_t* out) noexcept {
  const __m128i b = _mm_set1_epi32(bias);
  __m128i v = _mm_packs_epi32(_mm_sra_epi32(_mm_add_epi32(lo, b), shift),
                              _mm_sra_epi32(_mm_add_epi32(hi, b), shift));
  if (relu) v = _mm_max_epi16(v, _mm_setzero_si128());
  _mm_storel_epi64(reinterpret_cast<__m128i*>(out), _mm_packs_epi16(v, v));
}

void conv_block_sse2(const std::int16_t* w, const std::int16_t* col,
                     std::size_t pairs, const std::int32_t* bias,
                     std::uint32_t shift, bool relu,
                     std::int8_t (*out)[kBlockPx]) noexcept {
  __m128i a0 = _mm_setzero_si128(), b0 = a0, a1 = a0, b1 = a0;
  __m128i a2 = a0, b2 = a0, a3 = a0, b3 = a0;
  for (std::size_t q = 0; q < pairs; ++q, w += kPackedPair, col += 2 * kBlockPx) {
    const __m128i x_lo = _mm_loadu_si128(reinterpret_cast<const __m128i*>(col));
    const __m128i x_hi =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(col + kBlockPx));
    const __m128i wq = _mm_loadu_si128(reinterpret_cast<const __m128i*>(w));
    madd_channel<0>(wq, x_lo, x_hi, a0, b0);
    madd_channel<1>(wq, x_lo, x_hi, a1, b1);
    madd_channel<2>(wq, x_lo, x_hi, a2, b2);
    madd_channel<3>(wq, x_lo, x_hi, a3, b3);
  }
  const __m128i sh = _mm_cvtsi32_si128(static_cast<int>(shift));
  requant_store(a0, b0, bias[0], sh, relu, out[0]);
  requant_store(a1, b1, bias[1], sh, relu, out[1]);
  requant_store(a2, b2, bias[2], sh, relu, out[2]);
  requant_store(a3, b3, bias[3], sh, relu, out[3]);
}

#elif defined(MSA_SIMD_NEON)

void conv_block_neon(const std::int16_t* w, const std::int16_t* col,
                     std::size_t pairs, const std::int32_t* bias,
                     std::uint32_t shift, bool relu,
                     std::int8_t (*out)[kBlockPx]) noexcept {
  int32x4_t lo[kBlockOc];
  int32x4_t hi[kBlockOc];
  for (std::size_t j = 0; j < kBlockOc; ++j) lo[j] = hi[j] = vdupq_n_s32(0);
  for (std::size_t q = 0; q < pairs; ++q, w += kPackedPair, col += 2 * kBlockPx) {
    // val[0] holds the first tap of each pixel's pair, val[1] the second.
    const int16x8x2_t x = vld2q_s16(col);
    for (std::size_t j = 0; j < kBlockOc; ++j) {
      const std::int16_t* wj = w + 2 * j;
      lo[j] = vmlal_n_s16(lo[j], vget_low_s16(x.val[0]), wj[0]);
      lo[j] = vmlal_n_s16(lo[j], vget_low_s16(x.val[1]), wj[1]);
      hi[j] = vmlal_n_s16(hi[j], vget_high_s16(x.val[0]), wj[0]);
      hi[j] = vmlal_n_s16(hi[j], vget_high_s16(x.val[1]), wj[1]);
    }
  }
  const int32x4_t sh = vdupq_n_s32(-static_cast<std::int32_t>(shift));
  for (std::size_t j = 0; j < kBlockOc; ++j) {
    const int32x4_t b = vdupq_n_s32(bias[j]);
    int16x8_t v = vcombine_s16(vqmovn_s32(vshlq_s32(vaddq_s32(lo[j], b), sh)),
                               vqmovn_s32(vshlq_s32(vaddq_s32(hi[j], b), sh)));
    if (relu) v = vmaxq_s16(v, vdupq_n_s16(0));
    vst1_s8(out[j], vqmovn_s16(v));
  }
}

#endif

using ConvBlockFn = void (*)(const std::int16_t* w, const std::int16_t* col,
                            std::size_t pairs, const std::int32_t* bias,
                            std::uint32_t shift, bool relu,
                            std::int8_t (*out)[kBlockPx]) noexcept;

/// The block kernel for this forward pass, called through a pointer: the
/// backend is chosen once, and the kernel keeps its registers to itself
/// rather than being inlined into the gather loop.
ConvBlockFn conv_block_for(bool simd) noexcept {
#if defined(MSA_SIMD_SSE2)
  if (simd) return conv_block_sse2;
#elif defined(MSA_SIMD_NEON)
  if (simd) return conv_block_neon;
#else
  (void)simd;
#endif
  return conv_block_scalar;
}

/// Zeros past the padded input, for the strided row loads below.
constexpr std::size_t kPaddedSlack = 2 * kBlockPx;

/// col[q][p][i] = padded[window[p] + taps[2q + i]]: pixel p's tap pair q,
/// for the block's first n pixels. Lanes past n keep what an earlier block
/// left there (int8-range values), and their outputs are dropped.
void gather_scalar(const std::int16_t* padded, const std::size_t* taps,
                   std::size_t pairs, const std::size_t* window, std::size_t n,
                   std::int16_t* col) noexcept {
  for (std::size_t tap = 0; tap < 2 * pairs; ++tap) {
    const std::int16_t* src = padded + taps[tap];
    std::int16_t* c = col + tap / 2 * 2 * kBlockPx + tap % 2;
    for (std::size_t p = 0; p < n; ++p) c[2 * p] = src[window[p]];
  }
}

#if defined(MSA_SIMD_SSE2)

/// p[0], p[stride], ..., p[7 * stride] for stride 1 or 2; reads up to
/// p[15].
__m128i load_strided(const std::int16_t* p, std::size_t stride) noexcept {
  const __m128i lo = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  if (stride == 1) return lo;
  const __m128i hi = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 8));
  // Sign-extend the even lanes to int32 and narrow them back; the values
  // are int8, so the saturating pack is exact.
  return _mm_packs_epi32(_mm_srai_epi32(_mm_slli_epi32(lo, 16), 16),
                         _mm_srai_epi32(_mm_slli_epi32(hi, 16), 16));
}

/// gather_scalar for windows at src + p * stride, stride 1 or 2.
void gather_row_sse2(const std::int16_t* src, const std::size_t* taps,
                     std::size_t pairs, std::size_t stride,
                     std::int16_t* col) noexcept {
  for (std::size_t q = 0; q < pairs; ++q, col += 2 * kBlockPx) {
    const __m128i a = load_strided(src + taps[2 * q], stride);
    const __m128i b = load_strided(src + taps[2 * q + 1], stride);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(col), _mm_unpacklo_epi16(a, b));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(col + kBlockPx),
                     _mm_unpackhi_epi16(a, b));
  }
}

#elif defined(MSA_SIMD_NEON)

/// gather_scalar for windows at src + p * stride, stride 1 or 2.
void gather_row_neon(const std::int16_t* src, const std::size_t* taps,
                     std::size_t pairs, std::size_t stride,
                     std::int16_t* col) noexcept {
  for (std::size_t q = 0; q < pairs; ++q, col += 2 * kBlockPx) {
    const std::int16_t* a = src + taps[2 * q];
    const std::int16_t* b = src + taps[2 * q + 1];
    const int16x8x2_t ab =
        stride == 1 ? vzipq_s16(vld1q_s16(a), vld1q_s16(b))
                    : vzipq_s16(vld2q_s16(a).val[0], vld2q_s16(b).val[0]);
    vst1q_s16(col, ab.val[0]);
    vst1q_s16(col + kBlockPx, ab.val[1]);
  }
}

#endif

/// Fills the column of a block of `n` pixels. A full block whose windows
/// are evenly spaced at stride 1 or 2 loads each tap's eight values as a
/// vector; other blocks gather value by value. In a full block every
/// step between windows is at least `stride` (a row jump is longer), so
/// first and last 7 strides apart means every step is one stride.
void gather_block(bool simd, const std::int16_t* padded,
                  const std::size_t* taps, std::size_t pairs,
                  const std::size_t* window, std::size_t n, std::size_t stride,
                  std::int16_t* col) noexcept {
#if defined(MSA_SIMD_SSE2) || defined(MSA_SIMD_NEON)
  if (simd && n == kBlockPx && stride <= 2 &&
      window[kBlockPx - 1] - window[0] == (kBlockPx - 1) * stride) {
#if defined(MSA_SIMD_SSE2)
    gather_row_sse2(padded + window[0], taps, pairs, stride, col);
#else
    gather_row_neon(padded + window[0], taps, pairs, stride, col);
#endif
    return;
  }
#else
  (void)simd;
  (void)stride;
#endif
  gather_scalar(padded, taps, pairs, window, n, col);
}

// ---- max-pool: elementwise signed-byte max ----

/// MaxPool2d's per-thread row buffer.
thread_local std::vector<std::int8_t> t_pool_row;

/// dst[i] = max(dst[i], src[i]) for i < n, in ascending i, so src may be
/// dst + 1 (a sliding-window max in place).
void max_into(std::int8_t* dst, const std::int8_t* src, std::size_t n) noexcept {
  std::size_t i = 0;
#if defined(MSA_SIMD_SSE2)
  if (img::simd_enabled()) {
    // SSE2 has only an unsigned byte max: flipping the sign bit maps
    // signed order onto unsigned order.
    const __m128i flip = _mm_set1_epi8(static_cast<char>(0x80));
    for (; i + 16 <= n; i += 16) {
      const __m128i d = _mm_xor_si128(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i)), flip);
      const __m128i s = _mm_xor_si128(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i)), flip);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                       _mm_xor_si128(_mm_max_epu8(d, s), flip));
    }
  }
#elif defined(MSA_SIMD_NEON)
  if (img::simd_enabled()) {
    for (; i + 16 <= n; i += 16) {
      vst1q_s8(dst + i, vmaxq_s8(vld1q_s8(dst + i), vld1q_s8(src + i)));
    }
  }
#endif
  for (; i < n; ++i) dst[i] = std::max(dst[i], src[i]);
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

/// Reads put_params()'s tail as views into the container.
void get_params(util::ByteReader& in, LayerRecord& r) {
  r.weights = in.bytes(in.u32());
  const std::uint32_t n_b = in.u32();
  // Validate the length BEFORE anyone sizes a vector by it: residue
  // parsing must reject corrupted counts, not ask the allocator for 16 GiB.
  if (static_cast<std::uint64_t>(n_b) * 4 > in.remaining()) {
    throw std::invalid_argument("xmodel: truncated bias");
  }
  r.bias = in.bytes(std::size_t{n_b} * 4);
}

// The checks and shape rules of each layer kind, shared by the layer
// classes and read_layer(), so a parsed record is checked exactly as
// its layer's constructor would check it.

/// Above 31 the scalar `acc >> shift` is undefined and psrad sign-fills,
/// so residue-parsed layers must not get that far.
void check_shift(std::uint32_t shift, const char* what) {
  if (shift > 31) {
    throw std::invalid_argument(std::string{what} + ": requant shift above 31");
  }
}

/// Returns the patch size in_c*k*k.
std::size_t check_conv(std::uint32_t in_c, std::uint32_t out_c, std::uint32_t k,
                       std::uint32_t stride, std::uint32_t shift,
                       std::size_t n_weights, std::size_t n_bias) {
  if (stride == 0 || k == 0) throw std::invalid_argument("Conv2d: bad geometry");
  check_shift(shift, "Conv2d");
  // Checked products: parsed residue may carry any geometry, and a
  // wrapped size must not pass for the weight count.
  std::size_t patch = 0;
  std::size_t expect = 0;
  if (__builtin_mul_overflow(std::size_t{in_c}, std::size_t{k} * k, &patch) ||
      __builtin_mul_overflow(patch, std::size_t{out_c}, &expect) ||
      n_weights != expect || n_bias != out_c) {
    throw std::invalid_argument("Conv2d: parameter size mismatch");
  }
  return patch;
}

void check_pool(std::uint32_t k, std::uint32_t stride) {
  if (k == 0 || stride == 0) throw std::invalid_argument("MaxPool2d: bad geometry");
}

/// Dense's checks run before its conv is built, so a bad layer throws as
/// "Dense: ..." and never reaches Conv2d's own checks.
void check_dense(std::uint32_t in, std::uint32_t out, std::uint32_t shift,
                 std::size_t n_weights, std::size_t n_bias) {
  if (n_weights != static_cast<std::size_t>(in) * out || n_bias != out) {
    throw std::invalid_argument("Dense: parameter size mismatch");
  }
  check_shift(shift, "Dense");
}

TensorShape conv_shape(std::uint32_t in_c, std::uint32_t out_c, std::uint32_t k,
                       std::uint32_t stride, std::uint32_t pad,
                       const TensorShape& in) {
  if (in.c != in_c) throw std::invalid_argument("Conv2d: channel mismatch");
  if (in.h + 2 * pad < k || in.w + 2 * pad < k) {
    throw std::invalid_argument("Conv2d: input smaller than kernel");
  }
  return TensorShape{out_c, (in.h + 2 * pad - k) / stride + 1,
                     (in.w + 2 * pad - k) / stride + 1};
}

TensorShape pool_shape(std::uint32_t k, std::uint32_t stride,
                       const TensorShape& in) {
  if (in.h < k || in.w < k) {
    throw std::invalid_argument("MaxPool2d: input smaller than window");
  }
  return TensorShape{in.c, (in.h - k) / stride + 1, (in.w - k) / stride + 1};
}

TensorShape dense_shape(std::uint32_t in_c, std::uint32_t out_c,
                        const TensorShape& in) {
  if (in.volume() != in_c) throw std::invalid_argument("Dense: input mismatch");
  return TensorShape{out_c, 1, 1};
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
  const std::size_t patch = check_conv(in_c_, out_c_, k_, stride_,
                                       requant_shift_, weights_.size(),
                                       bias_.size());
  pairs_ = (patch + 1) / 2;
  const std::size_t blocks = (std::size_t{out_c_} + kBlockOc - 1) / kBlockOc;
  // Each channel row is copied pair by pair into its lane of the block.
  packed_.assign(blocks * pairs_ * kPackedPair, 0);
  for (std::size_t oc = 0; oc < out_c_; ++oc) {
    const std::int8_t* row = weights_.data() + oc * patch;
    std::int16_t* dst = packed_.data() + oc / kBlockOc * pairs_ * kPackedPair +
                        oc % kBlockOc * 2;
    for (std::size_t t = 0; t + 1 < patch; t += 2, dst += kPackedPair) {
      dst[0] = row[t];
      dst[1] = row[t + 1];
    }
    if (patch % 2 == 1) dst[0] = row[patch - 1];
  }
}

std::string Conv2d::name() const {
  return "conv" + std::to_string(k_) + "x" + std::to_string(k_) + "_" +
         std::to_string(in_c_) + "->" + std::to_string(out_c_);
}

TensorShape Conv2d::output_shape(const TensorShape& in) const {
  return conv_shape(in_c_, out_c_, k_, stride_, pad_, in);
}

Tensor Conv2d::forward(const Tensor& in) const {
  TRACE_SPAN("vitis", "conv2d");
  return run(in.data().data(), in.shape());
}

Tensor Conv2d::run(const std::int8_t* src, const TensorShape& ish) const {
  const TensorShape os = output_shape(ish);
  Tensor out{os};
  std::int8_t* dst = out.data().data();
  const std::size_t out_plane = static_cast<std::size_t>(os.h) * os.w;
  ConvScratch& s = t_conv;
  const bool simd = img::simd_enabled();
  const ConvBlockFn kernel = conv_block_for(simd);
  // A zero-bordered int16 copy of the input: every tap of every window
  // is then an in-bounds read, and padding reads as zero.
  const std::size_t ph = ish.h + 2 * static_cast<std::size_t>(pad_);
  const std::size_t pw = ish.w + 2 * static_cast<std::size_t>(pad_);
  s.padded.assign(in_c_ * ph * pw + kPaddedSlack, 0);
  if (pad_ == 0) {
    // No border: the rows stay contiguous, one widening copy.
    std::copy_n(src, ish.volume(), s.padded.data());
  } else {
    for (std::uint32_t ic = 0; ic < in_c_; ++ic) {
      for (std::uint32_t y = 0; y < ish.h; ++y) {
        const std::int8_t* row =
            src + (static_cast<std::size_t>(ic) * ish.h + y) * ish.w;
        std::copy_n(row, ish.w,
                    s.padded.data() + (ic * ph + y + pad_) * pw + pad_);
      }
    }
  }
  // Window-relative offset of each tap in weight order [ic][ky][kx]; an
  // odd patch's last pair gets a dummy tap that meets a zero weight.
  s.taps.assign(2 * pairs_, 0);
  std::size_t t = 0;
  for (std::size_t ic = 0; ic < in_c_; ++ic) {
    for (std::size_t ky = 0; ky < k_; ++ky) {
      for (std::size_t kx = 0; kx < k_; ++kx) s.taps[t++] = (ic * ph + ky) * pw + kx;
    }
  }
  s.col.resize(pairs_ * 2 * kBlockPx);
  std::int16_t* const col = s.col.data();
  const std::int16_t* const padded = s.padded.data();
  // Window offset of every output pixel.
  s.windows.clear();
  for (std::size_t oy = 0; oy < os.h; ++oy) {
    for (std::size_t ox = 0; ox < os.w; ++ox) {
      s.windows.push_back((oy * pw + ox) * stride_);
    }
  }
  const std::size_t blocks = (std::size_t{out_c_} + kBlockOc - 1) / kBlockOc;
  for (std::size_t p0 = 0; p0 < out_plane; p0 += kBlockPx) {
    const std::size_t n = std::min(kBlockPx, out_plane - p0);
    const std::size_t* window = s.windows.data() + p0;
    gather_block(simd, padded, s.taps.data(), pairs_, window, n, stride_, col);
    for (std::size_t b = 0; b < blocks; ++b) {
      std::int32_t bias[kBlockOc] = {};
      const std::size_t oc0 = b * kBlockOc;
      const std::size_t chans = std::min(kBlockOc, std::size_t{out_c_} - oc0);
      std::copy_n(bias_.data() + oc0, chans, bias);
      std::int8_t res[kBlockOc][kBlockPx];
      kernel(packed_.data() + b * pairs_ * kPackedPair, col, pairs_, bias,
                 requant_shift_, relu_, res);
      for (std::size_t j = 0; j < chans; ++j) {
        std::int8_t* o = dst + (oc0 + j) * out_plane + p0;
        // A whole block's constant-size copy is one 8-byte store.
        if (n == kBlockPx) {
          std::memcpy(o, res[j], kBlockPx);
        } else {
          std::memcpy(o, res[j], n);
        }
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
  check_pool(k_, stride_);
}

std::string MaxPool2d::name() const {
  return "maxpool" + std::to_string(k_) + "s" + std::to_string(stride_);
}

TensorShape MaxPool2d::output_shape(const TensorShape& in) const {
  return pool_shape(k_, stride_, in);
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
  // Per output row: the max down each column of the k window rows, then
  // the max across k neighbours in place, then every stride-th result.
  std::vector<std::int8_t>& vmax = t_pool_row;
  vmax.resize(ish.w);
  for (std::uint32_t c = 0; c < os.c; ++c) {
    const std::int8_t* plane = src + static_cast<std::size_t>(c) * in_plane;
    std::int8_t* out_row = dst + static_cast<std::size_t>(c) * out_plane;
    for (std::uint32_t oy = 0; oy < os.h; ++oy, out_row += os.w) {
      const std::int8_t* rows =
          plane + static_cast<std::size_t>(oy) * stride_ * ish.w;
      std::copy_n(rows, ish.w, vmax.data());
      for (std::uint32_t ky = 1; ky < k_; ++ky) {
        max_into(vmax.data(), rows + static_cast<std::size_t>(ky) * ish.w, ish.w);
      }
      for (std::uint32_t kx = 1; kx < k_; ++kx) {
        max_into(vmax.data(), vmax.data() + 1, ish.w - kx);
      }
      for (std::uint32_t ox = 0; ox < os.w; ++ox) {
        out_row[ox] = vmax[static_cast<std::size_t>(ox) * stride_];
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

namespace {

Conv2d dense_as_conv(std::uint32_t in, std::uint32_t out, bool relu,
                     std::uint32_t requant_shift, std::vector<std::int8_t> weights,
                     std::vector<std::int32_t> bias) {
  check_dense(in, out, requant_shift, weights.size(), bias.size());
  return Conv2d{in, out, 1, 1, 0, relu, requant_shift, std::move(weights),
                std::move(bias)};
}

}  // namespace

Dense::Dense(std::uint32_t in, std::uint32_t out, bool relu,
             std::uint32_t requant_shift, std::vector<std::int8_t> weights,
             std::vector<std::int32_t> bias)
    : conv_{dense_as_conv(in, out, relu, requant_shift, std::move(weights),
                          std::move(bias))} {}

std::string Dense::name() const {
  return "dense_" + std::to_string(conv_.in_c_) + "->" +
         std::to_string(conv_.out_c_);
}

TensorShape Dense::output_shape(const TensorShape& in) const {
  return dense_shape(conv_.in_c_, conv_.out_c_, in);
}

Tensor Dense::forward(const Tensor& in) const {
  if (in.shape().volume() != conv_.in_c_) {
    throw std::invalid_argument("Dense: input mismatch");
  }
  TRACE_SPAN("vitis", "dense");
  // A CHW tensor's bytes are already its flattened [in,1,1] column.
  return conv_.run(in.data().data(), TensorShape{conv_.in_c_, 1, 1});
}

std::size_t Dense::param_bytes() const noexcept { return conv_.param_bytes(); }

void Dense::serialize(util::ByteWriter& out) const {
  out.u8(static_cast<std::uint8_t>(kind()));
  out.u32(conv_.in_c_);
  out.u32(conv_.out_c_);
  out.u8(conv_.relu_ ? 1 : 0);
  out.u32(conv_.requant_shift_);
  put_params(out, conv_.weights(), conv_.bias());
}

// ---------------------------------------------------------- deserializer ---

LayerRecord read_layer(util::ByteReader& in) {
  LayerRecord r;
  r.kind = static_cast<LayerKind>(in.u8());
  switch (r.kind) {
    case LayerKind::kConv2d:
      r.in_c = in.u32();
      r.out_c = in.u32();
      r.k = in.u32();
      r.stride = in.u32();
      r.pad = in.u32();
      r.relu = get_flag(in);
      r.shift = in.u32();
      get_params(in, r);
      (void)check_conv(r.in_c, r.out_c, r.k, r.stride, r.shift,
                       r.weights.size(), r.bias.size() / 4);
      return r;
    case LayerKind::kMaxPool2d:
      r.k = in.u32();
      r.stride = in.u32();
      check_pool(r.k, r.stride);
      return r;
    case LayerKind::kGlobalAvgPool:
      return r;
    case LayerKind::kDense:
      r.in_c = in.u32();
      r.out_c = in.u32();
      r.relu = get_flag(in);
      r.shift = in.u32();
      get_params(in, r);
      check_dense(r.in_c, r.out_c, r.shift, r.weights.size(), r.bias.size() / 4);
      return r;
  }
  throw std::invalid_argument("xmodel: unknown layer kind");
}

TensorShape LayerRecord::output_shape(const TensorShape& in) const {
  switch (kind) {
    case LayerKind::kConv2d:
      return conv_shape(in_c, out_c, k, stride, pad, in);
    case LayerKind::kMaxPool2d:
      return pool_shape(k, stride, in);
    case LayerKind::kGlobalAvgPool:
      return TensorShape{in.c, 1, 1};
    case LayerKind::kDense:
      return dense_shape(in_c, out_c, in);
  }
  throw std::invalid_argument("xmodel: unknown layer kind");
}

std::unique_ptr<Layer> make_layer(const LayerRecord& r) {
  const auto weights = [&] {
    return std::vector<std::int8_t>(r.weights.begin(), r.weights.end());
  };
  const auto bias = [&] {
    std::vector<std::int32_t> out(r.bias.size() / 4);
    util::ByteReader in{r.bias};
    for (std::int32_t& b : out) b = static_cast<std::int32_t>(in.u32());
    return out;
  };
  switch (r.kind) {
    case LayerKind::kConv2d:
      return std::make_unique<Conv2d>(r.in_c, r.out_c, r.k, r.stride, r.pad,
                                      r.relu, r.shift, weights(), bias());
    case LayerKind::kMaxPool2d:
      return std::make_unique<MaxPool2d>(r.k, r.stride);
    case LayerKind::kGlobalAvgPool:
      return std::make_unique<GlobalAvgPool>();
    case LayerKind::kDense:
      return std::make_unique<Dense>(r.in_c, r.out_c, r.relu, r.shift,
                                     weights(), bias());
  }
  throw std::invalid_argument("xmodel: unknown layer kind");
}

std::unique_ptr<Layer> deserialize_layer(util::ByteReader& in) {
  return make_layer(read_layer(in));
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
