#include "dram/remanence.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "obs/trace.h"

namespace msa::dram {

namespace {

constexpr std::uint64_t kChunk = 1 << 16;
constexpr std::size_t kWordBatch = 4096;  // 32 KiB of buffered draws
// The most draws one 64-bit data word can take (an anti-cell and a flip
// draw per bit). With this many buffered at the start of a word, its
// walk never checks for a refill, and the flip draw it reads ahead of a
// bit that turns out not to need one is always in bounds.
constexpr std::size_t kHeadroom = 128;
static_assert(kWordBatch > kHeadroom);

// Integer form of `uniform01(w) < t` for 0 < t < 1: the draw is
// x·2⁻⁵³ with x = w >> 11 an integer, so x·2⁻⁵³ < t ⇔ x < ceil(t·2⁵³)
// ⇔ w < ceil(t·2⁵³)·2¹¹, exactly. ceil(t·2⁵³) ≤ 2⁵³ − 1 for any
// double t < 1, so the shift cannot overflow.
std::uint64_t raw_threshold(double t) noexcept {
  return static_cast<std::uint64_t>(std::ceil(std::ldexp(t, 53))) << 11;
}

// Moves the unconsumed draws to the front of scratch.words and fills
// the rest from `prng`, so draws are still consumed in stream order.
void refill(RemanenceScratch& scratch, util::Prng& prng) {
  TRACE_SPAN("trial", "residue_decay/prng_fill");
  auto& words = scratch.words;
  const std::size_t kept = words.size() - scratch.next_word;
  std::copy(words.begin() + static_cast<std::ptrdiff_t>(scratch.next_word),
            words.end(), words.begin());
  words.resize(kWordBatch);
  // A local copy keeps the generator state in registers: stores into
  // `words` could otherwise alias it.
  util::Prng local = prng;
  for (std::size_t i = kept; i < kWordBatch; ++i) words[i] = local();
  prng = local;
  scratch.next_word = 0;
}

// Decides the bits of one data word, low bit first, in the original
// per-bit draw order: an anti-cell draw per bit iff 0 < f < 1, then a
// flip draw iff the stored bit differs from its discharge value and
// p < 1. `w[k]` is the next unconsumed draw; returns the flip mask.
template <bool kMixed, bool kPCertain>
std::uint64_t walk_word(std::uint64_t word, unsigned bits, bool anti_all1,
                        const std::uint64_t* w, std::size_t& k,
                        std::uint64_t f_raw, std::uint64_t p_raw) noexcept {
  std::uint64_t mask = 0;
  std::size_t at = k;
  if constexpr (kMixed) {
    // Branch-free: every bit reads its anti draw and the following
    // word as its flip draw, and the cursor moves past that flip draw
    // only when the bit needs one.
    for (unsigned bit = 0; bit < bits; ++bit) {
      const std::uint64_t need = ((word >> bit) & 1u) ^
                                 static_cast<std::uint64_t>(w[at] < f_raw);
      if constexpr (kPCertain) {
        mask |= need << bit;
        at += 1;
      } else {
        mask |= (need & static_cast<std::uint64_t>(w[at + 1] < p_raw)) << bit;
        at += 1 + need;
      }
    }
  } else {
    // Every cell discharges to the same value: the bits that need a
    // flip draw are known up front, and each takes exactly one.
    std::uint64_t need = anti_all1 ? ~word : word;
    if (bits < 64) need &= (std::uint64_t{1} << bits) - 1;
    if constexpr (kPCertain) {
      mask = need;
    } else {
      for (; need != 0; need &= need - 1) {
        mask |= static_cast<std::uint64_t>(w[at++] < p_raw)
                << std::countr_zero(need);
      }
    }
  }
  k = at;
  return mask;
}

// Decays one chunk in place, eight data bytes (little-endian) per
// walk; a partial final word is the same walk over its 8·r bits.
template <bool kMixed, bool kPCertain>
std::uint64_t decay_chunk(std::uint8_t* data, std::size_t n, double p,
                          double f, RemanenceScratch& scratch,
                          util::Prng& prng) {
  const bool anti_all1 = f >= 1.0;
  const std::uint64_t f_raw = kMixed ? raw_threshold(f) : 0;
  const std::uint64_t p_raw = kPCertain ? 0 : raw_threshold(p);
  std::uint64_t flipped = 0;
  for (std::size_t i = 0; i < n; i += 8) {
    const std::size_t r = std::min<std::size_t>(8, n - i);
    std::uint64_t word = 0;
    for (std::size_t b = 0; b < r; ++b) {
      word |= static_cast<std::uint64_t>(data[i + b]) << (8 * b);
    }
    if (scratch.words.size() - scratch.next_word < kHeadroom) {
      refill(scratch, prng);
    }
    const std::uint64_t mask = walk_word<kMixed, kPCertain>(
        word, static_cast<unsigned>(8 * r), anti_all1, scratch.words.data(),
        scratch.next_word, f_raw, p_raw);
    if (mask != 0) {
      word ^= mask;
      for (std::size_t b = 0; b < r; ++b) {
        data[i + b] = static_cast<std::uint8_t>(word >> (8 * b));
      }
      flipped += static_cast<std::uint64_t>(std::popcount(mask));
    }
  }
  return flipped;
}

}  // namespace

RemanenceModel::RemanenceModel(RemanenceParams params) : params_{params} {
  const double f = params_.anti_cell_fraction;
  if (!(f >= 0.0 && f <= 1.0)) {
    throw std::invalid_argument(
        "RemanenceModel: anti_cell_fraction must be in [0, 1]");
  }
  const double half_life = params_.retention_half_life_s;
  if (!params_.refresh_active &&
      !(std::isfinite(half_life) && half_life > 0.0)) {
    throw std::invalid_argument(
        "RemanenceModel: retention_half_life_s must be finite and positive "
        "when refresh is off");
  }
}

double RemanenceModel::decay_probability(double elapsed_s) const noexcept {
  if (params_.refresh_active || elapsed_s <= 0.0) return 0.0;
  // P(decayed) = 1 - 2^(-t / half_life)
  return 1.0 - std::exp2(-elapsed_s / params_.retention_half_life_s);
}

std::uint64_t RemanenceModel::apply(DramModel& dram, PhysAddr addr,
                                    std::uint64_t len, double elapsed_s,
                                    util::Prng& prng,
                                    RemanenceScratch& scratch) const {
  if (std::isnan(elapsed_s)) {
    throw std::invalid_argument("RemanenceModel::apply: elapsed_s is NaN");
  }
  const double p = decay_probability(elapsed_s);
  if (p <= 0.0) return 0;
  const double f = params_.anti_cell_fraction;
  const bool mixed = f > 0.0 && f < 1.0;
  const bool p_certain = p >= 1.0;
  const auto decay = mixed ? (p_certain ? decay_chunk<true, true>
                                        : decay_chunk<true, false>)
                           : (p_certain ? decay_chunk<false, true>
                                        : decay_chunk<false, false>);
  std::uint64_t flipped = 0;
  while (len > 0) {
    const std::size_t chunk =
        static_cast<std::size_t>(len < kChunk ? len : kChunk);
    if (scratch.bytes.size() < chunk) scratch.bytes.resize(chunk);
    const std::span<std::uint8_t> view{scratch.bytes.data(), chunk};
    dram.read_block(addr, view);
    const std::uint64_t chunk_flips =
        decay(view.data(), chunk, p, f, scratch, prng);
    if (chunk_flips > 0) dram.write_block(addr, view);
    flipped += chunk_flips;
    addr += chunk;
    len -= chunk;
  }
  return flipped;
}

}  // namespace msa::dram
