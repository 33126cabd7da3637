#include "campaign/gate.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <span>
#include <vector>

#include "campaign/table.h"
#include "obs/trace.h"
#include "util/prng.h"
#include "util/simd.h"

#if defined(MSA_SIMD_AVX2)
#include <immintrin.h>
#elif defined(MSA_SIMD_SSE2)
#include <emmintrin.h>
#endif

namespace msa::campaign {

const char* gate_direction_name(GateDirection d) noexcept {
  switch (d) {
    case GateDirection::kRegress: return "regress";
    case GateDirection::kImprove: return "improve";
    case GateDirection::kAny: return "any";
  }
  return "?";
}

bool parse_gate_direction(std::string_view name,
                          GateDirection* direction) noexcept {
  if (name == "regress") *direction = GateDirection::kRegress;
  else if (name == "improve") *direction = GateDirection::kImprove;
  else if (name == "any") *direction = GateDirection::kAny;
  else return false;
  return true;
}

double metric_orientation(DiffMetric metric) noexcept {
  // Higher success rate and higher reconstruction fidelity favor the
  // attack; a higher denial rate means the attack was stopped more.
  return metric == DiffMetric::kDenialRate ? -1.0 : 1.0;
}

namespace {

/// Resamples summed side by side by one kernel call.
constexpr std::size_t kLanes = 8;

/// The kLanes resample sums of one batch: lane l adds delta i negated
/// when bit i % 64 of its word i / 64 (words[l * n_words + i / 64]) is
/// CLEAR. A clear bit negates its delta; negation flips the sign bit and
/// nothing else, so XOR-ing the bit's complement into bit 63 adds the
/// same doubles in the same order as `bit ? d : -d`, without a branch
/// that mispredicts on every other pair. Each lane adds its deltas in
/// delta order, so every lane's sum is bit-identical to a one-resample
/// loop's.
void lane_sums_scalar(const std::vector<std::uint64_t>& delta_bits,
                      const std::uint64_t* words, std::size_t n_words,
                      double* sums) {
  double s[kLanes] = {};
  for (std::size_t word = 0; word < n_words; ++word) {
    std::uint64_t negate[kLanes];
    for (std::size_t l = 0; l < kLanes; ++l) {
      negate[l] = ~words[l * n_words + word];
    }
    const std::size_t end = std::min(delta_bits.size(), (word + 1) * 64);
    for (std::size_t i = word * 64; i < end; ++i) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        s[l] += std::bit_cast<double>(delta_bits[i] ^ (negate[l] << 63));
        negate[l] >>= 1;
      }
    }
  }
  std::copy(s, s + kLanes, sums);
}

#if defined(MSA_SIMD_SSE2)
/// lane_sums_scalar as 4 x 2 doubles: lane pair (2k, 2k+1) lives in
/// register k, low half first. _mm_add_pd rounds each half exactly as
/// the scalar add does.
void lane_sums_sse2(const std::vector<std::uint64_t>& delta_bits,
                    const std::uint64_t* words, std::size_t n_words,
                    double* sums) {
  constexpr std::size_t kPairs = kLanes / 2;
  __m128d s[kPairs];
  for (__m128d& acc : s) acc = _mm_setzero_pd();
  for (std::size_t word = 0; word < n_words; ++word) {
    __m128i negate[kPairs];
    for (std::size_t k = 0; k < kPairs; ++k) {
      negate[k] = _mm_set_epi64x(
          static_cast<long long>(~words[(2 * k + 1) * n_words + word]),
          static_cast<long long>(~words[2 * k * n_words + word]));
    }
    const std::size_t end = std::min(delta_bits.size(), (word + 1) * 64);
    for (std::size_t i = word * 64; i < end; ++i) {
      const __m128i d = _mm_set1_epi64x(static_cast<long long>(delta_bits[i]));
      for (std::size_t k = 0; k < kPairs; ++k) {
        const __m128i flipped = _mm_xor_si128(d, _mm_slli_epi64(negate[k], 63));
        s[k] = _mm_add_pd(s[k], _mm_castsi128_pd(flipped));
        negate[k] = _mm_srli_epi64(negate[k], 1);
      }
    }
  }
  for (std::size_t k = 0; k < kPairs; ++k) _mm_storeu_pd(sums + 2 * k, s[k]);
}
#endif

#if defined(MSA_SIMD_AVX2)
/// lane_sums_scalar as 2 x 4 doubles: lanes 4k..4k+3 live in register k,
/// lowest lane first. _mm256_add_pd rounds each lane exactly as the
/// scalar add does.
__attribute__((target("avx2"))) void lane_sums_avx2(
    const std::vector<std::uint64_t>& delta_bits, const std::uint64_t* words,
    std::size_t n_words, double* sums) {
  constexpr std::size_t kQuads = kLanes / 4;
  __m256d s[kQuads];
  for (__m256d& acc : s) acc = _mm256_setzero_pd();
  for (std::size_t word = 0; word < n_words; ++word) {
    __m256i negate[kQuads];
    for (std::size_t k = 0; k < kQuads; ++k) {
      const auto lane = [&](std::size_t l) {
        return static_cast<long long>(~words[(4 * k + l) * n_words + word]);
      };
      negate[k] = _mm256_set_epi64x(lane(3), lane(2), lane(1), lane(0));
    }
    const std::size_t end = std::min(delta_bits.size(), (word + 1) * 64);
    for (std::size_t i = word * 64; i < end; ++i) {
      const __m256i d =
          _mm256_set1_epi64x(static_cast<long long>(delta_bits[i]));
      for (std::size_t k = 0; k < kQuads; ++k) {
        const __m256i flipped =
            _mm256_xor_si256(d, _mm256_slli_epi64(negate[k], 63));
        s[k] = _mm256_add_pd(s[k], _mm256_castsi256_pd(flipped));
        negate[k] = _mm256_srli_epi64(negate[k], 1);
      }
    }
  }
  for (std::size_t k = 0; k < kQuads; ++k) {
    _mm256_storeu_pd(sums + 4 * k, s[k]);
  }
}
#endif

}  // namespace

PermutationResult paired_permutation_test(const std::vector<double>& deltas,
                                          std::uint64_t seed,
                                          std::uint64_t iterations,
                                          bool two_sided) {
  PermutationResult r;
  r.paired_cells = deltas.size();
  r.iterations = iterations;
  if (deltas.empty()) return r;

  const double n = static_cast<double>(deltas.size());
  double sum = 0.0;
  for (const double d : deltas) sum += d;
  r.observed_stat = sum / n;
  if (iterations == 0) return r;

  // One PRNG bit per pair per resample, drawn 64 at a time. The ">="
  // comparison is deliberate: resamples that tie the observed statistic
  // (including the identity assignment, always present in the sampled
  // space) count as extreme, which keeps the estimate conservative and
  // makes a grid of all-zero deltas come out at exactly p = 1.
  const double threshold =
      two_sided ? std::abs(r.observed_stat) : r.observed_stat;
  std::vector<std::uint64_t> delta_bits(deltas.size());
  std::ranges::transform(deltas, delta_bits.begin(), [](double d) {
    return std::bit_cast<std::uint64_t>(d);
  });
  auto* lane_sums = &lane_sums_scalar;
#if defined(MSA_SIMD_SSE2)
  if (util::simd_level() >= util::SimdLevel::kSse2) lane_sums = &lane_sums_sse2;
#endif
#if defined(MSA_SIMD_AVX2)
  if (util::simd_level() >= util::SimdLevel::kAvx2) lane_sums = &lane_sums_avx2;
#endif
  // Batches of kLanes consecutive resamples: their words are drawn in
  // stream order (resample by resample), so resample k sees the same
  // bits as in a one-at-a-time loop. A short last batch leaves its
  // unused lanes zero and ignores them.
  const std::size_t n_words = (deltas.size() + 63) / 64;
  std::vector<std::uint64_t> words(kLanes * n_words);
  util::Prng prng{seed};
  std::uint64_t hits = 0;
  for (std::uint64_t it = 0; it < iterations; it += kLanes) {
    const auto active = static_cast<std::size_t>(
        std::min<std::uint64_t>(kLanes, iterations - it));
    for (std::uint64_t& w : std::span{words}.first(active * n_words)) {
      w = prng();
    }
    double sums[kLanes];
    lane_sums(delta_bits, words.data(), n_words, sums);
    for (std::size_t l = 0; l < active; ++l) {
      const double stat = sums[l] / n;
      if ((two_sided ? std::abs(stat) : stat) >= threshold) ++hits;
    }
  }
  r.at_least_as_extreme = hits;
  r.p_value = (static_cast<double>(hits) + 1.0) /
              (static_cast<double>(iterations) + 1.0);
  return r;
}

std::uint64_t gate_seed(std::uint64_t fingerprint_a,
                        std::uint64_t fingerprint_b) noexcept {
  // Two splitmix64 rounds with the second fingerprint folded in between:
  // order-sensitive, well-mixed even when both fingerprints are equal
  // (the golden-baseline case: same grid swept twice).
  std::uint64_t state = fingerprint_a;
  (void)util::splitmix64(state);
  state ^= fingerprint_b;
  return util::splitmix64(state);
}

namespace {

/// Does an oriented (regress-positive) delta move in the gated
/// direction? Zero deltas never match: "nothing moved" trips nothing.
bool direction_matches(GateDirection direction, double oriented) {
  switch (direction) {
    case GateDirection::kRegress: return oriented > 0.0;
    case GateDirection::kImprove: return oriented < 0.0;
    case GateDirection::kAny: return oriented != 0.0;
  }
  return false;
}

/// BH-adjusted per-cell p-values for the gated metric: the diff already
/// carries them for the success rate; the denial rate runs the same
/// Newcombe inversion over the denial counts. PSNR has no per-cell test
/// (a percentile shift carries no counts) — empty result, permutation
/// only.
std::vector<double> per_cell_fdr(const DiffReport& diff, DiffMetric metric) {
  std::vector<double> p;
  p.reserve(diff.cells.size());
  switch (metric) {
    case DiffMetric::kSuccessRate:
      for (const CellDelta& d : diff.cells) p.push_back(d.p_value_fdr);
      return p;
    case DiffMetric::kDenialRate:
      for (const CellDelta& d : diff.cells) {
        p.push_back(newcombe_p_value(d.denials_a, d.trials_a, d.denials_b,
                                     d.trials_b));
      }
      return benjamini_hochberg(p);
    case DiffMetric::kPsnrP50:
      return {};
  }
  return {};
}

}  // namespace

GateResult evaluate_gate(const DiffReport& diff, const GateSpec& spec,
                         std::uint64_t seed) {
  TRACE_SPAN("campaign", "evaluate_gate");
  GateResult out;
  out.spec = spec;
  out.seed = seed;

  const double orientation = metric_orientation(spec.metric);
  std::vector<double> oriented = paired_deltas(diff, spec.metric);
  for (double& d : oriented) d *= orientation;

  // The permutation statistic is direction-adjusted so "extreme" always
  // means "in the gated direction": improve-gating negates the oriented
  // deltas, any-gating goes two-sided (sign-flips make the null
  // symmetric, so two-sided needs no adjustment).
  const bool two_sided = spec.direction == GateDirection::kAny;
  std::vector<double> stat_deltas = oriented;
  if (spec.direction == GateDirection::kImprove) {
    for (double& d : stat_deltas) d = -d;
  }
  out.permutation =
      paired_permutation_test(stat_deltas, seed, spec.iterations, two_sided);
  out.grid_tripped =
      out.permutation.p_value <= spec.alpha &&
      std::abs(out.permutation.observed_stat) >= spec.min_effect &&
      (two_sided ? out.permutation.observed_stat != 0.0
                 : out.permutation.observed_stat > 0.0);

  const std::vector<double> fdr = per_cell_fdr(diff, spec.metric);
  for (std::size_t i = 0; i < fdr.size(); ++i) {
    const CellDelta& d = diff.cells[i];
    const double delta = cell_metric_delta(d, spec.metric);
    if (fdr[i] <= spec.alpha &&
        direction_matches(spec.direction, orientation * delta) &&
        std::abs(delta) >= spec.min_effect) {
      out.tripped_cells.push_back({d.key, delta, fdr[i]});
    }
  }
  return out;
}

std::string GateResult::verdict_line() const {
  std::string line = tripped() ? "regression gate TRIPPED" : "gate clean";
  line += ": metric=";
  line += diff_metric_name(spec.metric);
  line += " direction=";
  line += gate_direction_name(spec.direction);
  line += " alpha=" + table::format_double(spec.alpha);
  line += " min_effect=" + table::format_double(spec.min_effect);
  line += "; grid permutation p=" + table::format_double(permutation.p_value);
  line += grid_tripped ? " (TRIPPED," : " (";
  line += "mean oriented delta " +
          table::format_double(permutation.observed_stat) + " over " +
          std::to_string(permutation.paired_cells) + " paired cell(s), " +
          std::to_string(permutation.iterations) + " resamples, seed " +
          std::to_string(seed) + ")";
  line += "; " + std::to_string(tripped_cells.size()) +
          " cell(s) over per-cell threshold";
  constexpr std::size_t kNamedCells = 4;
  for (std::size_t i = 0; i < tripped_cells.size() && i < kNamedCells; ++i) {
    const GateCellVerdict& c = tripped_cells[i];
    line += i == 0 ? ": " : ", ";
    line += c.key.label() + " (delta " + table::format_double(c.delta) +
            ", p_fdr " + table::format_double(c.p_value_fdr) + ")";
  }
  if (tripped_cells.size() > kNamedCells) {
    line += " [+" + std::to_string(tripped_cells.size() - kNamedCells) +
            " more]";
  }
  return line;
}

}  // namespace msa::campaign
