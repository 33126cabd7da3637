#include "campaign/gate.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <vector>

#include "campaign/table.h"
#include "util/prng.h"

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
  // A clear bit negates its delta. Negation flips the sign bit and
  // nothing else, so XOR-ing the bit's complement into bit 63 adds the
  // same doubles in the same order as `bit ? d : -d`, without a branch
  // that mispredicts on every other pair.
  std::vector<std::uint64_t> delta_bits(deltas.size());
  std::ranges::transform(deltas, delta_bits.begin(), [](double d) {
    return std::bit_cast<std::uint64_t>(d);
  });
  util::Prng prng{seed};
  std::uint64_t hits = 0;
  for (std::uint64_t it = 0; it < iterations; ++it) {
    double s = 0.0;
    for (std::size_t word = 0; word < delta_bits.size(); word += 64) {
      std::uint64_t negate = ~prng();
      const std::size_t end = std::min(delta_bits.size(), word + 64);
      for (std::size_t i = word; i < end; ++i) {
        s += std::bit_cast<double>(delta_bits[i] ^ (negate << 63));
        negate >>= 1;
      }
    }
    const double stat = s / n;
    if ((two_sided ? std::abs(stat) : stat) >= threshold) ++hits;
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
