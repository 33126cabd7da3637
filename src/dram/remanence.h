// Remanence / decay model.
//
// On the paper's boards DRAM is continuously refreshed while powered, so a
// terminated process's data survives bit-exact — that is the headline
// vulnerability. This module makes the remanence assumption explicit and
// testable, and additionally supports an ablation where refresh is
// interrupted (e.g. a board power-cycle between victim and attacker):
// cells decay toward their discharge value with a per-bit probability that
// grows with elapsed time, following the exponential retention model used
// in cold-boot literature. The ablation shows how recovery quality
// degrades when the attacker cannot scrape promptly.
#pragma once

#include <cstdint>
#include <vector>

#include "dram/dram_model.h"
#include "util/prng.h"

namespace msa::dram {

/// Reusable buffers for RemanenceModel::apply: the chunk staging buffer
/// and a window of raw PRNG words pre-drawn from the caller's generator.
/// The window keeps at least one data word's worst case (128 draws)
/// buffered; a refill moves the unconsumed tail to the front and draws
/// the rest. Buffered words persist across apply() calls that share the
/// same scratch + prng, so a loop over many pages consumes the
/// generator's stream in exactly the per-bit draw order of one long
/// call; do not interleave other draws from that prng between such
/// calls. Nothing derived from a call's delay is cached here, so one
/// scratch may serve calls with different delays.
struct RemanenceScratch {
  std::vector<std::uint8_t> bytes;
  std::vector<std::uint64_t> words;
  std::size_t next_word = 0;
};

struct RemanenceParams {
  /// True on a powered, refreshed board (the paper's setting): no decay.
  bool refresh_active = true;
  /// Retention half-life (seconds) of a cell once refresh stops at the
  /// operating temperature. Seconds-scale retention is typical near 45°C.
  double retention_half_life_s = 2.0;
  /// Fraction of cells that discharge toward '1' instead of '0'
  /// (anti-cells in true/anti-cell DRAM layouts).
  double anti_cell_fraction = 0.1;
};

class RemanenceModel {
 public:
  /// Throws std::invalid_argument if anti_cell_fraction is NaN or
  /// outside [0, 1], or if refresh is off and retention_half_life_s is
  /// not finite and positive.
  explicit RemanenceModel(RemanenceParams params = {});

  [[nodiscard]] const RemanenceParams& params() const noexcept { return params_; }

  /// Probability that a given bit has flipped to its discharge value after
  /// `elapsed_s` seconds without refresh.
  [[nodiscard]] double decay_probability(double elapsed_s) const noexcept;

  /// Applies decay in place to [addr, addr+len). No-op when refresh is
  /// active. Returns the number of bits flipped. Each bit, in address
  /// order and low bit first, takes an anti-cell draw iff
  /// 0 < anti_cell_fraction < 1, then a flip draw iff its stored value
  /// differs from its discharge value and the decay probability is
  /// below 1; a draw decides as util::Prng::uniform01() would. Draws
  /// come from `scratch`'s buffered window, so the prng runs ahead of
  /// the draws consumed: do not draw from it again while `scratch` is
  /// in use.
  /// Throws std::invalid_argument if `elapsed_s` is NaN.
  std::uint64_t apply(DramModel& dram, PhysAddr addr, std::uint64_t len,
                      double elapsed_s, util::Prng& prng,
                      RemanenceScratch& scratch) const;

 private:
  RemanenceParams params_;
};

}  // namespace msa::dram
