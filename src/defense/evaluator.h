// DefenseEvaluator: measures every defense preset against the full attack
// (DESIGN.md Abl. A). For each preset it runs N independent scenario
// trials (varying the victim's input image and, optionally, the model)
// and aggregates: how often the attack was denied outright, how often the
// model was identified, how often the image came back, and with what
// fidelity.
#pragma once

#include <string>
#include <vector>

#include "attack/profile_cache.h"
#include "attack/scenario.h"
#include "defense/presets.h"

namespace msa::defense {

struct DefenseOutcome {
  std::string preset_name;
  std::size_t trials = 0;
  std::size_t denied = 0;              ///< attack blocked before scraping
  std::size_t model_identified = 0;    ///< correct string identification
  std::size_t image_recovered = 0;  ///< pixel_match > attack::kFullSuccessPixelMatch
  double mean_pixel_match = 0.0;
  double mean_psnr = 0.0;

  [[nodiscard]] double id_rate() const noexcept {
    return trials ? static_cast<double>(model_identified) / trials : 0.0;
  }
  [[nodiscard]] double recovery_rate() const noexcept {
    return trials ? static_cast<double>(image_recovered) / trials : 0.0;
  }
};

class DefenseEvaluator {
 public:
  /// `base` provides the workload parameters (model, image size); each
  /// preset overrides only policy knobs.
  explicit DefenseEvaluator(attack::ScenarioConfig base) : base_{base} {}

  /// Evaluates one preset over `trials` runs with varying image seeds.
  /// Every trial runs through one ProfileCache held for the evaluator's
  /// lifetime, so boards are reused across trials and presets; results
  /// are the same as on a fresh cache per trial.
  [[nodiscard]] DefenseOutcome evaluate(const DefensePreset& preset,
                                        std::size_t trials);

  /// Evaluates every registered preset.
  [[nodiscard]] std::vector<DefenseOutcome> evaluate_all(std::size_t trials);

  /// Fixed-width table of outcomes (the Abl. A artifact).
  [[nodiscard]] static std::string format_table(
      const std::vector<DefenseOutcome>& outcomes);

 private:
  attack::ScenarioConfig base_;
  attack::ProfileCache profiles_;
};

}  // namespace msa::defense
