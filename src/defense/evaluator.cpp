#include "defense/evaluator.h"

#include <cstdio>

namespace msa::defense {

DefenseOutcome DefenseEvaluator::evaluate(const DefensePreset& preset,
                                          std::size_t trials) {
  DefenseOutcome out;
  out.preset_name = preset.name;
  out.trials = trials;

  double match_sum = 0.0;
  double psnr_sum = 0.0;
  std::size_t scored = 0;

  for (std::size_t t = 0; t < trials; ++t) {
    attack::ScenarioConfig cfg = preset.apply(base_);
    cfg.image_seed = base_.image_seed + t * 7919;  // vary the victim input
    cfg.system.seed = base_.system.seed + t;       // vary board entropy
    const attack::ScenarioResult r = attack::run_scenario(cfg, profiles_);
    if (r.denied) {
      ++out.denied;
      continue;
    }
    if (r.model_identified_correctly) ++out.model_identified;
    if (r.pixel_match > attack::kFullSuccessPixelMatch) ++out.image_recovered;
    match_sum += r.pixel_match;
    psnr_sum += r.psnr > 0 ? r.psnr : 0.0;
    ++scored;
  }
  if (scored > 0) {
    out.mean_pixel_match = match_sum / static_cast<double>(scored);
    out.mean_psnr = psnr_sum / static_cast<double>(scored);
  }
  return out;
}

std::vector<DefenseOutcome> DefenseEvaluator::evaluate_all(std::size_t trials) {
  std::vector<DefenseOutcome> results;
  for (const auto& p : all_presets()) {
    results.push_back(evaluate(p, trials));
  }
  return results;
}

std::string DefenseEvaluator::format_table(
    const std::vector<DefenseOutcome>& outcomes) {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof line, "%-18s %7s %7s %9s %10s %11s %9s\n",
                "defense", "trials", "denied", "model-id", "img-recov",
                "pixel-match", "psnr-db");
  out += line;
  for (const auto& o : outcomes) {
    std::snprintf(line, sizeof line,
                  "%-18s %7zu %7zu %8.0f%% %9.0f%% %11.4f %9.2f\n",
                  o.preset_name.c_str(), o.trials, o.denied, o.id_rate() * 100,
                  o.recovery_rate() * 100, o.mean_pixel_match, o.mean_psnr);
    out += line;
  }
  return out;
}

}  // namespace msa::defense
