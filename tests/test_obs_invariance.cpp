// The observability non-interference contract: enabling tracing (the
// metrics registry is always on) must not change a single byte of the
// sweep report, at any thread count — the instrumentation observes the
// pipeline, it never participates in it. Also pins the shape of what a
// traced sweep actually records: spans are strictly nested per thread
// (the instrumentation points are all scoped RAII guards), and the
// export is structurally valid Chrome trace-event JSON.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/grid.h"
#include "campaign/report.h"
#include "campaign/runner.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace msa::campaign {
namespace {

attack::ScenarioConfig small_base() {
  attack::ScenarioConfig cfg;
  cfg.system = os::SystemConfig::test_small();
  cfg.image_width = 48;
  cfg.image_height = 48;
  return cfg;
}

/// 2 defenses x 2 models x 2 delays = 8 cells mixing successes with
/// scrub-defeated scrapes, the same shape the campaign tests pin.
GridBuilder small_grid() {
  GridBuilder grid{small_base()};
  grid.defenses({"baseline", "zero_on_free"})
      .models({"resnet50_pt", "squeezenet_pt"})
      .attack_delays_s({0.0, 5.0})
      .scrubber_rates({0.0});
  return grid;
}

std::string sweep_csv(unsigned threads, bool traced) {
  if (traced) {
    obs::Trace::enable();
  } else {
    obs::Trace::disable();
  }
  obs::Trace::clear();
  CampaignOptions options;
  options.threads = threads;
  options.trials_per_cell = 2;
  CampaignRunner runner{options};
  const SweepReport report = runner.run(small_grid());
  obs::Trace::disable();
  return report.to_csv();
}

TEST(ObsInvariance, ReportBytesIdenticalWithTracingOnOrOff) {
  const std::string untraced_1 = sweep_csv(1, false);
  const std::string traced_1 = sweep_csv(1, true);
  const std::string untraced_8 = sweep_csv(8, false);
  const std::string traced_8 = sweep_csv(8, true);
  EXPECT_EQ(traced_1, untraced_1);
  EXPECT_EQ(traced_8, untraced_1);
  EXPECT_EQ(untraced_8, untraced_1);
}

TEST(ObsInvariance, TracedSweepSpansAreStrictlyNestedPerThread) {
  obs::Trace::enable();
  obs::Trace::clear();
  CampaignOptions options;
  options.threads = 4;
  options.trials_per_cell = 1;
  CampaignRunner runner{options};
  (void)runner.run(small_grid());
  obs::Trace::disable();

  const std::vector<obs::ThreadTrace> threads = obs::Trace::snapshot();
  ASSERT_FALSE(threads.empty());
  std::size_t total = 0;
  for (const obs::ThreadTrace& t : threads) {
    EXPECT_EQ(t.dropped, 0u);
    total += t.spans.size();
    // RAII guards on one thread can only close LIFO, so any two spans
    // are either disjoint or one contains the other — never partially
    // overlapping. Check every pair (rings are small here).
    for (std::size_t i = 0; i < t.spans.size(); ++i) {
      const auto a0 = t.spans[i].start_ns;
      const auto a1 = a0 + t.spans[i].dur_ns;
      for (std::size_t j = i + 1; j < t.spans.size(); ++j) {
        const auto b0 = t.spans[j].start_ns;
        const auto b1 = b0 + t.spans[j].dur_ns;
        const bool disjoint = a1 <= b0 || b1 <= a0;
        const bool a_in_b = b0 <= a0 && a1 <= b1;
        const bool b_in_a = a0 <= b0 && b1 <= a1;
        EXPECT_TRUE(disjoint || a_in_b || b_in_a)
            << t.spans[i].name << " [" << a0 << "," << a1 << ") vs "
            << t.spans[j].name << " [" << b0 << "," << b1 << ")";
      }
    }
  }
  // 8 cells x (acquire + cell + trial) plus per-trial pipeline stages:
  // the sweep must have recorded a meaningful number of spans.
  EXPECT_GE(total, 8u * 3u);
}

TEST(ObsInvariance, NamedChildSpansCoverTheTrial) {
  obs::Trace::enable();
  obs::Trace::clear();
  CampaignOptions options;
  options.threads = 1;
  options.trials_per_cell = 4;
  CampaignRunner runner{options};
  (void)runner.run(small_grid());
  obs::Trace::disable();

  // Spans on one thread nest strictly (see above), so sorting by start,
  // longer first on ties, and keeping a stack of open spans gives each
  // span its parent. Trials never nest, so a direct child of an open
  // trial belongs to the last trial seen.
  const auto is_trial = [](const obs::TraceSpan& s) {
    return std::string_view{s.category} == "campaign" &&
           std::string_view{s.name} == "trial";
  };
  struct TrialTime {
    std::uint64_t trial_ns = 0;
    std::uint64_t child_ns = 0;
  };
  std::vector<TrialTime> trials;
  for (const obs::ThreadTrace& t : obs::Trace::snapshot()) {
    EXPECT_EQ(t.dropped, 0u);
    std::vector<obs::TraceSpan> spans = t.spans;
    std::sort(spans.begin(), spans.end(),
              [](const obs::TraceSpan& a, const obs::TraceSpan& b) {
                return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                                : a.dur_ns > b.dur_ns;
              });
    std::vector<const obs::TraceSpan*> open;
    for (const obs::TraceSpan& s : spans) {
      while (!open.empty() &&
             open.back()->start_ns + open.back()->dur_ns <= s.start_ns) {
        open.pop_back();
      }
      if (is_trial(s)) {
        trials.push_back({s.dur_ns, 0});
      } else if (!open.empty() && is_trial(*open.back())) {
        trials.back().child_ns += s.dur_ns;
      }
      open.push_back(&s);
    }
  }
  ASSERT_EQ(trials.size(), 8u * 4u);
  // Judge the median trial, so one trial preempted inside untraced code
  // on a shared machine cannot decide the result.
  std::vector<double> coverage;
  for (const TrialTime& t : trials) {
    coverage.push_back(static_cast<double>(t.child_ns) /
                       static_cast<double>(t.trial_ns));
  }
  const auto mid =
      coverage.begin() + static_cast<std::ptrdiff_t>(coverage.size() / 2);
  std::nth_element(coverage.begin(), mid, coverage.end());
  EXPECT_GE(*mid, 0.95) << "direct children cover " << *mid
                        << " of the median trial";
}

TEST(ObsInvariance, TracedSweepExportsParseableChromeJson) {
  obs::Trace::enable();
  obs::Trace::clear();
  CampaignOptions options;
  options.threads = 2;
  options.trials_per_cell = 1;
  CampaignRunner runner{options};
  (void)runner.run(small_grid());
  obs::Trace::disable();

  const std::string json = obs::Trace::chrome_json();
  EXPECT_EQ(json.find("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{"), 0u);
  EXPECT_EQ(json.substr(json.size() - 4), "}]}\n");
  // Minimal structural validation: braces and brackets balance, and
  // every event carries the complete-event keys.
  int depth = 0;
  int min_depth = 0;
  for (const char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    min_depth = std::min(min_depth, depth);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(min_depth, 0);
  for (const char* key :
       {"\"name\":", "\"cat\":", "\"ph\":\"X\"", "\"ts\":", "\"dur\":",
        "\"pid\":1", "\"tid\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // The named pipeline stages all appear somewhere in the export.
  for (const char* name : {"\"acquire\"", "\"cell\"", "\"trial\"",
                           "\"profile\"", "\"scrape\"", "\"score\""}) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }
}

TEST(ObsInvariance, MetricsCountTheSweep) {
  obs::Counter& cells = obs::counter("campaign.cells");
  obs::Counter& trials = obs::counter("campaign.trials");
  const std::uint64_t cells_before = cells.value();
  const std::uint64_t trials_before = trials.value();
  CampaignOptions options;
  options.threads = 3;
  options.trials_per_cell = 2;
  CampaignRunner runner{options};
  (void)runner.run(small_grid());
  EXPECT_EQ(cells.value() - cells_before, 8u);
  EXPECT_EQ(trials.value() - trials_before, 16u);
}

}  // namespace
}  // namespace msa::campaign
