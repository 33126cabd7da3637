// Process-wide registry of named atomic metrics. Counters, gauges and
// log-bucketed histograms are registered on first use and live for the
// process; `metric("name")` returns a stable reference callers cache.
// Updates are relaxed atomics — cheap enough to run unconditionally, so
// unlike tracing there is no enable gate. A snapshot renders through
// the campaign/table emitters (`campaign_sweep metrics --format ...`).
//
// Metrics never feed back into results: no report reads the registry,
// so reports stay byte-identical whether anyone looks at it or not.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

namespace msa::obs {

/// Monotonic event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Power-of-two log-bucketed histogram of non-negative values (bucket b
/// holds values whose bit width is b, so bucket 0 is exactly {0} and
/// bucket b covers [2^(b-1), 2^b - 1]). Tracks exact count/sum/min/max;
/// percentiles interpolate linearly inside a bucket and are clamped to
/// [min, max], so a single-valued histogram reports that value at every
/// percentile.
class Histogram {
 public:
  static constexpr int kBuckets = 65;

  void record(std::uint64_t v) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  /// 0 when empty.
  [[nodiscard]] std::uint64_t min() const noexcept;
  [[nodiscard]] std::uint64_t max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }
  /// Estimated p-th percentile. Empty histogram → 0; p <= 0 → min;
  /// p >= 100 → max.
  [[nodiscard]] double percentile(double p) const noexcept;

  void reset() noexcept;

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{UINT64_MAX};
  std::atomic<std::uint64_t> max_{0};
};

/// Registry lookups: find-or-create by name. The returned reference is
/// valid for the rest of the process. Throws std::logic_error when the
/// name is already registered as a different kind.
[[nodiscard]] Counter& counter(std::string_view name);
[[nodiscard]] Gauge& gauge(std::string_view name);
[[nodiscard]] Histogram& histogram(std::string_view name);

/// Zeroes every registered metric (registrations and references stay
/// valid). For tests and bench baselining.
void reset_metrics();

enum class MetricsFormat { kText, kCsv, kJson };

/// Snapshot of every registered metric, one row per metric sorted by
/// name, rendered through campaign::table. Columns: metric, kind,
/// value (counter/gauge), then count/min/p50/p90/p99/max/sum for
/// histograms (blank/null elsewhere). JSON output is the envelope
/// {"metrics":[...]}.
[[nodiscard]] std::string render_metrics(MetricsFormat format);

}  // namespace msa::obs
