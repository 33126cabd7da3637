// Runtime-gated tracing for the trial pipeline. Each thread records
// spans into its own lock-free ring buffer; the only cost on the
// disabled path is one relaxed atomic load per TRACE_SPAN site, so the
// instrumentation can stay compiled into release builds. Spans are
// exported after the instrumented code quiesces, as Chrome trace-event
// JSON that loads directly in Perfetto / chrome://tracing.
//
// Category and name must be string literals (or otherwise outlive the
// trace): the ring stores the pointers, not copies.
//
// Tracing never feeds back into the report path — enabling it changes
// wall-clock timings only, so sweep reports stay byte-identical with
// tracing on or off (pinned by tests/test_obs_invariance.cpp).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/monotime.h"

namespace msa::obs {

/// One closed span. Timestamps are util::monotonic_ns() — the same
/// anchor the default log sink prefixes with.
struct TraceSpan {
  const char* category = nullptr;
  const char* name = nullptr;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
};

/// Snapshot of one thread's ring: the retained spans in close order
/// (oldest first) plus how many older spans the ring overwrote.
struct ThreadTrace {
  std::uint32_t tid = 0;  ///< util::thread_ordinal() of the recording thread
  std::uint64_t dropped = 0;
  std::vector<TraceSpan> spans;
};

namespace internal {

struct ThreadRing;

extern std::atomic<bool> g_enabled;

/// Ring for the calling thread, created on first use. Rings live for
/// the rest of the process (a thread may exit before export).
[[nodiscard]] ThreadRing* ring_for_this_thread();

void record(ThreadRing* ring, const char* category, const char* name,
            std::uint64_t start_ns, std::uint64_t dur_ns) noexcept;

}  // namespace internal

/// Process-wide trace control. enable/disable/clear/snapshot must only
/// be called while instrumented threads are quiescent (before a sweep
/// starts or after it joins) — recording itself is lock-free and
/// per-thread, but the control plane is not synchronized against it.
class Trace {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 16;

  /// Turns recording on. `per_thread_capacity` sizes rings created
  /// after this call (existing rings keep theirs); when a ring fills,
  /// the oldest spans are overwritten and counted as dropped.
  static void enable(std::size_t per_thread_capacity = kDefaultCapacity);
  static void disable() noexcept;
  [[nodiscard]] static bool enabled() noexcept {
    return internal::g_enabled.load(std::memory_order_relaxed);
  }

  /// Empties every ring (keeps the enabled state and capacities).
  static void clear() noexcept;

  /// Retained spans of every thread that ever recorded, sorted by tid.
  [[nodiscard]] static std::vector<ThreadTrace> snapshot();

  /// The snapshot as Chrome trace-event JSON ("X" complete events,
  /// microsecond timestamps): {"traceEvents":[...]}.
  [[nodiscard]] static std::string chrome_json();
};

/// RAII span guard. Captures the start timestamp on construction when
/// tracing is enabled, records the closed span on destruction. The
/// thread's ring is fetched before the clock is read, so the one-time
/// allocation of a thread's first ring never lands inside a span. The
/// gate is re-checked at close so a span that straddles disable() is
/// simply dropped rather than recorded half-timed.
class SpanGuard {
 public:
  SpanGuard(const char* category, const char* name) noexcept {
    if (!internal::g_enabled.load(std::memory_order_relaxed)) return;
    ring_ = internal::ring_for_this_thread();
    category_ = category;
    name_ = name;
    start_ns_ = util::monotonic_ns();
  }
  ~SpanGuard() {
    if (ring_ != nullptr &&
        internal::g_enabled.load(std::memory_order_relaxed)) {
      internal::record(ring_, category_, name_, start_ns_,
                       util::monotonic_ns() - start_ns_);
    }
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  const char* category_ = nullptr;
  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
  internal::ThreadRing* ring_ = nullptr;  ///< null when not recording
};

#define MSA_OBS_CONCAT2(a, b) a##b
#define MSA_OBS_CONCAT(a, b) MSA_OBS_CONCAT2(a, b)

/// Opens a span covering the rest of the enclosing scope. Category and
/// name must be string literals.
#define TRACE_SPAN(category, name)                                      \
  ::msa::obs::SpanGuard MSA_OBS_CONCAT(msa_trace_span_, __LINE__) {     \
    category, name                                                      \
  }

}  // namespace msa::obs
