// A fork-join loop for the store analyses: several threads run the
// iterations of a loop, each writing only its own index's results, and
// the caller puts the results together in index order after the join,
// so they do not depend on the thread count. Errors come back as a
// serial loop would raise them.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <thread>
#include <vector>

namespace msa::util {

/// Below this many items (trial records) a loop runs on the calling
/// thread alone: starting threads costs more than they would save.
inline constexpr std::size_t kParallelMinItems = std::size_t{1} << 16;

/// The worker count for a loop over `items` records: `requested` when
/// it is not 0, otherwise one under kParallelMinItems items and
/// std::thread::hardware_concurrency() (at least one) above it.
[[nodiscard]] inline unsigned workers_for(std::size_t items,
                                          unsigned requested) noexcept {
  if (requested != 0) return requested;
  if (items < kParallelMinItems) return 1;
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Runs body(i) for i = 0, 1, ..., n - 1 on min(workers, n) threads, the
/// calling thread included, which take the indices in ascending order;
/// with one thread it is a plain loop. Returns once every call has
/// ended. When calls throw, no index is started after the first throw
/// and the exception of the lowest failing index is rethrown: every
/// index below it was started, so that is the one a serial loop raises.
template <typename Body>
void parallel_for(unsigned workers, std::size_t n, Body body) {
  const std::size_t threads = std::min<std::size_t>(workers, n);
  if (threads <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  std::vector<std::exception_ptr> errors(n);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  const auto run = [&] {
    for (std::size_t i; !failed.load() && (i = next.fetch_add(1)) < n;) {
      try {
        body(i);
      } catch (...) {
        errors[i] = std::current_exception();
        failed.store(true);
      }
    }
  };
  {
    std::vector<std::jthread> helpers;
    helpers.reserve(threads - 1);
    for (std::size_t t = 1; t < threads; ++t) helpers.emplace_back(run);
    run();
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace msa::util
