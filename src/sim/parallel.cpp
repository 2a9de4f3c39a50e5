#include "cdsim/sim/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <thread>
#include <vector>

namespace cdsim::sim {

void parallel_for(std::size_t n, unsigned workers,
                  const std::function<void(std::size_t)>& fn) {
  const std::size_t threads =
      std::clamp<std::size_t>(workers, 1, std::max<std::size_t>(n, 1));
  // Each worker keeps the first index it saw throw: a worker's indices
  // only grow, so the lowest of these is the lowest throwing index.
  struct Failure {
    std::size_t index = std::numeric_limits<std::size_t>::max();
    std::exception_ptr error;
  };
  std::vector<Failure> failures(threads);
  std::atomic<std::size_t> next{0};
  const auto drain = [&](std::size_t w) {
    for (std::size_t i = next++; i < n; i = next++) {
      try {
        fn(i);
      } catch (...) {
        if (!failures[w].error) failures[w] = {i, std::current_exception()};
      }
    }
  };
  {
    std::vector<std::jthread> pool;
    pool.reserve(threads - 1);
    for (std::size_t w = 1; w < threads; ++w) pool.emplace_back(drain, w);
    drain(0);
  }  // the join
  const Failure& first = *std::min_element(
      failures.begin(), failures.end(),
      [](const Failure& a, const Failure& b) { return a.index < b.index; });
  if (first.error) std::rethrow_exception(first.error);
}

}  // namespace cdsim::sim
