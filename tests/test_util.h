#ifndef DPGRID_TESTS_TEST_UTIL_H_
#define DPGRID_TESTS_TEST_UTIL_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "common/random.h"
#include "geo/rect.h"
#include "nd/box_nd.h"

namespace dpgrid {
namespace test {

/// Deterministic query workload over (roughly) the given domain — shared
/// by the store/catalog/server suites so equality baselines are built
/// from one generator. Queries may poke slightly outside the domain to
/// exercise clamping.
inline std::vector<Rect> FixedQueries(const Rect& domain, int count,
                                      uint64_t seed) {
  Rng rng(seed);
  std::vector<Rect> queries;
  queries.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const double w = rng.Uniform(0.0, domain.Width());
    const double h = rng.Uniform(0.0, domain.Height());
    const double xlo = rng.Uniform(domain.xlo - 0.1 * domain.Width(),
                                   domain.xhi - 0.5 * w);
    const double ylo = rng.Uniform(domain.ylo - 0.1 * domain.Height(),
                                   domain.yhi - 0.5 * h);
    queries.push_back(Rect{xlo, ylo, xlo + w, ylo + h});
  }
  return queries;
}

/// d-dimensional counterpart.
inline std::vector<BoxNd> FixedQueriesNd(const BoxNd& domain, int count,
                                         uint64_t seed) {
  Rng rng(seed);
  std::vector<BoxNd> queries;
  queries.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    std::vector<double> lo(domain.dims());
    std::vector<double> hi(domain.dims());
    for (size_t a = 0; a < domain.dims(); ++a) {
      const double extent = rng.Uniform(0.0, domain.Extent(a));
      lo[a] = rng.Uniform(domain.lo(a), domain.hi(a) - 0.5 * extent);
      hi[a] = lo[a] + extent;
    }
    queries.emplace_back(std::move(lo), std::move(hi));
  }
  return queries;
}

/// A latch for fault hooks that hold a server thread: the hook calls
/// Hold(), the test waits for it with WaitHeld() and lets it go with
/// Open(). Share it with the hook through a shared_ptr, so an early test
/// exit cannot leave a server thread waiting on destroyed state. Every
/// wait is bounded, so a regression fails a test instead of hanging it.
class Gate {
 public:
  void Hold() {
    std::unique_lock<std::mutex> lock(mu_);
    held_ = true;
    cv_.notify_all();
    cv_.wait_for(lock, std::chrono::seconds(30), [this] { return open_; });
  }

  bool WaitHeld(std::chrono::milliseconds timeout = std::chrono::seconds(30)) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [this] { return held_; });
  }

  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool held_ = false;
  bool open_ = false;
};

}  // namespace test
}  // namespace dpgrid

#endif  // DPGRID_TESTS_TEST_UTIL_H_
