// Measurement helpers for the serving benchmark: clocks and order
// statistics, the host/config record, the METRICS-delta layer breakdown,
// and the one-line JSON result the harness prints last.
//
// Everything here observes dpgrid from outside, through its public API
// (QueryClient::Metrics snapshots and timers around public calls); the
// program itself carries no benchmark tracing.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated quantile (q in [0,1]) of `values`; NaN when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Peak resident set size of this process, in MiB (getrusage ru_maxrss).
double PeakRssMiB();

/// Which vCPUs the calling thread may run on: the closed-loop client gets
/// the first vCPU the process may use to itself, and every other thread
/// (the server's, the publisher's, and the set-up work) runs on the rest.
/// Threads inherit the mask of the thread that creates them. No-op when
/// the process may use fewer than two vCPUs.
enum class Side { kClient, kServer };
void RunOn(Side side);

/// Facts that make numbers from different hosts non-comparable. Gathered
/// from CPUID, sysconf and statfs, so the benchmark reads no file outside
/// its checkout.
struct HostRecord {
  std::string cpu_model;
  unsigned nproc = 0;
  bool avx2 = false;
  bool avx512f = false;
  std::string compiler;
  std::string build_type;
  /// Filesystem type of the snapshot store directory (statfs f_type).
  std::string store_fs;
};
HostRecord DescribeHost(const std::string& store_dir);
std::string HostJson(const HostRecord& host);

/// Per-frame server stage means over one window, from two METRICS
/// snapshots. Denominators are the window's QUERY_BATCH frames, so the
/// few control frames (METRICS, RELOAD) cannot dilute the means; the
/// engine stage comes from the per-dataset engine histogram, which only
/// QUERY_BATCH frames feed, so RELOAD handling time stays out of it.
struct ServerBreakdown {
  uint64_t query_frames = 0;
  uint64_t query_errors = 0;
  uint64_t engine_batches = 0;
  double frame_us = 0.0;  // QUERY_BATCH op latency mean (sum of stages)
  double read_us = 0.0;
  double decode_us = 0.0;
  double queue_wait_us = 0.0;
  double engine_us = 0.0;
  double encode_us = 0.0;
  double write_us = 0.0;
  double reload_us = 0.0;  // RELOAD op latency mean
};
ServerBreakdown Breakdown(const dpgrid::obs::MetricsSnapshot& before,
                          const dpgrid::obs::MetricsSnapshot& after,
                          const std::string& dataset);

/// The metrics of one run and the one-line JSON result printed last.
class Result {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  std::string Json(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
