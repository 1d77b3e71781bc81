#ifndef DPGRID_OBS_METRICS_H_
#define DPGRID_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace dpgrid {
namespace obs {

/// Monotonic microseconds, the timestamp source for every stage timer.
inline uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// A counter split across cache-line-sized shards so concurrent handler
/// threads never contend on one line; each thread sticks to the shard it
/// drew on first use. Value() sums the shards (relaxed, monotone).
class ShardedCounter {
 public:
  void Add(uint64_t n) {
    shards_[ShardIndex()].v.fetch_add(n, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }
  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  static constexpr size_t kShards = 16;
  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };
  static size_t ShardIndex();
  std::array<Shard, kShards> shards_{};
};

inline constexpr size_t kHistogramBuckets = 32;

/// A point-in-time copy of a LatencyHistogram plus derived percentiles.
/// Buckets are log2: bucket 0 holds exactly 0µs, bucket i holds
/// [2^(i-1), 2^i - 1]µs, and the last bucket is the overflow for
/// everything >= 2^30µs (~18 minutes).
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum_us = 0;
  uint64_t max_us = 0;
  std::array<uint64_t, kHistogramBuckets> buckets{};

  /// Bucketwise accumulation (count/sum add, max takes the larger).
  void Merge(const HistogramSnapshot& other);
  /// The samples recorded since `earlier` (bucketwise subtraction).
  /// max_us stays this snapshot's since-start max — log2 buckets cannot
  /// recover an interval max, only bound it.
  HistogramSnapshot Delta(const HistogramSnapshot& earlier) const;

  /// Percentile estimate (p in [0,100]) by linear interpolation inside
  /// the covering bucket, clamped to max_us; 0 when empty.
  double Percentile(double p) const;
  double P50() const { return Percentile(50.0); }
  double P95() const { return Percentile(95.0); }
  double P99() const { return Percentile(99.0); }
  double MeanUs() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum_us) /
                            static_cast<double>(count);
  }
};

/// Fixed-bucket log2 latency histogram. Record() is three relaxed
/// atomics (bucket add, sum add, CAS-max) — cheap enough for every
/// frame. Snapshot() reads concurrently with writers: each field is
/// individually exact and monotone, so a snapshot taken while traffic
/// flows is a valid recent state, and one taken in a quiet moment is
/// exact.
class LatencyHistogram {
 public:
  void Record(uint64_t us);
  HistogramSnapshot Snapshot() const;

 private:
  std::array<std::atomic<uint64_t>, kHistogramBuckets> buckets_{};
  std::atomic<uint64_t> sum_us_{0};
  std::atomic<uint64_t> max_us_{0};
};

/// A named occurrence count with the wall-clock second of the latest
/// occurrence — how catalog/store lifecycle events (reload sweeps,
/// version installs, publishes) surface in the METRICS op.
class EventCounter {
 public:
  void Record(uint64_t n = 1);
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t last_unix_s() const {
    return last_unix_s_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> last_unix_s_{0};
};

struct EventSnapshot {
  std::string name;
  uint64_t count = 0;
  uint64_t last_unix_s = 0;
};

inline EventSnapshot SnapshotEvent(const std::string& name,
                                   const EventCounter& counter) {
  return EventSnapshot{name, counter.count(), counter.last_unix_s()};
}

/// Per-wire-op counters + frame latency. `name` is filled by the server
/// (the registry does not know wire op names).
struct OpMetricsSnapshot {
  uint32_t op = 0;
  std::string name;
  uint64_t requests = 0;
  uint64_t errors = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  HistogramSnapshot latency;
};

/// Per-dataset batch counters + engine-stage latency.
struct DatasetMetricsSnapshot {
  std::string name;
  uint64_t batches = 0;
  uint64_t queries = 0;
  uint64_t errors = 0;
  HistogramSnapshot engine_us;
};

/// The full registry state the METRICS op serves. Events and engine
/// counters live outside the registry (catalog/store/QueryEngine) and
/// are merged in by QueryServer::MetricsSnapshotNow.
struct MetricsSnapshot {
  uint64_t slow_frame_us = 0;
  uint64_t slow_frames = 0;
  uint64_t engine_batches = 0;
  uint64_t engine_queries = 0;
  // The engine totals above split by query family (2-D Rect vs N-d
  // BoxNd); each total is the sum of its two splits.
  uint64_t engine_batches_2d = 0;
  uint64_t engine_queries_2d = 0;
  uint64_t engine_batches_nd = 0;
  uint64_t engine_queries_nd = 0;
  // Batches of either family that the engine's cost rule sharded across
  // threads; the rest ran inline on the serving thread.
  uint64_t engine_batches_sharded = 0;
  std::vector<OpMetricsSnapshot> ops;       // ops with traffic, ascending
  std::vector<HistogramSnapshot> stages;    // kNumStages, Stage order
  std::vector<DatasetMetricsSnapshot> datasets;  // sorted by name
  std::vector<EventSnapshot> events;
  std::vector<FrameTrace> slow_traces;      // newest first
};

/// Op codes the registry tracks directly (DPGW codes are small ints);
/// anything >= this is folded into the last cell.
inline constexpr size_t kMaxTrackedOps = 8;

/// Distinct dataset names tracked before new ones fold into "_other" —
/// a hostile client cycling names must not grow server memory.
inline constexpr size_t kMaxTrackedDatasets = 256;
inline constexpr char kOverflowDataset[] = "_other";

/// The per-server metrics registry: per-op and per-dataset counters,
/// per-stage latency histograms, and the slow-frame trace ring. Hot-path
/// cost per frame is a handful of relaxed atomics (see the On* methods);
/// the only lock is a shared_mutex read-lock on the dataset map, taken
/// once per QUERY_BATCH frame.
class MetricsRegistry {
 public:
  explicit MetricsRegistry(size_t slow_trace_capacity = 64);

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Threshold for retaining a frame in the slow ring; 0 disables.
  void set_slow_frame_us(uint64_t us) {
    slow_frame_us_.store(us, std::memory_order_relaxed);
  }
  uint64_t slow_frame_us() const {
    return slow_frame_us_.load(std::memory_order_relaxed);
  }

  /// A verified frame entered dispatch (counted before it is answered,
  /// so a METRICS frame counts itself identically in both engines).
  void OnRequest(uint32_t op, uint64_t bytes_in);
  /// Dispatch produced a response body for the frame.
  void OnResponse(uint32_t op, uint64_t bytes_out, bool error);
  /// A QUERY_BATCH reached the engine for `dataset`.
  void OnBatch(const std::string& dataset, uint64_t queries,
               uint64_t engine_us, bool error);
  /// The frame's response hit the kernel: record latency + stage
  /// breakdown, and retain the trace if it crossed the slow threshold.
  void OnFrameDone(FrameTrace trace);

  MetricsSnapshot Snapshot() const;

 private:
  struct OpCell {
    ShardedCounter requests;
    ShardedCounter errors;
    ShardedCounter bytes_in;
    ShardedCounter bytes_out;
    LatencyHistogram latency;
  };
  struct DatasetCell {
    ShardedCounter batches;
    ShardedCounter queries;
    ShardedCounter errors;
    LatencyHistogram engine_us;
  };

  DatasetCell* DatasetFor(const std::string& name);

  std::atomic<uint64_t> slow_frame_us_{10'000};
  std::atomic<uint64_t> slow_frames_{0};
  std::array<OpCell, kMaxTrackedOps> ops_{};
  std::array<LatencyHistogram, kNumStages> stages_{};
  SlowTraceRing slow_ring_;

  mutable std::shared_mutex dataset_mu_;
  std::map<std::string, std::unique_ptr<DatasetCell>> datasets_;
};

}  // namespace obs
}  // namespace dpgrid

#endif  // DPGRID_OBS_METRICS_H_
