// Telemetry subsystem tests: histogram bucketing/percentile edge cases,
// sharded counters under contention, the slow-trace seqlock ring
// (wraparound and record-vs-snapshot races — the TSan targets), log-level
// parsing, and the Prometheus/JSON exposition.

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/exposition.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dpgrid {
namespace obs {
namespace {

// --- histograms ------------------------------------------------------------

TEST(LatencyHistogramTest, EmptyHistogram) {
  LatencyHistogram h;
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.sum_us, 0u);
  EXPECT_EQ(snap.max_us, 0u);
  EXPECT_EQ(snap.Percentile(50.0), 0.0);
  EXPECT_EQ(snap.Percentile(99.9), 0.0);
  EXPECT_EQ(snap.MeanUs(), 0.0);
}

TEST(LatencyHistogramTest, SingleSample) {
  LatencyHistogram h;
  h.Record(100);
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.sum_us, 100u);
  EXPECT_EQ(snap.max_us, 100u);
  // 100µs lands in bucket [64, 127]; every percentile is clamped to the
  // recorded max, so even p100 cannot exceed the sample.
  for (const double p : {0.0, 50.0, 95.0, 99.0, 100.0}) {
    EXPECT_GE(snap.Percentile(p), 64.0) << p;
    EXPECT_LE(snap.Percentile(p), 100.0) << p;
  }
}

TEST(LatencyHistogramTest, ZeroSampleUsesBucketZero) {
  LatencyHistogram h;
  h.Record(0);
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.Percentile(50.0), 0.0);
  EXPECT_EQ(snap.max_us, 0u);
}

TEST(LatencyHistogramTest, OverflowBucketAbsorbsHugeSamples) {
  LatencyHistogram h;
  const uint64_t huge = uint64_t{1} << 40;  // ~13 days in µs
  h.Record(huge);
  h.Record(huge + 5);
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.buckets[kHistogramBuckets - 1], 2u);
  EXPECT_EQ(snap.count, 2u);
  EXPECT_EQ(snap.max_us, huge + 5);
  // The overflow bucket has no upper edge of its own; percentiles fall
  // back to the recorded max.
  EXPECT_LE(snap.Percentile(99.0), static_cast<double>(huge + 5));
  EXPECT_GE(snap.Percentile(99.0), static_cast<double>(uint64_t{1} << 30));
}

TEST(LatencyHistogramTest, PercentilesAreOrderedAndBounded) {
  LatencyHistogram h;
  for (uint64_t us = 1; us <= 10'000; ++us) h.Record(us);
  const HistogramSnapshot snap = h.Snapshot();
  const double p50 = snap.P50();
  const double p95 = snap.P95();
  const double p99 = snap.P99();
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, static_cast<double>(snap.max_us));
  EXPECT_GT(p50, 0.0);
  // log2 buckets bound the true p50 (5000) within its power-of-two
  // bucket [4096, 8191].
  EXPECT_GE(p50, 4096.0);
  EXPECT_LE(p50, 8191.0);
}

TEST(HistogramSnapshotTest, MergeAndDelta) {
  LatencyHistogram a;
  LatencyHistogram b;
  a.Record(10);
  a.Record(100);
  b.Record(1000);
  HistogramSnapshot sa = a.Snapshot();
  const HistogramSnapshot sb = b.Snapshot();
  HistogramSnapshot merged = sa;
  merged.Merge(sb);
  EXPECT_EQ(merged.count, 3u);
  EXPECT_EQ(merged.sum_us, 1110u);
  EXPECT_EQ(merged.max_us, 1000u);

  a.Record(7);
  const HistogramSnapshot later = a.Snapshot();
  const HistogramSnapshot delta = later.Delta(sa);
  EXPECT_EQ(delta.count, 1u);
  EXPECT_EQ(delta.sum_us, 7u);
  uint64_t bucket_total = 0;
  for (const uint64_t v : delta.buckets) bucket_total += v;
  EXPECT_EQ(bucket_total, 1u);
}

// The TSan target: concurrent Record against concurrent Snapshot must be
// race-free, and every snapshot must be internally consistent (count is
// derived from the buckets, so it can never disagree with them).
TEST(LatencyHistogramTest, ConcurrentRecordVsSnapshot) {
  LatencyHistogram h;
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 100'000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    uint64_t last_count = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const HistogramSnapshot snap = h.Snapshot();
      EXPECT_GE(snap.count, last_count);  // monotone under concurrent writes
      last_count = snap.count;
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&h, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        h.Record((i + static_cast<uint64_t>(t)) % 2048);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  const HistogramSnapshot final_snap = h.Snapshot();
  EXPECT_EQ(final_snap.count, kThreads * kPerThread);
  uint64_t bucket_total = 0;
  for (const uint64_t v : final_snap.buckets) bucket_total += v;
  EXPECT_EQ(bucket_total, kThreads * kPerThread);
}

// --- sharded counters ------------------------------------------------------

TEST(ShardedCounterTest, ConcurrentAddsAreExact) {
  ShardedCounter counter;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
  counter.Add(42);
  EXPECT_EQ(counter.Value(), kThreads * kPerThread + 42);
}

TEST(EventCounterTest, RecordStampsWallClock) {
  EventCounter ev;
  EXPECT_EQ(ev.count(), 0u);
  EXPECT_EQ(ev.last_unix_s(), 0u);
  ev.Record();
  ev.Record(3);
  EXPECT_EQ(ev.count(), 4u);
  EXPECT_GT(ev.last_unix_s(), 1'700'000'000u);  // after Nov 2023
  const EventSnapshot snap = SnapshotEvent("reloads", ev);
  EXPECT_EQ(snap.name, "reloads");
  EXPECT_EQ(snap.count, 4u);
  EXPECT_EQ(snap.last_unix_s, ev.last_unix_s());
}

// --- slow-trace ring -------------------------------------------------------

FrameTrace MakeTrace(uint64_t id) {
  FrameTrace t;
  t.request_id = id;
  t.op = 1;
  t.queries = static_cast<uint32_t>(id);
  t.unix_s = id;
  for (size_t s = 0; s < kNumStages; ++s) t.stage_us[s] = id;
  t.SetDataset("ds");
  return t;
}

TEST(SlowTraceRingTest, WraparoundKeepsNewestFirst) {
  SlowTraceRing ring(8);
  for (uint64_t id = 1; id <= 20; ++id) ring.Push(MakeTrace(id));
  EXPECT_EQ(ring.pushed(), 20u);
  const std::vector<FrameTrace> traces = ring.Snapshot();
  ASSERT_EQ(traces.size(), 8u);
  for (size_t i = 0; i < traces.size(); ++i) {
    EXPECT_EQ(traces[i].request_id, 20 - i) << i;
    EXPECT_EQ(traces[i].DatasetString(), "ds") << i;
  }
}

TEST(SlowTraceRingTest, PartialFillReturnsOnlyWritten) {
  SlowTraceRing ring(16);
  EXPECT_TRUE(ring.Snapshot().empty());
  ring.Push(MakeTrace(5));
  ring.Push(MakeTrace(6));
  const std::vector<FrameTrace> traces = ring.Snapshot();
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0].request_id, 6u);
  EXPECT_EQ(traces[1].request_id, 5u);
}

TEST(SlowTraceRingTest, DatasetNamesLongerThanSlotAreTruncated) {
  FrameTrace t;
  t.SetDataset(std::string(64, 'x'));
  EXPECT_EQ(t.DatasetString(), std::string(kTraceDatasetBytes - 1, 'x'));
}

// The other TSan target: concurrent pushers lapping a small ring while a
// reader snapshots. Every returned trace must be untorn — all its words
// carry the same id, by construction in MakeTrace.
TEST(SlowTraceRingTest, ConcurrentPushVsSnapshotNeverTears) {
  SlowTraceRing ring(4);
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 20'000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const FrameTrace& t : ring.Snapshot()) {
        EXPECT_EQ(t.queries, static_cast<uint32_t>(t.request_id));
        EXPECT_EQ(t.unix_s, t.request_id);
        for (size_t s = 0; s < kNumStages; ++s) {
          EXPECT_EQ(t.stage_us[s], t.request_id) << s;
        }
      }
    }
  });
  std::vector<std::thread> pushers;
  for (int t = 0; t < kThreads; ++t) {
    pushers.emplace_back([&ring, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        ring.Push(MakeTrace(i * kThreads + static_cast<uint64_t>(t) + 1));
      }
    });
  }
  for (std::thread& p : pushers) p.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(ring.pushed(), kThreads * kPerThread);
  EXPECT_EQ(ring.Snapshot().size(), 4u);
}

TEST(SlowTraceRingTest, StageNamesCoverEveryStage) {
  EXPECT_STREQ(StageName(kStageRead), "read");
  EXPECT_STREQ(StageName(kStageDecode), "decode");
  EXPECT_STREQ(StageName(kStageQueueWait), "queue_wait");
  EXPECT_STREQ(StageName(kStageEngine), "engine");
  EXPECT_STREQ(StageName(kStageEncode), "encode");
  EXPECT_STREQ(StageName(kStageWrite), "write");
}

// --- registry --------------------------------------------------------------

TEST(MetricsRegistryTest, SnapshotReflectsRequestsAndBatches) {
  MetricsRegistry registry(8);
  registry.set_slow_frame_us(0);  // disable slow tracing
  registry.OnRequest(1, 100);
  registry.OnRequest(1, 200);
  registry.OnResponse(1, 50, /*error=*/false);
  registry.OnResponse(1, 60, /*error=*/true);
  registry.OnBatch("taxi", 4096, 250, /*error=*/false);
  FrameTrace trace = MakeTrace(9);
  trace.op = 1;
  registry.OnFrameDone(trace);

  const MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.ops.size(), 1u);
  EXPECT_EQ(snap.ops[0].op, 1u);
  EXPECT_EQ(snap.ops[0].requests, 2u);
  EXPECT_EQ(snap.ops[0].errors, 1u);
  EXPECT_EQ(snap.ops[0].bytes_in, 300u);
  EXPECT_EQ(snap.ops[0].bytes_out, 110u);
  EXPECT_EQ(snap.ops[0].latency.count, 1u);
  ASSERT_EQ(snap.stages.size(), kNumStages);
  for (const HistogramSnapshot& stage : snap.stages) {
    EXPECT_EQ(stage.count, 1u);
  }
  ASSERT_EQ(snap.datasets.size(), 1u);
  EXPECT_EQ(snap.datasets[0].name, "taxi");
  EXPECT_EQ(snap.datasets[0].batches, 1u);
  EXPECT_EQ(snap.datasets[0].queries, 4096u);
  EXPECT_EQ(snap.datasets[0].engine_us.count, 1u);
  EXPECT_EQ(snap.slow_frames, 0u);
  EXPECT_TRUE(snap.slow_traces.empty());
}

TEST(MetricsRegistryTest, SlowFramesCrossThresholdIntoRing) {
  MetricsRegistry registry(8);
  registry.set_slow_frame_us(100);
  FrameTrace fast = MakeTrace(1);  // total = 6 stages x 1µs
  registry.OnFrameDone(fast);
  FrameTrace slow = MakeTrace(50);  // total = 300µs
  registry.OnFrameDone(slow);
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.slow_frame_us, 100u);
  EXPECT_EQ(snap.slow_frames, 1u);
  ASSERT_EQ(snap.slow_traces.size(), 1u);
  EXPECT_EQ(snap.slow_traces[0].request_id, 50u);
  EXPECT_GT(snap.slow_traces[0].unix_s, 0u);  // stamped on retention
}

TEST(MetricsRegistryTest, DatasetOverflowFoldsIntoOther) {
  MetricsRegistry registry(8);
  const size_t kExtra = 10;
  for (size_t i = 0; i < kMaxTrackedDatasets + kExtra; ++i) {
    registry.OnBatch("ds" + std::to_string(i), 1, 1, false);
  }
  const MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.datasets.size(), kMaxTrackedDatasets + 1);
  uint64_t other_batches = 0;
  uint64_t total_batches = 0;
  for (const DatasetMetricsSnapshot& ds : snap.datasets) {
    total_batches += ds.batches;
    if (ds.name == kOverflowDataset) other_batches = ds.batches;
  }
  EXPECT_EQ(other_batches, kExtra);
  EXPECT_EQ(total_batches, kMaxTrackedDatasets + kExtra);
}

// --- log level -------------------------------------------------------------

TEST(LogTest, ParseLogLevel) {
  EXPECT_EQ(ParseLogLevel("debug", LogLevel::kInfo), LogLevel::kDebug);
  EXPECT_EQ(ParseLogLevel("INFO", LogLevel::kError), LogLevel::kInfo);
  EXPECT_EQ(ParseLogLevel("Warn", LogLevel::kInfo), LogLevel::kWarn);
  EXPECT_EQ(ParseLogLevel("warning", LogLevel::kInfo), LogLevel::kWarn);
  EXPECT_EQ(ParseLogLevel("error", LogLevel::kInfo), LogLevel::kError);
  EXPECT_EQ(ParseLogLevel("off", LogLevel::kInfo), LogLevel::kOff);
  EXPECT_EQ(ParseLogLevel("none", LogLevel::kInfo), LogLevel::kOff);
  EXPECT_EQ(ParseLogLevel(nullptr, LogLevel::kWarn), LogLevel::kWarn);
  EXPECT_EQ(ParseLogLevel("", LogLevel::kWarn), LogLevel::kWarn);
  EXPECT_EQ(ParseLogLevel("verbose", LogLevel::kWarn), LogLevel::kWarn);
}

// --- exposition ------------------------------------------------------------

MetricsSnapshot ExpositionSample() {
  MetricsSnapshot snap;
  snap.slow_frame_us = 10'000;
  snap.slow_frames = 2;
  snap.engine_batches = 5;
  snap.engine_queries = 500;
  snap.engine_batches_2d = 3;
  snap.engine_queries_2d = 300;
  snap.engine_batches_nd = 2;
  snap.engine_queries_nd = 200;
  snap.engine_batches_sharded = 1;
  OpMetricsSnapshot op;
  op.op = 1;
  op.name = "QUERY_BATCH";
  op.requests = 5;
  op.bytes_in = 100;
  op.bytes_out = 200;
  op.latency.count = 5;
  op.latency.sum_us = 500;
  op.latency.max_us = 200;
  op.latency.buckets[7] = 5;
  snap.ops.push_back(op);
  for (size_t i = 0; i < kNumStages; ++i) snap.stages.emplace_back();
  DatasetMetricsSnapshot ds;
  ds.name = "quo\"te";  // must be escaped in both expositions
  ds.batches = 5;
  ds.queries = 500;
  snap.datasets.push_back(ds);
  snap.events.push_back(EventSnapshot{"store_publishes", 3, 1754});
  snap.slow_traces.push_back(MakeTrace(11));
  return snap;
}

TEST(ExpositionTest, PrometheusTextContainsFamiliesAndLabels) {
  const std::vector<NamedCounter> counters = {{"frames_received", 12}};
  const std::string text = ToPrometheusText(counters, ExpositionSample());
  EXPECT_NE(text.find("dpgrid_frames_received 12"), std::string::npos);
  EXPECT_NE(text.find("# TYPE dpgrid_frames_received counter"),
            std::string::npos);
  EXPECT_NE(text.find("dpgrid_op_requests_total{op=\"QUERY_BATCH\"} 5"),
            std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.99\""), std::string::npos);
  EXPECT_NE(text.find("stage=\"queue_wait\""), std::string::npos);
  EXPECT_NE(text.find("dpgrid_slow_frames_total 2"), std::string::npos);
  EXPECT_NE(text.find("dpgrid_engine_batches_2d_total 3"), std::string::npos);
  EXPECT_NE(text.find("dpgrid_engine_queries_nd_total 200"),
            std::string::npos);
  EXPECT_NE(text.find("dpgrid_engine_batches_sharded_total 1"),
            std::string::npos);
  EXPECT_NE(text.find("dpgrid_event_total{event=\"store_publishes\"} 3"),
            std::string::npos);
  // Label values are escaped, not emitted raw.
  EXPECT_NE(text.find("quo\\\"te"), std::string::npos);
  EXPECT_EQ(text.find("dataset=\"quo\"te\""), std::string::npos);
}

TEST(ExpositionTest, JsonIsStructurallySound) {
  const std::vector<NamedCounter> counters = {{"frames_received", 12}};
  const std::string json = ToJson(counters, ExpositionSample());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"frames_received\":12"), std::string::npos);
  EXPECT_NE(json.find("\"ops\""), std::string::npos);
  EXPECT_NE(json.find("\"QUERY_BATCH\""), std::string::npos);
  EXPECT_NE(json.find("\"slow_traces\""), std::string::npos);
  EXPECT_NE(json.find("\"engine_batches_2d\":3"), std::string::npos);
  EXPECT_NE(json.find("\"engine_queries_nd\":200"), std::string::npos);
  EXPECT_NE(json.find("\"engine_batches_sharded\":1"), std::string::npos);
  EXPECT_NE(json.find("\"quo\\\"te\""), std::string::npos);
  // Balanced braces/brackets outside strings — a cheap structural check
  // that catches a missing comma-vs-bracket slip.
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (c == '\\') {
      escaped = true;
      continue;
    }
    if (c == '"') in_string = !in_string;
    if (in_string) continue;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

}  // namespace
}  // namespace obs
}  // namespace dpgrid
