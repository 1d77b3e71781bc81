// Over-the-wire serving throughput of the TCP query server vs the same
// engine called in-process, on a loopback connection.
//
// One client thread streams QUERY_BATCH frames of varying batch sizes at
// the server (event loop, one handler thread, 1-thread engine; client and
// server share the host's CPUs, so the numbers are a conservative floor
// for real two-machine serving). Reported per batch size:
//
//   wire_qps          queries/s through connect->frame->engine->frame
//   frames_per_sec    request/response round trips per second
//   wire_overhead     1 - wire_qps / inprocess_qps
//   p50/p95/p99/max   per-frame latency from the server's own METRICS
//                     histograms (delta across the pass; max is since the
//                     server started, as histograms are monotone counters)
//
// A pipelined pass (QueryBatchPipelined, 8 frames in flight) shows what
// the event loop buys once the client stops waiting a full round trip
// per frame, and a shed pass times the kOverloaded verdict.
//
// Answers that crossed the wire are checked bitwise against the
// in-process engine on the same snapshot — the serving layer must never
// perturb an answer.
//
// Results go to stdout and BENCH_server.json (DPGRID_BENCH_OUT
// overrides), with a host record. Env knobs: DPGRID_SRV_POINTS (default
// 200000), DPGRID_SRV_QUERIES (default 262144 per batch-size pass),
// DPGRID_SRV_REPS (default 3), DPGRID_SRV_SHED_TRIALS (default 200),
// DPGRID_SEED.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench/bench_util.h"
#include "catalog/synopsis_catalog.h"
#include "common/random.h"
#include "data/generators.h"
#include "grid/uniform_grid.h"
#include "obs/metrics.h"
#include "query/query_engine.h"
#include "query/workload.h"
#include "server/client.h"
#include "server/server.h"
#include "server/socket_io.h"
#include "server/wire.h"
#include "store/snapshot_store.h"

namespace dpgrid {
namespace {

using bench::EnvInt;
using bench::NowSeconds;

struct PassResult {
  size_t batch_size = 0;
  double wire_qps = 0.0;
  double frames_per_sec = 0.0;
  double overhead = 0.0;
  bool bitwise_equal = false;
  // Server-side per-frame latency over this pass, from the METRICS op.
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  uint64_t max_us = 0;
};

// Latency histogram of the QUERY_BATCH op inside a METRICS snapshot
// (empty histogram when the op has not been exercised yet).
obs::HistogramSnapshot QueryBatchLatency(const obs::MetricsSnapshot& snap) {
  for (const obs::OpMetricsSnapshot& op : snap.ops) {
    if (op.op == static_cast<uint32_t>(WireOp::kQueryBatch)) return op.latency;
  }
  return obs::HistogramSnapshot{};
}

}  // namespace
}  // namespace dpgrid

int main() {
  using namespace dpgrid;

  const auto num_points =
      static_cast<int64_t>(EnvInt("DPGRID_SRV_POINTS", 200000));
  const auto num_queries =
      static_cast<size_t>(EnvInt("DPGRID_SRV_QUERIES", 262144));
  const int reps = static_cast<int>(EnvInt("DPGRID_SRV_REPS", 3));
  const auto seed = static_cast<uint64_t>(EnvInt("DPGRID_SEED", 20130408));
  const char* out_path = std::getenv("DPGRID_BENCH_OUT");
  if (out_path == nullptr || *out_path == '\0') out_path = "BENCH_server.json";

  std::printf("=== bench_server_throughput ===\n");
  std::printf("points=%lld queries=%zu reps=%d seed=%llu (loopback, "
              "1-thread engine, DPGW v%u)\n",
              static_cast<long long>(num_points), num_queries, reps,
              static_cast<unsigned long long>(seed), kWireProtocolVersion);

  // Build and publish one UG snapshot into a scratch store. The per-PID
  // RAII dir means concurrent runs don't collide and every early-exit
  // path below still cleans up.
  Rng data_rng(seed);
  const Dataset data = MakeCheckinLike(num_points, data_rng);
  Rng build_rng(seed + 2);
  UniformGrid ug(data, 1.0, build_rng);
  const bench::ScratchDir scratch("dpgrid_bench_server");
  const std::string& dir = scratch.path();
  SnapshotStore store(dir);
  std::string error;
  if (store.Publish("bench", ug, SnapshotMeta{1.0, "bench"}, &error) == 0) {
    std::fprintf(stderr, "publish failed: %s\n", error.c_str());
    return 1;
  }
  SynopsisCatalog catalog(&store);
  if (catalog.LoadAll(&error) != 1) {
    std::fprintf(stderr, "catalog load failed: %s\n", error.c_str());
    return 1;
  }
  std::printf("uniform grid: m=%d\n", ug.grid_size());

  // Paper-style workload, flattened and padded.
  Rng workload_rng(seed + 1);
  const int per_size = static_cast<int>((num_queries + 5) / 6);
  Workload workload =
      GenerateWorkload(data.domain(), data.domain().Width() / 2,
                       data.domain().Height() / 2, 6, per_size, workload_rng);
  std::vector<Rect> queries;
  for (const auto& group : workload.queries) {
    queries.insert(queries.end(), group.begin(), group.end());
  }
  queries.resize(num_queries);

  const QueryEngine engine(QueryEngineOptions{.num_threads = 1});

  // --- in-process baseline --------------------------------------------------
  const auto snap = catalog.Slot2D("bench")->Acquire();
  std::vector<double> local(num_queries);
  double t_local = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double t0 = NowSeconds();
    engine.AnswerAll(*snap->synopsis, queries, local);
    t_local = std::min(t_local, NowSeconds() - t0);
  }
  const double inprocess_qps = static_cast<double>(num_queries) / t_local;
  std::printf("\nin-process engine: %.0f QPS\n", inprocess_qps);

  // --- server + client --------------------------------------------------
  const size_t kBatchSizes[] = {256, 4096, 65536};
  std::vector<PassResult> results;
  bool all_equal = true;

  QueryServer server(&catalog, &engine);
  if (!server.Start(&error)) {
    std::fprintf(stderr, "server start failed: %s\n", error.c_str());
    return 1;
  }
  QueryClient client;
  if (!client.Connect("127.0.0.1", server.port(), &error)) {
    std::fprintf(stderr, "connect failed: %s\n", error.c_str());
    return 1;
  }

  std::printf("\n%-12s %14s %14s %12s %10s %8s %8s %8s %8s\n", "batch_size",
              "wire QPS", "frames/s", "overhead", "bitwise", "p50us", "p95us",
              "p99us", "maxus");
  for (const size_t batch : kBatchSizes) {
    obs::MetricsSnapshot before;
    if (!client.Metrics(nullptr, &before, &error)) {
      std::fprintf(stderr, "metrics failed: %s\n", error.c_str());
      return 1;
    }
    std::vector<double> wire(num_queries);
    std::vector<double> answers;
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
      const double t0 = NowSeconds();
      for (size_t off = 0; off < num_queries; off += batch) {
        const size_t n = std::min(batch, num_queries - off);
        uint64_t version = 0;
        if (!client.QueryBatch(
                "bench", std::span<const Rect>(queries.data() + off, n),
                &answers, &version, nullptr, &error)) {
          std::fprintf(stderr, "query failed: %s\n", error.c_str());
          return 1;
        }
        std::copy(answers.begin(), answers.end(), wire.begin() + off);
      }
      best = std::min(best, NowSeconds() - t0);
    }
    obs::MetricsSnapshot after;
    if (!client.Metrics(nullptr, &after, &error)) {
      std::fprintf(stderr, "metrics failed: %s\n", error.c_str());
      return 1;
    }
    const obs::HistogramSnapshot pass_latency =
        QueryBatchLatency(after).Delta(QueryBatchLatency(before));
    PassResult res;
    res.batch_size = batch;
    res.wire_qps = static_cast<double>(num_queries) / best;
    res.frames_per_sec =
        static_cast<double>((num_queries + batch - 1) / batch) / best;
    res.overhead = 1.0 - res.wire_qps / inprocess_qps;
    res.bitwise_equal = wire == local;
    res.p50_us = pass_latency.P50();
    res.p95_us = pass_latency.P95();
    res.p99_us = pass_latency.P99();
    res.max_us = pass_latency.max_us;
    all_equal = all_equal && res.bitwise_equal;
    results.push_back(res);
    std::printf("%-12zu %14.0f %14.1f %11.1f%% %10s %8.0f %8.0f %8.0f %8llu\n",
                batch, res.wire_qps, res.frames_per_sec, 100.0 * res.overhead,
                res.bitwise_equal ? "yes" : "NO", res.p50_us, res.p95_us,
                res.p99_us, static_cast<unsigned long long>(res.max_us));
  }

  // Pipelined pass: same 4096-query frames, but up to 8 in flight on the
  // connection instead of one blocking round trip each.
  std::vector<double> pipelined_wire;
  double pipelined_best = 1e300;
  for (int r = 0; r < reps; ++r) {
    uint64_t version = 0;
    WireStatus status = WireStatus::kOk;
    const double t0 = NowSeconds();
    if (!client.QueryBatchPipelined("bench", queries, 4096, 8, &pipelined_wire,
                                    &version, &status, &error)) {
      std::fprintf(stderr, "pipelined query failed: %s\n", error.c_str());
      return 1;
    }
    pipelined_best = std::min(pipelined_best, NowSeconds() - t0);
  }
  const double pipelined_qps = static_cast<double>(num_queries) / pipelined_best;
  const double pipelined_fps =
      static_cast<double>((num_queries + 4095) / 4096) / pipelined_best;
  const bool pipelined_equal = pipelined_wire == local;
  all_equal = all_equal && pipelined_equal;
  std::printf("%-12s %14.0f %14.1f %11.1f%% %10s\n", "4096 (pipe8)",
              pipelined_qps, pipelined_fps,
              100.0 * (1.0 - pipelined_qps / inprocess_qps),
              pipelined_equal ? "yes" : "NO");

  const WireStats stats = server.StatsSnapshot();
  std::printf("server counters: %llu frames, %llu queries, %llu errors\n",
              static_cast<unsigned long long>(stats.frames_received),
              static_cast<unsigned long long>(stats.queries_answered),
              static_cast<unsigned long long>(stats.errors_returned));
  client.Close();
  server.Shutdown();

  // --- shed latency ---------------------------------------------------------
  // How quickly an over-capacity connection gets its kOverloaded verdict:
  // the time an upstream load balancer is stuck holding a doomed
  // connection before it can fail over. A one-slot server is pinned by a
  // blocker client; each trial connects, reads the unsolicited verdict
  // frame, and closes.
  const int shed_trials =
      static_cast<int>(EnvInt("DPGRID_SRV_SHED_TRIALS", 200));
  QueryServerOptions shed_options;
  shed_options.max_connections = 1;
  QueryServer shed_server(&catalog, &engine, shed_options);
  if (!shed_server.Start(&error)) {
    std::fprintf(stderr, "shed server start failed: %s\n", error.c_str());
    return 1;
  }
  QueryClient blocker;
  WireStats pin_stats;
  if (!blocker.Connect("127.0.0.1", shed_server.port(), &error) ||
      !blocker.Stats(&pin_stats, &error)) {  // round trip pins the one slot
    std::fprintf(stderr, "shed blocker failed: %s\n", error.c_str());
    return 1;
  }
  std::vector<double> shed_us;
  shed_us.reserve(static_cast<size_t>(shed_trials));
  bool all_verdicts_decoded = true;
  for (int i = 0; i < shed_trials; ++i) {
    const double t0 = NowSeconds();
    const int fd = net::ConnectTcp("127.0.0.1", shed_server.port(), &error);
    if (fd < 0) {
      std::fprintf(stderr, "shed connect failed: %s\n", error.c_str());
      return 1;
    }
    char header[kWireHeaderSize];
    WireOp op = WireOp::kHealth;
    uint64_t id = 0;
    uint64_t body_size = 0;
    uint64_t checksum = 0;
    std::string body;
    bool decoded =
        net::ReadFullDeadline(fd, header, sizeof(header),
                              net::Deadline::AfterMs(5000)) ==
            net::IoResult::kOk &&
        DecodeFrameHeader(std::string_view(header, sizeof(header)), &op, &id,
                          &body_size, &checksum, &error);
    if (decoded) {
      body.resize(static_cast<size_t>(body_size));
      HealthResponse verdict;
      decoded = net::ReadFullDeadline(fd, body.data(), body.size(),
                                      net::Deadline::AfterMs(5000)) ==
                    net::IoResult::kOk &&
                DecodeHealthResponse(body, &verdict, &error) &&
                verdict.status == WireStatus::kOverloaded;
    }
    shed_us.push_back(1e6 * (NowSeconds() - t0));
    ::close(fd);
    all_verdicts_decoded = all_verdicts_decoded && decoded;
  }
  blocker.Close();
  shed_server.Shutdown();
  std::sort(shed_us.begin(), shed_us.end());
  const double shed_p50 = shed_us[shed_us.size() / 2];
  const double shed_max = shed_us.back();
  std::printf("\nshed latency (connect -> kOverloaded verdict, "
              "%d trials): p50=%.0fus max=%.0fus verdicts=%s\n",
              shed_trials, shed_p50, shed_max,
              all_verdicts_decoded ? "ok" : "BROKEN");
  all_equal = all_equal && all_verdicts_decoded;

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"bench_server_throughput\",\n"
               "  \"host\": %s,\n"
               "  \"config\": {\n"
               "    \"points\": %lld,\n"
               "    \"queries\": %zu,\n"
               "    \"reps\": %d,\n"
               "    \"seed\": %llu,\n"
               "    \"grid_size\": %d,\n"
               "    \"transport\": \"tcp-loopback\",\n"
               "    \"protocol_version\": %u,\n"
               "    \"engine_threads\": 1\n"
               "  },\n"
               "  \"inprocess_qps\": %.0f,\n"
               "  \"wire\": [\n",
               bench::HostJson().c_str(), static_cast<long long>(num_points),
               num_queries, reps, static_cast<unsigned long long>(seed),
               ug.grid_size(), kWireProtocolVersion, inprocess_qps);
  for (size_t i = 0; i < results.size(); ++i) {
    const PassResult& r = results[i];
    std::fprintf(f,
                 "    {\"batch_size\": %zu, \"wire_qps\": %.0f, "
                 "\"frames_per_sec\": %.1f, \"overhead_vs_inprocess\": %.4f, "
                 "\"latency_p50_us\": %.1f, \"latency_p95_us\": %.1f, "
                 "\"latency_p99_us\": %.1f, \"latency_max_us\": %llu, "
                 "\"bitwise_equal_inprocess\": %s}%s\n",
                 r.batch_size, r.wire_qps, r.frames_per_sec, r.overhead,
                 r.p50_us, r.p95_us, r.p99_us,
                 static_cast<unsigned long long>(r.max_us),
                 r.bitwise_equal ? "true" : "false",
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n"
               "  \"pipelined\": {\n"
               "    \"batch_size\": 4096,\n"
               "    \"window\": 8,\n"
               "    \"wire_qps\": %.0f,\n"
               "    \"frames_per_sec\": %.1f,\n"
               "    \"bitwise_equal_inprocess\": %s\n"
               "  },\n"
               "  \"resilience\": {\n"
               "    \"shed_trials\": %d,\n"
               "    \"shed_max_connections\": 1,\n"
               "    \"shed_latency_p50_us\": %.1f,\n"
               "    \"shed_latency_max_us\": %.1f,\n"
               "    \"verdicts_decoded\": %s\n"
               "  }\n}\n",
               pipelined_qps, pipelined_fps,
               pipelined_equal ? "true" : "false", shed_trials, shed_p50,
               shed_max, all_verdicts_decoded ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", out_path);

  return all_equal ? 0 : 1;
}
