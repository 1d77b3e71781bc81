// dpgrid serving benchmark: two closed-loop loopback workloads driven
// from one process through dpgrid's public API (see README.md here for
// why each workload exists and what each metric should move).
//
//   perfbench --workload ug2d-1k|ag3d-publish --seed N
//             --seconds S --trace 0|1 --dir STORE_DIR
//             [--inject-corrupt-answer]
//
// One client thread on one connection keeps one QUERY_BATCH frame in
// flight against a QueryServer with default options; the client runs
// alone on one vCPU and every other thread on the rest. Each run answers a
// fixed, seed-generated frame sequence in whole passes after an untimed
// warm-up; every frame carries the same interleaved mix of the paper's
// query-size classes. Every wire answer is checked bitwise against
// in-process QueryEngine::AnswerAll on the snapshot version the frame
// reports; a mismatch, non-OK status or transport error fails the frame
// and the run exits non-zero.
//
// --trace 0 prints the end-to-end metrics; --trace 1 splits --seconds
// into an untraced window and a traced one, adds in-process layer timings
// after them, and prints the per-layer metrics plus the traced-minus-
// untraced overhead.
// The last stdout line is the JSON result.

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "catalog/synopsis_catalog.h"
#include "common/random.h"
#include "data/generators.h"
#include "grid/uniform_grid.h"
#include "harness.h"
#include "nd/adaptive_grid_nd.h"
#include "nd/dataset_nd.h"
#include "nd/workload_nd.h"
#include "query/query_engine.h"
#include "query/workload.h"
#include "server/client.h"
#include "server/server.h"
#include "store/snapshot_store.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using dpgrid::AdaptiveGridNd;
using dpgrid::BoxNd;
using dpgrid::QueryClient;
using dpgrid::QueryEngine;
using dpgrid::Rect;
using dpgrid::Rng;
using dpgrid::UniformGrid;
using dpgrid::obs::MetricsSnapshot;

constexpr char kDataset[] = "bench";
constexpr double kEpsilon = 1.0;
// Set-up (DP build, publish, load, start, connect) is repeated before
// the windows and again after them, and the median of all of them is
// reported; see SetUpRepeatedly. Each phase runs at least kMinSetupReps
// set-ups and keeps going for kSetupSeconds (at most kMaxSetupReps).
constexpr size_t kMinSetupReps = 6;
constexpr size_t kMaxSetupReps = 30;
constexpr double kSetupSeconds = 2.0;
constexpr double kWarmupSeconds = 1.0;
// In-process per-layer timings (engine QPS, batch vs scalar) run for at
// least this long, in whole passes over the frame sequence.
constexpr double kLayerSeconds = 1.0;
// ag3d-publish: the publisher calls Publish once this many query frames
// have completed since the previous release became visible. A cycle is
// these frames plus about 5 more for a ~20 ms fsync'd Publish, a ~30 ms
// RELOAD and the first frame on the new release, so one frame in ~25
// (about 4%) queues behind a RELOAD on the server's only handler thread,
// and frame_p99_us sits inside the reload-stall tail rather than on its
// 1% edge.
constexpr uint64_t kFramesPerRelease = 20;
// ag3d-publish cycles through this many synopses of the same points,
// built with consecutive seeds before the window, so no query frame runs
// beside a DP build (a build slows frames beside it by up to half, which
// makes frame latency bimodal). Release r serves synopsis r % kReleaseSlots,
// so each release differs from the two before it, and every frame can be
// checked against the synopsis its version maps to.
constexpr size_t kReleaseSlots = 3;

// See Window::P50 and Window::P99.
constexpr size_t kP50Blocks = 40;
constexpr size_t kMinP99BlockFrames = 1000;
constexpr size_t kMaxP99Blocks = 15;

struct Spec {
  const char* name;
  int64_t points;
  size_t frame_size;
  size_t frames;  // distinct frames in the sequence
};

constexpr Spec kSpecs[] = {
    {"ug2d-1k", 1'000'000, 1024, 64},
    {"ag3d-publish", 1'000'000, 512, 32},
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string dir;
  bool inject_corrupt_answer = false;
};

// Counts every QUERY_BATCH frame sent and every failed one; a failure is
// a non-OK status, a transport error or an answer mismatch.
struct Accounting {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;
  void Fail(const std::string& why) {
    ++failed;
    if (first_error.empty()) first_error = why;
  }
};

// The negative control: flips the lowest bit of one answer of one
// seed-chosen warm-up frame before the gate sees it.
class Corruptor {
 public:
  Corruptor(bool enabled, uint64_t seed)
      : at_(enabled ? seed % 16 : UINT64_MAX) {}
  const std::vector<double>& Apply(const std::vector<double>& answers) {
    if (seen_++ != at_ || answers.empty()) return answers;
    copy_ = answers;
    uint64_t bits = 0;
    std::memcpy(&bits, &copy_[copy_.size() / 2], sizeof(bits));
    bits ^= 1;
    std::memcpy(&copy_[copy_.size() / 2], &bits, sizeof(bits));
    return copy_;
  }

 private:
  uint64_t at_;
  uint64_t seen_ = 0;
  std::vector<double> copy_;
};

bool SameBits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

double Ms(Clock::time_point a, Clock::time_point b) {
  return 1e3 * SecondsBetween(a, b);
}

// --- frame sequences --------------------------------------------------------

// Frame f's j-th query comes from size class j % classes, so every frame
// carries the same mix and per-frame cost stays unimodal.
template <typename Q>
std::vector<std::vector<Q>> Interleave(
    const std::vector<std::vector<Q>>& classes, size_t frames,
    size_t frame_size) {
  std::vector<size_t> next(classes.size(), 0);
  std::vector<std::vector<Q>> out(frames);
  for (auto& frame : out) {
    frame.reserve(frame_size);
    for (size_t j = 0; j < frame_size; ++j) {
      const size_t c = j % classes.size();
      frame.push_back(classes[c].at(next[c]++));
    }
  }
  return out;
}

// The paper's six 2-D query sizes (Table II), q6 a quarter of the domain.
std::vector<std::vector<Rect>> Frames2D(const Rect& domain, const Spec& spec,
                                        uint64_t seed) {
  Rng rng(seed);
  const int per_class = static_cast<int>(spec.frames * ((spec.frame_size + 5) / 6));
  const dpgrid::Workload w = dpgrid::GenerateWorkload(
      domain, domain.Width() / 2, domain.Height() / 2, 6, per_class, rng);
  return Interleave(w.queries, spec.frames, spec.frame_size);
}

// Four 3-d box sizes up to half the domain per axis.
std::vector<std::vector<BoxNd>> Frames3D(const BoxNd& domain,
                                         const Spec& spec, uint64_t seed) {
  Rng rng(seed);
  const int per_class = static_cast<int>(spec.frames * ((spec.frame_size + 3) / 4));
  const dpgrid::WorkloadNd w = dpgrid::GenerateWorkloadNd(
      domain, std::vector<double>(3, 50.0), 4, per_class, rng);
  return Interleave(w.queries, spec.frames, spec.frame_size);
}

bool Send(QueryClient& client, const std::vector<Rect>& frame,
          std::vector<double>* answers, uint64_t* version,
          std::string* error) {
  dpgrid::WireStatus status{};
  return client.QueryBatch(kDataset, frame, answers, version, &status, error);
}

bool Send(QueryClient& client, const std::vector<BoxNd>& frame,
          std::vector<double>* answers, uint64_t* version,
          std::string* error) {
  dpgrid::WireStatus status{};
  return client.QueryBatchNd(kDataset, 3, frame, answers, version, &status,
                             error);
}

// Transport failures must count, not be retried away.
dpgrid::QueryClientOptions ClientOptions() {
  dpgrid::QueryClientOptions options;
  options.max_retries = 0;
  return options;
}

// --- serving stack and set-up -----------------------------------------------

// Store -> catalog -> server -> client; members are destroyed in reverse,
// so the client disconnects before the server stops and the server stops
// before the catalog and store it borrows go away.
struct Stack {
  std::unique_ptr<dpgrid::SnapshotStore> store;
  std::unique_ptr<dpgrid::SynopsisCatalog> catalog;
  std::unique_ptr<dpgrid::QueryServer> server;
  QueryClient client{ClientOptions()};
};

struct SetupSample {
  double build_ms = 0, publish_ms = 0, load_ms = 0, start_ms = 0;
  double setup_s = 0;
  double visible_ms = 0;  // Publish start -> first frame on the release
  uint64_t version = 0;
};

// One timed set-up: DP build over `points`, Publish, LoadAll, Start,
// connect (setup_s ends here), then the first query frame, which marks
// the release visible. Returns nullptr (with acct->Fail) on any error.
template <typename SynopsisT, typename Data, typename Q>
std::unique_ptr<Stack> SetUp(const std::string& dir, const QueryEngine& engine,
                             const Data& points, uint64_t build_seed,
                             const std::vector<Q>& probe,
                             std::shared_ptr<const SynopsisT>* built,
                             std::vector<double>* probe_answers,
                             SetupSample* s, Accounting* acct) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  auto stack = std::make_unique<Stack>();
  std::string error;

  const Clock::time_point t0 = Clock::now();
  Rng build_rng(build_seed);
  *built = std::make_shared<const SynopsisT>(points, kEpsilon, build_rng);
  const Clock::time_point t1 = Clock::now();
  stack->store = std::make_unique<dpgrid::SnapshotStore>(dir);
  s->version = stack->store->Publish(kDataset, **built,
                                     dpgrid::SnapshotMeta{kEpsilon, "perfbench"},
                                     &error);
  const Clock::time_point t2 = Clock::now();
  if (s->version == 0) {
    acct->Fail("publish failed: " + error);
    return nullptr;
  }
  stack->catalog = std::make_unique<dpgrid::SynopsisCatalog>(stack->store.get());
  if (stack->catalog->LoadAll(&error) != 1) {
    acct->Fail("catalog load failed: " + error);
    return nullptr;
  }
  const Clock::time_point t3 = Clock::now();
  stack->server = std::make_unique<dpgrid::QueryServer>(stack->catalog.get(),
                                                        &engine);
  if (!stack->server->Start(&error)) {
    acct->Fail("server start failed: " + error);
    return nullptr;
  }
  const Clock::time_point t4 = Clock::now();
  if (!stack->client.Connect("127.0.0.1", stack->server->port(), &error)) {
    acct->Fail("connect failed: " + error);
    return nullptr;
  }
  const Clock::time_point t5 = Clock::now();
  uint64_t version = 0;
  ++acct->attempted;
  const bool ok = Send(stack->client, probe, probe_answers, &version, &error);
  const Clock::time_point t6 = Clock::now();
  if (!ok || version != s->version) {
    acct->Fail("first frame failed: " + error);
    return nullptr;
  }
  s->build_ms = Ms(t0, t1);
  s->publish_ms = Ms(t1, t2);
  s->load_ms = Ms(t2, t3);
  s->start_ms = Ms(t3, t4);
  s->setup_s = SecondsBetween(t0, t5);
  s->visible_ms = Ms(t1, t6);
  return stack;
}

// Repeats the set-up at least kMinSetupReps times and until
// kSetupSeconds have been spent, keeping the last stack: a single set-up
// takes tens to hundreds of milliseconds, too short to time once, and the
// host's speed moves by a quarter from one second to the next. Samples
// append to `samples`, so a later phase adds to an earlier one.
template <typename SynopsisT, typename Data, typename Q>
std::unique_ptr<Stack> SetUpRepeatedly(
    const std::string& dir, const QueryEngine& engine, const Data& points,
    uint64_t build_seed, const std::vector<Q>& probe,
    std::shared_ptr<const SynopsisT>* built,
    std::vector<std::vector<double>>* probes,
    std::vector<SetupSample>* samples, Accounting* acct) {
  std::unique_ptr<Stack> stack;
  const Clock::time_point start = Clock::now();
  for (size_t reps = 0;
       reps < kMinSetupReps ||
       (reps < kMaxSetupReps &&
        SecondsBetween(start, Clock::now()) < kSetupSeconds);
       ++reps) {
    stack.reset();
    samples->emplace_back();
    probes->emplace_back();
    stack = SetUp(dir, engine, points, build_seed, probe, built,
                  &probes->back(), &samples->back(), acct);
    if (stack == nullptr) return nullptr;
  }
  return stack;
}

template <typename Field>
double MedianOf(const std::vector<SetupSample>& samples, Field field) {
  std::vector<double> v;
  for (const SetupSample& s : samples) v.push_back(s.*field);
  return Median(std::move(v));
}

// --- the closed loop --------------------------------------------------------

struct Window {
  Clock::time_point start;
  double wall_s = 0.0;
  uint64_t frames = 0;
  uint64_t queries = 0;
  std::vector<double> start_s;  // frame send time, from window start
  std::vector<double> rtt_us;   // client-observed QUERY_BATCH round trip

  double Qps() const { return static_cast<double>(queries) / wall_s; }
  // The mean of the p50s of kP50Blocks consecutive blocks of equal frame
  // count (about a second each). The host's vCPUs differ in speed by up to
  // half, and the closed loop stays on one for seconds before the
  // scheduler moves it, so frame latency mixes a fast and a slow mode in
  // shares that vary from run to run. The whole-window p50 jumps between
  // the modes when the shares are near even; the mean of per-block p50s
  // moves smoothly with them.
  double P50() const {
    const size_t blocks = std::clamp<size_t>(rtt_us.size(), 1, kP50Blocks);
    double sum = 0.0;
    for (size_t b = 0; b < blocks; ++b) sum += Quantile(Block(b, blocks), 0.5);
    return sum / static_cast<double>(blocks);
  }
  // The median of the p99s of up to kMaxP99Blocks consecutive blocks of
  // at least kMinP99BlockFrames frames, so each block's p99 has at least
  // ten frames beyond it. Host stalls (vCPU steal) come in bursts a few
  // seconds long: a burst lifts its own block's p99, not the median.
  double P99() const {
    const size_t blocks = std::clamp<size_t>(
        rtt_us.size() / kMinP99BlockFrames, 1, kMaxP99Blocks);
    std::vector<double> p99s;
    for (size_t b = 0; b < blocks; ++b) {
      p99s.push_back(Quantile(Block(b, blocks), 0.99));
    }
    return Median(std::move(p99s));
  }
  // Block b of `blocks` consecutive equal-count blocks (the last one takes
  // the remainder).
  std::vector<double> Block(size_t b, size_t blocks) const {
    const size_t per = rtt_us.size() / blocks;
    const auto first = rtt_us.begin() + static_cast<ptrdiff_t>(b * per);
    const auto last =
        b + 1 == blocks ? rtt_us.end() : first + static_cast<ptrdiff_t>(per);
    return std::vector<double>(first, last);
  }
  double MeanRtt() const {
    double sum = 0.0;
    for (const double v : rtt_us) sum += v;
    return rtt_us.empty() ? 0.0 : sum / static_cast<double>(rtt_us.size());
  }
};

// Answers the whole frame sequence, pass after pass, until `seconds` have
// elapsed at a pass boundary. `sink(frame, answers, version, done)` is
// the correctness gate (false = mismatch).
template <typename Q, typename Sink>
Window RunWindow(QueryClient& client,
                 const std::vector<std::vector<Q>>& frames, double seconds,
                 Accounting* acct, Sink&& sink) {
  Window w;
  std::vector<double> answers;
  std::string error;
  w.start = Clock::now();
  bool alive = true;
  do {
    for (size_t f = 0; f < frames.size() && alive; ++f) {
      uint64_t version = 0;
      const Clock::time_point t0 = Clock::now();
      const bool ok = Send(client, frames[f], &answers, &version, &error);
      const Clock::time_point t1 = Clock::now();
      ++acct->attempted;
      ++w.frames;
      w.queries += frames[f].size();
      w.start_s.push_back(SecondsBetween(w.start, t0));
      w.rtt_us.push_back(1e6 * SecondsBetween(t0, t1));
      if (!ok) {
        acct->Fail("frame " + std::to_string(f) + ": " + error);
        alive = client.connected() || client.Reconnect(&error);
        continue;
      }
      if (!sink(f, answers, version, t1)) {
        acct->Fail("frame " + std::to_string(f) + " on version " +
                   std::to_string(version) +
                   ": wire answers differ from in-process AnswerAll");
      }
    }
  } while (alive && SecondsBetween(w.start, Clock::now()) < seconds);
  w.wall_s = SecondsBetween(w.start, Clock::now());
  return w;
}

// A traced run splits its time between an untraced and a traced window,
// so every run measures for the same --seconds.
double WindowSeconds(const Options& opt) {
  return opt.trace ? opt.seconds / 2 : opt.seconds;
}

bool Metrics(QueryClient& client, MetricsSnapshot* out, Accounting* acct) {
  std::string error;
  if (client.Metrics(nullptr, out, &error)) return true;
  acct->Fail("METRICS failed: " + error);
  return false;
}

// One measured window with METRICS snapshots around it.
struct Measured {
  Window window;
  ServerBreakdown server;
};

template <typename Q, typename Sink>
Measured MeasureWindow(QueryClient& client,
                       const std::vector<std::vector<Q>>& frames,
                       double seconds, Accounting* acct, Sink&& sink) {
  Measured m;
  MetricsSnapshot before, after;
  Metrics(client, &before, acct);
  m.window = RunWindow(client, frames, seconds, acct, sink);
  Metrics(client, &after, acct);
  m.server = Breakdown(before, after, kDataset);
  return m;
}

// Server counters must match what the client sent in the window.
void CheckServerCounts(const Measured& m, Accounting* acct) {
  if (m.server.query_frames != m.window.frames ||
      m.server.engine_batches != m.window.frames || m.server.query_errors != 0) {
    acct->Fail("server counted " + std::to_string(m.server.query_frames) +
               " frames / " + std::to_string(m.server.engine_batches) +
               " engine batches / " + std::to_string(m.server.query_errors) +
               " errors for " + std::to_string(m.window.frames) +
               " client frames");
  }
}

// The server's QUERY_BATCH latency is by definition the sum of its six
// stage times, so the stage means plus client.overhead_us (client round
// trip minus server.frame_us) add up to the client round trip exactly.
// What can fail is the independent part: the server's time for a frame
// must fit inside the client's round trip for it, so client.overhead_us
// may not be negative beyond the stages' integer-µs rounding.
constexpr double kOverheadToleranceUs = 6.0;

double ClientOverheadUs(const Measured& m) {
  return m.window.MeanRtt() - m.server.frame_us;
}

struct EndToEnd {
  double setup_s = 0, wire_qps = 0, p50 = 0, p99 = 0, visible_ms = 0,
         rss_mb = 0;
};

EndToEnd FromWindow(const Window& w, double setup_s, double visible_ms) {
  EndToEnd e;
  e.setup_s = setup_s;
  e.wire_qps = w.Qps();
  e.p50 = w.P50();
  e.p99 = w.P99();
  e.visible_ms = visible_ms;
  return e;
}

void PrintWindow(const char* label, const Measured& m);

// The checks every window gets.
void CheckWindow(const char* label, const Measured& m, Accounting* acct) {
  CheckServerCounts(m, acct);
  PrintWindow(label, m);
  if (ClientOverheadUs(m) < -kOverheadToleranceUs) {
    acct->Fail("server frame time " + std::to_string(m.server.frame_us) +
               "us exceeds the client round trip " +
               std::to_string(m.window.MeanRtt()) + "us");
  }
}

// --- in-process per-layer timings -------------------------------------------

template <typename SynopsisT, typename Q>
double EngineQps(const QueryEngine& engine, const SynopsisT& synopsis,
                 const std::vector<std::vector<Q>>& frames) {
  std::vector<double> out(frames.front().size());
  uint64_t queries = 0;
  const Clock::time_point t0 = Clock::now();
  do {
    for (const auto& frame : frames) {
      engine.AnswerAll(synopsis, frame, out);
      queries += frame.size();
    }
  } while (SecondsBetween(t0, Clock::now()) < kLayerSeconds);
  return static_cast<double>(queries) / SecondsBetween(t0, Clock::now());
}

// Per-query Answer time over AnswerBatch time on the same frames,
// alternating frame by frame so host speed swings cancel in the ratio.
// Batch answers must equal scalar answers bitwise.
template <typename SynopsisT, typename Q>
double BatchVsScalar(const SynopsisT& synopsis,
                     const std::vector<std::vector<Q>>& frames,
                     Accounting* acct) {
  std::vector<double> batch(frames.front().size());
  std::vector<double> scalar(frames.front().size());
  double batch_s = 0.0, scalar_s = 0.0;
  const Clock::time_point start = Clock::now();
  do {
    for (const auto& frame : frames) {
      const Clock::time_point t0 = Clock::now();
      synopsis.AnswerBatch(frame, batch);
      const Clock::time_point t1 = Clock::now();
      for (size_t i = 0; i < frame.size(); ++i) {
        scalar[i] = synopsis.Answer(frame[i]);
      }
      const Clock::time_point t2 = Clock::now();
      batch_s += SecondsBetween(t0, t1);
      scalar_s += SecondsBetween(t1, t2);
      if (!SameBits(batch, scalar)) {
        acct->Fail("AnswerBatch differs from per-query Answer");
      }
    }
  } while (SecondsBetween(start, Clock::now()) < kLayerSeconds);
  return scalar_s / batch_s;
}

// --- output -----------------------------------------------------------------

void AddEndToEnd(const EndToEnd& e, Result* r) {
  r->Add("setup_s", e.setup_s, "s");
  r->Add("wire_qps", e.wire_qps, "queries/s");
  r->Add("frame_p50_us", e.p50, "us");
  r->Add("frame_p99_us", e.p99, "us");
  r->Add("release_visible_ms", e.visible_ms, "ms");
  r->Add("peak_rss_mb", e.rss_mb, "MiB");
}

// Per-layer values that only one workload family has; the others report
// 0, meaning "not on this workload's path".
struct LayerExtras {
  double grid_build_ms = 0, grid_batch_vs_scalar = 0;
  double nd_build_ms = 0, nd_batch_vs_scalar = 0;
  double store_publish_ms = 0, store_snapshot_mb = 0;
  double store_releases = 0;
  double catalog_load_ms = 0, catalog_reload_ms = 0;
  double server_start_ms = 0, reload_overlap_pct = 0;
  double engine_qps = 0;
};

void AddPerLayer(const Measured& traced, const EndToEnd& untraced_e2e,
                 const EndToEnd& traced_e2e, const LayerExtras& x,
                 Result* r) {
  const ServerBreakdown& s = traced.server;
  const double rtt = traced.window.MeanRtt();
  r->Add("server.frame_us", s.frame_us, "us");
  r->Add("server.read_us", s.read_us, "us");
  r->Add("server.decode_us", s.decode_us, "us");
  r->Add("server.queue_wait_us", s.queue_wait_us, "us");
  r->Add("server.engine_us", s.engine_us, "us");
  r->Add("server.encode_us", s.encode_us, "us");
  r->Add("server.write_us", s.write_us, "us");
  r->Add("server.reload_us", s.reload_us, "us");
  r->Add("server.start_ms", x.server_start_ms, "ms");
  r->Add("server.frames", static_cast<double>(s.query_frames), "count");
  r->Add("server.errors", static_cast<double>(s.query_errors), "count");
  r->Add("server.reload_overlap_pct", x.reload_overlap_pct, "%");
  r->Add("client.rtt_mean_us", rtt, "us");
  r->Add("client.overhead_us", ClientOverheadUs(traced), "us");
  r->Add("query.engine_qps", x.engine_qps, "queries/s");
  r->Add("query.batches", static_cast<double>(s.engine_batches), "count");
  r->Add("grid.build_ms", x.grid_build_ms, "ms");
  r->Add("grid.batch_vs_scalar", x.grid_batch_vs_scalar, "ratio");
  r->Add("nd.build_ms", x.nd_build_ms, "ms");
  r->Add("nd.batch_vs_scalar", x.nd_batch_vs_scalar, "ratio");
  r->Add("store.publish_ms", x.store_publish_ms, "ms");
  r->Add("store.snapshot_mb", x.store_snapshot_mb, "MiB");
  r->Add("store.releases", x.store_releases, "count");
  r->Add("catalog.load_ms", x.catalog_load_ms, "ms");
  r->Add("catalog.reload_ms", x.catalog_reload_ms, "ms");
  // Overheads are signed so that a positive value is a cost of tracing.
  r->Add("trace.overhead.wire_qps",
         untraced_e2e.wire_qps - traced_e2e.wire_qps, "queries/s");
  r->Add("trace.overhead.frame_p50_us", traced_e2e.p50 - untraced_e2e.p50,
         "us");
  r->Add("trace.overhead.frame_p99_us", traced_e2e.p99 - untraced_e2e.p99,
         "us");
  r->Add("trace.overhead.release_visible_ms",
         traced_e2e.visible_ms - untraced_e2e.visible_ms, "ms");
}

double SnapshotMiB(const dpgrid::SnapshotStore& store, uint64_t version) {
  std::error_code ec;
  const auto bytes = fs::file_size(
      fs::path(store.directory()) /
          dpgrid::SnapshotStore::FileName(kDataset, version),
      ec);
  return ec ? 0.0 : static_cast<double>(bytes) / (1024.0 * 1024.0);
}

void PrintWindow(const char* label, const Measured& m) {
  const ServerBreakdown& s = m.server;
  std::printf("%s: %llu frames in %.2fs, %.0f queries/s, p10 %.1fus p25 "
              "%.1fus p50 %.1fus (block mean; whole window %.1fus) p75 %.1fus p90 "
              "%.1fus p99 %.1fus (block median; whole window %.1fus); mean %.1fus; "
              "server frame %.1fus = read %.1f + decode %.1f + queue "
              "%.1f + engine %.1f + encode %.1f + write %.1f; client "
              "overhead %.1fus\n",
              label, static_cast<unsigned long long>(m.window.frames),
              m.window.wall_s, m.window.Qps(), Quantile(m.window.rtt_us, 0.1),
              Quantile(m.window.rtt_us, 0.25), m.window.P50(),
              Quantile(m.window.rtt_us, 0.5), Quantile(m.window.rtt_us, 0.75),
              Quantile(m.window.rtt_us, 0.9), m.window.P99(),
              Quantile(m.window.rtt_us, 0.99), m.window.MeanRtt(), s.frame_us, s.read_us, s.decode_us, s.queue_wait_us,
              s.engine_us, s.encode_us, s.write_us,
              ClientOverheadUs(m));
}

// Prints the host/config record and the final JSON line. Returns the
// process exit code.
int Finish(const Options& opt, const Spec& spec, const Result& result,
           const Accounting& acct) {
  const HostRecord host = DescribeHost(opt.dir);
  char config[256];
  std::snprintf(config, sizeof(config),
                "{\"workload\": \"%s\", \"points\": %lld, \"epsilon\": %g, "
                "\"frame_size\": %zu, \"frames_per_pass\": %zu, \"seed\": "
                "%llu, \"seconds\": %g}",
                spec.name, static_cast<long long>(spec.points), kEpsilon,
                spec.frame_size, spec.frames,
                static_cast<unsigned long long>(opt.seed), opt.seconds);
  std::printf("host: %s\nconfig: %s\n", HostJson(host).c_str(), config);
  if (!acct.first_error.empty()) {
    std::printf("FAILED: %llu of %llu frames; first: %s\n",
                static_cast<unsigned long long>(acct.failed),
                static_cast<unsigned long long>(acct.attempted),
                acct.first_error.c_str());
  }
  const bool correct = acct.failed == 0;
  const std::string json = result.Json(correct, acct.attempted, acct.failed);
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// --- ug2d-1k -----------------------------------------------------------------

int RunUg2d(const Options& opt, const Spec& spec) {
  Rng data_rng(opt.seed);
  const dpgrid::Dataset points = dpgrid::MakeCheckinLike(spec.points, data_rng);
  const auto frames = Frames2D(points.domain(), spec, opt.seed + 1);
  const QueryEngine engine;  // the server's, as shipped
  // The in-process reference runs on its own engine so the server's
  // METRICS engine counters count wire batches only.
  const QueryEngine reference;
  Accounting acct;

  std::shared_ptr<const UniformGrid> grid;
  std::vector<SetupSample> setups;
  std::vector<std::vector<double>> probes;
  std::unique_ptr<Stack> stack =
      SetUpRepeatedly(opt.dir, engine, points, opt.seed + 2, frames[0], &grid,
                      &probes, &setups, &acct);
  if (stack == nullptr) return Finish(opt, spec, Result{}, acct);
  const uint64_t version = setups.back().version;

  std::vector<std::vector<double>> expected(frames.size());
  for (size_t f = 0; f < frames.size(); ++f) {
    expected[f] = reference.AnswerAll(*grid, frames[f]);
  }
  Corruptor corruptor(opt.inject_corrupt_answer, opt.seed);
  const auto gate = [&](size_t f, const std::vector<double>& answers,
                        uint64_t v, Clock::time_point) {
    return v == version && SameBits(corruptor.Apply(answers), expected[f]);
  };
  RunOn(Side::kClient);
  RunWindow(stack->client, frames, kWarmupSeconds, &acct, gate);
  const Measured untraced =
      MeasureWindow(stack->client, frames, WindowSeconds(opt), &acct, gate);
  CheckWindow("window", untraced, &acct);
  Measured traced;
  if (opt.trace) {
    traced =
        MeasureWindow(stack->client, frames, WindowSeconds(opt), &acct, gate);
    CheckWindow("traced window", traced, &acct);
  }
  RunOn(Side::kServer);
  const double snapshot_mb = SnapshotMiB(*stack->store, version);

  // The second set-up phase. Every set-up rebuilt the same seeded
  // synopsis; each one's first frame must match it too.
  stack.reset();
  SetUpRepeatedly(opt.dir, engine, points, opt.seed + 2, frames[0], &grid,
                  &probes, &setups, &acct);
  for (const auto& probe : probes) {
    if (!SameBits(probe, expected[0])) acct.Fail("set-up frame mismatch");
  }
  // ug2d-1k's only releases are its set-up ones: Publish start to
  // the first frame served from them (load, start, connect included).
  const EndToEnd e2e =
      FromWindow(untraced.window, MedianOf(setups, &SetupSample::setup_s),
                 MedianOf(setups, &SetupSample::visible_ms));

  Result result;
  if (!opt.trace) {
    EndToEnd reported = e2e;
    reported.rss_mb = PeakRssMiB();
    AddEndToEnd(reported, &result);
    return Finish(opt, spec, result, acct);
  }

  const EndToEnd traced_e2e =
      FromWindow(traced.window, e2e.setup_s, e2e.visible_ms);
  LayerExtras x;
  x.grid_build_ms = MedianOf(setups, &SetupSample::build_ms);
  x.store_publish_ms = MedianOf(setups, &SetupSample::publish_ms);
  x.store_snapshot_mb = snapshot_mb;
  x.store_releases = static_cast<double>(setups.size());
  x.catalog_load_ms = MedianOf(setups, &SetupSample::load_ms);
  x.server_start_ms = MedianOf(setups, &SetupSample::start_ms);
  x.engine_qps = EngineQps(reference, *grid, frames);
  x.grid_batch_vs_scalar = BatchVsScalar(*grid, frames, &acct);
  AddPerLayer(traced, e2e, traced_e2e, x, &result);
  return Finish(opt, spec, result, acct);
}

// --- ag3d-publish -----------------------------------------------------------

// Shared between the query thread, which sees versions on the wire, and
// the publisher, which registers the synopsis slot of each release and
// waits for frames on it.
class ReleaseTracker {
 public:
  explicit ReleaseTracker(uint64_t served) : served_(served) {
    slot_of_[served] = 0;
  }

  // Release `version` serves synopsis slot `slot`; called before the
  // RELOAD that makes it visible.
  void Register(uint64_t version, size_t slot) {
    std::lock_guard<std::mutex> lock(mu_);
    slot_of_[version] = slot;
  }
  bool SlotOf(uint64_t version, size_t* slot) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = slot_of_.find(version);
    if (it == slot_of_.end()) return false;
    *slot = it->second;
    return true;
  }
  void OnFrame(uint64_t version, Clock::time_point done) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (version > served_) {
        served_ = version;
        frames_since_ = 0;
        visible_at_[version] = done;
      } else {
        ++frames_since_;
      }
    }
    cv_.notify_all();
  }
  // Blocks until `n` more frames have completed on `version` after the
  // one that made it visible; false on Stop.
  bool WaitFrames(uint64_t version, uint64_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] {
      return stop_ || (served_ >= version && frames_since_ >= n);
    });
    return !stop_;
  }
  // Blocks until a frame reports `version` (or newer); false on Stop.
  bool WaitVisible(uint64_t version) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return stop_ || served_ >= version; });
    return !stop_;
  }
  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
  }
  uint64_t served() const {
    std::lock_guard<std::mutex> lock(mu_);
    return served_;
  }
  bool VisibleAt(uint64_t version, Clock::time_point* at) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = visible_at_.find(version);
    if (it == visible_at_.end()) return false;
    *at = it->second;
    return true;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  uint64_t served_;
  uint64_t frames_since_ = 0;
  bool stop_ = false;
  std::map<uint64_t, size_t> slot_of_;
  std::map<uint64_t, Clock::time_point> visible_at_;
};

using NdSlots = std::vector<std::shared_ptr<const AdaptiveGridNd>>;

struct Release {
  uint64_t version = 0;
  double publish_ms = 0;
  Clock::time_point publish_start, reload_start, reload_end;
};

// Publishes release v+1 once kFramesPerRelease query frames have
// completed on release v, sends RELOAD on its own admin connection, and
// waits until a query frame reports v+1. Release r publishes synopsis
// slot r % kReleaseSlots (release 0 is the set-up's).
class Publisher {
 public:
  Publisher(const NdSlots* slots, dpgrid::SnapshotStore* store,
            ReleaseTracker* tracker, uint64_t first_version)
      : slots_(slots),
        store_(store),
        tracker_(tracker),
        version_(first_version),
        admin_(ClientOptions()) {}
  Publisher(const Publisher&) = delete;
  Publisher& operator=(const Publisher&) = delete;
  ~Publisher() { Stop(); }

  bool Start(uint16_t port, std::string* error) {
    if (!admin_.Connect("127.0.0.1", port, error)) return false;
    thread_ = std::thread([this] { Loop(); });
    return true;
  }
  void Stop() {
    tracker_->Stop();
    if (thread_.joinable()) thread_.join();
    admin_.Close();
  }

  // Valid after Stop().
  const std::vector<Release>& releases() const { return releases_; }
  const std::string& error() const { return error_; }

 private:
  void Loop() {
    try {
      std::string error;
      for (size_t r = 1;; ++r) {
        if (!tracker_->WaitFrames(version_, kFramesPerRelease)) return;
        Release rel;
        const size_t slot = r % kReleaseSlots;
        rel.publish_start = Clock::now();
        rel.version = store_->Publish(
            kDataset, *(*slots_)[slot],
            dpgrid::SnapshotMeta{kEpsilon, "perfbench"}, &error);
        rel.publish_ms = Ms(rel.publish_start, Clock::now());
        if (rel.version == 0) {
          error_ = "publish failed: " + error;
          return;
        }
        tracker_->Register(rel.version, slot);
        uint64_t installed = 0;
        rel.reload_start = Clock::now();
        const bool ok = admin_.Reload(&installed, &error);
        rel.reload_end = Clock::now();
        if (!ok || installed != 1) {
          error_ = "RELOAD failed: " + error;
          return;
        }
        store_->Prune(kDataset, 2);
        releases_.push_back(rel);
        version_ = rel.version;
        if (!tracker_->WaitVisible(version_)) return;
      }
    } catch (const std::exception& e) {
      error_ = std::string("publisher: ") + e.what();
    }
  }

  const NdSlots* slots_;
  dpgrid::SnapshotStore* store_;
  ReleaseTracker* tracker_;
  uint64_t version_;
  QueryClient admin_;
  std::vector<Release> releases_;
  std::string error_;
  std::thread thread_;  // last: joined before the members it uses go away
};

// catalog.reload_ms: SynopsisCatalog::ReloadAll on a benchmark-owned
// catalog over the server's store, each time after publishing one more
// release, timed once the windows are over so it adds no load to them.
double CatalogReloadMs(dpgrid::SnapshotStore* store, const NdSlots& slots,
                       Accounting* acct) {
  dpgrid::SynopsisCatalog catalog(store);
  std::string error;
  catalog.LoadAll(nullptr);
  std::vector<double> ms;
  for (size_t i = 0; i < 2 * kReleaseSlots; ++i) {
    if (store->Publish(kDataset, *slots[i % kReleaseSlots],
                       dpgrid::SnapshotMeta{kEpsilon, "perfbench"},
                       &error) == 0) {
      acct->Fail("publish failed: " + error);
      break;
    }
    const Clock::time_point t0 = Clock::now();
    if (catalog.ReloadAll(&error) != 1) {
      acct->Fail("catalog reload failed: " + error);
      break;
    }
    ms.push_back(Ms(t0, Clock::now()));
    store->Prune(kDataset, 2);
  }
  return Median(std::move(ms));
}

// Releases published and made visible inside [w.start, w.start + wall].
std::vector<const Release*> ReleasesIn(const std::vector<Release>& all,
                                       const Window& w,
                                       const ReleaseTracker& tracker) {
  std::vector<const Release*> out;
  const auto end = w.start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(w.wall_s));
  for (const Release& r : all) {
    Clock::time_point visible;
    if (r.publish_start >= w.start && tracker.VisibleAt(r.version, &visible) &&
        visible <= end) {
      out.push_back(&r);
    }
  }
  return out;
}

double VisibleMs(const std::vector<const Release*>& rels,
                 const ReleaseTracker& tracker) {
  std::vector<double> v;
  for (const Release* r : rels) {
    Clock::time_point visible;
    tracker.VisibleAt(r->version, &visible);
    v.push_back(Ms(r->publish_start, visible));
  }
  return Median(std::move(v));
}

// Share of the window's frames sent while a RELOAD was in flight: with
// one handler thread such a frame queues behind the reload. (The frame
// already being answered when RELOAD arrives is not stalled by it.)
double ReloadOverlapPct(const Window& w,
                        const std::vector<const Release*>& rels) {
  uint64_t overlapped = 0;
  for (const double sent : w.start_s) {
    for (const Release* r : rels) {
      if (sent >= SecondsBetween(w.start, r->reload_start) &&
          sent < SecondsBetween(w.start, r->reload_end)) {
        ++overlapped;
        break;
      }
    }
  }
  return w.frames == 0 ? 0.0
                       : 100.0 * static_cast<double>(overlapped) /
                             static_cast<double>(w.frames);
}

int RunAg3d(const Options& opt, const Spec& spec) {
  const BoxNd domain(std::vector<double>(3, 0.0), std::vector<double>(3, 100.0));
  Rng data_rng(opt.seed);
  const auto clusters =
      dpgrid::MakeRandomClustersNd(domain, 24, 0.02, 0.08, 1.0, data_rng);
  const dpgrid::DatasetNd points = dpgrid::MakeGaussianMixtureNd(
      domain, spec.points, clusters, 0.1, data_rng);
  const auto frames = Frames3D(domain, spec, opt.seed + 1);
  const QueryEngine engine;
  const QueryEngine reference;
  Accounting acct;

  NdSlots slots(kReleaseSlots);
  std::vector<SetupSample> setups;
  std::vector<std::vector<double>> probes;
  std::unique_ptr<Stack> stack =
      SetUpRepeatedly(opt.dir, engine, points, opt.seed + 2, frames[0],
                      &slots[0], &probes, &setups, &acct);
  if (stack == nullptr) return Finish(opt, spec, Result{}, acct);
  const uint64_t first_version = setups.back().version;
  const double snapshot_mb = SnapshotMiB(*stack->store, first_version);
  // The other release slots: the same points, the next seeds, built
  // before the window and outside setup_s.
  for (size_t i = 1; i < kReleaseSlots; ++i) {
    Rng rng(opt.seed + 2 + i);
    slots[i] = std::make_shared<const AdaptiveGridNd>(points, kEpsilon, rng);
  }
  // expected[slot][f]: the in-process answers every frame must match on
  // any version that serves that slot.
  std::vector<std::vector<std::vector<double>>> expected(kReleaseSlots);
  for (size_t i = 0; i < kReleaseSlots; ++i) {
    for (const auto& frame : frames) {
      expected[i].push_back(reference.AnswerAll(*slots[i], frame));
    }
  }

  ReleaseTracker tracker(first_version);
  Publisher publisher(&slots, stack->store.get(), &tracker, first_version);
  std::string error;
  if (!publisher.Start(stack->server->port(), &error)) {
    acct.Fail("admin connect failed: " + error);
    return Finish(opt, spec, Result{}, acct);
  }

  // Every frame, on every version, is checked against its slot's answers.
  Corruptor corruptor(opt.inject_corrupt_answer, opt.seed);
  const auto gate = [&](size_t f, const std::vector<double>& answers,
                        uint64_t v, Clock::time_point done) {
    tracker.OnFrame(v, done);
    size_t slot = 0;
    return tracker.SlotOf(v, &slot) &&
           SameBits(corruptor.Apply(answers), expected[slot][f]);
  };
  RunOn(Side::kClient);
  RunWindow(stack->client, frames, kWarmupSeconds, &acct, gate);
  const Measured untraced =
      MeasureWindow(stack->client, frames, WindowSeconds(opt), &acct, gate);
  Measured traced;
  if (opt.trace) {
    traced =
        MeasureWindow(stack->client, frames, WindowSeconds(opt), &acct, gate);
  }
  RunOn(Side::kServer);
  publisher.Stop();
  if (!publisher.error().empty()) acct.Fail(publisher.error());
  CheckWindow("window", untraced, &acct);
  if (opt.trace) CheckWindow("traced window", traced, &acct);

  const auto rels = ReleasesIn(publisher.releases(), untraced.window, tracker);
  if (rels.empty()) acct.Fail("no release became visible in the window");
  std::vector<double> rpc_ms;
  for (const Release* r : rels) {
    rpc_ms.push_back(Ms(r->reload_start, r->reload_end));
  }
  std::printf("releases: %zu in window, RELOAD round trip p50 %.1fms max "
              "%.1fms, %.2f%% of frames sent during a RELOAD; versions %llu-%llu "
              "served, every frame checked\n",
              rels.size(), Median(rpc_ms), Quantile(rpc_ms, 1.0),
              ReloadOverlapPct(untraced.window, rels),
              static_cast<unsigned long long>(first_version),
              static_cast<unsigned long long>(tracker.served()));
  const double catalog_reload_ms =
      opt.trace ? CatalogReloadMs(stack->store.get(), slots, &acct) : 0.0;

  // The second set-up phase. Every set-up rebuilt the same seeded
  // synopsis; each one's first frame must match it too.
  stack.reset();
  SetUpRepeatedly(opt.dir, engine, points, opt.seed + 2, frames[0], &slots[0],
                  &probes, &setups, &acct);
  for (const auto& probe : probes) {
    if (!SameBits(probe, expected[0][0])) acct.Fail("set-up frame mismatch");
  }
  const EndToEnd e2e =
      FromWindow(untraced.window, MedianOf(setups, &SetupSample::setup_s),
                 VisibleMs(rels, tracker));

  Result result;
  if (!opt.trace) {
    EndToEnd reported = e2e;
    reported.rss_mb = PeakRssMiB();
    AddEndToEnd(reported, &result);
    return Finish(opt, spec, result, acct);
  }

  const auto traced_rels = ReleasesIn(publisher.releases(), traced.window,
                                      tracker);
  const EndToEnd traced_e2e = FromWindow(traced.window, e2e.setup_s,
                                         VisibleMs(traced_rels, tracker));

  LayerExtras x;
  std::vector<double> publish;
  for (const Release* r : traced_rels) publish.push_back(r->publish_ms);
  x.nd_build_ms = MedianOf(setups, &SetupSample::build_ms);
  x.store_publish_ms = Median(publish);
  x.store_snapshot_mb = snapshot_mb;
  x.store_releases = static_cast<double>(traced_rels.size());
  x.catalog_load_ms = MedianOf(setups, &SetupSample::load_ms);
  x.catalog_reload_ms = catalog_reload_ms;
  x.server_start_ms = MedianOf(setups, &SetupSample::start_ms);
  x.reload_overlap_pct = ReloadOverlapPct(traced.window, traced_rels);
  x.engine_qps = EngineQps(reference, *slots[0], frames);
  x.nd_batch_vs_scalar = BatchVsScalar(*slots[0], frames, &acct);
  AddPerLayer(traced, e2e, traced_e2e, x, &result);
  return Finish(opt, spec, result, acct);
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--inject-corrupt-answer") {
      opt->inject_corrupt_answer = true;
      continue;
    }
    if ((v = value()) == nullptr) return false;
    if (arg == "--workload") {
      opt->workload = v;
    } else if (arg == "--seed") {
      opt->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      opt->seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      opt->trace = std::string(v) == "1";
    } else if (arg == "--dir") {
      opt->dir = v;
    } else {
      return false;
    }
  }
  return !opt->workload.empty() && !opt->dir.empty() && opt->seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "--dir STORE_DIR [--inject-corrupt-answer]\n",
                 argv[0]);
    return 2;
  }
  RunOn(Side::kServer);
  for (const Spec& spec : kSpecs) {
    if (opt.workload != spec.name) continue;
    std::printf("workload %s: %lld points, %zu-query frames, seed %llu, "
                "%gs window%s\n",
                spec.name, static_cast<long long>(spec.points),
                spec.frame_size, static_cast<unsigned long long>(opt.seed),
                opt.seconds, opt.trace ? " (half untraced, half traced)" : "");
    return opt.workload == "ug2d-1k" ? RunUg2d(opt, spec) : RunAg3d(opt, spec);
  }
  std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
  return 2;
}
