// Tests for the thread pool and the batched query engine: chunk coverage,
// degenerate inputs, the cost rule that decides whether and how finely a
// batch is sharded, the affinity cap on engine threads, and that answers
// are independent of the engine configuration.

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "data/generators.h"
#include "grid/uniform_grid.h"
#include "index/range_count_index.h"
#include "metrics/error.h"
#include "nd/adaptive_grid_nd.h"
#include "nd/dataset_nd.h"
#include "query/evaluator.h"
#include "query/query_engine.h"
#include "query/workload.h"

namespace dpgrid {
namespace {

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  std::vector<int> hits(100, 0);
  pool.ParallelFor(0, hits.size(), 7, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i] += 1;
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, CoversRangeExactlyOnceAcrossThreads) {
  ThreadPool pool(4);
  const size_t n = 100003;  // prime, so chunks never divide evenly
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(0, n, 64, [&](size_t begin, size_t end) {
    ASSERT_LE(begin, end);
    ASSERT_LE(end, n);
    for (size_t i = begin; i < end; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, EmptyAndReversedRangesAreNoOps) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(5, 5, 1, [&](size_t, size_t) { ++calls; });
  pool.ParallelFor(7, 3, 1, [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, ZeroGrainPicksSlabPerWorker) {
  ThreadPool pool(3);
  std::mutex mu;
  std::vector<std::pair<size_t, size_t>> chunks;
  pool.ParallelFor(0, 90, 0, [&](size_t begin, size_t end) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.emplace_back(begin, end);
  });
  size_t covered = 0;
  for (auto& [b, e] : chunks) covered += e - b;
  EXPECT_EQ(covered, 90u);
  EXPECT_LE(chunks.size(), 3u);
}

TEST(ThreadPoolTest, ReusableAcrossCalls) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<size_t> sum{0};
    pool.ParallelFor(0, 1000, 10, [&](size_t begin, size_t end) {
      size_t local = 0;
      for (size_t i = begin; i < end; ++i) local += i;
      sum.fetch_add(local, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 1000u * 999u / 2u);
  }
}

TEST(QueryEngineTest, EmptyBatchIsFine) {
  Rng rng(1);
  Dataset data = MakeUniformDataset(Rect{0, 0, 100, 100}, 1000, rng);
  UniformGrid ug(data, 1.0, rng);
  QueryEngine engine;
  std::vector<Rect> queries;
  EXPECT_TRUE(engine.AnswerAll(ug, queries).empty());
}

TEST(QueryEngineTest, AnswerWorkloadMatchesGroupShapes) {
  Rng rng(2);
  Dataset data = MakeUniformDataset(Rect{0, 0, 100, 100}, 20000, rng);
  UniformGrid ug(data, 1.0, rng);
  Workload w = GenerateWorkload(data.domain(), data.domain().Width() / 2,
                                data.domain().Height() / 2, 4, 50, rng);
  QueryEngine engine;
  auto answers = engine.AnswerWorkload(ug, w);
  ASSERT_EQ(answers.size(), w.num_sizes());
  for (size_t s = 0; s < w.num_sizes(); ++s) {
    ASSERT_EQ(answers[s].size(), w.queries[s].size());
    for (size_t i = 0; i < answers[s].size(); ++i) {
      EXPECT_EQ(answers[s][i], ug.Answer(w.queries[s][i]));
    }
  }
}

// The engine keeps per-family counters (2-D Rect vs N-d BoxNd) next to
// the totals; each total must be the sum of its two splits.
TEST(QueryEngineTest, CountersSplitByQueryFamily) {
  Rng rng(7);
  Dataset data = MakeUniformDataset(Rect{0, 0, 100, 100}, 5000, rng);
  UniformGrid ug(data, 1.0, rng);
  const BoxNd domain(std::vector<double>(3, 0.0),
                     std::vector<double>(3, 10.0));
  const DatasetNd data_nd = MakeUniformDatasetNd(domain, 5000, rng);
  const AdaptiveGridNd ag(data_nd, 1.0, rng);

  QueryEngine engine;
  const std::vector<Rect> rects(7, Rect{1, 1, 9, 9});
  const std::vector<BoxNd> boxes(
      5, BoxNd(std::vector<double>(3, 1.0), std::vector<double>(3, 9.0)));
  engine.AnswerAll(ug, rects);
  engine.AnswerAll(ag, boxes);
  engine.AnswerAll(ag, boxes);

  EXPECT_EQ(engine.batches_answered_2d(), 1u);
  EXPECT_EQ(engine.queries_answered_2d(), rects.size());
  EXPECT_EQ(engine.batches_answered_nd(), 2u);
  EXPECT_EQ(engine.queries_answered_nd(), 2 * boxes.size());
  EXPECT_EQ(engine.batches_answered(),
            engine.batches_answered_2d() + engine.batches_answered_nd());
  EXPECT_EQ(engine.queries_answered(),
            engine.queries_answered_2d() + engine.queries_answered_nd());
}

// EvaluateSynopsis must produce identical error samples whatever engine
// configuration it runs under.
TEST(QueryEngineTest, EvaluatorIndependentOfEngineConfig) {
  Rng rng(3);
  Dataset data = MakeCheckinLike(30000, rng);
  RangeCountIndex truth(data);
  UniformGrid ug(data, 0.5, rng);
  Workload w = GenerateWorkload(data.domain(), data.domain().Width() / 4,
                                data.domain().Height() / 4, 5, 100, rng);
  const double rho = DefaultRho(30000);

  QueryEngineOptions serial;
  serial.num_threads = 1;
  QueryEngineOptions sharded;
  sharded.num_threads = 4;
  sharded.chunk_cost_ns = 16 * ug.QueryCostNs();

  auto a = EvaluateSynopsis(ug, w, truth, rho, QueryEngine(serial));
  auto b = EvaluateSynopsis(ug, w, truth, rho, QueryEngine(sharded));
  ASSERT_EQ(a.size(), b.size());
  for (size_t s = 0; s < a.size(); ++s) {
    ASSERT_EQ(a[s].relative.size(), b[s].relative.size());
    for (size_t i = 0; i < a[s].relative.size(); ++i) {
      EXPECT_EQ(a[s].relative[i], b[s].relative[i]);
      EXPECT_EQ(a[s].absolute[i], b[s].absolute[i]);
    }
  }
}

// A synopsis with a chosen cost hint that records every AnswerBatch call:
// the chunk it got and the thread it ran on. Answers are a pure function
// of the query, so sharding must not change them.
class RecordingSynopsis : public Synopsis {
 public:
  explicit RecordingSynopsis(double cost_ns) : cost_ns_(cost_ns) {}

  double Answer(const Rect& q) const override { return q.xlo * 3.0 + q.yhi; }
  void AnswerBatch(std::span<const Rect> queries,
                   std::span<double> out) const override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      chunks_.push_back(queries.size());
      threads_.insert(std::this_thread::get_id());
    }
    for (size_t i = 0; i < queries.size(); ++i) out[i] = Answer(queries[i]);
  }
  double QueryCostNs() const override { return cost_ns_; }
  std::string Name() const override { return "recording"; }
  std::vector<SynopsisCell> ExportCells() const override { return {}; }

  std::vector<size_t> chunks() const {
    std::lock_guard<std::mutex> lock(mu_);
    return chunks_;
  }
  std::set<std::thread::id> threads() const {
    std::lock_guard<std::mutex> lock(mu_);
    return threads_;
  }

 private:
  double cost_ns_;
  mutable std::mutex mu_;
  mutable std::vector<size_t> chunks_;
  mutable std::set<std::thread::id> threads_;
};

std::vector<Rect> CountingRects(size_t n) {
  std::vector<Rect> rects(n);
  for (size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i);
    rects[i] = Rect{x, x + 0.5, x + 1.0, x + 2.25};
  }
  return rects;
}

void ExpectAnswersMatch(const RecordingSynopsis& synopsis,
                        const std::vector<Rect>& queries,
                        const std::vector<double>& out) {
  ASSERT_EQ(out.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(out[i], synopsis.Answer(queries[i])) << "query " << i;
  }
}

// A 1024-query frame at UG cost (~20 ns a query) is ~20 us of work: far
// under two chunks, so it runs inline as one AnswerBatch call.
TEST(QueryEngineCostRuleTest, CheapFrameStaysOnTheCallingThread) {
  const RecordingSynopsis synopsis(20.0);
  const QueryEngine engine;
  const std::vector<Rect> queries = CountingRects(1024);
  ExpectAnswersMatch(synopsis, queries, engine.AnswerAll(synopsis, queries));
  EXPECT_EQ(synopsis.chunks(), std::vector<size_t>{1024});
  EXPECT_EQ(synopsis.threads(),
            std::set<std::thread::id>{std::this_thread::get_id()});
  EXPECT_EQ(engine.batches_sharded(), 0u);
}

// A 512-box frame at AG-nd cost (~10 us a box) is ~5 ms of work: it is cut
// into chunks of chunk_cost_ns worth of queries.
TEST(QueryEngineCostRuleTest, CostlyFrameShardsIntoChunksOfFixedWork) {
  const RecordingSynopsis synopsis(10'000.0);
  QueryEngineOptions options;
  options.num_threads = 3;
  const QueryEngine engine(options);
  if (engine.num_threads() < 2) GTEST_SKIP() << "needs two usable CPUs";
  const std::vector<Rect> queries = CountingRects(512);
  ExpectAnswersMatch(synopsis, queries, engine.AnswerAll(synopsis, queries));
  // 250 us of work per chunk at 10 us a query: twenty chunks of 25 and
  // the 12-query tail, in whatever order the threads took them.
  std::vector<size_t> chunks = synopsis.chunks();
  std::sort(chunks.begin(), chunks.end());
  std::vector<size_t> want(20, 25);
  want.insert(want.begin(), 12);
  EXPECT_EQ(chunks, want);
  EXPECT_EQ(engine.batches_sharded(), 1u);
}

// The rule is "at least two chunks of work": one query short stays inline.
TEST(QueryEngineCostRuleTest, ShardsFromTwoChunksOfWork) {
  const RecordingSynopsis synopsis(1'000.0);
  QueryEngineOptions options;
  options.num_threads = 2;
  options.chunk_cost_ns = 100'000.0;  // 100 queries a chunk
  const QueryEngine engine(options);
  if (engine.num_threads() < 2) GTEST_SKIP() << "needs two usable CPUs";
  engine.AnswerAll(synopsis, CountingRects(199));
  EXPECT_EQ(engine.batches_sharded(), 0u);
  EXPECT_EQ(synopsis.chunks(), std::vector<size_t>{199});
  engine.AnswerAll(synopsis, CountingRects(200));
  EXPECT_EQ(engine.batches_sharded(), 1u);
  EXPECT_EQ(synopsis.chunks().size(), 3u);
}

// A cost hint that is not positive never shards.
TEST(QueryEngineCostRuleTest, NonPositiveCostStaysInline) {
  QueryEngineOptions options;
  options.num_threads = 4;
  options.chunk_cost_ns = 1.0;
  const QueryEngine engine(options);
  for (double cost : {0.0, -5.0}) {
    const RecordingSynopsis synopsis(cost);
    const std::vector<Rect> queries = CountingRects(300);
    ExpectAnswersMatch(synopsis, queries,
                       engine.AnswerAll(synopsis, queries));
    EXPECT_EQ(synopsis.chunks(), std::vector<size_t>{300});
  }
  EXPECT_EQ(engine.batches_sharded(), 0u);
}

// Restores the calling thread's affinity mask on scope exit.
class ScopedAffinity {
 public:
  ScopedAffinity() {
    CPU_ZERO(&saved_);
    ok_ = ::pthread_getaffinity_np(::pthread_self(), sizeof(saved_),
                                   &saved_) == 0;
  }
  ~ScopedAffinity() {
    if (ok_) {
      ::pthread_setaffinity_np(::pthread_self(), sizeof(saved_), &saved_);
    }
  }
  /// Narrows the calling thread to the first CPU it may run on.
  bool NarrowToOneCpu() {
    if (!ok_) return false;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &saved_)) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      return ::pthread_setaffinity_np(::pthread_self(), sizeof(one), &one) ==
             0;
    }
    return false;
  }

 private:
  cpu_set_t saved_;
  bool ok_ = false;
};

// The engine's thread count is capped at the CPUs the calling thread may
// run on, not the machine's: pinned to one CPU, even a batch the cost
// rule would shard stays inline.
TEST(QueryEngineAffinityTest, OneUsableCpuKeepsBatchesInline) {
  const RecordingSynopsis synopsis(10'000.0);
  QueryEngineOptions options;
  options.chunk_cost_ns = 10'000.0;  // a chunk per query: shard if at all
  const QueryEngine engine(options);
  ScopedAffinity affinity;
  ASSERT_TRUE(affinity.NarrowToOneCpu());
  EXPECT_EQ(UsableCpus(), 1);
  EXPECT_EQ(engine.num_threads(), 1);
  EXPECT_EQ(ThreadPool(0).num_threads(), 1);
  const std::vector<Rect> queries = CountingRects(64);
  ExpectAnswersMatch(synopsis, queries, engine.AnswerAll(synopsis, queries));
  EXPECT_EQ(synopsis.chunks(), std::vector<size_t>{64});
  EXPECT_EQ(synopsis.threads(),
            std::set<std::thread::id>{std::this_thread::get_id()});
  EXPECT_EQ(engine.batches_sharded(), 0u);
}

TEST(QueryEngineAffinityTest, UsableCpusIsAtLeastOne) {
  EXPECT_GE(UsableCpus(), 1);
  QueryEngineOptions options;
  options.num_threads = 1 << 20;
  EXPECT_EQ(QueryEngine(options).num_threads(), UsableCpus());
}

// Two threads shard their own batches over the one shared pool at once,
// with the parallel path forced; each must get bitwise the one-thread
// engine's answers. Under TSan this also races the AG-nd pipeline's
// thread_local scratch across pool workers serving two callers.
TEST(QueryEngineConcurrencyTest, ConcurrentCallersShareThePool) {
  Rng rng(11);
  Dataset data = MakeCheckinLike(20000, rng);
  const UniformGrid ug(data, 1.0, rng);
  const BoxNd domain(std::vector<double>(3, 0.0),
                     std::vector<double>(3, 10.0));
  const DatasetNd data_nd = MakeUniformDatasetNd(domain, 20000, rng);
  const AdaptiveGridNd ag(data_nd, 1.0, rng);
  const Workload w = GenerateWorkload(data.domain(), data.domain().Width() / 2,
                                      data.domain().Height() / 2, 4, 150, rng);
  std::vector<Rect> rects;
  for (const auto& group : w.queries) {
    rects.insert(rects.end(), group.begin(), group.end());
  }
  std::vector<BoxNd> boxes;
  for (int i = 0; i < 400; ++i) {
    std::vector<double> lo(3), hi(3);
    for (size_t a = 0; a < 3; ++a) {
      lo[a] = rng.Uniform(-0.5, 8.0);
      hi[a] = lo[a] + rng.Uniform(0.0, 6.0);
    }
    boxes.emplace_back(std::move(lo), std::move(hi));
  }
  const QueryEngine serial(QueryEngineOptions{.num_threads = 1});
  const std::vector<double> want_2d = serial.AnswerAll(ug, rects);
  const std::vector<double> want_nd = serial.AnswerAll(ag, boxes);

  QueryEngineOptions options;
  options.num_threads = 4;
  options.chunk_cost_ns = 8 * ag.QueryCostNs();  // 8-box chunks
  const QueryEngine engine_nd(options);
  options.chunk_cost_ns = 16 * ug.QueryCostNs();  // 16-rect chunks
  const QueryEngine engine_2d(options);
  const auto same_bits = [](const std::vector<double>& a,
                             const std::vector<double>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  };
  std::atomic<int> mismatches{0};
  auto run_nd = [&] {
    for (int round = 0; round < 20; ++round) {
      if (!same_bits(engine_nd.AnswerAll(ag, boxes), want_nd)) ++mismatches;
    }
  };
  auto run_2d = [&] {
    for (int round = 0; round < 20; ++round) {
      if (!same_bits(engine_2d.AnswerAll(ug, rects), want_2d)) ++mismatches;
    }
  };
  std::thread a(run_nd);
  std::thread b(run_2d);
  std::thread c(run_nd);
  a.join();
  b.join();
  c.join();
  EXPECT_EQ(mismatches.load(), 0);
  if (engine_nd.num_threads() > 1) {
    EXPECT_EQ(engine_nd.batches_sharded(), 40u);
    EXPECT_EQ(engine_2d.batches_sharded(), 20u);
  }
}

}  // namespace
}  // namespace dpgrid
