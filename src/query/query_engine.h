#ifndef DPGRID_QUERY_QUERY_ENGINE_H_
#define DPGRID_QUERY_QUERY_ENGINE_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/thread_pool.h"
#include "grid/synopsis.h"
#include "nd/box_nd.h"
#include "nd/synopsis_nd.h"
#include "obs/metrics.h"
#include "query/workload.h"

namespace dpgrid {

/// Tuning knobs for QueryEngine.
struct QueryEngineOptions {
  /// Most threads to shard a batch across; <= 0 means every CPU the
  /// calling thread may run on (via the process-wide shared pool).
  int num_threads = 0;

  /// Work per chunk, in the synopsis's estimated nanoseconds
  /// (Synopsis::QueryCostNs): a batch shards only when it holds at least
  /// two chunks of work, and then in chunks of this much. A quarter
  /// millisecond dwarfs a thread handoff (~10-50 us) yet cuts a 512-box
  /// 3-d AG frame (~5 ms) into ~30 chunks, so three threads finish
  /// within a chunk of each other; a 1024-query UG frame (~20 us) stays
  /// on the calling thread. Tests lower it to force the parallel path.
  double chunk_cost_ns = 250'000.0;
};

/// Evaluates query batches against a synopsis: the serving path between a
/// workload and a published synopsis. Single queries go through the
/// virtual Synopsis::Answer; anything bigger should come here, which
/// funnels into the synopsis's AnswerBatch (virtual dispatch hoisted out
/// of the loop, per-thread scratch, no per-query allocation).
///
/// A batch is sharded by its cost, not its length: queries × the
/// synopsis's QueryCostNs() is its estimated work. A batch worth fewer
/// than two chunks (options().chunk_cost_ns each) runs inline on the
/// calling thread; a larger one is cut into chunks of that much work and
/// drained by up to num_threads() threads of the shared pool.
///
/// Results are bitwise-identical to calling synopsis.Answer(q) per query,
/// regardless of thread count or chunking: every chunk is answered
/// independently and written to its own slice of the output.
class QueryEngine {
 public:
  explicit QueryEngine(const QueryEngineOptions& options = {});

  /// out[i] = synopsis.Answer(queries[i]); `out` must match `queries`.
  void AnswerAll(const Synopsis& synopsis, std::span<const Rect> queries,
                 std::span<double> out) const;

  /// Convenience allocating form.
  std::vector<double> AnswerAll(const Synopsis& synopsis,
                                const std::vector<Rect>& queries) const;

  /// Answers every size group of a workload; result[s][i] matches
  /// workload.queries[s][i].
  std::vector<std::vector<double>> AnswerWorkload(
      const Synopsis& synopsis, const Workload& workload) const;

  /// d-dimensional counterpart.
  void AnswerAll(const SynopsisNd& synopsis, std::span<const BoxNd> queries,
                 std::span<double> out) const;

  std::vector<double> AnswerAll(const SynopsisNd& synopsis,
                                const std::vector<BoxNd>& queries) const;

  const QueryEngineOptions& options() const { return options_; }

  /// Threads a sharded batch runs on: options().num_threads, capped at
  /// the CPUs the calling thread may run on (UsableCpus).
  int num_threads() const;

  /// Lifetime batch/query counts across every AnswerAll (empty batches
  /// included), surfaced through the METRICS op. Relaxed sharded
  /// counters: callers on any thread, no contention on the answer path.
  uint64_t batches_answered() const { return batches_answered_.Value(); }
  uint64_t queries_answered() const { return queries_answered_.Value(); }

  /// The same lifetime counts split by query family — Rect batches
  /// against 2-D synopses vs BoxNd batches against N-d synopses — so
  /// dashboards can tell which serving pipeline the traffic exercises.
  /// Each total above is the sum of its two splits.
  uint64_t batches_answered_2d() const { return batches_2d_.Value(); }
  uint64_t queries_answered_2d() const { return queries_2d_.Value(); }
  uint64_t batches_answered_nd() const { return batches_nd_.Value(); }
  uint64_t queries_answered_nd() const { return queries_nd_.Value(); }

  /// Batches that were worth sharding and ran on more than one thread.
  uint64_t batches_sharded() const { return batches_sharded_.Value(); }

 private:
  template <typename SynopsisT, typename QueryT>
  void Run(const SynopsisT& synopsis, std::span<const QueryT> queries,
           std::span<double> out) const;

  QueryEngineOptions options_;
  // Counting is observation, not mutation of engine behavior — the
  // answer path stays const.
  mutable obs::ShardedCounter batches_answered_;
  mutable obs::ShardedCounter queries_answered_;
  mutable obs::ShardedCounter batches_2d_;
  mutable obs::ShardedCounter queries_2d_;
  mutable obs::ShardedCounter batches_nd_;
  mutable obs::ShardedCounter queries_nd_;
  mutable obs::ShardedCounter batches_sharded_;
};

}  // namespace dpgrid

#endif  // DPGRID_QUERY_QUERY_ENGINE_H_
