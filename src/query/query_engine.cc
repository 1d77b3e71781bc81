#include "query/query_engine.h"

#include <algorithm>
#include <type_traits>

#include "common/check.h"

namespace dpgrid {

QueryEngine::QueryEngine(const QueryEngineOptions& options)
    : options_(options) {
  DPGRID_CHECK(options_.chunk_cost_ns > 0.0);
}

int QueryEngine::num_threads() const {
  // Don't read the affinity mask for an engine that only runs serially.
  if (options_.num_threads == 1) return 1;
  const int usable = UsableCpus();
  if (options_.num_threads <= 0) return usable;
  return std::min(options_.num_threads, usable);
}

template <typename SynopsisT, typename QueryT>
void QueryEngine::Run(const SynopsisT& synopsis,
                      std::span<const QueryT> queries,
                      std::span<double> out) const {
  DPGRID_CHECK(queries.size() == out.size());
  batches_answered_.Increment();
  queries_answered_.Add(queries.size());
  if constexpr (std::is_same_v<QueryT, BoxNd>) {
    batches_nd_.Increment();
    queries_nd_.Add(queries.size());
  } else {
    batches_2d_.Increment();
    queries_2d_.Add(queries.size());
  }
  if (queries.empty()) return;
  // The cost rule: shard only a batch worth two chunks of estimated work.
  // It runs before num_threads(), so a batch too cheap to shard never
  // reads the affinity mask or touches the shared pool.
  const double cost = synopsis.QueryCostNs();
  const bool worth_sharding =
      cost > 0.0 && queries.size() >= 2 &&
      static_cast<double>(queries.size()) * cost >=
          2.0 * options_.chunk_cost_ns;
  const int threads = worth_sharding ? num_threads() : 1;
  if (threads <= 1) {
    synopsis.AnswerBatch(queries, out);
    return;
  }
  // At most half the batch, since it holds two chunks of work.
  const size_t grain = std::max<size_t>(
      1, static_cast<size_t>(options_.chunk_cost_ns / cost));
  batches_sharded_.Increment();
  ThreadPool::Shared().ParallelFor(
      0, queries.size(), grain,
      [&synopsis, queries, out](size_t begin, size_t end) {
        synopsis.AnswerBatch(queries.subspan(begin, end - begin),
                             out.subspan(begin, end - begin));
      },
      threads);
}

void QueryEngine::AnswerAll(const Synopsis& synopsis,
                            std::span<const Rect> queries,
                            std::span<double> out) const {
  Run(synopsis, queries, out);
}

std::vector<double> QueryEngine::AnswerAll(
    const Synopsis& synopsis, const std::vector<Rect>& queries) const {
  std::vector<double> out(queries.size());
  Run<Synopsis, Rect>(synopsis, queries, out);
  return out;
}

std::vector<std::vector<double>> QueryEngine::AnswerWorkload(
    const Synopsis& synopsis, const Workload& workload) const {
  std::vector<std::vector<double>> result(workload.num_sizes());
  for (size_t s = 0; s < workload.num_sizes(); ++s) {
    result[s] = AnswerAll(synopsis, workload.queries[s]);
  }
  return result;
}

void QueryEngine::AnswerAll(const SynopsisNd& synopsis,
                            std::span<const BoxNd> queries,
                            std::span<double> out) const {
  Run(synopsis, queries, out);
}

std::vector<double> QueryEngine::AnswerAll(
    const SynopsisNd& synopsis, const std::vector<BoxNd>& queries) const {
  std::vector<double> out(queries.size());
  Run<SynopsisNd, BoxNd>(synopsis, queries, out);
  return out;
}

}  // namespace dpgrid
