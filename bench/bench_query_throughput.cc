// Query-serving throughput of the batched engine vs the seed's serial
// per-query loop, plus per-method scalar-vs-batch sections for the
// synopses with non-trivial batch paths.
//
// The seed answered every query through a virtual Synopsis::Answer call
// that converted domain to cell coordinates with four divisions and ran
// the generic per-axis segment decomposition (up to nine prefix block
// sums). The batched engine hoists virtual dispatch and per-query setup
// out of the loop and answers each query with the branch-light bilinear
// prefix kernel (index/frac_kernel.h), sharded across the thread pool.
// This bench reconstructs the seed path faithfully — same classes
// (GridCounts::ToCellCoords + PrefixSum2D::FractionalSum), same noisy
// counts, same virtual dispatch — and reports QPS for:
//
//   seed_serial       the seed's per-query loop
//   scalar_serial     per-query virtual Answer with the new kernel
//   batch_1thread     QueryEngine, single thread
//   batch_threads     QueryEngine, every CPU this process may use
//
// Per-method sections (mixed paper workload, all six size classes):
//
//   adaptive_grid     scalar Answer vs the batch pipeline of its d=2
//                     index (nd/adaptive_grid_nd.h: flat leaf arena,
//                     face slabs, cell-grouped kernels), at production
//                     scale: the AG dataset defaults to 16M points, where
//                     the scalar border walk is memory-latency-bound. The
//                     speedup is a ratio within one run, so VM noise
//                     largely cancels.
//   hierarchy_grid    scalar Answer vs the shared FracView2D batch kernel
//                     over the refined leaf grid.
//   adaptive_grid_nd  scalar Answer vs the flattened N-d leaf path
//                     (nd/leaf_index_nd.h), 3-d mixture dataset, plus
//                     the default engine, whose cost rule shards it.
//
// Every batch answer is checked bitwise against the scalar Answer path;
// any mismatch fails the bench (and the bench_throughput_smoke ctest).
//
// Results are appended-to-stdout and written as JSON (default
// BENCH_throughput.json, override with DPGRID_BENCH_OUT) so future PRs
// have a perf trajectory to compare against.
//
// Env knobs: DPGRID_TP_QUERIES (default 1000000), DPGRID_TP_POINTS
// (default 1000000), DPGRID_TP_AG_POINTS (default 16000000),
// DPGRID_TP_AG_QUERIES (default 100000), DPGRID_TP_ND_POINTS (default
// 2000000), DPGRID_TP_ND_QUERIES (default 50000), DPGRID_TP_REPS
// (default 5), DPGRID_SEED.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/check.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "data/generators.h"
#include "grid/adaptive_grid.h"
#include "grid/uniform_grid.h"
#include "hier/hierarchy_grid.h"
#include "index/prefix_sum2d.h"
#include "nd/adaptive_grid_nd.h"
#include "nd/dataset_nd.h"
#include "nd/workload_nd.h"
#include "query/query_engine.h"
#include "query/workload.h"

namespace dpgrid {
namespace {

using bench::EnvInt;
using bench::NowSeconds;

// The seed's UniformGrid query path, reconstructed verbatim from the same
// public pieces the seed used: division-based GridCounts::ToCellCoords and
// the generic PrefixSum2D::FractionalSum, behind a virtual Answer.
class SeedStyleUniformGrid : public Synopsis {
 public:
  explicit SeedStyleUniformGrid(const UniformGrid& ug)
      : counts_(ug.noisy_counts()),
        prefix_(counts_.values(), counts_.nx(), counts_.ny()) {}

  double Answer(const Rect& query) const override {
    double x0 = 0.0;
    double x1 = 0.0;
    double y0 = 0.0;
    double y1 = 0.0;
    counts_.ToCellCoords(query, &x0, &x1, &y0, &y1);
    return prefix_.FractionalSum(x0, x1, y0, y1);
  }

  std::string Name() const override { return "seed-UG"; }
  std::vector<SynopsisCell> ExportCells() const override { return {}; }

 private:
  GridCounts counts_;
  PrefixSum2D prefix_;
};

// Best-of-reps wall time of `fn`, which must fill `out`.
template <typename Fn>
double TimeBest(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double t0 = NowSeconds();
    fn();
    const double dt = NowSeconds() - t0;
    if (dt < best) best = dt;
  }
  return best;
}

std::vector<Rect> MakePaperWorkload(const Rect& domain, size_t num_queries,
                                    uint64_t seed) {
  Rng rng(seed);
  const int per_size = static_cast<int>((num_queries + 5) / 6);
  Workload workload = GenerateWorkload(domain, domain.Width() / 2,
                                       domain.Height() / 2, 6, per_size, rng);
  std::vector<Rect> queries;
  for (const auto& group : workload.queries) {
    queries.insert(queries.end(), group.begin(), group.end());
  }
  queries.resize(num_queries);
  return queries;
}

// Scalar-vs-batch ratio of one 2-D synopsis on `queries`; batch answers
// must be bitwise-equal to scalar ones.
struct MethodResult {
  double scalar_qps = 0.0;
  double batch_qps = 0.0;
  double speedup = 0.0;
  bool bitwise_equal = false;
};

MethodResult RunMethodSection(const Synopsis& synopsis,
                              const std::vector<Rect>& queries, int reps) {
  const size_t n = queries.size();
  std::vector<double> scalar_out(n);
  std::vector<double> batch_out(n);
  const double t_scalar = TimeBest(reps, [&] {
    for (size_t i = 0; i < n; ++i) scalar_out[i] = synopsis.Answer(queries[i]);
  });
  const double t_batch = TimeBest(reps, [&] {
    synopsis.AnswerBatch(queries, batch_out);
  });
  MethodResult r;
  r.scalar_qps = static_cast<double>(n) / t_scalar;
  r.batch_qps = static_cast<double>(n) / t_batch;
  r.speedup = t_scalar / t_batch;
  r.bitwise_equal =
      std::memcmp(scalar_out.data(), batch_out.data(), n * sizeof(double)) ==
      0;
  return r;
}

}  // namespace
}  // namespace dpgrid

int main() {
  using namespace dpgrid;

  const auto num_queries =
      static_cast<size_t>(EnvInt("DPGRID_TP_QUERIES", 1000000));
  const int64_t num_points = EnvInt("DPGRID_TP_POINTS", 1000000);
  const int64_t ag_points = EnvInt("DPGRID_TP_AG_POINTS", 16000000);
  const auto ag_queries =
      static_cast<size_t>(EnvInt("DPGRID_TP_AG_QUERIES", 100000));
  const int64_t nd_points = EnvInt("DPGRID_TP_ND_POINTS", 2000000);
  const auto nd_queries =
      static_cast<size_t>(EnvInt("DPGRID_TP_ND_QUERIES", 50000));
  const int reps = static_cast<int>(EnvInt("DPGRID_TP_REPS", 5));
  const auto seed = static_cast<uint64_t>(EnvInt("DPGRID_SEED", 20130408));
  const char* out_path = std::getenv("DPGRID_BENCH_OUT");
  if (out_path == nullptr || *out_path == '\0') {
    out_path = "BENCH_throughput.json";
  }

  std::printf("=== bench_query_throughput ===\n");
  std::printf("points=%lld queries=%zu ag_points=%lld ag_queries=%zu "
              "nd_points=%lld nd_queries=%zu reps=%d seed=%llu\n",
              static_cast<long long>(num_points), num_queries,
              static_cast<long long>(ag_points), ag_queries,
              static_cast<long long>(nd_points), nd_queries, reps,
              static_cast<unsigned long long>(seed));

  Rng data_rng(seed);
  Dataset data = MakeCheckinLike(num_points, data_rng);
  std::vector<Rect> queries =
      MakePaperWorkload(data.domain(), num_queries, seed + 1);

  Rng build_rng(seed + 2);
  UniformGrid ug(data, 1.0, build_rng);
  SeedStyleUniformGrid seed_ug(ug);
  std::printf("uniform grid: m=%d (%zu cells)\n", ug.grid_size(),
              static_cast<size_t>(ug.grid_size()) * ug.grid_size());

  std::vector<double> seed_answers(num_queries);
  std::vector<double> scalar_answers(num_queries);
  std::vector<double> batch_answers(num_queries);

  // --- seed-style serial per-query loop ------------------------------------
  const Synopsis& seed_ref = seed_ug;
  const double t_seed = TimeBest(reps, [&] {
    for (size_t i = 0; i < num_queries; ++i) {
      seed_answers[i] = seed_ref.Answer(queries[i]);
    }
  });

  // --- new scalar path, still serial per-query virtual calls ---------------
  const Synopsis& new_ref = ug;
  const double t_scalar = TimeBest(reps, [&] {
    for (size_t i = 0; i < num_queries; ++i) {
      scalar_answers[i] = new_ref.Answer(queries[i]);
    }
  });

  // --- batched engine, one thread -------------------------------------------
  QueryEngineOptions serial_opts;
  serial_opts.num_threads = 1;
  QueryEngine engine_1t(serial_opts);
  const double t_batch1 = TimeBest(reps, [&] {
    engine_1t.AnswerAll(ug, queries, batch_answers);
  });

  // --- batched engine, every usable CPU ------------------------------------
  QueryEngine engine_mt;
  const int threads = engine_mt.num_threads();
  const double t_batchn = TimeBest(reps, [&] {
    engine_mt.AnswerAll(ug, queries, batch_answers);
  });

  // --- validation ------------------------------------------------------------
  size_t mismatches = 0;
  double max_diff_vs_seed = 0.0;
  for (size_t i = 0; i < num_queries; ++i) {
    if (batch_answers[i] != scalar_answers[i]) ++mismatches;
    const double diff = std::abs(batch_answers[i] - seed_answers[i]);
    if (diff > max_diff_vs_seed) max_diff_vs_seed = diff;
  }

  const double n = static_cast<double>(num_queries);
  const double qps_seed = n / t_seed;
  const double qps_scalar = n / t_scalar;
  const double qps_batch1 = n / t_batch1;
  const double qps_batchn = n / t_batchn;
  const double speedup = qps_batchn / qps_seed;

  std::printf("\n%-24s %14s %12s\n", "mode", "QPS", "vs seed");
  std::printf("%-24s %14.0f %11.2fx\n", "seed_serial", qps_seed, 1.0);
  std::printf("%-24s %14.0f %11.2fx\n", "scalar_serial", qps_scalar,
              qps_scalar / qps_seed);
  std::printf("%-24s %14.0f %11.2fx\n", "batch_1thread", qps_batch1,
              qps_batch1 / qps_seed);
  std::printf("%-24s %14.0f %11.2fx  (threads=%d)\n", "batch_threads",
              qps_batchn, speedup, threads);
  std::printf("\nbatch vs scalar bitwise mismatches: %zu (must be 0)\n",
              mismatches);
  std::printf("max |batch - seed| (FP rounding only): %.3g\n",
              max_diff_vs_seed);
  std::printf("speedup (batched multi-threaded vs seed serial): %.2fx\n",
              speedup);

  // --- hierarchy grid: scalar vs shared FracView2D batch kernel -------------
  Rng hier_rng(seed + 4);
  HierarchyGrid hier(data, 1.0, hier_rng);
  const size_t hier_queries = std::max<size_t>(num_queries / 4, 1);
  std::vector<Rect> hier_q(queries.begin(), queries.begin() + hier_queries);
  const MethodResult hier_res = RunMethodSection(hier, hier_q, reps);
  std::printf("\nhierarchy grid (%s): scalar %.0f QPS, batch %.0f QPS "
              "(%.2fx), bitwise %s\n",
              hier.Name().c_str(), hier_res.scalar_qps, hier_res.batch_qps,
              hier_res.speedup, hier_res.bitwise_equal ? "yes" : "NO");

  // --- adaptive grid at production scale: the d=2 index's batch pipeline ----
  std::printf("\nbuilding adaptive grid on %lld points...\n",
              static_cast<long long>(ag_points));
  Rng ag_data_rng(seed + 5);
  Dataset ag_data = MakeCheckinLike(ag_points, ag_data_rng);
  Rng ag_rng(seed + 3);
  AdaptiveGrid ag(ag_data, 1.0, ag_rng);
  DPGRID_CHECK_MSG(ag.index().dims() == 2 && ag.index().flat_index().built(),
                   "adaptive grid d=2 leaf index must be materialized");
  std::vector<Rect> ag_q =
      MakePaperWorkload(ag_data.domain(), ag_queries, seed + 6);
  const MethodResult ag_res = RunMethodSection(ag, ag_q, reps);
  std::printf("adaptive grid (m1=%d, %lld leaf cells, %zu flat-arena "
              "doubles, %d face-slab classes, cost hint %.0f ns): scalar "
              "%.0f QPS, batch %.0f QPS (%.2fx), bitwise %s\n",
              ag.level1_size(), static_cast<long long>(ag.TotalLeafCells()),
              ag.index().flat_index().arena_size(),
              ag.index().face_slab_index().classes(), ag.QueryCostNs(),
              ag_res.scalar_qps, ag_res.batch_qps, ag_res.speedup,
              ag_res.bitwise_equal ? "yes" : "NO");

  // --- adaptive grid N-d: flattened leaf path --------------------------------
  const size_t nd_dims = 3;
  BoxNd nd_domain(std::vector<double>(nd_dims, 0.0),
                  std::vector<double>(nd_dims, 100.0));
  Rng nd_data_rng(seed + 7);
  const std::vector<ClusterNd> clusters =
      MakeRandomClustersNd(nd_domain, 24, 0.02, 0.08, 1.0, nd_data_rng);
  const DatasetNd nd_data =
      MakeGaussianMixtureNd(nd_domain, nd_points, clusters, 0.1, nd_data_rng);
  Rng nd_workload_rng(seed + 8);
  const WorkloadNd nd_workload = GenerateWorkloadNd(
      nd_domain, std::vector<double>(nd_dims, 50.0), 4,
      static_cast<int>((nd_queries + 3) / 4), nd_workload_rng);
  std::vector<BoxNd> nd_q;
  for (const auto& group : nd_workload.queries) {
    nd_q.insert(nd_q.end(), group.begin(), group.end());
  }
  if (nd_q.size() > nd_queries) nd_q.resize(nd_queries);
  Rng nd_build_rng(seed + 9);
  AdaptiveGridNd ag_nd(nd_data, 1.0, nd_build_rng);
  DPGRID_CHECK_MSG(ag_nd.flat_index().built(),
                   "N-d flat leaf index must be materialized");
  std::vector<double> nd_scalar(nd_q.size());
  std::vector<double> nd_batch(nd_q.size());
  const double t_nd_scalar = TimeBest(reps, [&] {
    for (size_t i = 0; i < nd_q.size(); ++i) {
      nd_scalar[i] = ag_nd.Answer(nd_q[i]);
    }
  });
  const double t_nd_batch = TimeBest(reps, [&] {
    ag_nd.AnswerBatch(nd_q, nd_batch);
  });
  // The default engine, whose cost rule shards AG-nd batches.
  std::vector<double> nd_engine(nd_q.size());
  const double t_nd_engine = TimeBest(reps, [&] {
    engine_mt.AnswerAll(ag_nd, nd_q, nd_engine);
  });
  const bool nd_equal =
      std::memcmp(nd_scalar.data(), nd_batch.data(),
                  nd_q.size() * sizeof(double)) == 0 &&
      std::memcmp(nd_scalar.data(), nd_engine.data(),
                  nd_q.size() * sizeof(double)) == 0;
  const double nd_n = static_cast<double>(nd_q.size());
  std::printf("adaptive grid %zu-d (m1=%d, cost hint %.0f ns): scalar %.0f "
              "QPS, batch %.0f QPS (%.2fx), engine %.0f QPS on %d threads, "
              "bitwise %s\n",
              nd_dims, ag_nd.level1_size(), ag_nd.QueryCostNs(),
              nd_n / t_nd_scalar, nd_n / t_nd_batch, t_nd_scalar / t_nd_batch,
              nd_n / t_nd_engine, threads, nd_equal ? "yes" : "NO");

  // --- JSON for the perf trajectory -----------------------------------------
  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"bench_query_throughput\",\n"
               "  \"host\": %s,\n"
               "  \"config\": {\n"
               "    \"points\": %lld,\n"
               "    \"queries\": %zu,\n"
               "    \"ag_points\": %lld,\n"
               "    \"ag_queries\": %zu,\n"
               "    \"nd_points\": %lld,\n"
               "    \"nd_queries\": %zu,\n"
               "    \"reps\": %d,\n"
               "    \"seed\": %llu,\n"
               "    \"threads\": %d\n"
               "  },\n"
               "  \"uniform_grid\": {\n"
               "    \"grid_size\": %d,\n"
               "    \"seed_serial_qps\": %.0f,\n"
               "    \"scalar_serial_qps\": %.0f,\n"
               "    \"batch_1thread_qps\": %.0f,\n"
               "    \"batch_threads_qps\": %.0f,\n"
               "    \"speedup_batch_vs_seed\": %.3f,\n"
               "    \"batch_bitwise_equal_scalar\": %s,\n"
               "    \"max_abs_diff_vs_seed\": %.6g\n"
               "  },\n",
               bench::HostJson().c_str(),
               static_cast<long long>(num_points), num_queries,
               static_cast<long long>(ag_points), ag_queries,
               static_cast<long long>(nd_points), nd_queries, reps,
               static_cast<unsigned long long>(seed), threads, ug.grid_size(),
               qps_seed, qps_scalar, qps_batch1, qps_batchn, speedup,
               mismatches == 0 ? "true" : "false", max_diff_vs_seed);
  std::fprintf(f,
               "  \"adaptive_grid\": {\n"
               "    \"level1_size\": %d,\n"
               "    \"leaf_cells\": %lld,\n"
               "    \"flat_arena_doubles\": %zu,\n"
               "    \"face_slab_classes\": %d,\n"
               "    \"query_cost_ns\": %.0f,\n"
               "    \"queries\": %zu,\n"
               "    \"scalar_qps\": %.0f,\n"
               "    \"batch_qps\": %.0f,\n"
               "    \"speedup_batch_vs_scalar\": %.3f,\n"
               "    \"batch_bitwise_equal_scalar\": %s\n"
               "  },\n"
               "  \"hierarchy_grid\": {\n"
               "    \"name\": \"%s\",\n"
               "    \"queries\": %zu,\n"
               "    \"scalar_qps\": %.0f,\n"
               "    \"batch_qps\": %.0f,\n"
               "    \"speedup_batch_vs_scalar\": %.3f,\n"
               "    \"batch_bitwise_equal_scalar\": %s\n"
               "  },\n"
               "  \"adaptive_grid_nd\": {\n"
               "    \"dims\": %zu,\n"
               "    \"level1_size\": %d,\n"
               "    \"queries\": %zu,\n"
               "    \"scalar_qps\": %.0f,\n"
               "    \"batch_qps\": %.0f,\n"
               "    \"speedup_batch_vs_scalar\": %.3f,\n"
               "    \"query_cost_ns\": %.0f,\n"
               "    \"engine_qps\": %.0f,\n"
               "    \"batch_bitwise_equal_scalar\": %s\n"
               "  }\n"
               "}\n",
               ag.level1_size(), static_cast<long long>(ag.TotalLeafCells()),
               ag.index().flat_index().arena_size(),
               ag.index().face_slab_index().classes(), ag.QueryCostNs(),
               ag_q.size(), ag_res.scalar_qps,
               ag_res.batch_qps, ag_res.speedup,
               ag_res.bitwise_equal ? "true" : "false", hier.Name().c_str(),
               hier_q.size(), hier_res.scalar_qps, hier_res.batch_qps,
               hier_res.speedup, hier_res.bitwise_equal ? "true" : "false",
               nd_dims, ag_nd.level1_size(), nd_q.size(), nd_n / t_nd_scalar,
               nd_n / t_nd_batch, t_nd_scalar / t_nd_batch,
               ag_nd.QueryCostNs(), nd_n / t_nd_engine,
               nd_equal ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", out_path);

  const bool all_equal = mismatches == 0 && ag_res.bitwise_equal &&
                         hier_res.bitwise_equal && nd_equal;
  return all_equal ? 0 : 1;
}
