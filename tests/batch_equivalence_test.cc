// Batch-vs-scalar equivalence: for every synopsis type, AnswerBatch must
// return bitwise-identical results to per-query Answer on a randomized
// workload. This is the contract that lets the query engine shard batches
// across threads without perturbing any experiment.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "data/generators.h"
#include "grid/adaptive_grid.h"
#include "grid/cell_synopsis.h"
#include "grid/uniform_grid.h"
#include "hier/hierarchy_grid.h"
#include "kd/kd_tree.h"
#include "nd/adaptive_grid_nd.h"
#include "nd/dataset_nd.h"
#include "nd/hierarchy_nd.h"
#include "nd/uniform_grid_nd.h"
#include "query/query_engine.h"
#include "query/workload.h"
#include "wavelet/privelet.h"

namespace dpgrid {
namespace {

std::vector<Rect> RandomQueries(const Rect& domain, int count, Rng& rng) {
  std::vector<Rect> queries;
  queries.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    // Mix of sizes, including degenerate and out-of-domain rectangles so
    // the clamping paths are exercised too.
    double w = rng.Uniform(0.0, domain.Width());
    double h = rng.Uniform(0.0, domain.Height());
    double xlo = rng.Uniform(domain.xlo - 0.1 * domain.Width(),
                             domain.xhi - 0.5 * w);
    double ylo = rng.Uniform(domain.ylo - 0.1 * domain.Height(),
                             domain.yhi - 0.5 * h);
    queries.push_back(Rect{xlo, ylo, xlo + w, ylo + h});
  }
  return queries;
}

void ExpectBatchMatchesScalar(const Synopsis& synopsis,
                              const std::vector<Rect>& queries) {
  std::vector<double> batch(queries.size());
  synopsis.AnswerBatch(queries, batch);
  for (size_t i = 0; i < queries.size(); ++i) {
    // EXPECT_EQ on doubles is an exact (bitwise, modulo -0.0 == 0.0)
    // comparison — intentional: sharding must not perturb results at all.
    EXPECT_EQ(batch[i], synopsis.Answer(queries[i]))
        << synopsis.Name() << " query " << i << " "
        << queries[i].ToString();
  }
}

class BatchEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng data_rng(321);
    data_ = std::make_unique<Dataset>(MakeCheckinLike(20000, data_rng));
    Rng query_rng(654);
    queries_ = RandomQueries(data_->domain(), 500, query_rng);
  }

  std::unique_ptr<Dataset> data_;
  std::vector<Rect> queries_;
};

TEST_F(BatchEquivalenceTest, UniformGrid) {
  Rng rng(1);
  UniformGrid ug(*data_, 1.0, rng);
  ExpectBatchMatchesScalar(ug, queries_);
}

TEST_F(BatchEquivalenceTest, AdaptiveGrid) {
  Rng rng(2);
  AdaptiveGrid ag(*data_, 1.0, rng);
  ExpectBatchMatchesScalar(ag, queries_);
}

TEST_F(BatchEquivalenceTest, HierarchyGrid) {
  Rng rng(3);
  HierarchyGridOptions opts;
  opts.leaf_size = 64;
  opts.branching = 2;
  opts.depth = 3;
  HierarchyGrid h(*data_, 1.0, rng, opts);
  ExpectBatchMatchesScalar(h, queries_);
}

TEST_F(BatchEquivalenceTest, PriveletScalarFallback) {
  Rng rng(4);
  Privelet w(*data_, 1.0, rng);
  ExpectBatchMatchesScalar(w, queries_);
}

TEST_F(BatchEquivalenceTest, KdTreeScalarFallback) {
  Rng rng(5);
  KdTree tree(*data_, 1.0, rng, KdHybridOptions());
  ExpectBatchMatchesScalar(tree, queries_);
}

TEST_F(BatchEquivalenceTest, CellSynopsisScalarFallback) {
  Rng rng(6);
  UniformGrid ug(*data_, 1.0, rng);
  CellSynopsis cells(ug.ExportCells(), "cells");
  ExpectBatchMatchesScalar(cells, queries_);
}

// The engine must agree with scalar Answer bitwise no matter how the batch
// is sharded.
TEST_F(BatchEquivalenceTest, QueryEngineShardingIsTransparent) {
  Rng rng(7);
  UniformGrid ug(*data_, 1.0, rng);
  for (int threads : {1, 2, 5}) {
    QueryEngineOptions opts;
    opts.num_threads = threads;
    // Chunks of 64 queries: the cost rule shards the 500-query batch.
    opts.chunk_cost_ns = 64 * ug.QueryCostNs();
    QueryEngine engine(opts);
    std::vector<double> out = engine.AnswerAll(ug, queries_);
    ASSERT_EQ(out.size(), queries_.size());
    for (size_t i = 0; i < queries_.size(); ++i) {
      EXPECT_EQ(out[i], ug.Answer(queries_[i])) << "threads=" << threads;
    }
  }
}

// Several pool threads run the 2-D grid's d=2 pipeline concurrently, each
// with its own thread_local bounds and pair scratch.
TEST_F(BatchEquivalenceTest, AdaptiveGridShardedPipelineIsTransparent) {
  Rng rng(8);
  AdaptiveGrid ag(*data_, 1.0, rng);
  QueryEngineOptions opts;
  opts.num_threads = 4;
  opts.chunk_cost_ns = 16 * ag.QueryCostNs();
  QueryEngine engine(opts);
  std::vector<double> out = engine.AnswerAll(ag, queries_);
  ASSERT_EQ(out.size(), queries_.size());
  for (size_t i = 0; i < queries_.size(); ++i) {
    EXPECT_EQ(out[i], ag.Answer(queries_[i]));
  }
}

// --- d-dimensional synopses -------------------------------------------------

std::vector<BoxNd> RandomBoxes(const BoxNd& domain, int count, Rng& rng) {
  const size_t d = domain.dims();
  std::vector<BoxNd> queries;
  queries.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    std::vector<double> lo(d);
    std::vector<double> hi(d);
    for (size_t a = 0; a < d; ++a) {
      double extent = rng.Uniform(0.0, domain.Extent(a));
      lo[a] = rng.Uniform(domain.lo(a) - 0.1 * domain.Extent(a),
                          domain.hi(a) - 0.5 * extent);
      hi[a] = lo[a] + extent;
    }
    queries.emplace_back(std::move(lo), std::move(hi));
  }
  return queries;
}

void ExpectBatchMatchesScalarNd(const SynopsisNd& synopsis,
                                const std::vector<BoxNd>& queries) {
  std::vector<double> batch(queries.size());
  synopsis.AnswerBatch(queries, batch);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(batch[i], synopsis.Answer(queries[i]))
        << synopsis.Name() << " query " << i;
  }
}

class BatchEquivalenceNdTest : public ::testing::Test {
 protected:
  void SetUp() override {
    domain_ = BoxNd::Cube(3, 0.0, 100.0);
    Rng data_rng(111);
    auto clusters =
        MakeRandomClustersNd(domain_, 5, 0.02, 0.1, 1.0, data_rng);
    data_ = std::make_unique<DatasetNd>(
        MakeGaussianMixtureNd(domain_, 20000, clusters, 0.1, data_rng));
    Rng query_rng(222);
    queries_ = RandomBoxes(domain_, 300, query_rng);
  }

  BoxNd domain_;
  std::unique_ptr<DatasetNd> data_;
  std::vector<BoxNd> queries_;
};

TEST_F(BatchEquivalenceNdTest, UniformGridNd) {
  Rng rng(11);
  UniformGridNd ug(*data_, 1.0, rng);
  ExpectBatchMatchesScalarNd(ug, queries_);
}

TEST_F(BatchEquivalenceNdTest, AdaptiveGridNd) {
  Rng rng(12);
  AdaptiveGridNd ag(*data_, 1.0, rng);
  ExpectBatchMatchesScalarNd(ag, queries_);
}

TEST_F(BatchEquivalenceNdTest, HierarchyNd) {
  Rng rng(13);
  HierarchyNdOptions opts;
  opts.leaf_size = 16;
  opts.branching = 2;
  opts.depth = 2;
  HierarchyNd h(*data_, 1.0, rng, opts);
  ExpectBatchMatchesScalarNd(h, queries_);
}

TEST_F(BatchEquivalenceNdTest, QueryEngineNdShardingIsTransparent) {
  Rng rng(14);
  UniformGridNd ug(*data_, 1.0, rng);
  QueryEngineOptions opts;
  opts.num_threads = 3;
  opts.chunk_cost_ns = 32 * ug.QueryCostNs();
  QueryEngine engine(opts);
  std::vector<double> out = engine.AnswerAll(ug, queries_);
  ASSERT_EQ(out.size(), queries_.size());
  for (size_t i = 0; i < queries_.size(); ++i) {
    EXPECT_EQ(out[i], ug.Answer(queries_[i]));
  }
}

// Several pool threads run the N-d leaf-kernel pipeline concurrently on
// one shared grid — the race TSan is there to catch if the pipeline's
// thread_local pair scratch were ever shared across threads.
TEST_F(BatchEquivalenceNdTest, AdaptiveGridNdShardedPipelineIsTransparent) {
  Rng rng(15);
  AdaptiveGridNd ag(*data_, 1.0, rng);
  ASSERT_TRUE(ag.flat_index().built());
  QueryEngineOptions opts;
  opts.num_threads = 4;
  opts.chunk_cost_ns = 16 * ag.QueryCostNs();
  QueryEngine engine(opts);
  std::vector<double> out = engine.AnswerAll(ag, queries_);
  ASSERT_EQ(out.size(), queries_.size());
  for (size_t i = 0; i < queries_.size(); ++i) {
    EXPECT_EQ(out[i], ag.Answer(queries_[i]));
  }
}

}  // namespace
}  // namespace dpgrid
