#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "data/generators.h"
#include "dp/budget.h"
#include "geo/dataset.h"
#include "geo/rect.h"
#include "grid/uniform_grid.h"
#include "index/prefix_sum2d.h"
#include "nd/adaptive_grid_nd.h"
#include "nd/box_nd.h"
#include "nd/dataset_nd.h"
#include "nd/grid_nd.h"
#include "nd/guidelines_nd.h"
#include "nd/hierarchy_nd.h"
#include "nd/uniform_grid_nd.h"
#include "nd/workload_nd.h"

namespace dpgrid {
namespace {

// ---------------------------------------------------------------------------
// BoxNd
// ---------------------------------------------------------------------------

TEST(BoxNdTest, VolumeAndExtent) {
  BoxNd box({0, 0, 0}, {2, 3, 4});
  EXPECT_EQ(box.dims(), 3u);
  EXPECT_DOUBLE_EQ(box.Volume(), 24.0);
  EXPECT_DOUBLE_EQ(box.Extent(1), 3.0);
  EXPECT_FALSE(box.IsEmpty());
}

TEST(BoxNdTest, CubeFactory) {
  BoxNd cube = BoxNd::Cube(4, -1.0, 1.0);
  EXPECT_EQ(cube.dims(), 4u);
  EXPECT_DOUBLE_EQ(cube.Volume(), 16.0);
}

TEST(BoxNdTest, EmptyOnAnyDegenerateAxis) {
  EXPECT_TRUE((BoxNd({0, 0}, {1, 0})).IsEmpty());
  EXPECT_TRUE((BoxNd({0, 2}, {1, 1})).IsEmpty());
  EXPECT_DOUBLE_EQ((BoxNd({0, 2}, {1, 1})).Volume(), 0.0);
}

TEST(BoxNdTest, HalfOpenMembership) {
  BoxNd box({0, 0}, {1, 1});
  EXPECT_TRUE(box.ContainsPoint({0.0, 0.0}));
  EXPECT_FALSE(box.ContainsPoint({1.0, 0.5}));
  EXPECT_FALSE(box.ContainsPoint({0.5, 1.0}));
}

TEST(BoxNdTest, IntersectionAndContainment) {
  BoxNd a({0, 0, 0}, {4, 4, 4});
  BoxNd b({2, 2, 2}, {6, 6, 6});
  BoxNd inter = a.Intersection(b);
  EXPECT_EQ(inter, BoxNd({2, 2, 2}, {4, 4, 4}));
  EXPECT_TRUE(a.ContainsBox(inter));
  EXPECT_TRUE(b.ContainsBox(inter));
  EXPECT_FALSE(a.ContainsBox(b));
}

TEST(BoxNdTest, OverlapFraction) {
  BoxNd cell({0, 0}, {2, 2});
  BoxNd query({1, 0}, {5, 2});
  EXPECT_DOUBLE_EQ(cell.OverlapFraction(query), 0.5);
}

TEST(BoxNdTest, MatchesRectSemanticsIn2D) {
  // Cross-check against the 2-D Rect on random rectangles.
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    double ax0 = rng.Uniform(0, 5), ay0 = rng.Uniform(0, 5);
    double ax1 = ax0 + rng.Uniform(0, 5), ay1 = ay0 + rng.Uniform(0, 5);
    double bx0 = rng.Uniform(0, 5), by0 = rng.Uniform(0, 5);
    double bx1 = bx0 + rng.Uniform(0, 5), by1 = by0 + rng.Uniform(0, 5);
    BoxNd a({ax0, ay0}, {ax1, ay1});
    BoxNd b({bx0, by0}, {bx1, by1});
    Rect ra{ax0, ay0, ax1, ay1};
    Rect rb{bx0, by0, bx1, by1};
    EXPECT_NEAR(a.Intersection(b).Volume(), ra.IntersectionArea(rb), 1e-9);
    EXPECT_NEAR(a.OverlapFraction(b), ra.OverlapFraction(rb), 1e-9);
  }
}

// ---------------------------------------------------------------------------
// DatasetNd
// ---------------------------------------------------------------------------

TEST(DatasetNdTest, SizeAndCount) {
  BoxNd domain = BoxNd::Cube(3, 0, 10);
  DatasetNd data(domain, {{1, 1, 1}, {2, 2, 2}, {9, 9, 9}});
  EXPECT_EQ(data.size(), 3);
  EXPECT_EQ(data.CountInBox(BoxNd::Cube(3, 0, 5)), 2);
}

TEST(DatasetNdDeathTest, RejectsWrongDimension) {
  BoxNd domain = BoxNd::Cube(3, 0, 10);
  EXPECT_DEATH(DatasetNd(domain, {{1, 1}}), "dimension");
}

TEST(DatasetNdDeathTest, RejectsOutsidePoint) {
  BoxNd domain = BoxNd::Cube(2, 0, 10);
  EXPECT_DEATH(DatasetNd(domain, {{11, 5}}), "outside");
}

TEST(DatasetNdTest, UniformGeneratorQuadrantBalance) {
  Rng rng(2);
  BoxNd domain = BoxNd::Cube(3, 0, 2);
  DatasetNd data = MakeUniformDatasetNd(domain, 40000, rng);
  // Each octant holds ~1/8 of the mass.
  EXPECT_NEAR(
      static_cast<double>(data.CountInBox(BoxNd::Cube(3, 0, 1))) / 40000,
      0.125, 0.01);
}

TEST(DatasetNdTest, MixtureClustersConcentrateMass) {
  Rng rng(3);
  BoxNd domain = BoxNd::Cube(3, 0, 100);
  std::vector<ClusterNd> clusters = {
      {{20, 20, 20}, {1, 1, 1}, 1.0},
  };
  DatasetNd data = MakeGaussianMixtureNd(domain, 20000, clusters, 0.0, rng);
  BoxNd near_cluster({15, 15, 15}, {25, 25, 25});
  EXPECT_GT(static_cast<double>(data.CountInBox(near_cluster)) / 20000, 0.95);
}

TEST(DatasetNdTest, RandomClustersHaveZipfWeights) {
  Rng rng(4);
  BoxNd domain = BoxNd::Cube(2, 0, 10);
  auto clusters = MakeRandomClustersNd(domain, 10, 0.01, 0.05, 1.0, rng);
  ASSERT_EQ(clusters.size(), 10u);
  EXPECT_DOUBLE_EQ(clusters[0].weight, 1.0);
  EXPECT_NEAR(clusters[4].weight, 0.2, 1e-12);
  for (const auto& c : clusters) {
    EXPECT_EQ(c.center.size(), 2u);
    EXPECT_TRUE(domain.ContainsPoint(c.center) ||
                c.center[0] == domain.hi(0) || c.center[1] == domain.hi(1));
  }
}

// ---------------------------------------------------------------------------
// PrefixSumNd / GridNd
// ---------------------------------------------------------------------------

// Naive fractional sum for verification.
double NaiveFractionalSumNd(const GridNd& grid, const BoxNd& query) {
  double total = 0.0;
  for (size_t flat = 0; flat < grid.num_cells(); ++flat) {
    BoxNd cell = grid.CellBoxFlat(flat);
    total += grid.values()[flat] * cell.OverlapFraction(query);
  }
  return total;
}

class PrefixSumNdPropertyTest : public testing::TestWithParam<size_t> {};

TEST_P(PrefixSumNdPropertyTest, FractionalMatchesNaive) {
  const size_t d = GetParam();
  Rng rng(100 + d);
  const size_t m = d <= 2 ? 9 : (d == 3 ? 6 : 4);
  BoxNd domain = BoxNd::Cube(d, -1.0, 3.0);
  GridNd grid(domain, std::vector<size_t>(d, m));
  for (double& v : grid.mutable_values()) v = rng.Uniform(-10, 10);
  PrefixSumNd prefix(grid.values(), grid.sizes());
  EXPECT_NEAR(prefix.TotalSum(), grid.Total(), 1e-8);
  for (int i = 0; i < 60; ++i) {
    std::vector<double> lo(d);
    std::vector<double> hi(d);
    for (size_t a = 0; a < d; ++a) {
      double x = rng.Uniform(-1.5, 3.5);
      double y = rng.Uniform(-1.5, 3.5);
      lo[a] = std::min(x, y);
      hi[a] = std::max(x, y);
    }
    BoxNd query(lo, hi);
    std::vector<double> clo;
    std::vector<double> chi;
    grid.ToCellCoords(query, &clo, &chi);
    double fast = prefix.FractionalSum(clo, chi);
    double naive = NaiveFractionalSumNd(grid, query);
    EXPECT_NEAR(fast, naive, 1e-7 * (1.0 + std::abs(naive)))
        << "d=" << d << " query " << query.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, PrefixSumNdPropertyTest,
                         testing::Values(1, 2, 3, 4, 5));

TEST(PrefixSumNdTest, MatchesPrefixSum2DLayout) {
  // The 2-D specialization must agree with PrefixSum2D. Note the layout
  // difference: GridNd is row-major with the LAST axis contiguous, so axis 0
  // plays the role of PrefixSum2D's y.
  Rng rng(5);
  const size_t ny = 7;
  const size_t nx = 5;
  std::vector<double> values(nx * ny);
  for (double& v : values) v = rng.Uniform(0, 10);
  PrefixSumNd nd(values, {ny, nx});
  PrefixSum2D twod(values, nx, ny);
  for (int i = 0; i < 50; ++i) {
    double x0 = rng.Uniform(0, nx);
    double x1 = rng.Uniform(x0, nx);
    double y0 = rng.Uniform(0, ny);
    double y1 = rng.Uniform(y0, ny);
    EXPECT_NEAR(nd.FractionalSum({y0, x0}, {y1, x1}),
                twod.FractionalSum(x0, x1, y0, y1), 1e-9);
  }
}

TEST(GridNdTest, HistogramExactness3D) {
  BoxNd domain = BoxNd::Cube(3, 0, 2);
  DatasetNd data(domain, {{0.5, 0.5, 0.5},
                          {0.5, 0.5, 0.5},
                          {1.5, 0.5, 0.5},
                          {2.0, 2.0, 2.0}});
  GridNd grid = GridNd::FromDataset(data, {2, 2, 2});
  EXPECT_DOUBLE_EQ(grid.values()[grid.FlatIndex({0, 0, 0})], 2.0);
  EXPECT_DOUBLE_EQ(grid.values()[grid.FlatIndex({1, 0, 0})], 1.0);
  // Point on the top corner clamps into the last cell.
  EXPECT_DOUBLE_EQ(grid.values()[grid.FlatIndex({1, 1, 1})], 1.0);
  EXPECT_DOUBLE_EQ(grid.Total(), 4.0);
}

TEST(GridNdTest, CellBoxesTileTheDomain) {
  BoxNd domain({0, 10, -5}, {3, 16, 1});
  GridNd grid(domain, {3, 2, 4});
  double volume = 0.0;
  for (size_t flat = 0; flat < grid.num_cells(); ++flat) {
    volume += grid.CellBoxFlat(flat).Volume();
  }
  EXPECT_NEAR(volume, domain.Volume(), 1e-9);
}

TEST(GridNdTest, FlatCellOfInvertsCellBox) {
  BoxNd domain = BoxNd::Cube(3, -2, 7);
  GridNd grid(domain, {4, 5, 3});
  for (size_t flat = 0; flat < grid.num_cells(); ++flat) {
    BoxNd cell = grid.CellBoxFlat(flat);
    PointNd center(3);
    for (size_t a = 0; a < 3; ++a) center[a] = (cell.lo(a) + cell.hi(a)) / 2;
    EXPECT_EQ(grid.FlatCellOf(center), flat);
  }
}

// ---------------------------------------------------------------------------
// Guidelines
// ---------------------------------------------------------------------------

TEST(GuidelinesNdTest, ReducesToGuideline1At2D) {
  // (2*N*eps/(2*c))^(1/2) == sqrt(N*eps/c).
  EXPECT_NEAR(UniformGridSizeRealNd(1000000, 1.0, 2), 316.23, 0.01);
  EXPECT_NEAR(UniformGridSizeRealNd(1600000, 0.1, 2), 126.49, 0.01);
  EXPECT_EQ(ChooseUniformGridSizeNd(1000000, 1.0, 2), 316);
}

TEST(GuidelinesNdTest, HigherDimensionsGetCoarserPerAxisGrids) {
  const double n = 1000000;
  const double eps = 1.0;
  double m2 = UniformGridSizeRealNd(n, eps, 2);
  double m3 = UniformGridSizeRealNd(n, eps, 3);
  double m4 = UniformGridSizeRealNd(n, eps, 4);
  EXPECT_GT(m2, m3);
  EXPECT_GT(m3, m4);
  // 3-D: (2*1e6/30)^(2/5) ~ 85.7.
  EXPECT_NEAR(m3, std::pow(2.0e6 / 30.0, 0.4), 0.1);
}

TEST(GuidelinesNdTest, Level2ReducesTo2DRule) {
  EXPECT_EQ(ChooseAdaptiveLevel2SizeNd(1000.0, 0.5, 2), 10);
  EXPECT_EQ(ChooseAdaptiveLevel2SizeNd(-5.0, 0.5, 3), 1);
}

TEST(GuidelinesNdTest, Level1FloorsShrinkWithDims) {
  EXPECT_EQ(ChooseAdaptiveLevel1SizeNd(100, 0.1, 2), 10);
  EXPECT_EQ(ChooseAdaptiveLevel1SizeNd(100, 0.1, 3), 6);
  EXPECT_EQ(ChooseAdaptiveLevel1SizeNd(100, 0.1, 4), 4);
}

// ---------------------------------------------------------------------------
// UniformGridNd / AdaptiveGridNd / HierarchyNd
// ---------------------------------------------------------------------------

TEST(UniformGridNdTest, NearExactWithHugeEpsilon3D) {
  Rng rng(6);
  BoxNd domain = BoxNd::Cube(3, 0, 8);
  DatasetNd data = MakeUniformDatasetNd(domain, 30000, rng);
  UniformGridNdOptions opts;
  opts.grid_size = 8;
  UniformGridNd ug(data, 1e8, rng, opts);
  BoxNd q = BoxNd::Cube(3, 0, 4);
  EXPECT_NEAR(ug.Answer(q), static_cast<double>(data.CountInBox(q)), 5.0);
  EXPECT_EQ(ug.Name(), "U3d-8");
}

TEST(UniformGridNdTest, BudgetConsumedAndAutoSize) {
  Rng rng(7);
  BoxNd domain = BoxNd::Cube(3, 0, 1);
  DatasetNd data = MakeUniformDatasetNd(domain, 50000, rng);
  PrivacyBudget budget(1.0);
  UniformGridNd ug(data, budget, rng);
  EXPECT_NEAR(budget.remaining(), 0.0, 1e-12);
  EXPECT_EQ(ug.grid_size(), ChooseUniformGridSizeNd(50000, 1.0, 3));
}

TEST(UniformGridNdTest, Agrees2DImplementationWithZeroishNoise) {
  // At enormous epsilon both implementations return (essentially) the exact
  // fractional histogram answer, so they must agree with each other.
  Rng rng(8);
  Rect domain2{0, 0, 10, 6};
  Dataset data2 = MakeUniformDataset(domain2, 20000, rng);
  std::vector<PointNd> pts;
  pts.reserve(20000);
  for (const Point2& p : data2.points()) pts.push_back({p.y, p.x});
  DatasetNd data_nd(BoxNd({0, 0}, {6, 10}), std::move(pts));

  UniformGridOptions o2;
  o2.grid_size = 12;
  Rng rng_a(9);
  UniformGrid ug2(data2, 1e9, rng_a, o2);
  UniformGridNdOptions ond;
  ond.grid_size = 12;
  Rng rng_b(10);
  UniformGridNd ugnd(data_nd, 1e9, rng_b, ond);

  for (int i = 0; i < 50; ++i) {
    double x0 = rng.Uniform(0, 8);
    double x1 = x0 + rng.Uniform(0.1, 2.0);
    double y0 = rng.Uniform(0, 4);
    double y1 = y0 + rng.Uniform(0.1, 2.0);
    double a = ug2.Answer(Rect{x0, y0, x1, y1});
    double b = ugnd.Answer(BoxNd({y0, x0}, {y1, x1}));
    EXPECT_NEAR(a, b, 1e-3 * (1.0 + std::abs(a)));
  }
}

TEST(AdaptiveGridNdTest, BudgetSplitAndConsumption) {
  Rng rng(11);
  BoxNd domain = BoxNd::Cube(3, 0, 1);
  DatasetNd data = MakeUniformDatasetNd(domain, 30000, rng);
  PrivacyBudget budget(2.0);
  AdaptiveGridNdOptions opts;
  opts.alpha = 0.25;
  AdaptiveGridNd ag(data, budget, rng, opts);
  EXPECT_NEAR(budget.remaining(), 0.0, 1e-12);
  ASSERT_EQ(budget.ledger().size(), 2u);
  EXPECT_NEAR(budget.ledger()[0].epsilon, 0.5, 1e-12);
  EXPECT_NEAR(budget.ledger()[1].epsilon, 1.5, 1e-12);
}

TEST(AdaptiveGridNdTest, ConsistencyAfterInference3D) {
  Rng rng(12);
  BoxNd domain = BoxNd::Cube(3, 0, 10);
  std::vector<ClusterNd> clusters =
      MakeRandomClustersNd(domain, 5, 0.02, 0.1, 1.0, rng);
  DatasetNd data = MakeGaussianMixtureNd(domain, 40000, clusters, 0.1, rng);
  AdaptiveGridNdOptions opts;
  opts.level1_size = 3;
  AdaptiveGridNd ag(data, 1.0, rng, opts);
  // Full-domain answer equals the sum of level-1 estimates (consistency).
  double level1_total = 0.0;
  for (size_t i = 0; i < 27; ++i) level1_total += ag.Level1Count(i);
  EXPECT_NEAR(ag.Answer(domain), level1_total, 1e-6);
}

TEST(AdaptiveGridNdTest, DenseCellsRefineMore3D) {
  Rng rng(13);
  BoxNd domain = BoxNd::Cube(3, 0, 2);
  // All mass in the (0,0,0) octant.
  std::vector<PointNd> pts;
  for (int i = 0; i < 30000; ++i) {
    pts.push_back({rng.Uniform(0, 1), rng.Uniform(0, 1), rng.Uniform(0, 1)});
  }
  DatasetNd data(domain, std::move(pts));
  AdaptiveGridNdOptions opts;
  opts.level1_size = 2;
  AdaptiveGridNd ag(data, 1.0, rng, opts);
  // Leaf size of the dense octant (flat 0) dominates any empty octant.
  int dense = ag.Level2Size(0);
  int sparse = ag.Level2Size(7);
  EXPECT_GT(dense, sparse);
  EXPECT_LE(sparse, 2);
}

TEST(AdaptiveGridNdTest, NearExactWithHugeEpsilon) {
  Rng rng(14);
  BoxNd domain = BoxNd::Cube(3, 0, 4);
  DatasetNd data = MakeUniformDatasetNd(domain, 20000, rng);
  AdaptiveGridNdOptions opts;
  opts.level1_size = 4;
  opts.max_level2_size = 4;
  AdaptiveGridNd ag(data, 1e8, rng, opts);
  BoxNd q = BoxNd::Cube(3, 0, 2);
  EXPECT_NEAR(ag.Answer(q), static_cast<double>(data.CountInBox(q)), 5.0);
}

TEST(AdaptiveGridNdTest, AnswerMatchesLeafEnumeration) {
  Rng rng(15);
  BoxNd domain = BoxNd::Cube(3, 0, 10);
  std::vector<ClusterNd> clusters =
      MakeRandomClustersNd(domain, 4, 0.03, 0.1, 1.0, rng);
  DatasetNd data = MakeGaussianMixtureNd(domain, 20000, clusters, 0.2, rng);
  AdaptiveGridNdOptions opts;
  opts.level1_size = 3;
  AdaptiveGridNd ag(data, 1.0, rng, opts);
  // Reference: enumerate all leaf cells with fractional overlap.
  for (int i = 0; i < 20; ++i) {
    std::vector<double> lo(3);
    std::vector<double> hi(3);
    for (size_t a = 0; a < 3; ++a) {
      lo[a] = rng.Uniform(0, 6);
      hi[a] = lo[a] + rng.Uniform(1, 4);
    }
    BoxNd q(lo, hi);
    // Manual: every level-1 cell contributes its leaves' fractional sums.
    double manual = 0.0;
    GridNd geometry(domain, {3, 3, 3});
    for (size_t flat = 0; flat < 27; ++flat) {
      BoxNd l1_box = geometry.CellBoxFlat(flat);
      if (l1_box.Intersection(q).IsEmpty()) continue;
      const int m2 = ag.Level2Size(flat);
      GridNd leaf_geo(l1_box, std::vector<size_t>(3,
                                                  static_cast<size_t>(m2)));
      // Rebuild leaf estimates from the synopsis by querying single cells.
      for (size_t lf = 0; lf < leaf_geo.num_cells(); ++lf) {
        BoxNd cell = leaf_geo.CellBoxFlat(lf);
        double frac = cell.OverlapFraction(q);
        if (frac > 0.0) manual += ag.Answer(cell) * frac;
      }
    }
    EXPECT_NEAR(ag.Answer(q), manual, 1e-5 * (1.0 + std::abs(manual)));
  }
}

TEST(HierarchyNdTest, LevelSizesAndName) {
  Rng rng(16);
  BoxNd domain = BoxNd::Cube(3, 0, 1);
  DatasetNd data = MakeUniformDatasetNd(domain, 1000, rng);
  HierarchyNdOptions opts;
  opts.leaf_size = 16;
  opts.branching = 2;
  opts.depth = 3;
  HierarchyNd h(data, 1.0, rng, opts);
  EXPECT_EQ(h.LevelSize(0), 4);
  EXPECT_EQ(h.LevelSize(1), 8);
  EXPECT_EQ(h.LevelSize(2), 16);
  EXPECT_EQ(h.Name(), "H3d-2,3");
}

TEST(HierarchyNdTest, NearExactWithHugeEpsilon) {
  Rng rng(17);
  BoxNd domain = BoxNd::Cube(2, 0, 8);
  DatasetNd data = MakeUniformDatasetNd(domain, 20000, rng);
  HierarchyNdOptions opts;
  opts.leaf_size = 16;
  opts.depth = 3;
  HierarchyNd h(data, 1e8, rng, opts);
  BoxNd q = BoxNd::Cube(2, 0, 4);
  EXPECT_NEAR(h.Answer(q), static_cast<double>(data.CountInBox(q)), 5.0);
}

TEST(HierarchyNdTest, ConsistentTotals) {
  Rng rng(18);
  BoxNd domain = BoxNd::Cube(3, 0, 1);
  DatasetNd data = MakeUniformDatasetNd(domain, 5000, rng);
  HierarchyNdOptions opts;
  opts.leaf_size = 8;
  opts.depth = 2;
  HierarchyNd h(data, 1.0, rng, opts);
  EXPECT_NEAR(h.Answer(domain), h.leaf_counts().Total(), 1e-6);
}

TEST(HierarchyNdDeathTest, IndivisibleLeafAborts) {
  Rng rng(19);
  BoxNd domain = BoxNd::Cube(2, 0, 1);
  DatasetNd data = MakeUniformDatasetNd(domain, 10, rng);
  HierarchyNdOptions opts;
  opts.leaf_size = 9;
  opts.branching = 2;
  opts.depth = 2;
  EXPECT_DEATH(HierarchyNd(data, 1.0, rng, opts), "divisible");
}

// ---------------------------------------------------------------------------
// WorkloadNd
// ---------------------------------------------------------------------------

TEST(WorkloadNdTest, SizesDoublePerStepAllAxes) {
  Rng rng(20);
  BoxNd domain = BoxNd::Cube(3, 0, 100);
  WorkloadNd w = GenerateWorkloadNd(domain, {40, 20, 10}, 4, 25, rng);
  ASSERT_EQ(w.num_sizes(), 4u);
  for (size_t s = 0; s < 4; ++s) {
    const double scale = std::pow(2.0, 3 - static_cast<int>(s));
    for (const BoxNd& q : w.queries[s]) {
      EXPECT_NEAR(q.Extent(0), 40.0 / scale, 1e-9);
      EXPECT_NEAR(q.Extent(1), 20.0 / scale, 1e-9);
      EXPECT_NEAR(q.Extent(2), 10.0 / scale, 1e-9);
      EXPECT_TRUE(domain.ContainsBox(q));
    }
  }
}

TEST(WorkloadNdDeathTest, OversizedQueryAborts) {
  Rng rng(21);
  BoxNd domain = BoxNd::Cube(2, 0, 10);
  EXPECT_DEATH(GenerateWorkloadNd(domain, {11, 5}, 3, 5, rng), "fit");
}

// ---------------------------------------------------------------------------
// End-to-end 3-D sanity: the guideline beats bad sizes in 3-D too.
// ---------------------------------------------------------------------------

TEST(NdIntegrationTest, GuidelineSizeBeatsExtremesIn3D) {
  Rng rng(22);
  BoxNd domain = BoxNd::Cube(3, 0, 100);
  std::vector<ClusterNd> clusters =
      MakeRandomClustersNd(domain, 20, 0.01, 0.06, 1.0, rng);
  DatasetNd data = MakeGaussianMixtureNd(domain, 150000, clusters, 0.1, rng);
  WorkloadNd w = GenerateWorkloadNd(domain, {50, 50, 50}, 4, 40, rng);
  const double eps = 0.5;
  const double rho = 0.001 * 150000;

  auto mean_rel = [&](int grid_size) {
    double err = 0.0;
    int count = 0;
    for (int t = 0; t < 3; ++t) {
      Rng trial(500 + static_cast<uint64_t>(t));
      UniformGridNdOptions opts;
      opts.grid_size = grid_size;
      UniformGridNd ug(data, eps, trial, opts);
      for (const auto& group : w.queries) {
        for (const BoxNd& q : group) {
          double actual = static_cast<double>(data.CountInBox(q));
          err += std::abs(ug.Answer(q) - actual) / std::max(actual, rho);
          ++count;
        }
      }
    }
    return err / count;
  };

  const int suggested = ChooseUniformGridSizeNd(150000, eps, 3);
  double err_suggested = mean_rel(suggested);
  double err_coarse = mean_rel(2);
  double err_fine = mean_rel(suggested * 4);
  EXPECT_LT(err_suggested, err_coarse);
  EXPECT_LT(err_suggested, err_fine);
}

}  // namespace
}  // namespace dpgrid
