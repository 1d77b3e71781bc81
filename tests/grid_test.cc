#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "data/generators.h"
#include "dp/budget.h"
#include "geo/dataset.h"
#include "grid/adaptive_grid.h"
#include "grid/grid_counts.h"
#include "grid/guidelines.h"
#include "grid/uniform_grid.h"

namespace dpgrid {
namespace {

// ---------------------------------------------------------------------------
// GridCounts
// ---------------------------------------------------------------------------

TEST(GridCountsTest, ExactHistogram) {
  Rect domain{0, 0, 4, 4};
  Dataset data(domain, {{0.5, 0.5}, {1.5, 0.5}, {0.5, 0.5}, {3.9, 3.9}});
  GridCounts g = GridCounts::FromDataset(data, 4, 4);
  EXPECT_DOUBLE_EQ(g.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(g.at(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(g.at(3, 3), 1.0);
  EXPECT_DOUBLE_EQ(g.Total(), 4.0);
}

TEST(GridCountsTest, BoundaryPointsGoToLastCell) {
  Rect domain{0, 0, 2, 2};
  Dataset data(domain, {{2.0, 2.0}, {2.0, 0.0}, {0.0, 2.0}});
  GridCounts g = GridCounts::FromDataset(data, 2, 2);
  EXPECT_DOUBLE_EQ(g.at(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(g.at(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(g.at(0, 1), 1.0);
}

TEST(GridCountsTest, CellRectTiling) {
  GridCounts g(Rect{1, 2, 5, 10}, 4, 8);
  double area_sum = 0.0;
  for (size_t iy = 0; iy < 8; ++iy) {
    for (size_t ix = 0; ix < 4; ++ix) area_sum += g.CellRect(ix, iy).Area();
  }
  EXPECT_NEAR(area_sum, g.domain().Area(), 1e-9);
  EXPECT_EQ(g.CellRect(0, 0).xlo, 1.0);
  EXPECT_EQ(g.CellRect(3, 7).xhi, 5.0);
  EXPECT_EQ(g.CellRect(3, 7).yhi, 10.0);
}

TEST(GridCountsTest, CellOfInverseOfCellRect) {
  GridCounts g(Rect{0, 0, 7, 3}, 7, 3);
  for (size_t iy = 0; iy < 3; ++iy) {
    for (size_t ix = 0; ix < 7; ++ix) {
      Rect r = g.CellRect(ix, iy);
      Point2 center{(r.xlo + r.xhi) / 2, (r.ylo + r.yhi) / 2};
      size_t cx = 0;
      size_t cy = 0;
      g.CellOf(center, &cx, &cy);
      EXPECT_EQ(cx, ix);
      EXPECT_EQ(cy, iy);
    }
  }
}

TEST(GridCountsTest, NoisePreservesTotalInExpectation) {
  Rng rng(1);
  GridCounts g(Rect{0, 0, 1, 1}, 20, 20);
  g.AddLaplaceNoise(1.0, rng);
  // 400 cells, each Lap(1): total stddev = sqrt(400*2) = ~28.
  EXPECT_NEAR(g.Total(), 0.0, 150.0);
  EXPECT_NE(g.at(0, 0), 0.0);
}

TEST(GridCountsTest, ToCellCoords) {
  GridCounts g(Rect{10, 20, 30, 40}, 10, 10);
  double x0 = 0.0;
  double x1 = 0.0;
  double y0 = 0.0;
  double y1 = 0.0;
  g.ToCellCoords(Rect{12, 22, 28, 38}, &x0, &x1, &y0, &y1);
  EXPECT_DOUBLE_EQ(x0, 1.0);
  EXPECT_DOUBLE_EQ(x1, 9.0);
  EXPECT_DOUBLE_EQ(y0, 1.0);
  EXPECT_DOUBLE_EQ(y1, 9.0);
}

// ---------------------------------------------------------------------------
// Guidelines: regression against the paper's Table II and Figures 4-6.
// ---------------------------------------------------------------------------

struct GuidelineCase {
  double n;
  double epsilon;
  int expected_ug;   // "UG sugg." column of Table II
  int expected_m1;   // suggested AG m1 used in Figures 4-6
};

class GuidelineTableTest : public testing::TestWithParam<GuidelineCase> {};

TEST_P(GuidelineTableTest, MatchesPaperValues) {
  const GuidelineCase& c = GetParam();
  EXPECT_EQ(ChooseUniformGridSize(c.n, c.epsilon), c.expected_ug);
  EXPECT_EQ(ChooseAdaptiveLevel1Size(c.n, c.epsilon), c.expected_m1);
}

INSTANTIATE_TEST_SUITE_P(
    PaperTable2, GuidelineTableTest,
    testing::Values(
        GuidelineCase{1600000, 1.0, 400, 100},   // road, eps=1
        GuidelineCase{1600000, 0.1, 126, 32},    // road, eps=0.1
        GuidelineCase{1000000, 1.0, 316, 79},    // checkin, eps=1
        GuidelineCase{1000000, 0.1, 100, 25},    // checkin, eps=0.1
        GuidelineCase{870000, 1.0, 295, 74},     // landmark-sized, eps=1
        GuidelineCase{900000, 1.0, 300, 75},     // landmark (paper ~0.9M)
        GuidelineCase{900000, 0.1, 95, 24},      // landmark, eps=0.1
        GuidelineCase{9000, 1.0, 30, 10},        // storage, eps=1
        GuidelineCase{9000, 0.1, 10, 10}));      // storage, eps=0.1 (floor)

TEST(GuidelinesTest, RealValuedFormula) {
  EXPECT_NEAR(UniformGridSizeReal(1000000, 1.0), 316.23, 0.01);
  EXPECT_NEAR(UniformGridSizeReal(1000000, 0.1), 100.0, 1e-9);
  EXPECT_DOUBLE_EQ(UniformGridSizeReal(0, 1.0), 0.0);
}

TEST(GuidelinesTest, GridSizeGrowsWithNAndEpsilon) {
  EXPECT_LE(ChooseUniformGridSize(1000, 0.1), ChooseUniformGridSize(1e6, 0.1));
  EXPECT_LE(ChooseUniformGridSize(1e6, 0.1), ChooseUniformGridSize(1e6, 1.0));
}

TEST(GuidelinesTest, LargerCMeansCoarserGrid) {
  EXPECT_GT(ChooseUniformGridSize(1e6, 1.0, 5.0),
            ChooseUniformGridSize(1e6, 1.0, 20.0));
}

TEST(GuidelinesTest, MinimumSizeFloor) {
  EXPECT_EQ(ChooseUniformGridSize(10, 0.1), 10);
  EXPECT_EQ(ChooseUniformGridSize(10, 0.1, 10.0, 1), 1);
}

TEST(GuidelinesTest, Level2Formula) {
  // ceil(sqrt(N' * (1-alpha)*eps / c2)) with c2 = 5.
  EXPECT_EQ(ChooseAdaptiveLevel2Size(1000.0, 0.5), 10);   // sqrt(100)
  EXPECT_EQ(ChooseAdaptiveLevel2Size(1010.0, 0.5), 11);   // ceil(10.05)
  EXPECT_EQ(ChooseAdaptiveLevel2Size(0.0, 0.5), 1);
  EXPECT_EQ(ChooseAdaptiveLevel2Size(-50.0, 0.5), 1);
  EXPECT_EQ(ChooseAdaptiveLevel2Size(4.0, 0.5), 1);       // sqrt(0.4) -> 1
}

TEST(GuidelinesTest, Level2GrowsWithDensity) {
  EXPECT_LT(ChooseAdaptiveLevel2Size(100, 0.5),
            ChooseAdaptiveLevel2Size(10000, 0.5));
}

// ---------------------------------------------------------------------------
// UniformGrid
// ---------------------------------------------------------------------------

TEST(UniformGridTest, NearExactWithHugeEpsilon) {
  Rng rng(2);
  Dataset data = MakeUniformDataset(Rect{0, 0, 10, 10}, 20000, rng);
  UniformGridOptions opts;
  opts.grid_size = 10;
  UniformGrid ug(data, /*epsilon=*/1e7, rng, opts);
  // Cell-aligned query: uniformity assumption is exact, only the (tiny)
  // noise remains.
  Rect q{0, 0, 5, 5};
  EXPECT_NEAR(ug.Answer(q), static_cast<double>(data.CountInRect(q)), 1.0);
}

TEST(UniformGridTest, FractionalCellProration) {
  // 2x2 grid of unit cells, one point in each bottom cell; queries covering
  // half of each bottom cell's area should see half the counts.
  Rect domain{0, 0, 2, 2};
  Dataset data(domain, {{0.5, 0.5}, {1.5, 0.5}});
  Rng rng(3);
  UniformGridOptions opts;
  opts.grid_size = 2;
  UniformGrid ug(data, 1e7, rng, opts);
  EXPECT_NEAR(ug.Answer(Rect{0, 0, 2, 0.5}), 1.0, 0.01);
  EXPECT_NEAR(ug.Answer(Rect{0.5, 0, 1.5, 2}), 1.0, 0.01);
}

TEST(UniformGridTest, AutoSizeUsesGuideline) {
  Rng rng(4);
  Dataset data = MakeUniformDataset(Rect{0, 0, 1, 1}, 100000, rng);
  UniformGrid ug(data, 1.0, rng);
  EXPECT_EQ(ug.grid_size(), ChooseUniformGridSize(100000, 1.0));
}

TEST(UniformGridTest, ExplicitSizeRespected) {
  Rng rng(5);
  Dataset data = MakeUniformDataset(Rect{0, 0, 1, 1}, 1000, rng);
  UniformGridOptions opts;
  opts.grid_size = 37;
  UniformGrid ug(data, 1.0, rng, opts);
  EXPECT_EQ(ug.grid_size(), 37);
  EXPECT_EQ(ug.Name(), "U37");
}

TEST(UniformGridTest, ConsumesEntireBudget) {
  Rng rng(6);
  Dataset data = MakeUniformDataset(Rect{0, 0, 1, 1}, 1000, rng);
  PrivacyBudget budget(0.7);
  UniformGrid ug(data, budget, rng);
  EXPECT_NEAR(budget.remaining(), 0.0, 1e-12);
}

TEST(UniformGridTest, NoisyNEstimateSpendsBudgetShare) {
  Rng rng(7);
  Dataset data = MakeUniformDataset(Rect{0, 0, 1, 1}, 50000, rng);
  PrivacyBudget budget(1.0);
  UniformGridOptions opts;
  opts.n_estimate_fraction = 0.02;
  UniformGrid ug(data, budget, rng, opts);
  EXPECT_NEAR(budget.remaining(), 0.0, 1e-12);
  ASSERT_EQ(budget.ledger().size(), 2u);
  EXPECT_EQ(budget.ledger()[0].label, "ug/noisy-n-estimate");
  EXPECT_NEAR(budget.ledger()[0].epsilon, 0.02, 1e-12);
  // Grid size should still be near the true-N guideline.
  EXPECT_NEAR(ug.grid_size(), ChooseUniformGridSize(50000, 0.98), 3);
}

TEST(UniformGridTest, ExportCellsSumsToNoisyTotal) {
  Rng rng(8);
  Dataset data = MakeUniformDataset(Rect{0, 0, 1, 1}, 5000, rng);
  UniformGridOptions opts;
  opts.grid_size = 8;
  UniformGrid ug(data, 1.0, rng, opts);
  auto cells = ug.ExportCells();
  EXPECT_EQ(cells.size(), 64u);
  double total = 0.0;
  double area = 0.0;
  for (const auto& c : cells) {
    total += c.count;
    area += c.region.Area();
  }
  EXPECT_NEAR(total, ug.noisy_counts().Total(), 1e-6);
  EXPECT_NEAR(area, 1.0, 1e-9);
}

TEST(UniformGridTest, NoiseMagnitudeTracksEpsilon) {
  // Empty dataset: every answer is pure noise; mean |noise| per cell should
  // scale like 1/eps.
  Rng rng(9);
  Dataset data(Rect{0, 0, 1, 1});
  UniformGridOptions opts;
  opts.grid_size = 16;
  double mad_low = 0.0;
  double mad_high = 0.0;
  for (int t = 0; t < 5; ++t) {
    UniformGrid low(data, 0.1, rng, opts);
    UniformGrid high(data, 10.0, rng, opts);
    for (const auto& c : low.ExportCells()) mad_low += std::abs(c.count);
    for (const auto& c : high.ExportCells()) mad_high += std::abs(c.count);
  }
  EXPECT_GT(mad_low, 20.0 * mad_high);
}

TEST(GridCountsTest, GeometricNoiseKeepsIntegerCounts) {
  Rng rng(21);
  Rect domain{0, 0, 1, 1};
  Dataset data = MakeUniformDataset(domain, 1000, rng);
  GridCounts g = GridCounts::FromDataset(data, 8, 8);
  g.AddGeometricNoise(0.5, rng);
  for (double v : g.values()) {
    EXPECT_DOUBLE_EQ(v, std::round(v));  // stays integral
  }
}

TEST(GridCountsTest, ClampNonNegative) {
  GridCounts g(Rect{0, 0, 1, 1}, 2, 2);
  g.set(0, 0, -3.0);
  g.set(1, 0, 2.0);
  g.set(0, 1, -0.5);
  g.ClampNonNegative();
  EXPECT_DOUBLE_EQ(g.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(g.at(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(g.at(0, 1), 0.0);
}

TEST(UniformGridTest, GeometricMechanismProducesIntegerCells) {
  Rng rng(22);
  Dataset data = MakeUniformDataset(Rect{0, 0, 1, 1}, 2000, rng);
  UniformGridOptions opts;
  opts.grid_size = 6;
  opts.mechanism = NoiseMechanism::kGeometric;
  UniformGrid ug(data, 1.0, rng, opts);
  for (const auto& cell : ug.ExportCells()) {
    EXPECT_DOUBLE_EQ(cell.count, std::round(cell.count));
  }
  // Accuracy comparable to Laplace: the full-domain total is close to N.
  EXPECT_NEAR(ug.Answer(Rect{0, 0, 1, 1}), 2000.0, 100.0);
}

TEST(UniformGridTest, NonNegativeCellsOption) {
  Rng rng(23);
  Dataset empty(Rect{0, 0, 1, 1});
  UniformGridOptions opts;
  opts.grid_size = 16;
  opts.nonnegative_cells = true;
  UniformGrid ug(empty, 0.5, rng, opts);
  double min_cell = 0.0;
  double total = 0.0;
  for (const auto& cell : ug.ExportCells()) {
    min_cell = std::min(min_cell, cell.count);
    total += cell.count;
  }
  EXPECT_GE(min_cell, 0.0);
  // Clamping an empty dataset's noise biases the total well above zero.
  EXPECT_GT(total, 50.0);
}

TEST(UniformGridTest, GeometricNoiseVarianceTracksLaplace) {
  // At moderate epsilon the two mechanisms should deliver comparable error;
  // compare mean absolute cell noise on an empty dataset.
  Rng rng(24);
  Dataset empty(Rect{0, 0, 1, 1});
  UniformGridOptions lap;
  lap.grid_size = 24;
  UniformGridOptions geo = lap;
  geo.mechanism = NoiseMechanism::kGeometric;
  double lap_mad = 0.0;
  double geo_mad = 0.0;
  for (int t = 0; t < 5; ++t) {
    UniformGrid ug_l(empty, 0.4, rng, lap);
    UniformGrid ug_g(empty, 0.4, rng, geo);
    for (const auto& c : ug_l.ExportCells()) lap_mad += std::abs(c.count);
    for (const auto& c : ug_g.ExportCells()) geo_mad += std::abs(c.count);
  }
  EXPECT_NEAR(geo_mad / lap_mad, 1.0, 0.15);
}

TEST(UniformGridTest, AspectAwareCellsAreSquare) {
  Rng rng(25);
  Dataset data = MakeUniformDataset(Rect{0, 0, 40, 10}, 5000, rng);
  UniformGridOptions opts;
  opts.grid_size = 20;
  opts.aspect_aware = true;
  UniformGrid ug(data, 1.0, rng, opts);
  const GridCounts& g = ug.noisy_counts();
  // 40:10 aspect at m=20 -> 40 x 10 grid of unit squares.
  EXPECT_EQ(g.nx(), 40u);
  EXPECT_EQ(g.ny(), 10u);
  EXPECT_NEAR(g.cell_width(), g.cell_height(), 1e-9);
  // Cell budget preserved.
  EXPECT_NEAR(static_cast<double>(g.nx() * g.ny()), 400.0, 1.0);
}

TEST(UniformGridTest, AspectAwareAnswersRemainAccurate) {
  Rng rng(26);
  Dataset data = MakeUniformDataset(Rect{0, 0, 100, 10}, 50000, rng);
  UniformGridOptions square;
  square.grid_size = 20;
  UniformGridOptions aware = square;
  aware.aspect_aware = true;
  UniformGrid ug_square(data, 1e7, rng, square);
  UniformGrid ug_aware(data, 1e7, rng, aware);
  Rect q{13.7, 2.1, 57.9, 8.4};
  double truth = static_cast<double>(data.CountInRect(q));
  // Uniform data: both near exact; aspect-aware must not be worse by much.
  EXPECT_NEAR(ug_aware.Answer(q), truth, truth * 0.02 + 50.0);
  EXPECT_NEAR(ug_square.Answer(q), truth, truth * 0.02 + 50.0);
}

// ---------------------------------------------------------------------------
// AdaptiveGrid
// ---------------------------------------------------------------------------

TEST(AdaptiveGridTest, ConsumesEntireBudget) {
  Rng rng(10);
  Dataset data = MakeUniformDataset(Rect{0, 0, 1, 1}, 10000, rng);
  PrivacyBudget budget(1.0);
  AdaptiveGrid ag(data, budget, rng);
  EXPECT_NEAR(budget.remaining(), 0.0, 1e-12);
}

TEST(AdaptiveGridTest, BudgetSplitFollowsAlpha) {
  Rng rng(11);
  Dataset data = MakeUniformDataset(Rect{0, 0, 1, 1}, 10000, rng);
  PrivacyBudget budget(2.0);
  AdaptiveGridOptions opts;
  opts.alpha = 0.25;
  AdaptiveGrid ag(data, budget, rng, opts);
  ASSERT_EQ(budget.ledger().size(), 2u);
  EXPECT_NEAR(budget.ledger()[0].epsilon, 0.5, 1e-12);   // level 1
  EXPECT_NEAR(budget.ledger()[1].epsilon, 1.5, 1e-12);   // level 2
}

TEST(AdaptiveGridTest, AutoM1UsesGuideline) {
  Rng rng(12);
  Dataset data = MakeUniformDataset(Rect{0, 0, 1, 1}, 1000000, rng);
  AdaptiveGrid ag(data, 1.0, rng);
  EXPECT_EQ(ag.level1_size(), 79);
  EXPECT_EQ(ag.Name(), "A79,5");
}

TEST(AdaptiveGridTest, ConsistencyAfterInference) {
  // sum(leaves of cell) == level-1 estimate, for every cell.
  Rng rng(13);
  Dataset data = MakeCheckinLike(50000, rng);
  AdaptiveGridOptions opts;
  opts.level1_size = 8;
  AdaptiveGrid ag(data, 0.5, rng, opts);
  std::vector<double> leaf_sum(64, 0.0);
  GridCounts l1_lookup(data.domain(), 8, 8);
  for (const auto& cell : ag.ExportCells()) {
    Point2 center{(cell.region.xlo + cell.region.xhi) / 2,
                  (cell.region.ylo + cell.region.yhi) / 2};
    size_t ix = 0;
    size_t iy = 0;
    l1_lookup.CellOf(center, &ix, &iy);
    leaf_sum[iy * 8 + ix] += cell.count;
  }
  for (size_t iy = 0; iy < 8; ++iy) {
    for (size_t ix = 0; ix < 8; ++ix) {
      EXPECT_NEAR(leaf_sum[iy * 8 + ix], ag.Level1Count(ix, iy), 1e-6);
    }
  }
}

TEST(AdaptiveGridTest, NearExactWithHugeEpsilon) {
  Rng rng(14);
  Dataset data = MakeUniformDataset(Rect{0, 0, 10, 10}, 20000, rng);
  AdaptiveGridOptions opts;
  opts.level1_size = 10;
  opts.max_level2_size = 32;  // keep the huge-epsilon grid small
  AdaptiveGrid ag(data, 1e7, rng, opts);
  Rect q{0, 0, 5, 5};
  EXPECT_NEAR(ag.Answer(q), static_cast<double>(data.CountInRect(q)), 2.0);
  Rect all{0, 0, 10, 10};
  EXPECT_NEAR(ag.Answer(all), 20000.0, 2.0);
}

TEST(AdaptiveGridTest, DenseCellsGetFinerPartitioning) {
  // Left half dense, right half empty: left-cell m2 must exceed right's.
  Rng rng(15);
  std::vector<Point2> pts;
  for (int i = 0; i < 40000; ++i) {
    pts.push_back(Point2{rng.Uniform(0.0, 0.5), rng.Uniform(0.0, 1.0)});
  }
  Dataset data(Rect{0, 0, 1, 1}, std::move(pts));
  AdaptiveGridOptions opts;
  opts.level1_size = 2;
  AdaptiveGrid ag(data, 1.0, rng, opts);
  int dense = std::max(ag.Level2Size(0, 0), ag.Level2Size(0, 1));
  int sparse = std::max(ag.Level2Size(1, 0), ag.Level2Size(1, 1));
  EXPECT_GT(dense, sparse);
  EXPECT_GE(dense, 10);   // ~10000 pts/cell, eps2=0.5 -> m2 = ceil(sqrt(1000))
  EXPECT_LE(sparse, 3);
}

TEST(AdaptiveGridTest, Level2SizeCapRespected) {
  Rng rng(16);
  Dataset data = MakeUniformDataset(Rect{0, 0, 1, 1}, 200000, rng);
  AdaptiveGridOptions opts;
  opts.level1_size = 2;
  opts.max_level2_size = 7;
  AdaptiveGrid ag(data, 10.0, rng, opts);
  for (size_t iy = 0; iy < 2; ++iy) {
    for (size_t ix = 0; ix < 2; ++ix) {
      EXPECT_LE(ag.Level2Size(ix, iy), 7);
    }
  }
}

TEST(AdaptiveGridTest, AnswerMatchesLeafEnumerationOnBorderQueries) {
  // Cross-check the prefix-sum fast path against direct enumeration over
  // exported cells with fractional overlap.
  Rng rng(17);
  Dataset data = MakeLandmarkLike(30000, rng);
  AdaptiveGridOptions opts;
  opts.level1_size = 6;
  AdaptiveGrid ag(data, 1.0, rng, opts);
  auto cells = ag.ExportCells();
  for (int i = 0; i < 50; ++i) {
    double w = rng.Uniform(5, 40);
    double h = rng.Uniform(5, 25);
    double xlo = rng.Uniform(data.domain().xlo, data.domain().xhi - w);
    double ylo = rng.Uniform(data.domain().ylo, data.domain().yhi - h);
    Rect q{xlo, ylo, xlo + w, ylo + h};
    double manual = 0.0;
    for (const auto& cell : cells) {
      manual += cell.count * cell.region.OverlapFraction(q);
    }
    EXPECT_NEAR(ag.Answer(q), manual, 1e-6 * (1.0 + std::abs(manual)));
  }
}

TEST(AdaptiveGridTest, InferenceCanBeDisabled) {
  Rng rng(18);
  Dataset data = MakeUniformDataset(Rect{0, 0, 1, 1}, 10000, rng);
  AdaptiveGridOptions opts;
  opts.level1_size = 4;
  opts.constrained_inference = false;
  AdaptiveGrid ag(data, 1.0, rng, opts);
  // Without inference there is no consistency guarantee; just verify the
  // object answers queries sanely.
  double estimate = ag.Answer(Rect{0, 0, 1, 1});
  EXPECT_NEAR(estimate, 10000.0, 2000.0);
}

TEST(AdaptiveGridTest, TotalLeafCellsCountsAllLeaves) {
  Rng rng(19);
  Dataset data = MakeUniformDataset(Rect{0, 0, 1, 1}, 5000, rng);
  AdaptiveGridOptions opts;
  opts.level1_size = 3;
  AdaptiveGrid ag(data, 1.0, rng, opts);
  int64_t expected = 0;
  for (size_t iy = 0; iy < 3; ++iy) {
    for (size_t ix = 0; ix < 3; ++ix) {
      int64_t m2 = ag.Level2Size(ix, iy);
      expected += m2 * m2;
    }
  }
  EXPECT_EQ(ag.TotalLeafCells(), expected);
  EXPECT_EQ(static_cast<int64_t>(ag.ExportCells().size()), expected);
}

TEST(AdaptiveGridTest, ExportCellsUseGridCountsGeometry) {
  // Exported regions keep GridCounts' cell arithmetic, bit for bit: the
  // leaves of level-1 cell (ix, iy), in row-major level-1 order, are the
  // cells of an m2 x m2 grid over that cell's rectangle.
  Rng rng(21);
  const Rect domain{-3.0, 2.0, 9.0, 5.0};
  Dataset data = MakeUniformDataset(domain, 20000, rng);
  AdaptiveGridOptions opts;
  opts.level1_size = 4;
  AdaptiveGrid ag(data, 1.0, rng, opts);
  const std::vector<SynopsisCell> cells = ag.ExportCells();
  ASSERT_EQ(static_cast<int64_t>(cells.size()), ag.TotalLeafCells());
  const GridCounts level1(domain, 4, 4);
  size_t next = 0;
  for (size_t iy = 0; iy < 4; ++iy) {
    for (size_t ix = 0; ix < 4; ++ix) {
      const auto m2 = static_cast<size_t>(ag.Level2Size(ix, iy));
      const GridCounts leaf(level1.CellRect(ix, iy), m2, m2);
      for (size_t ly = 0; ly < m2; ++ly) {
        for (size_t lx = 0; lx < m2; ++lx) {
          ASSERT_LT(next, cells.size());
          const Rect expected = leaf.CellRect(lx, ly);
          const Rect& got = cells[next++].region;
          EXPECT_EQ(got.xlo, expected.xlo);
          EXPECT_EQ(got.ylo, expected.ylo);
          EXPECT_EQ(got.xhi, expected.xhi);
          EXPECT_EQ(got.yhi, expected.yhi);
        }
      }
    }
  }
  EXPECT_EQ(next, cells.size());
}

TEST(AdaptiveGridDeathTest, InvalidAlphaAborts) {
  Rng rng(20);
  Dataset data = MakeUniformDataset(Rect{0, 0, 1, 1}, 100, rng);
  AdaptiveGridOptions opts;
  opts.alpha = 1.0;
  EXPECT_DEATH(AdaptiveGrid(data, 1.0, rng, opts), "alpha");
}

}  // namespace
}  // namespace dpgrid
