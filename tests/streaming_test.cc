#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "data/generators.h"
#include "geo/dataset.h"
#include "grid/adaptive_grid.h"
#include "grid/streaming.h"
#include "grid/uniform_grid.h"
#include "nd/grid_nd.h"

namespace dpgrid {
namespace {

// Ingestion of hostile coordinates: out-of-domain points, ±1e300 and
// ±inf must land in the nearest edge cell and NaN in cell 0 — computed
// by clamping in double, never by an undefined float-to-int cast (the
// sanitizer build traps float-cast-overflow) — and the streaming builders
// must skip non-finite points.
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(HostilePointsTest, GridCountsCellOfClampsBeforeTheCast) {
  const GridCounts grid(Rect{0, 0, 10, 10}, 5, 5);
  struct Case {
    Point2 p;
    size_t ix;
    size_t iy;
  };
  const Case cases[] = {
      {{1e300, -1e300}, 4, 0}, {{-1e300, 1e300}, 0, 4},
      {{kInf, -kInf}, 4, 0},   {{-kInf, kInf}, 0, 4},
      {{kNaN, 3.0}, 0, 1},     {{3.0, kNaN}, 1, 0},
      {{12.0, -3.0}, 4, 0},    {{10.0, 10.0}, 4, 4},
      {{0.0, 9.99}, 0, 4},     {{-0.0, 5.0}, 0, 2},
  };
  for (const Case& c : cases) {
    size_t ix = 99;
    size_t iy = 99;
    grid.CellOf(c.p, &ix, &iy);
    EXPECT_EQ(ix, c.ix) << c.p.x << "," << c.p.y;
    EXPECT_EQ(iy, c.iy) << c.p.x << "," << c.p.y;
  }
}

TEST(HostilePointsTest, GridNdFlatCellOfClampsBeforeTheCast) {
  const GridNd grid(BoxNd(std::vector<double>(3, 0.0),
                          std::vector<double>(3, 10.0)),
                    std::vector<size_t>(3, 5));
  EXPECT_EQ(grid.FlatCellOf(PointNd{1e300, -kInf, kNaN}),
            grid.FlatIndex({4, 0, 0}));
  EXPECT_EQ(grid.FlatCellOf(PointNd{-1e300, kInf, 5.0}),
            grid.FlatIndex({0, 4, 2}));
  EXPECT_EQ(grid.FlatCellOf(PointNd{11.0, -1.0, 10.0}),
            grid.FlatIndex({4, 0, 4}));
}

TEST(HostilePointsTest, StreamingBuildersSkipNonFinitePoints) {
  const Rect domain{0, 0, 10, 10};
  const std::vector<Point2> stream = {
      {kNaN, 1.0},   {1.0, kInf}, {-kInf, 2.0}, {kNaN, kNaN},
      {1e300, -1e300}, {-1e300, 1e300}, {5.0, 5.0}};

  Rng rng(7);
  StreamingUniformGridBuilder ug(domain, 1e9, /*grid_size=*/5);
  for (const Point2& p : stream) ug.AddPoint(p);
  EXPECT_EQ(ug.points_rejected(), 4);
  EXPECT_EQ(ug.points_seen(), 3);
  const GridCounts counts = std::move(ug).Finish(rng);
  EXPECT_NEAR(counts.at(4, 0), 1.0, 1e-3);  // (1e300, -1e300)
  EXPECT_NEAR(counts.at(0, 4), 1.0, 1e-3);  // (-1e300, 1e300)
  EXPECT_NEAR(counts.at(2, 2), 1.0, 1e-3);
  EXPECT_NEAR(counts.Total(), 3.0, 1e-3);

  AdaptiveGridOptions opts;
  opts.level1_size = 2;
  StreamingAdaptiveGridBuilder ag(domain, 1e9, opts, 0);
  for (const Point2& p : stream) ag.AddPointPass1(p);
  EXPECT_EQ(ag.points_rejected(), 4);
  ag.FinishLevel1(rng);
  for (const Point2& p : stream) ag.AddPointPass2(p);
  EXPECT_EQ(ag.points_rejected(), 4);
  double total = 0.0;
  for (const SynopsisCell& cell : std::move(ag).Finish(rng)) {
    total += cell.count;
  }
  EXPECT_NEAR(total, 3.0, 1e-3);
}

TEST(StreamingUgTest, MatchesBatchHistogramBeforeNoise) {
  // Feeding points one by one must produce the same exact histogram as the
  // batch path; with (near-)zero noise the answers coincide.
  Rng rng(1);
  Dataset data = MakeUniformDataset(Rect{0, 0, 4, 4}, 5000, rng);
  StreamingUniformGridBuilder builder(data.domain(), 1e9, /*grid_size=*/8);
  for (const Point2& p : data.points()) builder.AddPoint(p);
  EXPECT_EQ(builder.points_seen(), 5000);
  GridCounts streamed = std::move(builder).Finish(rng);

  GridCounts batch = GridCounts::FromDataset(data, 8, 8);
  for (size_t iy = 0; iy < 8; ++iy) {
    for (size_t ix = 0; ix < 8; ++ix) {
      EXPECT_NEAR(streamed.at(ix, iy), batch.at(ix, iy), 1e-3);
    }
  }
}

TEST(StreamingUgTest, GuidelineSizeFromExpectedN) {
  Rng rng(2);
  StreamingUniformGridBuilder builder(Rect{0, 0, 1, 1}, 1.0,
                                      /*grid_size=*/0,
                                      /*expected_n=*/1000000);
  EXPECT_EQ(builder.grid_size(), 316);
}

TEST(StreamingUgDeathTest, NeedsSizeOrN) {
  EXPECT_DEATH(
      StreamingUniformGridBuilder(Rect{0, 0, 1, 1}, 1.0, 0, 0),
      "expected N");
}

TEST(StreamingAgTest, TwoPassMatchesBatchAdaptiveGrid) {
  // The streaming AG and the in-memory AG are the same algorithm; with the
  // same rng seed they must produce identical leaf cells.
  Rng data_rng(3);
  Dataset data = MakeCheckinLike(30000, data_rng);
  AdaptiveGridOptions opts;
  opts.level1_size = 6;

  Rng rng_batch(42);
  AdaptiveGrid batch(data, 1.0, rng_batch, opts);

  Rng rng_stream(42);
  StreamingAdaptiveGridBuilder builder(data.domain(), 1.0, opts,
                                       data.size());
  for (const Point2& p : data.points()) builder.AddPointPass1(p);
  builder.FinishLevel1(rng_stream);
  for (const Point2& p : data.points()) builder.AddPointPass2(p);
  auto streamed_cells = std::move(builder).Finish(rng_stream);

  auto batch_cells = batch.ExportCells();
  ASSERT_EQ(streamed_cells.size(), batch_cells.size());
  for (size_t i = 0; i < streamed_cells.size(); ++i) {
    EXPECT_NEAR(streamed_cells[i].count, batch_cells[i].count, 1e-9);
    EXPECT_EQ(streamed_cells[i].region, batch_cells[i].region);
  }
}

TEST(StreamingAgDeathTest, PassOrderEnforced) {
  AdaptiveGridOptions opts;
  opts.level1_size = 4;
  Rng rng(4);
  {
    StreamingAdaptiveGridBuilder builder(Rect{0, 0, 1, 1}, 1.0, opts, 100);
    EXPECT_DEATH(builder.AddPointPass2(Point2{0.5, 0.5}), "FinishLevel1");
  }
  {
    StreamingAdaptiveGridBuilder builder(Rect{0, 0, 1, 1}, 1.0, opts, 100);
    builder.FinishLevel1(rng);
    EXPECT_DEATH(builder.AddPointPass1(Point2{0.5, 0.5}), "pass 1");
    EXPECT_DEATH(builder.FinishLevel1(rng), "pass 1");
  }
}

class CsvScanTest : public testing::Test {
 protected:
  void SetUp() override {
    // ctest runs each test as its own process in parallel; the scratch file
    // must be unique per test to avoid cross-process collisions.
    path_ = testing::TempDir() + "/dpgrid_stream_points_" +
            testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".csv";
    Rng rng(5);
    data_ = std::make_unique<Dataset>(MakeLandmarkLike(20000, rng));
    ASSERT_TRUE(SaveCsvPoints(path_, *data_));
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
  std::unique_ptr<Dataset> data_;
};

TEST_F(CsvScanTest, UgFromCsvAnswersLikeInMemory) {
  // Note: the CSV builder derives the grid size from (N, eps) via
  // Guideline 1, so epsilon must stay realistic here.
  Rng rng(6);
  auto synopsis = BuildUniformGridFromCsv(path_, data_->domain(), 1.0, rng);
  ASSERT_NE(synopsis, nullptr);
  Rect q{-110, 30, -90, 45};
  const double truth = static_cast<double>(data_->CountInRect(q));
  EXPECT_NEAR(synopsis->Answer(q), truth, truth * 0.2 + 500.0);
}

TEST_F(CsvScanTest, AgFromCsvAnswersSanely) {
  Rng rng(7);
  auto synopsis =
      BuildAdaptiveGridFromCsv(path_, data_->domain(), 1.0, rng);
  ASSERT_NE(synopsis, nullptr);
  EXPECT_NEAR(synopsis->Answer(data_->domain()), 20000.0, 2500.0);
  EXPECT_GT(synopsis->ExportCells().size(), 100u);
}

TEST_F(CsvScanTest, MissingFileReturnsNull) {
  Rng rng(8);
  EXPECT_EQ(BuildUniformGridFromCsv("/nonexistent/points.csv",
                                    Rect{0, 0, 1, 1}, 1.0, rng),
            nullptr);
  EXPECT_EQ(BuildAdaptiveGridFromCsv("/nonexistent/points.csv",
                                     Rect{0, 0, 1, 1}, 1.0, rng),
            nullptr);
}

TEST_F(CsvScanTest, NHintSkipsCountingPass) {
  Rng rng(9);
  auto with_hint = BuildUniformGridFromCsv(path_, data_->domain(), 1.0, rng,
                                           /*n_hint=*/20000);
  ASSERT_NE(with_hint, nullptr);
  // Name encodes the Guideline-1 size from the hint.
  EXPECT_EQ(with_hint->Name(), "U45-csv");  // sqrt(20000/10) ~ 44.7
}

}  // namespace
}  // namespace dpgrid
