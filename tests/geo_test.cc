#include <cstdio>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "geo/dataset.h"
#include "geo/point.h"
#include "geo/rect.h"

namespace dpgrid {
namespace {

TEST(RectTest, AreaAndExtents) {
  Rect r{1.0, 2.0, 4.0, 6.0};
  EXPECT_DOUBLE_EQ(r.Width(), 3.0);
  EXPECT_DOUBLE_EQ(r.Height(), 4.0);
  EXPECT_DOUBLE_EQ(r.Area(), 12.0);
  EXPECT_FALSE(r.IsEmpty());
}

TEST(RectTest, EmptyRects) {
  EXPECT_TRUE((Rect{0, 0, 0, 1}).IsEmpty());
  EXPECT_TRUE((Rect{0, 0, 1, 0}).IsEmpty());
  EXPECT_TRUE((Rect{2, 0, 1, 1}).IsEmpty());
  EXPECT_DOUBLE_EQ((Rect{2, 0, 1, 1}).Area(), 0.0);
}

TEST(RectTest, ContainsPointHalfOpen) {
  Rect r{0.0, 0.0, 1.0, 1.0};
  EXPECT_TRUE(r.ContainsPoint(Point2{0.0, 0.0}));    // closed at low edge
  EXPECT_TRUE(r.ContainsPoint(Point2{0.5, 0.999}));
  EXPECT_FALSE(r.ContainsPoint(Point2{1.0, 0.5}));   // open at high edge
  EXPECT_FALSE(r.ContainsPoint(Point2{0.5, 1.0}));
  EXPECT_FALSE(r.ContainsPoint(Point2{-0.1, 0.5}));
}

TEST(RectTest, ContainsRect) {
  Rect outer{0, 0, 10, 10};
  EXPECT_TRUE(outer.ContainsRect(Rect{1, 1, 9, 9}));
  EXPECT_TRUE(outer.ContainsRect(Rect{0, 0, 10, 10}));  // shared edges
  EXPECT_FALSE(outer.ContainsRect(Rect{-1, 0, 5, 5}));
  EXPECT_TRUE(outer.ContainsRect(Rect{5, 5, 5, 5}));    // empty contained
}

TEST(RectTest, IntersectionCommutative) {
  Rect a{0, 0, 5, 5};
  Rect b{3, 2, 8, 9};
  EXPECT_EQ(a.Intersection(b), b.Intersection(a));
  EXPECT_EQ(a.Intersection(b), (Rect{3, 2, 5, 5}));
}

TEST(RectTest, IntersectionAreaBounds) {
  Rng rng(123);
  for (int i = 0; i < 200; ++i) {
    Rect a{rng.Uniform(0, 5), rng.Uniform(0, 5), rng.Uniform(5, 10),
           rng.Uniform(5, 10)};
    Rect b{rng.Uniform(0, 5), rng.Uniform(0, 5), rng.Uniform(5, 10),
           rng.Uniform(5, 10)};
    double ia = a.IntersectionArea(b);
    EXPECT_GE(ia, 0.0);
    EXPECT_LE(ia, a.Area() + 1e-12);
    EXPECT_LE(ia, b.Area() + 1e-12);
    EXPECT_DOUBLE_EQ(ia, b.IntersectionArea(a));
  }
}

TEST(RectTest, SelfIntersectionIsSelf) {
  Rect a{1, 2, 3, 4};
  EXPECT_EQ(a.Intersection(a), a);
  EXPECT_DOUBLE_EQ(a.OverlapFraction(a), 1.0);
}

TEST(RectTest, DisjointIntersectionEmpty) {
  Rect a{0, 0, 1, 1};
  Rect b{2, 2, 3, 3};
  EXPECT_FALSE(a.Intersects(b));
  EXPECT_DOUBLE_EQ(a.IntersectionArea(b), 0.0);
  EXPECT_DOUBLE_EQ(a.OverlapFraction(b), 0.0);
}

TEST(RectTest, TouchingEdgesDoNotIntersect) {
  Rect a{0, 0, 1, 1};
  Rect b{1, 0, 2, 1};
  EXPECT_FALSE(a.Intersects(b));
}

TEST(RectTest, OverlapFractionHalf) {
  Rect cell{0, 0, 2, 2};
  Rect query{1, 0, 5, 5};
  EXPECT_DOUBLE_EQ(cell.OverlapFraction(query), 0.5);
}

TEST(RectTest, FromCenter) {
  Rect r = RectFromCenter(5.0, 3.0, 4.0, 2.0);
  EXPECT_EQ(r, (Rect{3.0, 2.0, 7.0, 4.0}));
}

TEST(RectTest, ToStringSmoke) {
  Rect r{0, 1, 2, 3};
  EXPECT_EQ(r.ToString(), "[0,2)x[1,3)");
}

TEST(DatasetTest, SizeAndDomain) {
  Rect domain{0, 0, 10, 10};
  std::vector<Point2> pts = {{1, 1}, {2, 3}, {9.5, 9.5}};
  Dataset d(domain, pts);
  EXPECT_EQ(d.size(), 3);
  EXPECT_EQ(d.domain(), domain);
}

TEST(DatasetTest, AcceptsPointsOnClosedBoundary) {
  Rect domain{0, 0, 10, 10};
  Dataset d(domain, {{0, 0}, {10, 10}});
  EXPECT_EQ(d.size(), 2);
}

TEST(DatasetDeathTest, RejectsPointOutsideDomain) {
  Rect domain{0, 0, 10, 10};
  EXPECT_DEATH(Dataset(domain, {{11, 5}}), "outside");
}

TEST(DatasetDeathTest, RejectsEmptyDomain) {
  EXPECT_DEATH(Dataset(Rect{5, 5, 5, 5}), "non-empty");
}

TEST(DatasetTest, BoundingBox) {
  Rect domain{0, 0, 10, 10};
  Dataset d(domain, {{2, 3}, {7, 1}, {4, 8}});
  Rect bb = d.BoundingBox();
  EXPECT_DOUBLE_EQ(bb.xlo, 2.0);
  EXPECT_DOUBLE_EQ(bb.ylo, 1.0);
  EXPECT_DOUBLE_EQ(bb.xhi, 7.0);
  EXPECT_DOUBLE_EQ(bb.yhi, 8.0);
}

TEST(DatasetTest, BoundingBoxEmptyDataset) {
  Dataset d(Rect{0, 0, 1, 1});
  EXPECT_TRUE(d.BoundingBox().IsEmpty());
}

TEST(DatasetTest, CountInRect) {
  Rect domain{0, 0, 10, 10};
  Dataset d(domain, {{1, 1}, {2, 2}, {3, 3}, {8, 8}});
  EXPECT_EQ(d.CountInRect(Rect{0, 0, 5, 5}), 3);
  EXPECT_EQ(d.CountInRect(Rect{0, 0, 10, 10}), 4);
  EXPECT_EQ(d.CountInRect(Rect{4, 4, 6, 6}), 0);
  // Half-open: the point (2,2) is on the open edge of [0,2)x[0,2).
  EXPECT_EQ(d.CountInRect(Rect{0, 0, 2, 2}), 1);
}

TEST(DatasetTest, CsvRoundTrip) {
  Rect domain{0, 0, 100, 100};
  Rng rng(5);
  std::vector<Point2> pts;
  for (int i = 0; i < 500; ++i) {
    pts.push_back(Point2{rng.Uniform(0, 100), rng.Uniform(0, 100)});
  }
  Dataset original(domain, pts);
  const std::string path = testing::TempDir() + "/dpgrid_points.csv";
  ASSERT_TRUE(SaveCsvPoints(path, original));
  Dataset loaded(domain);
  ASSERT_TRUE(LoadCsvPoints(path, domain, &loaded));
  ASSERT_EQ(loaded.size(), original.size());
  for (int64_t i = 0; i < loaded.size(); ++i) {
    EXPECT_NEAR(loaded.points()[static_cast<size_t>(i)].x,
                original.points()[static_cast<size_t>(i)].x, 1e-6);
    EXPECT_NEAR(loaded.points()[static_cast<size_t>(i)].y,
                original.points()[static_cast<size_t>(i)].y, 1e-6);
  }
  std::remove(path.c_str());
}

TEST(DatasetTest, LoadMissingFileFails) {
  Dataset d(Rect{0, 0, 1, 1});
  EXPECT_FALSE(LoadCsvPoints("/nonexistent/path/points.csv",
                             Rect{0, 0, 1, 1}, &d));
}

TEST(DatasetTest, LoadSkipsHeaderLines) {
  const std::string path = testing::TempDir() + "/dpgrid_header.csv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fprintf(f, "x,y\n1.5,2.5\n3.5,4.5\n");
  std::fclose(f);
  Dataset d(Rect{0, 0, 10, 10});
  ASSERT_TRUE(LoadCsvPoints(path, Rect{0, 0, 10, 10}, &d));
  EXPECT_EQ(d.size(), 2);
  std::remove(path.c_str());
}

TEST(DatasetTest, LoadSkipsNonFiniteLines) {
  const std::string path = testing::TempDir() + "/dpgrid_nonfinite.csv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fprintf(f,
               "0.5,0.5\nnan,0.5\n0.5,nan\ninf,0.5\n0.5,-inf\n-inf,inf\n"
               "0.25,0.75\n");
  std::fclose(f);
  Dataset d(Rect{0, 0, 1, 1});
  ASSERT_TRUE(LoadCsvPoints(path, Rect{0, 0, 1, 1}, &d));
  ASSERT_EQ(d.size(), 2);
  EXPECT_EQ(d.points()[0].x, 0.5);
  EXPECT_EQ(d.points()[0].y, 0.5);
  EXPECT_EQ(d.points()[1].x, 0.25);
  EXPECT_EQ(d.points()[1].y, 0.75);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dpgrid
