#include "geo/dataset.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

#include "common/check.h"

namespace dpgrid {

Dataset::Dataset(Rect domain, std::vector<Point2> points)
    : domain_(domain), points_(std::move(points)) {
  DPGRID_CHECK_MSG(!domain_.IsEmpty(), "dataset domain must be non-empty");
  for (const Point2& p : points_) {
    DPGRID_CHECK_MSG(p.x >= domain_.xlo && p.x <= domain_.xhi &&
                         p.y >= domain_.ylo && p.y <= domain_.yhi,
                     "point outside dataset domain");
  }
}

Dataset::Dataset(Rect domain) : Dataset(domain, {}) {}

Rect Dataset::BoundingBox() const {
  if (points_.empty()) return Rect{};
  double xlo = std::numeric_limits<double>::infinity();
  double ylo = std::numeric_limits<double>::infinity();
  double xhi = -std::numeric_limits<double>::infinity();
  double yhi = -std::numeric_limits<double>::infinity();
  for (const Point2& p : points_) {
    xlo = std::min(xlo, p.x);
    ylo = std::min(ylo, p.y);
    xhi = std::max(xhi, p.x);
    yhi = std::max(yhi, p.y);
  }
  return Rect{xlo, ylo, xhi, yhi};
}

int64_t Dataset::CountInRect(const Rect& query) const {
  int64_t count = 0;
  for (const Point2& p : points_) {
    if (query.ContainsPoint(p)) ++count;
  }
  return count;
}

bool LoadCsvPoints(const std::string& path, const Rect& domain, Dataset* out) {
  DPGRID_CHECK(out != nullptr);
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  std::vector<Point2> points;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    double x = 0.0;
    double y = 0.0;
    if (std::sscanf(line, "%lf,%lf", &x, &y) != 2) continue;  // header/junk
    // nan/inf parse through %lf; clamping cannot place them (NaN passes
    // std::clamp unchanged), so they are skipped like junk.
    if (!std::isfinite(x) || !std::isfinite(y)) continue;
    x = std::clamp(x, domain.xlo, domain.xhi);
    y = std::clamp(y, domain.ylo, domain.yhi);
    points.push_back(Point2{x, y});
  }
  std::fclose(f);
  *out = Dataset(domain, std::move(points));
  return true;
}

bool SaveCsvPoints(const std::string& path, const Dataset& dataset) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Point2& p : dataset.points()) {
    std::fprintf(f, "%.9g,%.9g\n", p.x, p.y);
  }
  std::fclose(f);
  return true;
}

}  // namespace dpgrid
