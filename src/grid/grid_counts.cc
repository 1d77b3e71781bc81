#include "grid/grid_counts.h"

#include <cmath>
#include <numeric>

#include "common/cell_index.h"
#include "common/check.h"

namespace dpgrid {

GridCounts::GridCounts(Rect domain, size_t nx, size_t ny)
    : domain_(domain),
      nx_(nx),
      ny_(ny),
      cell_w_(domain.Width() / static_cast<double>(nx)),
      cell_h_(domain.Height() / static_cast<double>(ny)),
      inv_cell_w_(1.0 / cell_w_),
      inv_cell_h_(1.0 / cell_h_),
      values_(nx * ny, 0.0) {
  DPGRID_CHECK(nx > 0 && ny > 0);
  DPGRID_CHECK_MSG(!domain.IsEmpty(), "grid domain must be non-empty");
}

GridCounts GridCounts::FromRaw(Rect domain, size_t nx, size_t ny,
                               std::vector<double> values) {
  DPGRID_CHECK(nx > 0 && ny > 0);
  DPGRID_CHECK_MSG(!domain.IsEmpty(), "grid domain must be non-empty");
  DPGRID_CHECK(values.size() == nx * ny);
  GridCounts grid;
  grid.domain_ = domain;
  grid.nx_ = nx;
  grid.ny_ = ny;
  grid.cell_w_ = domain.Width() / static_cast<double>(nx);
  grid.cell_h_ = domain.Height() / static_cast<double>(ny);
  grid.inv_cell_w_ = 1.0 / grid.cell_w_;
  grid.inv_cell_h_ = 1.0 / grid.cell_h_;
  grid.values_ = std::move(values);
  return grid;
}

GridCounts GridCounts::FromDataset(const Dataset& dataset, size_t nx,
                                   size_t ny) {
  GridCounts grid(dataset.domain(), nx, ny);
  for (const Point2& p : dataset.points()) {
    size_t ix = 0;
    size_t iy = 0;
    grid.CellOf(p, &ix, &iy);
    grid.add(ix, iy, 1.0);
  }
  return grid;
}

Rect GridCounts::CellRect(size_t ix, size_t iy) const {
  DPGRID_DCHECK(ix < nx_ && iy < ny_);
  Rect r;
  r.xlo = domain_.xlo + cell_w_ * static_cast<double>(ix);
  r.xhi = domain_.xlo + cell_w_ * static_cast<double>(ix + 1);
  r.ylo = domain_.ylo + cell_h_ * static_cast<double>(iy);
  r.yhi = domain_.ylo + cell_h_ * static_cast<double>(iy + 1);
  return r;
}

void GridCounts::CellOf(const Point2& p, size_t* ix, size_t* iy) const {
  *ix = ClampedCellIndex((p.x - domain_.xlo) / cell_w_, nx_);
  *iy = ClampedCellIndex((p.y - domain_.ylo) / cell_h_, ny_);
}

void GridCounts::AddLaplaceNoise(double epsilon, Rng& rng) {
  DPGRID_CHECK(epsilon > 0.0);
  const double scale = 1.0 / epsilon;
  for (double& v : values_) v += rng.Laplace(scale);
}

void GridCounts::AddGeometricNoise(double epsilon, Rng& rng) {
  DPGRID_CHECK(epsilon > 0.0);
  const double alpha = std::exp(-epsilon);
  for (double& v : values_) {
    v += static_cast<double>(rng.TwoSidedGeometric(alpha));
  }
}

void GridCounts::ClampNonNegative() {
  for (double& v : values_) {
    if (v < 0.0) v = 0.0;
  }
}

void GridCounts::ToCellCoords(const Rect& query, double* x0, double* x1,
                              double* y0, double* y1) const {
  *x0 = (query.xlo - domain_.xlo) / cell_w_;
  *x1 = (query.xhi - domain_.xlo) / cell_w_;
  *y0 = (query.ylo - domain_.ylo) / cell_h_;
  *y1 = (query.yhi - domain_.ylo) / cell_h_;
}

double GridCounts::Total() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

}  // namespace dpgrid
