#include "index/prefix_sum2d.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace dpgrid {

namespace {

// One axis of a fractional range decomposes into at most three segments of
// cells sharing a weight: a partial first cell, a run of fully-covered
// interior cells (weight 1), and a partial last cell.
struct AxisSegment {
  size_t begin = 0;  // first cell index (inclusive)
  size_t end = 0;    // one past last cell index
  double weight = 0.0;
};

// Decomposes the continuous range [lo, hi] (cell units, already clamped to
// [0, n]) into weighted cell segments.
int DecomposeAxis(double lo, double hi, size_t n, AxisSegment out[3]) {
  if (hi <= lo) return 0;
  size_t first = static_cast<size_t>(std::floor(lo));
  if (first >= n) first = n - 1;
  size_t last = static_cast<size_t>(std::ceil(hi)) - 1;
  if (last >= n) last = n - 1;
  if (first == last) {
    out[0] = AxisSegment{first, first + 1, hi - lo};
    return 1;
  }
  int count = 0;
  double first_frac = (static_cast<double>(first) + 1.0) - lo;
  double last_frac = hi - static_cast<double>(last);
  out[count++] = AxisSegment{first, first + 1, first_frac};
  if (last > first + 1) {
    out[count++] = AxisSegment{first + 1, last, 1.0};
  }
  out[count++] = AxisSegment{last, last + 1, last_frac};
  return count;
}

}  // namespace

PrefixSum2D::PrefixSum2D(const std::vector<double>& values, size_t nx,
                         size_t ny)
    : nx_(nx), ny_(ny), prefix_((nx + 1) * (ny + 1), 0.0) {
  DPGRID_CHECK(nx > 0 && ny > 0);
  DPGRID_CHECK(values.size() == nx * ny);
  const size_t stride = nx + 1;
  for (size_t iy = 0; iy < ny; ++iy) {
    double row_sum = 0.0;
    for (size_t ix = 0; ix < nx; ++ix) {
      row_sum += values[iy * nx + ix];
      prefix_[(iy + 1) * stride + (ix + 1)] =
          prefix_[iy * stride + (ix + 1)] + row_sum;
    }
  }
}

double PrefixSum2D::BlockSum(size_t ix0, size_t ix1, size_t iy0,
                             size_t iy1) const {
  ix0 = std::min(ix0, nx_);
  ix1 = std::min(ix1, nx_);
  iy0 = std::min(iy0, ny_);
  iy1 = std::min(iy1, ny_);
  if (ix1 <= ix0 || iy1 <= iy0) return 0.0;
  const size_t stride = nx_ + 1;
  return prefix_[iy1 * stride + ix1] - prefix_[iy0 * stride + ix1] -
         prefix_[iy1 * stride + ix0] + prefix_[iy0 * stride + ix0];
}

double PrefixSum2D::FractionalSum(double x0, double x1, double y0,
                                  double y1) const {
  x0 = std::clamp(x0, 0.0, static_cast<double>(nx_));
  x1 = std::clamp(x1, 0.0, static_cast<double>(nx_));
  y0 = std::clamp(y0, 0.0, static_cast<double>(ny_));
  y1 = std::clamp(y1, 0.0, static_cast<double>(ny_));
  AxisSegment xs[3];
  AxisSegment ys[3];
  int nxseg = DecomposeAxis(x0, x1, nx_, xs);
  int nyseg = DecomposeAxis(y0, y1, ny_, ys);
  double total = 0.0;
  for (int i = 0; i < nxseg; ++i) {
    for (int j = 0; j < nyseg; ++j) {
      double w = xs[i].weight * ys[j].weight;
      if (w == 0.0) continue;
      total += w * BlockSum(xs[i].begin, xs[i].end, ys[j].begin, ys[j].end);
    }
  }
  return total;
}

double PrefixSum2D::TotalSum() const { return BlockSum(0, nx_, 0, ny_); }

}  // namespace dpgrid
