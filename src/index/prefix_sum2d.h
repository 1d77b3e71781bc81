#ifndef DPGRID_INDEX_PREFIX_SUM2D_H_
#define DPGRID_INDEX_PREFIX_SUM2D_H_

#include <cstddef>
#include <vector>

namespace dpgrid {

/// 2-D prefix sums over an nx × ny grid of doubles, with support for
/// *fractional* rectangle sums: the query rectangle is given in continuous
/// cell coordinates, and cells partially covered by the query contribute
/// proportionally to the covered fraction of their area.
///
/// This is the query-answering engine shared by every grid-backed synopsis
/// (UG, AG leaf grids, Privelet, hierarchies): it implements the paper's
/// uniformity assumption — a cell partially covered by a query contributes
/// `count × covered_fraction` — in O(1) per query via at most nine
/// block-sum lookups (interior block, four partial edges, four corners).
class PrefixSum2D {
 public:
  /// Builds prefix sums from a row-major grid: values[iy * nx + ix].
  PrefixSum2D(const std::vector<double>& values, size_t nx, size_t ny);

  /// Sum over the integer cell block [ix0, ix1) × [iy0, iy1).
  /// Indices are clamped to the grid.
  double BlockSum(size_t ix0, size_t ix1, size_t iy0, size_t iy1) const;

  /// Fractional-area weighted sum over continuous cell coordinates
  /// [x0, x1] × [y0, y1] (in units of cells, so the full grid is
  /// [0, nx] × [0, ny]). Coordinates are clamped to the grid.
  double FractionalSum(double x0, double x1, double y0, double y1) const;

  /// Sum of every cell.
  double TotalSum() const;

  size_t nx() const { return nx_; }
  size_t ny() const { return ny_; }

  /// Raw (nx+1) × (ny+1) corner array, row-major with stride nx+1 —
  /// prefix()[iy * (nx+1) + ix] = sum over [0,ix) × [0,iy). Borrowed by
  /// FracView2D for the allocation-free batched query kernel.
  const double* data() const { return prefix_.data(); }

  /// The corner array as a vector; what the flat leaf index copies.
  const std::vector<double>& corners() const { return prefix_; }

 private:
  size_t nx_;
  size_t ny_;
  // (nx+1) x (ny+1), prefix_[iy * (nx+1) + ix] = sum over [0,ix) x [0,iy).
  std::vector<double> prefix_;
};

}  // namespace dpgrid

#endif  // DPGRID_INDEX_PREFIX_SUM2D_H_
