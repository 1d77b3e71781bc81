#include "nd/grid_nd.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/cell_index.h"
#include "common/check.h"

namespace dpgrid {

namespace {

// One axis of a fractional range: up to three (begin, end, weight) segments.
struct AxisSegment {
  size_t begin = 0;
  size_t end = 0;
  double weight = 0.0;
};

int DecomposeAxis(double lo, double hi, size_t n, AxisSegment out[3]) {
  lo = std::clamp(lo, 0.0, static_cast<double>(n));
  hi = std::clamp(hi, 0.0, static_cast<double>(n));
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
  out[count++] =
      AxisSegment{first, first + 1, static_cast<double>(first + 1) - lo};
  if (last > first + 1) out[count++] = AxisSegment{first + 1, last, 1.0};
  out[count++] = AxisSegment{last, last + 1, hi - static_cast<double>(last)};
  return count;
}

std::vector<size_t> ComputeStrides(const std::vector<size_t>& sizes,
                                   size_t pad) {
  std::vector<size_t> strides(sizes.size());
  size_t stride = 1;
  for (size_t a = sizes.size(); a-- > 0;) {
    strides[a] = stride;
    stride *= sizes[a] + pad;
  }
  return strides;
}

}  // namespace

// ---------------------------------------------------------------------------
// PrefixSumNd
// ---------------------------------------------------------------------------

PrefixSumNd::PrefixSumNd(const std::vector<double>& values,
                         const std::vector<size_t>& sizes)
    : sizes_(sizes), strides_(ComputeStrides(sizes, 1)) {
  DPGRID_CHECK(!sizes_.empty());
  DPGRID_CHECK_MSG(sizes_.size() <= kMaxDims,
                   "PrefixSumNd supports up to 8 dims");
  size_t cells = 1;
  size_t padded = 1;
  for (size_t n : sizes_) {
    DPGRID_CHECK(n >= 1);
    cells *= n;
    padded *= n + 1;
  }
  DPGRID_CHECK(values.size() == cells);

  prefix_.assign(padded, 0.0);
  // Scatter values into the padded array at index+1 per axis.
  const size_t d = sizes_.size();
  std::vector<size_t> idx(d, 0);
  for (size_t flat = 0; flat < cells; ++flat) {
    size_t pidx = 0;
    for (size_t a = 0; a < d; ++a) pidx += (idx[a] + 1) * strides_[a];
    prefix_[pidx] = values[flat];
    // Odometer increment (last axis fastest, matching row-major layout).
    for (size_t a = d; a-- > 0;) {
      if (++idx[a] < sizes_[a]) break;
      idx[a] = 0;
    }
  }
  // Running sums along each axis in turn turn the array into prefix sums.
  for (size_t a = 0; a < d; ++a) {
    const size_t stride = strides_[a];
    const size_t extent = sizes_[a] + 1;
    // Iterate over all lines along axis a.
    for (size_t base = 0; base < prefix_.size(); ++base) {
      // `base` is a line start iff its coordinate along axis a is 0.
      if ((base / stride) % extent != 0) continue;
      for (size_t i = 1; i < extent; ++i) {
        prefix_[base + i * stride] += prefix_[base + (i - 1) * stride];
      }
    }
  }
}

double PrefixViewNd::BlockSum(const size_t* lo, const size_t* hi) const {
  const size_t d = dims;
  size_t clo[PrefixSumNd::kMaxDims];
  size_t chi[PrefixSumNd::kMaxDims];
  for (size_t a = 0; a < d; ++a) {
    clo[a] = std::min(lo[a], sizes[a]);
    chi[a] = std::min(hi[a], sizes[a]);
    if (chi[a] <= clo[a]) return 0.0;
  }
  // Inclusion-exclusion over the 2^d corners.
  double total = 0.0;
  for (size_t mask = 0; mask < (size_t{1} << d); ++mask) {
    int sign = 1;
    size_t pidx = 0;
    for (size_t a = 0; a < d; ++a) {
      if (mask & (size_t{1} << a)) {
        pidx += clo[a] * strides[a];
        sign = -sign;
      } else {
        pidx += chi[a] * strides[a];
      }
    }
    total += sign * prefix[pidx];
  }
  return total;
}

double PrefixSumNd::BlockSum(const std::vector<size_t>& lo,
                             const std::vector<size_t>& hi) const {
  DPGRID_DCHECK(lo.size() == dims() && hi.size() == dims());
  return View().BlockSum(lo.data(), hi.data());
}

double PrefixSumNd::BlockSum(const size_t* lo, const size_t* hi) const {
  return View().BlockSum(lo, hi);
}

double PrefixSumNd::FractionalSum(const std::vector<double>& lo,
                                  const std::vector<double>& hi) const {
  DPGRID_DCHECK(lo.size() == dims() && hi.size() == dims());
  return View().FractionalSum(lo.data(), hi.data());
}

double PrefixSumNd::FractionalSum(const double* lo, const double* hi) const {
  return View().FractionalSum(lo, hi);
}

double PrefixViewNd::FractionalSum(const double* lo, const double* hi) const {
  const size_t d = dims;
  // Decompose each axis; bail out if any axis is empty. Everything lives in
  // fixed-size stack buffers (d <= kMaxDims) — no allocation per query.
  AxisSegment segments[PrefixSumNd::kMaxDims * 3];
  int seg_count[PrefixSumNd::kMaxDims];
  for (size_t a = 0; a < d; ++a) {
    seg_count[a] = DecomposeAxis(lo[a], hi[a], sizes[a], &segments[a * 3]);
    if (seg_count[a] == 0) return 0.0;
  }
  // Odometer over segment combinations.
  int pick[PrefixSumNd::kMaxDims] = {0};
  size_t blo[PrefixSumNd::kMaxDims];
  size_t bhi[PrefixSumNd::kMaxDims];
  double total = 0.0;
  while (true) {
    double weight = 1.0;
    for (size_t a = 0; a < d; ++a) {
      const AxisSegment& s = segments[a * 3 + static_cast<size_t>(pick[a])];
      weight *= s.weight;
      blo[a] = s.begin;
      bhi[a] = s.end;
    }
    if (weight != 0.0) total += weight * BlockSum(blo, bhi);
    // Odometer increment; when every axis rolls over we are done.
    bool rolled_over = true;
    for (size_t a = d; a-- > 0;) {
      if (++pick[a] < seg_count[a]) {
        rolled_over = false;
        break;
      }
      pick[a] = 0;
    }
    if (rolled_over) return total;
  }
}

double PrefixSumNd::TotalSum() const {
  size_t lo[kMaxDims] = {0};
  return BlockSum(lo, sizes_.data());
}

// ---------------------------------------------------------------------------
// GridNd
// ---------------------------------------------------------------------------

GridNd::GridNd(BoxNd domain, std::vector<size_t> sizes)
    : domain_(std::move(domain)),
      sizes_(std::move(sizes)),
      strides_(ComputeStrides(sizes_, 0)) {
  DPGRID_CHECK(sizes_.size() == domain_.dims());
  DPGRID_CHECK_MSG(!domain_.IsEmpty(), "grid domain must be non-empty");
  size_t cells = 1;
  cell_extent_.resize(sizes_.size());
  inv_cell_extent_.resize(sizes_.size());
  for (size_t a = 0; a < sizes_.size(); ++a) {
    DPGRID_CHECK(sizes_[a] >= 1);
    cells *= sizes_[a];
    cell_extent_[a] = domain_.Extent(a) / static_cast<double>(sizes_[a]);
    inv_cell_extent_[a] = 1.0 / cell_extent_[a];
  }
  DPGRID_CHECK_MSG(cells <= (size_t{1} << 28), "grid too large");
  values_.assign(cells, 0.0);
}

GridNd GridNd::FromRaw(BoxNd domain, std::vector<size_t> sizes,
                       std::vector<double> values) {
  DPGRID_CHECK(sizes.size() == domain.dims());
  DPGRID_CHECK_MSG(!domain.IsEmpty(), "grid domain must be non-empty");
  GridNd grid;
  grid.domain_ = std::move(domain);
  grid.sizes_ = std::move(sizes);
  grid.strides_ = ComputeStrides(grid.sizes_, 0);
  size_t cells = 1;
  grid.cell_extent_.resize(grid.sizes_.size());
  grid.inv_cell_extent_.resize(grid.sizes_.size());
  for (size_t a = 0; a < grid.sizes_.size(); ++a) {
    DPGRID_CHECK(grid.sizes_[a] >= 1);
    cells *= grid.sizes_[a];
    grid.cell_extent_[a] =
        grid.domain_.Extent(a) / static_cast<double>(grid.sizes_[a]);
    grid.inv_cell_extent_[a] = 1.0 / grid.cell_extent_[a];
  }
  DPGRID_CHECK_MSG(cells <= (size_t{1} << 28), "grid too large");
  DPGRID_CHECK(values.size() == cells);
  grid.values_ = std::move(values);
  return grid;
}

GridNd GridNd::FromDataset(const DatasetNd& dataset,
                           std::vector<size_t> sizes) {
  GridNd grid(dataset.domain(), std::move(sizes));
  for (const PointNd& p : dataset.points()) {
    grid.values_[grid.FlatCellOf(p)] += 1.0;
  }
  return grid;
}

size_t GridNd::FlatIndex(const std::vector<size_t>& idx) const {
  DPGRID_DCHECK(idx.size() == dims());
  size_t flat = 0;
  for (size_t a = 0; a < idx.size(); ++a) {
    DPGRID_DCHECK(idx[a] < sizes_[a]);
    flat += idx[a] * strides_[a];
  }
  return flat;
}

size_t GridNd::FlatCellOf(const PointNd& p) const {
  DPGRID_DCHECK(p.size() == dims());
  size_t flat = 0;
  for (size_t a = 0; a < dims(); ++a) {
    flat += ClampedCellIndex((p[a] - domain_.lo(a)) / cell_extent_[a],
                             sizes_[a]) *
            strides_[a];
  }
  return flat;
}

BoxNd GridNd::CellBox(const std::vector<size_t>& idx) const {
  DPGRID_DCHECK(idx.size() == dims());
  std::vector<double> lo(dims());
  std::vector<double> hi(dims());
  for (size_t a = 0; a < dims(); ++a) {
    lo[a] = domain_.lo(a) + cell_extent_[a] * static_cast<double>(idx[a]);
    hi[a] = domain_.lo(a) + cell_extent_[a] * static_cast<double>(idx[a] + 1);
  }
  return BoxNd(std::move(lo), std::move(hi));
}

BoxNd GridNd::CellBoxFlat(size_t flat) const {
  std::vector<size_t> idx(dims());
  for (size_t a = 0; a < dims(); ++a) {
    idx[a] = (flat / strides_[a]) % sizes_[a];
  }
  return CellBox(idx);
}

void GridNd::AddLaplaceNoise(double epsilon, Rng& rng) {
  DPGRID_CHECK(epsilon > 0.0);
  const double scale = 1.0 / epsilon;
  for (double& v : values_) v += rng.Laplace(scale);
}

void GridNd::ToCellCoords(const BoxNd& query, std::vector<double>* lo,
                          std::vector<double>* hi) const {
  lo->resize(dims());
  hi->resize(dims());
  for (size_t a = 0; a < dims(); ++a) {
    (*lo)[a] = (query.lo(a) - domain_.lo(a)) / cell_extent_[a];
    (*hi)[a] = (query.hi(a) - domain_.lo(a)) / cell_extent_[a];
  }
}

void GridNd::ToCellCoords(const BoxNd& query, double* lo, double* hi) const {
  const size_t d = dims();
  for (size_t a = 0; a < d; ++a) {
    lo[a] = (query.lo(a) - domain_.lo(a)) * inv_cell_extent_[a];
    hi[a] = (query.hi(a) - domain_.lo(a)) * inv_cell_extent_[a];
  }
}

double GridNd::Total() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

void AnswerBatchLeafGridNd(const GridNd& grid, const PrefixSumNd& prefix,
                           std::span<const BoxNd> queries,
                           std::span<double> out) {
  DPGRID_CHECK(queries.size() == out.size());
  double lo[PrefixSumNd::kMaxDims];
  double hi[PrefixSumNd::kMaxDims];
  const BoxNd* q = queries.data();
  double* o = out.data();
  for (size_t i = 0, n = queries.size(); i < n; ++i) {
    grid.ToCellCoords(q[i], lo, hi);
    o[i] = prefix.FractionalSum(lo, hi);
  }
}

}  // namespace dpgrid
