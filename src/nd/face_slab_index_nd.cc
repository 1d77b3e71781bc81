#include "nd/face_slab_index_nd.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.h"

namespace dpgrid {

namespace {

constexpr size_t kMaxEntries =
    FaceSlabIndexNd::kMaxClasses * (FaceSlabIndexNd::kMaxClasses + 1) / 2;

/// Entry of (class n, t) among a corner's K(K+1)/2 entries, t = 1..n.
size_t Entry(size_t n, size_t t) { return n * (n - 1) / 2 + (t - 1); }

size_t TableDoubles(size_t dims, size_t m1, size_t classes) {
  size_t corners = 1;
  for (size_t j = 0; j + 1 < dims; ++j) corners *= m1 + 1;
  return dims * m1 * corners * (classes * (classes + 1) / 2);
}

}  // namespace

int FaceSlabIndexNd::ChooseClasses(size_t dims, int m1, int max_leaf_size,
                                   size_t arena_doubles) {
  int k = std::min(kMaxClasses, max_leaf_size);
  while (k > 0 && TableDoubles(dims, static_cast<size_t>(m1),
                               static_cast<size_t>(k)) > 2 * arena_doubles) {
    --k;
  }
  return std::max(k, 0);
}

void FaceSlabIndexNd::Build(const FlatLeafIndexNd& leaves, int m1,
                            int classes) {
  *this = FaceSlabIndexNd();
  const size_t d = leaves.dims();
  DPGRID_CHECK(m1 >= 1 && classes >= 0 && classes <= kMaxClasses);
  static_assert(PrefixSumNd::kMaxDims <= 8, "axis flags are one byte");
  dims_ = d;
  m1_ = static_cast<size_t>(m1);
  size_t cells = 1;
  for (size_t a = 0; a < d; ++a) cells *= m1_;
  DPGRID_CHECK(leaves.num_cells() == cells);
  flags_.assign(cells, 0);
  if (classes == 0) return;

  const auto k = static_cast<size_t>(classes);
  classes_ = classes;
  entries_ = k * (k + 1) / 2;
  corners_ = 1;
  for (size_t j = 0; j + 1 < d; ++j) corners_ *= m1_ + 1;
  const size_t slabs = d * m1_;
  tables_.assign(slabs * corners_ * entries_, 0.0);
  origin_.assign(slabs * k, 0.0);
  inv_.assign(slabs * k, 0.0);
  present_.assign(slabs, 0);

  // Visits every level-1 cell in row-major order with its multi-index.
  const auto for_each_cell = [&](auto&& fn) {
    size_t idx[PrefixSumNd::kMaxDims] = {0};
    for (size_t c = 0; c < cells; ++c) {
      fn(c, idx);
      for (size_t a = d; a-- > 0;) {
        if (++idx[a] < m1_) break;
        idx[a] = 0;
      }
    }
  };

  // A (slab, class) group is indexed only if all its cells share their
  // leaf origin and extent along the slab axis bit for bit — true of
  // every built grid, checked because restored leaf geometry is decoded.
  std::vector<uint8_t> state(slabs * k, 0);  // 0 empty, 1 shared, 2 mixed
  for_each_cell([&](size_t c, const size_t* idx) {
    const PrefixViewNd view = leaves.View(c);
    for (size_t a = 0; a < d; ++a) {
      const size_t n = view.sizes[a];
      if (n > k) continue;
      const size_t g = (a * m1_ + idx[a]) * k + (n - 1);
      const double org = leaves.Origin(c, a);
      const double inv = leaves.InvExtent(c, a);
      if (state[g] == 0) {
        state[g] = 1;
        origin_[g] = org;
        inv_[g] = inv;
      } else if (std::bit_cast<uint64_t>(origin_[g]) !=
                     std::bit_cast<uint64_t>(org) ||
                 std::bit_cast<uint64_t>(inv_[g]) !=
                     std::bit_cast<uint64_t>(inv)) {
        state[g] = 2;
      }
    }
  });

  // Scatter each indexed cell's marginal P_c[1..n] into its slab table at
  // padded corner (idx_b + 1) over the other axes b.
  for_each_cell([&](size_t c, const size_t* idx) {
    const PrefixViewNd view = leaves.View(c);
    size_t full = 0;  // corner index of the whole leaf (n_b on every axis)
    for (size_t a = 0; a < d; ++a) full += view.sizes[a] * view.strides[a];
    for (size_t a = 0; a < d; ++a) {
      const size_t n = view.sizes[a];
      if (n > k) continue;
      const size_t slab = a * m1_ + idx[a];
      if (state[slab * k + (n - 1)] != 1) continue;
      flags_[c] |= static_cast<uint8_t>(1u << a);
      present_[slab] |= static_cast<uint8_t>(1u << n);
      size_t corner = 0;
      for (size_t b = 0; b < d; ++b) {
        if (b != a) corner = corner * (m1_ + 1) + idx[b] + 1;
      }
      double* row = tables_.data() + (slab * corners_ + corner) * entries_;
      const size_t base = full - n * view.strides[a];
      for (size_t t = 1; t <= n; ++t) {
        row[Entry(n, t)] = view.prefix[base + t * view.strides[a]];
      }
    }
  });

  // Running sums along each of the d−1 padded axes turn every slab table
  // into prefix sums.
  for (size_t slab = 0; slab < slabs; ++slab) {
    double* table = tables_.data() + slab * corners_ * entries_;
    size_t pstride = corners_;
    for (size_t j = 0; j + 1 < d; ++j) {
      pstride /= m1_ + 1;
      for (size_t corner = 0; corner < corners_; ++corner) {
        if ((corner / pstride) % (m1_ + 1) == 0) continue;
        double* row = table + corner * entries_;
        const double* prev = row - pstride * entries_;
        for (size_t e = 0; e < entries_; ++e) row[e] += prev[e];
      }
    }
  }
}

double FaceSlabIndexNd::AddFaceTerms(const double* qlo, const double* qhi,
                                     const Level1SpanNd& span,
                                     double total) const {
  if (classes_ == 0) return total;
  const size_t d = dims_;
  // Face cells need a whole-cell range on every axis but the cut one, so
  // at most one axis may lack one.
  size_t empty_axes = 0;
  size_t empty_axis = 0;
  for (size_t a = 0; a < d; ++a) {
    if (span.full_hi[a] <= span.full_lo[a]) {
      ++empty_axes;
      empty_axis = a;
    }
  }
  if (empty_axes >= 2) return total;
  for (size_t a = 0; a < d; ++a) {
    if (empty_axes == 1 && a != empty_axis) continue;
    // At most one test holds for a box inside one slab b along a (a cut
    // low side makes full_lo == full_hi == b + 1), so each face slab is
    // visited once; AddFace reads both of its bounds from the box.
    if (span.b_lo[a] < static_cast<int64_t>(span.full_lo[a])) {
      total = AddFace(a, static_cast<size_t>(span.b_lo[a]), qlo, qhi, span,
                      total);
    }
    if (span.b_hi[a] >= static_cast<int64_t>(span.full_hi[a])) {
      total = AddFace(a, static_cast<size_t>(span.b_hi[a]), qlo, qhi, span,
                      total);
    }
  }
  return total;
}

double FaceSlabIndexNd::AddFace(size_t a, size_t s, const double* qlo,
                                const double* qhi, const Level1SpanNd& span,
                                double total) const {
  const size_t slab = a * m1_ + s;
  const uint8_t present = present_[slab];
  if (present == 0) return total;
  const size_t d = dims_;
  const size_t e_count = entries_;

  // Block sums over the covered block of the other axes, for every
  // (class, t) entry at once: inclusion-exclusion over 2^(d−1) corners.
  size_t lo[PrefixSumNd::kMaxDims];
  size_t hi[PrefixSumNd::kMaxDims];
  size_t od = 0;
  for (size_t b = 0; b < d; ++b) {
    if (b == a) continue;
    lo[od] = span.full_lo[b];
    hi[od] = span.full_hi[b];
    ++od;
  }
  const double* table = tables_.data() + slab * corners_ * e_count;
  double block[kMaxEntries] = {0.0};
  for (size_t mask = 0; mask < (size_t{1} << od); ++mask) {
    size_t corner = 0;
    bool negative = false;
    for (size_t j = 0; j < od; ++j) {
      const bool low = (mask >> j) & 1;
      corner = corner * (m1_ + 1) + (low ? lo[j] : hi[j]);
      negative ^= low;
    }
    const double* row = table + corner * e_count;
    if (negative) {
      for (size_t e = 0; e < e_count; ++e) block[e] -= row[e];
    } else {
      for (size_t e = 0; e < e_count; ++e) block[e] += row[e];
    }
  }

  // Per class: P(u_hi) − P(u_lo), P linear between the integer marginals,
  // u the leaf coordinate every cell of the class computes itself.
  const auto k = static_cast<size_t>(classes_);
  for (size_t n = 1; n <= k; ++n) {
    if (((present >> n) & 1) == 0) continue;
    const size_t g = slab * k + (n - 1);
    const double org = origin_[g];
    const double inv = inv_[g];
    const double nf = static_cast<double>(n);
    double u_lo = static_cast<int64_t>(s) == span.b_lo[a]
                      ? (qlo[a] - org) * inv
                      : 0.0;
    double u_hi = static_cast<int64_t>(s) == span.b_hi[a]
                      ? (qhi[a] - org) * inv
                      : nf;
    u_lo = std::clamp(u_lo, 0.0, nf);
    u_hi = std::clamp(u_hi, 0.0, nf);
    if (!(u_hi > u_lo)) continue;
    const double* marginal = block + Entry(n, 1);  // marginal[t - 1] = B(t)
    const auto at = [&](double u) {
      const double fl = std::floor(u);
      const auto t = static_cast<size_t>(fl);
      const double below = t == 0 ? 0.0 : marginal[t - 1];
      if (t >= n) return below;
      return below + (u - fl) * (marginal[t] - below);
    };
    total += at(u_hi) - at(u_lo);
  }
  return total;
}

}  // namespace dpgrid
