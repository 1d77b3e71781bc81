#include "nd/leaf_index_nd.h"

#include <cstdint>
#include <limits>

#include "common/check.h"
#include "index/frac_kernel.h"

namespace dpgrid {

void FlatLeafIndexNd::Reserve(size_t cells, size_t corner_doubles,
                              size_t dims) {
  DPGRID_CHECK(dims >= 1 && dims <= kMaxDims);
  dims_ = dims;
  offsets_.reserve(cells);
  sizes_.reserve(cells * kMaxDims);
  strides_.reserve(cells * kMaxDims);
  origin_.reserve(cells * kMaxDims);
  inv_extent_.reserve(cells * kMaxDims);
  sizes_f_.reserve(cells * kMaxDims);
  sizes32_.reserve(cells * kMaxDims);
  strides32_.reserve(cells * kMaxDims);
  offsets32_.reserve(cells);
  unit_total_.reserve(cells);
  unit_.reserve(cells);
  arena_.reserve(corner_doubles);
}

void FlatLeafIndexNd::Add(const GridNd& counts,
                          std::span<const double> corners) {
  const size_t d = counts.dims();
  DPGRID_CHECK(d == dims_);
  size_t padded = 1;
  for (size_t n : counts.sizes()) padded *= n + 1;
  DPGRID_CHECK(corners.size() == padded);
  // The batch kernels compute corner indices in 32-bit lanes; an arena
  // this size would be a multi-gigabyte synopsis, far past every build
  // guideline, so treat it as a construction error rather than silently
  // serving a slower path.
  DPGRID_CHECK_MSG(
      arena_.size() + corners.size() <=
          static_cast<size_t>(std::numeric_limits<int32_t>::max()),
      "flat leaf arena exceeds 32-bit indexing");
  offsets_.push_back(arena_.size());
  offsets32_.push_back(static_cast<int32_t>(arena_.size()));
  arena_.insert(arena_.end(), corners.begin(), corners.end());
  const size_t row = sizes_.size();
  sizes_.resize(row + kMaxDims, 0);
  strides_.resize(row + kMaxDims, 0);
  origin_.resize(row + kMaxDims, 0.0);
  inv_extent_.resize(row + kMaxDims, 0.0);
  sizes_f_.resize(row + kMaxDims, 0.0);
  sizes32_.resize(row + kMaxDims, 0);
  strides32_.resize(row + kMaxDims, 0);
  // Strides of the padded (n_a + 1)-shaped corner array, last axis
  // contiguous — the same layout PrefixSumNd computes for itself.
  size_t stride = 1;
  for (size_t a = d; a-- > 0;) {
    strides_[row + a] = stride;
    stride *= counts.sizes()[a] + 1;
  }
  bool unit = true;
  for (size_t a = 0; a < d; ++a) {
    const size_t n = counts.sizes()[a];
    sizes_[row + a] = n;
    sizes_f_[row + a] = static_cast<double>(n);
    sizes32_[row + a] = static_cast<int32_t>(n);
    strides32_[row + a] = static_cast<int32_t>(strides_[row + a]);
    origin_[row + a] = counts.domain().lo(a);
    inv_extent_[row + a] = counts.inv_cell_extents()[a];
    if (n != 1) unit = false;
  }
  unit_.push_back(unit ? 1 : 0);
  // Whole-leaf block sum via the same scalar inclusion-exclusion the
  // query path runs — the 1^d kernel treats it as a register constant,
  // and precomputing it with identical arithmetic keeps that path
  // bitwise-equal to a query-time BlockSum.
  const size_t cell = offsets_.size() - 1;
  size_t zeros[kMaxDims] = {0};
  unit_total_.push_back(View(cell).BlockSum(zeros, sizes_.data() + row));
}

namespace leaf_nd_internal {

#ifdef DPGRID_FRAC_KERNEL_X86

static_assert(FlatLeafIndexNd::kMaxDims == 8,
              "kernel gathers index geometry rows as cell << 3");

#define DPGRID_FRAC_TARGET "arch=x86-64-v4"
#define DPGRID_FRAC_SUFFIX V4
#include "index/leaf_kernel_nd_x86.inc"
#undef DPGRID_FRAC_TARGET
#undef DPGRID_FRAC_SUFFIX

#define DPGRID_FRAC_TARGET "avx2,fma"
#define DPGRID_FRAC_SUFFIX Avx2
#include "index/leaf_kernel_nd_x86.inc"
#undef DPGRID_FRAC_TARGET
#undef DPGRID_FRAC_SUFFIX

#endif  // DPGRID_FRAC_KERNEL_X86

namespace {

/// Same-cell runs at least this long get the hoisted-view kernel; shorter
/// runs batch up for the lane-mixed pair kernels.
constexpr size_t kViewRunMinNd = 6;

}  // namespace

}  // namespace leaf_nd_internal

void AccumulateCellPairsNd(const FlatLeafIndexNd& index, const double* qlo,
                           const double* qhi, size_t qstride,
                           const CellPair* pairs, size_t n,
                           const uint32_t* bucket_hist, double* out) {
  if (n == 0) return;
  pair_sort::PairScratch& s = pair_sort::GetPairScratch();

  // Group by cell (stable): leaf corner accesses become ascending arena
  // sweeps and repeat-cell runs stay hot in L1.
  const CellPair* sp = pair_sort::SortPairsByCell(
      pairs, n, index.num_cells(), bucket_hist, &s);
  s.contrib.resize(n);
  double* contrib = s.contrib.data();

  const NdKernelIndex ki = index.KernelIndex();
  const size_t d = ki.dims;

  // The scalar per-pair path: the exact ToCellCoords arithmetic on the
  // SoA query copy, then the shared FractionalSum — what the scalar
  // AdaptiveGridNd::Answer runs per border cell.
  auto answer_one = [&](const CellPair& p) -> double {
    const size_t row = size_t{p.cell} * FlatLeafIndexNd::kMaxDims;
    double lo[FlatLeafIndexNd::kMaxDims];
    double hi[FlatLeafIndexNd::kMaxDims];
    for (size_t a = 0; a < d; ++a) {
      lo[a] = (qlo[a * qstride + p.query] - ki.origin[row + a]) *
              ki.inv_extent[row + a];
      hi[a] = (qhi[a * qstride + p.query] - ki.origin[row + a]) *
              ki.inv_extent[row + a];
    }
    return index.View(p.cell).FractionalSum(lo, hi);
  };

#ifdef DPGRID_FRAC_KERNEL_X86
  const int tier = frac_internal::CpuTier();
  if (tier >= 1) {
    // Short runs batch up into two compact pending lists — one per
    // kernel class — and flush through lane-mixed kernels. Contribution
    // slots are absolute (sorted positions), so flush timing is free of
    // ordering constraints.
    auto flush_pending = [&](int which) {
      std::vector<CellPair>& list = s.pending[which];
      std::vector<uint32_t>& pos = s.pending_pos[which];
      const size_t len = list.size();
      if (len == 0) return;
      s.pending_contrib.resize(len);
      double* ptmp = s.pending_contrib.data();
      const size_t vec = len & ~size_t{3};
      if (vec > 0) {
        if (which == 1) {
          if (tier == 2) {
            leaf_nd_internal::AnswerPairs1x1NdV4(ki, qlo, qhi, qstride,
                                                 list.data(), vec, ptmp);
          } else {
            leaf_nd_internal::AnswerPairs1x1NdAvx2(ki, qlo, qhi, qstride,
                                                   list.data(), vec, ptmp);
          }
        } else if (tier == 2) {
          leaf_nd_internal::AnswerCellPairsNdV4(ki, qlo, qhi, qstride,
                                                list.data(), vec, ptmp);
        } else {
          leaf_nd_internal::AnswerCellPairsNdAvx2(ki, qlo, qhi, qstride,
                                                  list.data(), vec, ptmp);
        }
      }
      for (size_t k = vec; k < len; ++k) ptmp[k] = answer_one(list[k]);
      for (size_t k = 0; k < len; ++k) contrib[pos[k]] = ptmp[k];
      list.clear();
      pos.clear();
    };
    size_t i = 0;
    while (i < n) {
      size_t j = i + 1;
      const uint32_t cell = sp[i].cell;
      while (j < n && sp[j].cell == cell) ++j;
      // 1^d leaves have a near-free kernel setup (one precomputed total,
      // no corner gathers), so even short runs of them beat the
      // lane-mixed paths.
      const bool is_unit = index.IsUnitLeaf(cell);
      const size_t run_min = is_unit ? 4 : leaf_nd_internal::kViewRunMinNd;
      if (j - i >= run_min) {
        const size_t vec = (j - i) & ~size_t{3};
        if (is_unit) {
          if (tier == 2) {
            leaf_nd_internal::AnswerViewPairs1x1NdV4(
                ki, cell, qlo, qhi, qstride, sp + i, vec, contrib + i);
          } else {
            leaf_nd_internal::AnswerViewPairs1x1NdAvx2(
                ki, cell, qlo, qhi, qstride, sp + i, vec, contrib + i);
          }
        } else if (tier == 2) {
          leaf_nd_internal::AnswerViewPairsNdV4(ki, cell, qlo, qhi, qstride,
                                                sp + i, vec, contrib + i);
        } else {
          leaf_nd_internal::AnswerViewPairsNdAvx2(ki, cell, qlo, qhi,
                                                  qstride, sp + i, vec,
                                                  contrib + i);
        }
        // The run's sub-4 tail rides the lane-mixed pending kernels too
        // (a scalar fallback per tail pair costs more than a lane).
        for (size_t k = i + vec; k < j; ++k) {
          const int which = is_unit ? 1 : 0;
          s.pending[which].push_back(sp[k]);
          s.pending_pos[which].push_back(static_cast<uint32_t>(k));
        }
      } else {
        const int which = is_unit ? 1 : 0;
        for (size_t k = i; k < j; ++k) {
          s.pending[which].push_back(sp[k]);
          s.pending_pos[which].push_back(static_cast<uint32_t>(k));
        }
      }
      i = j;
    }
    flush_pending(0);
    flush_pending(1);
  } else {
    for (size_t j = 0; j < n; ++j) contrib[j] = answer_one(sp[j]);
  }
#else
  for (size_t j = 0; j < n; ++j) contrib[j] = answer_one(sp[j]);
#endif

  // Accumulate in sorted order. Per query this adds contributions in
  // ascending-cell order — identical to the scalar border walk, because
  // emission was cell-ascending per query and the sort is stable.
  for (size_t j = 0; j < n; ++j) {
    out[sp[j].query] += contrib[j];
  }
}

}  // namespace dpgrid
