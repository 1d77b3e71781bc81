#ifndef DPGRID_ND_LEAF_INDEX_ND_H_
#define DPGRID_ND_LEAF_INDEX_ND_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "index/pair_sort.h"
#include "nd/box_nd.h"
#include "nd/grid_nd.h"

namespace dpgrid {

/// Raw-pointer view of a FlatLeafIndexNd for the batch kernels: every
/// per-cell field as a gather-friendly SoA array. Axis-indexed arrays are
/// laid out cell * kMaxDims + axis, so a kernel reaches field `axis` of
/// cell c with base pointer `array + axis` and gather index `c << 3`
/// (kMaxDims == 8). Borrowed; must not outlive the index.
struct NdKernelIndex {
  const double* arena = nullptr;       // all corner arrays, concatenated
  const double* origin = nullptr;      // cell * kMaxDims + axis
  const double* inv_extent = nullptr;  // cell * kMaxDims + axis
  const double* sizes_f = nullptr;     // n_a as double (clamp bound)
  const int32_t* sizes32 = nullptr;    // cell * kMaxDims + axis
  const int32_t* strides32 = nullptr;  // cell * kMaxDims + axis
  const int32_t* offsets32 = nullptr;  // per cell: corner-array start
  const double* unit_total = nullptr;  // per cell: whole-leaf BlockSum
  size_t dims = 0;
};

/// The flattened leaf index of an adaptive grid: every leaf grid's
/// prefix-sum corner array in one contiguous arena, and every leaf's
/// geometry (per-axis sizes, strides, origin, reciprocal extents) in
/// fixed-width SoA rows of kMaxDims entries. It is the only copy of the
/// leaf prefix sums an AdaptiveGridNd keeps, filled from prefixes computed
/// out of the leaf counts (by Build and snapshot restore alike).
///
/// Per border cell, the scalar path's work is one row of geometry loads,
/// a coordinate transform identical to GridNd::ToCellCoords, and a
/// PrefixViewNd::FractionalSum over the arena; the batch kernels compute
/// bitwise the same value. Alongside the scalar-view fields it keeps int32
/// mirrors of offsets/sizes/strides (plus sizes as doubles and per-cell
/// whole-leaf totals) so the SIMD pair kernels can gather geometry with
/// 32-bit lane indices.
class FlatLeafIndexNd {
 public:
  static constexpr size_t kMaxDims = PrefixSumNd::kMaxDims;

  FlatLeafIndexNd() = default;

  /// Pre-sizes storage for `cells` leaves totalling `corner_doubles`
  /// corner entries in `dims` dimensions, so Add never reallocates.
  void Reserve(size_t cells, size_t corner_doubles, size_t dims);

  /// Appends one leaf: its counts grid (for the geometry) and its padded
  /// prefix-sum corner array, prod(n_a + 1) entries in PrefixSumNd's
  /// layout. Leaves must be added in row-major level-1 order.
  void Add(const GridNd& counts, std::span<const double> corners);

  size_t num_cells() const { return offsets_.size(); }
  bool built() const { return !offsets_.empty(); }
  size_t dims() const { return dims_; }
  size_t arena_size() const { return arena_.size(); }

  /// Borrowed fractional-sum view of cell `i`; must not outlive this.
  PrefixViewNd View(size_t i) const {
    return PrefixViewNd{arena_.data() + offsets_[i],
                        sizes_.data() + i * kMaxDims,
                        strides_.data() + i * kMaxDims, dims_};
  }

  /// Leaf origin and reciprocal cell extent of cell `i` along `axis` —
  /// the two numbers ToCellCoords uses on that axis.
  double Origin(size_t i, size_t axis) const {
    return origin_[i * kMaxDims + axis];
  }
  double InvExtent(size_t i, size_t axis) const {
    return inv_extent_[i * kMaxDims + axis];
  }

  /// Query box [qlo, qhi] -> cell `i`'s continuous leaf coordinates;
  /// bitwise equal to the leaf GridNd's allocation-free ToCellCoords.
  void ToCellCoords(size_t i, const double* qlo, const double* qhi,
                    double* lo, double* hi) const {
    const double* org = origin_.data() + i * kMaxDims;
    const double* inv = inv_extent_.data() + i * kMaxDims;
    for (size_t a = 0; a < dims_; ++a) {
      lo[a] = (qlo[a] - org[a]) * inv[a];
      hi[a] = (qhi[a] - org[a]) * inv[a];
    }
  }

  /// True when cell `i` is a 1^d leaf (every axis one cell) — the kernel
  /// dispatcher's cheap specialization test.
  bool IsUnitLeaf(size_t i) const { return unit_[i] != 0; }

  /// Whole-leaf BlockSum of cell `i`, precomputed at Add time with the
  /// same scalar inclusion-exclusion the query path runs — the 1^d
  /// kernel's register constant.
  double UnitTotal(size_t i) const { return unit_total_[i]; }

  /// Right-shift mapping a cell id to its sort bucket (see PairSortShift).
  uint32_t pair_sort_shift() const { return PairSortShift(offsets_.size()); }

  /// Raw SoA view for the batch kernels.
  NdKernelIndex KernelIndex() const {
    return NdKernelIndex{arena_.data(),     origin_.data(),
                         inv_extent_.data(), sizes_f_.data(),
                         sizes32_.data(),   strides32_.data(),
                         offsets32_.data(), unit_total_.data(),
                         dims_};
  }

 private:
  size_t dims_ = 0;
  std::vector<double> arena_;
  std::vector<size_t> offsets_;
  std::vector<size_t> sizes_;       // cell * kMaxDims + axis
  std::vector<size_t> strides_;     // cell * kMaxDims + axis
  std::vector<double> origin_;      // cell * kMaxDims + axis
  std::vector<double> inv_extent_;  // cell * kMaxDims + axis
  // Kernel SoA mirrors (32-bit lane indexable) + specialization data.
  std::vector<double> sizes_f_;     // cell * kMaxDims + axis
  std::vector<int32_t> sizes32_;    // cell * kMaxDims + axis
  std::vector<int32_t> strides32_;  // cell * kMaxDims + axis
  std::vector<int32_t> offsets32_;  // per cell
  std::vector<double> unit_total_;  // per cell
  std::vector<uint8_t> unit_;       // per cell: 1 iff all sizes == 1
};

/// Answers every (query, leaf-cell) border job of an N-d batch and
/// accumulates it: out[p.query] += the fractional answer of query
/// p.query against leaf cell p.cell, each contribution bitwise-identical
/// to index.View(cell).FractionalSum after index.ToCellCoords.
///
/// Queries arrive as an axis-major SoA copy of the chunk's boxes:
/// qlo[a * qstride + p.query] / qhi[...] hold box coordinates of axis a,
/// so the kernels gather lanes from flat arrays.
///
/// Contract: within one query, pairs must be emitted with strictly
/// ascending cell ids. Contributions are accumulated per query in
/// exactly that order — the scalar path's FP accumulation sequence —
/// because the cell grouping is a stable sort (see SortPairsByCell).
///
/// `bucket_hist` (kPairSortBuckets entries) must hold the histogram of
/// `pairs[i].cell >> index.pair_sort_shift()`.
void AccumulateCellPairsNd(const FlatLeafIndexNd& index, const double* qlo,
                           const double* qhi, size_t qstride,
                           const CellPair* pairs, size_t n,
                           const uint32_t* bucket_hist, double* out);

}  // namespace dpgrid

#endif  // DPGRID_ND_LEAF_INDEX_ND_H_
