#ifndef DPGRID_ND_FACE_SLAB_INDEX_ND_H_
#define DPGRID_ND_FACE_SLAB_INDEX_ND_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "nd/grid_nd.h"
#include "nd/leaf_index_nd.h"

namespace dpgrid {

/// A query box decomposed against an m1^d level-1 grid, per axis a:
/// level-1 cells [b_lo, b_hi] overlap the box, and [full_lo, full_hi) are
/// the ones it fully covers along a (full_lo <= full_hi always; the range
/// is empty when the box covers no whole cell along a).
struct Level1SpanNd {
  int64_t b_lo[PrefixSumNd::kMaxDims];
  int64_t b_hi[PrefixSumNd::kMaxDims];
  size_t full_lo[PrefixSumNd::kMaxDims];
  size_t full_hi[PrefixSumNd::kMaxDims];
  bool has_interior = false;  // every full range non-empty
};

/// Per-slab prefix sums that answer an adaptive grid's *face cells* — the
/// border level-1 cells a box cuts on exactly one axis `a` and fully
/// covers on every other axis — without visiting them one by one.
///
/// Under the paper's uniformity assumption a face cell c with n leaves
/// along a contributes P_c(u_hi) − P_c(u_lo), where P_c[t] (t = 0..n) is
/// its cumulative leaf marginal along a (the leaf layers below t) and P_c
/// is linear between integers. Every face cell of one face lies in one
/// level-1 slab along a, and the cells of that slab with the same n share
/// their leaf origin and extent along a, hence u. So for each (axis a,
/// slab s, class n <= K, t = 1..n) the index keeps a (d−1)-dimensional
/// prefix sum, over the level-1 coordinates of the other axes, of P_c[t]
/// for the slab's cells with n leaves along a (P_c[0] is 0). A whole face
/// then costs one block sum per table instead of one leaf kernel per cell
/// — the data-cube prefix sums of Ho et al. (SIGMOD 1997) within a slab.
///
/// Tables are stored corner-major: the K(K+1)/2 (class, t) entries of one
/// corner are contiguous, so a face's 2^(d−1) corner loads are short
/// contiguous runs. Cells with more than K leaves along a are left to the
/// per-cell kernels; flags() marks, per level-1 cell and axis, which cells
/// the tables cover. Pure derived state, built from the flat leaf index.
class FaceSlabIndexNd {
 public:
  /// Largest class indexed: 1..4 leaves per axis covers ~96% of the cells
  /// of a 3-d synopsis over 1M points.
  static constexpr int kMaxClasses = 4;

  /// The number of classes to index: kMaxClasses, capped at the largest
  /// leaf size present, then lowered until the tables take at most twice
  /// the flat leaf arena (0 when nothing fits).
  static int ChooseClasses(size_t dims, int m1, int max_leaf_size,
                           size_t arena_doubles);

  /// Builds the tables over `leaves` (m1^d cells, row-major) for classes
  /// 1..`classes` (0 leaves the index empty: every face cell then goes
  /// through the per-cell kernels).
  void Build(const FlatLeafIndexNd& leaves, int m1, int classes);

  int classes() const { return classes_; }

  /// Table storage in doubles.
  size_t table_doubles() const { return tables_.size(); }

  /// Per level-1 cell: bit a is set iff the cell's face contribution on
  /// axis a is answered by the tables (so the per-cell path skips it).
  const uint8_t* flags() const { return flags_.data(); }

  /// Adds the contributions of every indexed face cell of the box
  /// [qlo, qhi] (decomposed as `span`) to `total`, in a fixed order: axis
  /// ascending, the lo face before the hi face, class ascending. Scalar
  /// and batch answers both run this, so they stay bitwise-equal.
  double AddFaceTerms(const double* qlo, const double* qhi,
                      const Level1SpanNd& span, double total) const;

 private:
  /// Adds face (axis a, slab s) with covered level-1 block `span` on the
  /// other axes.
  double AddFace(size_t a, size_t s, const double* qlo, const double* qhi,
                 const Level1SpanNd& span, double total) const;

  size_t dims_ = 0;
  size_t m1_ = 0;
  int classes_ = 0;
  size_t entries_ = 0;   // K(K+1)/2 (class, t) entries per corner
  size_t corners_ = 0;   // (m1 + 1)^(d−1) corners per slab table
  std::vector<double> tables_;   // ((a*m1 + s)*corners + corner)*entries + e
  std::vector<double> origin_;   // (a*m1 + s)*K + (n − 1): leaf origin on a
  std::vector<double> inv_;      // same index: leaf reciprocal extent on a
  std::vector<uint8_t> present_; // a*m1 + s: bit n set iff class n indexed
  std::vector<uint8_t> flags_;   // per level-1 cell
};

}  // namespace dpgrid

#endif  // DPGRID_ND_FACE_SLAB_INDEX_ND_H_
