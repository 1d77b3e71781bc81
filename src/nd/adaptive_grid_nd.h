#ifndef DPGRID_ND_ADAPTIVE_GRID_ND_H_
#define DPGRID_ND_ADAPTIVE_GRID_ND_H_

#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/random.h"
#include "dp/budget.h"
#include "nd/face_slab_index_nd.h"
#include "nd/grid_nd.h"
#include "nd/guidelines_nd.h"
#include "nd/leaf_index_nd.h"
#include "nd/synopsis_nd.h"

namespace dpgrid {

/// Options for AdaptiveGridNd.
struct AdaptiveGridNdOptions {
  /// Level-1 per-axis size m1. 0 = generalized suggestion.
  int level1_size = 0;
  /// Budget fraction for level-1 counts.
  double alpha = 0.5;
  /// Guideline-2 constant c2.
  double c2 = 5.0;
  /// Guideline-1 constant c (used when level1_size == 0).
  double guideline_c = 10.0;
  /// Cap on per-cell leaf size (memory guard; the cap binds only in
  /// huge-epsilon corner cases).
  int max_level2_size = 64;
  /// Apply 2-level constrained inference.
  bool constrained_inference = true;
};

/// The Adaptive Grid method in d dimensions: a coarse m1^d level-1 grid
/// (budget α·ε) whose cells are refined into m2^d leaf grids by their noisy
/// density (budget (1−α)·ε), followed by 2-level constrained inference —
/// the direct generalization of the paper's AG (§IV-B).
class AdaptiveGridNd : public SynopsisNd {
 public:
  /// One leaf grid per level-1 cell. Its prefix sums live in the flat
  /// leaf index only.
  struct LeafBlock {
    std::optional<GridNd> counts;
  };

  AdaptiveGridNd(const DatasetNd& dataset, PrivacyBudget& budget, Rng& rng,
                 const AdaptiveGridNdOptions& options = {});

  AdaptiveGridNd(const DatasetNd& dataset, double epsilon, Rng& rng,
                 const AdaptiveGridNdOptions& options = {});

  /// Snapshot-store restore: adopts the post-inference counts — the m1^d
  /// level-1 grid, each level-1 cell's leaf size m2 in row-major order,
  /// and the leaves' m2^d values concatenated in that order — and builds
  /// every index exactly as the constructor does. A leaf's domain is its
  /// level-1 cell, as in Build.
  static std::unique_ptr<AdaptiveGridNd> Restore(
      AdaptiveGridNdOptions options, GridNd level1,
      std::span<const size_t> leaf_sizes, std::span<const double> leaf_values);

  /// Boxes per AnswerChunk call, and the row length of its axis-major
  /// bounds: big enough that same-cell runs form in the sorted pair
  /// array, small enough that the pair and contribution buffers stay
  /// cache-resident.
  static constexpr size_t kBatchChunk = 4096;

  /// Front ends over AnswerBounds and AnswerChunk: AnswerBatch
  /// transposes each chunk of boxes into axis-major bounds.
  double Answer(const BoxNd& query) const override;
  void AnswerBatch(std::span<const BoxNd> queries,
                   std::span<double> out) const override;

  /// The scalar answer over flat bounds: the box spans [qlo[a], qhi[a]]
  /// on each of the dims() axes.
  double AnswerBounds(const double* qlo, const double* qhi) const;

  /// The batch answer over one chunk of n <= kBatchChunk boxes in
  /// axis-major SoA (structure-of-arrays) form: box k spans
  /// [qlo[a * kBatchChunk + k], qhi[a * kBatchChunk + k]] on axis a.
  /// out[k] is bitwise AnswerBounds of box k.
  void AnswerChunk(const double* qlo, const double* qhi, size_t n,
                   double* out) const;

  /// The level-1 border cells of a half-domain box, 2d⌈m1/2⌉^(d-1), at
  /// ~20 ns each; the interior and face-slab terms ride along. At d = 2
  /// the face slabs answer most of the border, and a batch measures
  /// 21–22 ns per ⌈m1/2⌉ (one thread, m1 = 79–316, AVX-512 host).
  double QueryCostNs() const override {
    const double half = static_cast<double>((m1_ + 1) / 2);
    if (dims() == 2) return 20.0 * half;
    const double d = static_cast<double>(dims());
    return 40.0 * d * std::pow(half, d - 1.0);
  }
  std::string Name() const override;

  size_t dims() const override { return level1_->dims(); }

  int level1_size() const { return m1_; }

  /// Post-inference level-1 count at a flattened level-1 index.
  double Level1Count(size_t flat) const { return level1_->values()[flat]; }

  /// Leaf per-axis size of a level-1 cell (flattened index).
  int Level2Size(size_t flat) const;

  /// Total leaf cells across the synopsis.
  int64_t TotalLeafCells() const;

  const AdaptiveGridNdOptions& options() const { return options_; }

  /// Post-inference level-1 grid and the leaf blocks (row-major per
  /// level-1 cell) — their counts are the state snapshots persist — then
  /// the level-1 prefix index and the flat index holding the leaves'
  /// prefix sums, both derived from those counts.
  const GridNd& level1_counts() const { return *level1_; }
  const std::vector<LeafBlock>& leaves() const { return leaves_; }
  const PrefixSumNd& level1_prefix() const { return *level1_prefix_; }
  const FlatLeafIndexNd& flat_index() const { return flat_; }

  /// The face-slab index — derived state, built by Build and Restore
  /// alike, never persisted.
  const FaceSlabIndexNd& face_slab_index() const { return faces_; }

  /// Rebuilds the face-slab index with at most `max_classes` classes (the
  /// memory rule still applies; 0 indexes nothing). Lets tests pin the
  /// class count; answers move at rounding level only. Not safe while
  /// the grid is being queried.
  void LimitFaceSlabClassesForTesting(int max_classes);

 private:
  AdaptiveGridNd() = default;

  void Build(const DatasetNd& dataset, PrivacyBudget& budget, Rng& rng);

  /// Builds every index from the final counts: the level-1 prefix sums,
  /// flat_ and faces_. Build and Restore both end here.
  void BuildIndexes();

  /// Builds faces_ from flat_ with at most `max_classes` classes.
  void BuildFaceSlabIndex(int max_classes);

  /// Decomposes the box [qlo, qhi] against the level-1 grid; false when
  /// it misses the domain or is empty (the answer is then 0).
  bool Decompose(const double* qlo, const double* qhi,
                 Level1SpanNd* span) const;

  /// The first two parts of every answer, shared by Answer and
  /// AnswerBatch: the interior block sum, then the face-slab terms.
  double AnswerHead(const double* qlo, const double* qhi,
                    const Level1SpanNd& span) const;

  /// Calls run(c0, c1, skip) for the border cells still answered one by
  /// one, in ascending flat order: the cells of [c0, c1) whose face-slab
  /// flags share no bit with `skip` (skip == 0: all of them).
  template <typename Run>
  void ForEachBorderRun(const Level1SpanNd& span, Run&& run) const;

  AdaptiveGridNdOptions options_;
  int m1_ = 0;
  std::optional<GridNd> level1_;       // post-inference v'
  std::optional<PrefixSumNd> level1_prefix_;
  std::vector<LeafBlock> leaves_;      // one per level-1 cell (flattened)
  FlatLeafIndexNd flat_;               // every leaf's prefix sums
  FaceSlabIndexNd faces_;              // face cells, per level-1 slab
};

}  // namespace dpgrid

#endif  // DPGRID_ND_ADAPTIVE_GRID_ND_H_
