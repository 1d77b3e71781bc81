#ifndef DPGRID_GRID_ADAPTIVE_GRID_H_
#define DPGRID_GRID_ADAPTIVE_GRID_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/random.h"
#include "dp/budget.h"
#include "geo/dataset.h"
#include "grid/grid_counts.h"
#include "grid/guidelines.h"
#include "grid/synopsis.h"
#include "index/leaf_index.h"
#include "index/prefix_sum2d.h"

namespace dpgrid {

/// Options for building an AdaptiveGrid synopsis.
struct AdaptiveGridOptions {
  /// Level-1 grid size m1. If 0, chosen as max(10, round(m_UG/4)) (§IV-B).
  int level1_size = 0;

  /// Fraction of the budget used for level-1 counts (paper default 0.5;
  /// [0.2, 0.6] reported to behave similarly).
  double alpha = kDefaultAlpha;

  /// Constant c2 of Guideline 2 (paper default c/2 = 5).
  double c2 = kDefaultGuidelineC / 2.0;

  /// Constant c of Guideline 1, used when level1_size == 0.
  double guideline_c = kDefaultGuidelineC;

  /// Cap on the per-cell leaf grid size m2 (guards against a wildly large
  /// noisy count in a tiny budget regime). 0 disables the cap.
  int max_level2_size = 1024;

  /// Apply 2-level constrained inference (paper §IV-B). On by default;
  /// exposed so ablations can measure its contribution.
  bool constrained_inference = true;

  /// Fraction of the budget spent on a noisy estimate of N when
  /// level1_size == 0 (see UniformGridOptions::n_estimate_fraction).
  double n_estimate_fraction = 0.0;
};

/// The Adaptive Grid (AG) method — the paper's main contribution (§IV-B).
///
/// Lays a coarse m1 × m1 level-1 grid (budget α·ε), then partitions each
/// level-1 cell with noisy count N' into m2 × m2 leaf cells with m2 chosen
/// by Guideline 2 (budget (1−α)·ε), and finally runs 2-level constrained
/// inference so leaves are consistent with their level-1 parent. Dense
/// regions get fine partitioning; sparse regions stay coarse.
class AdaptiveGrid : public Synopsis {
 public:
  /// One leaf grid per level-1 cell, with its prefix-sum index.
  struct LeafBlock {
    GridCounts counts;
    std::optional<PrefixSum2D> prefix;
  };

  /// Builds the synopsis, consuming all of `budget`.
  AdaptiveGrid(const Dataset& dataset, PrivacyBudget& budget, Rng& rng,
               const AdaptiveGridOptions& options = {});

  /// Convenience constructor managing its own budget of `epsilon`.
  AdaptiveGrid(const Dataset& dataset, double epsilon, Rng& rng,
               const AdaptiveGridOptions& options = {});

  /// Snapshot-store restore: adopts the post-inference counts — the m1 ×
  /// m1 level-1 grid, each level-1 cell's leaf size m2 in row-major order,
  /// and the leaves' m2 × m2 values concatenated in that order — and
  /// builds every index exactly as the constructor does. A leaf's domain
  /// is its level-1 cell, as in Build.
  static std::unique_ptr<AdaptiveGrid> Restore(
      AdaptiveGridOptions options, GridCounts level1,
      std::span<const size_t> leaf_sizes, std::span<const double> leaf_values);

  double Answer(const Rect& query) const override;
  void AnswerBatch(std::span<const Rect> queries,
                   std::span<double> out) const override;
  /// The level-1 border cells of a half-domain query, 4⌈m1/2⌉, each
  /// answered from its leaf grid at ~10 ns.
  double QueryCostNs() const override { return 40.0 * ((m1_ + 1) / 2); }
  std::string Name() const override;
  std::vector<SynopsisCell> ExportCells() const override;

  /// Level-1 grid size m1.
  int level1_size() const { return m1_; }

  /// Post-inference level-1 count of cell (ix, iy).
  double Level1Count(size_t ix, size_t iy) const;

  /// Leaf grid size m2 of level-1 cell (ix, iy).
  int Level2Size(size_t ix, size_t iy) const;

  /// Total number of leaf cells across the whole synopsis.
  int64_t TotalLeafCells() const;

  const AdaptiveGridOptions& options() const { return options_; }

  /// Post-inference level-1 grid and the leaf blocks (row-major per
  /// level-1 cell); their counts are the state snapshots persist.
  const GridCounts& level1_counts() const { return *level1_; }
  const std::vector<LeafBlock>& leaves() const { return leaves_; }

  /// The flattened leaf index behind AnswerBatch — derived state, built
  /// by Build and Restore alike, never persisted. Exposed so benches and
  /// tests can assert the fast path is actually in place.
  const FlatLeafIndex2D& flat_index() const { return flat_; }

 private:
  AdaptiveGrid() = default;

  void Build(const Dataset& dataset, PrivacyBudget& budget, Rng& rng);

  /// Builds every index from the final counts: each leaf's prefix sums,
  /// the level-1 prefix sums and flat_. Build and Restore both end here.
  void BuildIndexes();

  /// The one query implementation both Answer and AnswerBatch funnel
  /// through, keeping batch results bitwise-identical to scalar results.
  double AnswerOne(const Rect& query) const;

  AdaptiveGridOptions options_;
  int m1_ = 0;
  // Level-1 counts after constrained inference (v'), m1 × m1.
  std::optional<GridCounts> level1_;
  std::optional<PrefixSum2D> level1_prefix_;
  // One leaf block per level-1 cell, row-major.
  std::vector<LeafBlock> leaves_;
  // Contiguous mirror of the leaves' prefix indexes (see leaf_index.h).
  FlatLeafIndex2D flat_;
};

}  // namespace dpgrid

#endif  // DPGRID_GRID_ADAPTIVE_GRID_H_
