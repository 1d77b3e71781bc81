#ifndef DPGRID_GRID_ADAPTIVE_GRID_H_
#define DPGRID_GRID_ADAPTIVE_GRID_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/random.h"
#include "dp/budget.h"
#include "geo/dataset.h"
#include "grid/grid_counts.h"
#include "grid/guidelines.h"
#include "grid/synopsis.h"
#include "nd/adaptive_grid_nd.h"

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
///
/// The post-inference counts are held and answered by an AdaptiveGridNd
/// at d = 2, with axis 0 = y and axis 1 = x: GridCounts' row-major
/// values[iy * nx + ix] is already that index's layout, and level-1 cell
/// (ix, iy) is its flat cell iy * m1 + ix.
class AdaptiveGrid : public Synopsis {
 public:
  /// Builds the synopsis, consuming all of `budget`.
  AdaptiveGrid(const Dataset& dataset, PrivacyBudget& budget, Rng& rng,
               const AdaptiveGridOptions& options = {});

  /// Convenience constructor managing its own budget of `epsilon`.
  AdaptiveGrid(const Dataset& dataset, double epsilon, Rng& rng,
               const AdaptiveGridOptions& options = {});

  /// Snapshot-store restore: adopts the post-inference counts — the m1 ×
  /// m1 level-1 grid, each level-1 cell's leaf size m2 in row-major order,
  /// and the leaves' m2 × m2 values concatenated in that order — and
  /// builds the index exactly as the constructor does. A leaf's domain
  /// is its level-1 cell, as in Build.
  static std::unique_ptr<AdaptiveGrid> Restore(
      AdaptiveGridOptions options, GridCounts level1,
      std::span<const size_t> leaf_sizes, std::span<const double> leaf_values);

  double Answer(const Rect& query) const override;
  void AnswerBatch(std::span<const Rect> queries,
                   std::span<double> out) const override;
  /// The d = 2 index's hint.
  double QueryCostNs() const override { return index_->QueryCostNs(); }
  std::string Name() const override;
  std::vector<SynopsisCell> ExportCells() const override;

  /// Level-1 grid size m1.
  int level1_size() const { return index_->level1_size(); }

  /// The domain the level-1 grid covers.
  Rect domain() const;

  /// Post-inference level-1 count of cell (ix, iy).
  double Level1Count(size_t ix, size_t iy) const;

  /// Leaf grid size m2 of level-1 cell (ix, iy).
  int Level2Size(size_t ix, size_t iy) const;

  /// Total number of leaf cells across the whole synopsis.
  int64_t TotalLeafCells() const { return index_->TotalLeafCells(); }

  const AdaptiveGridOptions& options() const { return options_; }

  /// The d = 2 index that holds the post-inference counts (the state
  /// snapshots persist) and answers every query.
  const AdaptiveGridNd& index() const { return *index_; }

 private:
  AdaptiveGrid() = default;

  void Build(const Dataset& dataset, PrivacyBudget& budget, Rng& rng);

  /// Hands the post-inference counts to the d = 2 index. Build and
  /// Restore both end here.
  void AdoptCounts(GridCounts level1, std::span<const size_t> leaf_sizes,
                   std::span<const double> leaf_values);

  AdaptiveGridOptions options_;
  std::unique_ptr<AdaptiveGridNd> index_;
};

}  // namespace dpgrid

#endif  // DPGRID_GRID_ADAPTIVE_GRID_H_
