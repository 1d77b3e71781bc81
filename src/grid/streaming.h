#ifndef DPGRID_GRID_STREAMING_H_
#define DPGRID_GRID_STREAMING_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/random.h"
#include "dp/budget.h"
#include "grid/adaptive_grid.h"
#include "grid/grid_counts.h"
#include "grid/guidelines.h"
#include "grid/uniform_grid.h"

namespace dpgrid {

/// Out-of-core builders implementing the paper's §IV-C efficiency claim:
/// "UG can be performed by a single scan of the data points ... AG requires
/// two passes over the dataset". Points are consumed one at a time; only
/// the O(m²) grid state is held in memory, never the dataset.
///
/// Because Guideline 1 needs N before the scan, callers either pass the
/// (public or pre-estimated) point count, or a fixed grid size.

/// Single-pass UG builder.
///
///   StreamingUniformGridBuilder builder(domain, epsilon, m);
///   while (reader.Next(&p)) builder.AddPoint(p);
///   auto ug_cells = std::move(builder).Finish(rng);
class StreamingUniformGridBuilder {
 public:
  /// `grid_size` 0 means: choose by Guideline 1 from `expected_n` (which
  /// must then be > 0).
  StreamingUniformGridBuilder(Rect domain, double epsilon, int grid_size,
                              int64_t expected_n = 0,
                              double guideline_c = kDefaultGuidelineC);

  /// Feeds one point (pass 1). Points outside the domain are clamped into
  /// its edge cells; points with a non-finite coordinate are skipped and
  /// counted in points_rejected().
  void AddPoint(const Point2& p);

  /// Number of points consumed so far (rejected ones excluded).
  int64_t points_seen() const { return points_seen_; }

  /// Number of points skipped for a non-finite coordinate.
  int64_t points_rejected() const { return points_rejected_; }

  int grid_size() const { return static_cast<int>(grid_.nx()); }

  /// Adds the Laplace noise and returns the noisy grid; the builder is
  /// consumed. ε-DP holds for the published grid.
  GridCounts Finish(Rng& rng) &&;

 private:
  double epsilon_;
  GridCounts grid_;
  int64_t points_seen_ = 0;
  int64_t points_rejected_ = 0;
};

/// Two-pass AG builder.
///
/// Pass 1 accumulates the level-1 histogram; FinishLevel1 publishes noisy
/// level-1 counts and fixes the leaf resolutions; pass 2 accumulates leaf
/// histograms; Finish applies noise + constrained inference and returns a
/// queryable AdaptiveGrid-equivalent cell set.
class StreamingAdaptiveGridBuilder {
 public:
  StreamingAdaptiveGridBuilder(Rect domain, double epsilon,
                               const AdaptiveGridOptions& options,
                               int64_t expected_n);

  /// Pass-1 point feed. Like StreamingUniformGridBuilder::AddPoint,
  /// clamps out-of-domain points and skips non-finite ones.
  void AddPointPass1(const Point2& p);

  /// Ends pass 1: spends α·ε on level-1 counts and chooses each cell's m2.
  /// Must be called exactly once, before any AddPointPass2.
  void FinishLevel1(Rng& rng);

  /// Pass-2 point feed (the same stream, replayed; non-finite points are
  /// skipped again but not counted twice).
  void AddPointPass2(const Point2& p);

  /// Number of pass-1 points skipped for a non-finite coordinate.
  int64_t points_rejected() const { return points_rejected_; }

  /// Ends pass 2: noises leaves, runs constrained inference, and returns
  /// the published cells (leaf boxes + counts).
  std::vector<SynopsisCell> Finish(Rng& rng) &&;

  int level1_size() const { return m1_; }

 private:
  AdaptiveGridOptions options_;
  double epsilon_;
  double eps1_ = 0.0;
  double eps2_ = 0.0;
  int m1_ = 0;
  bool level1_done_ = false;
  int64_t points_rejected_ = 0;
  GridCounts level1_;                       // exact then noisy
  std::vector<GridCounts> leaves_;          // per level-1 cell
};

/// Convenience: builds a UG synopsis from a CSV point file ("x,y" lines)
/// in one sequential scan. Returns nullptr on I/O failure. `n_hint` is the
/// point count used by Guideline 1 (line count of the file if 0 — that
/// costs one extra cheap pass).
std::unique_ptr<Synopsis> BuildUniformGridFromCsv(const std::string& path,
                                                  const Rect& domain,
                                                  double epsilon, Rng& rng,
                                                  int64_t n_hint = 0);

/// Convenience: builds AG from a CSV point file with two sequential scans.
std::unique_ptr<Synopsis> BuildAdaptiveGridFromCsv(const std::string& path,
                                                   const Rect& domain,
                                                   double epsilon, Rng& rng,
                                                   int64_t n_hint = 0);

}  // namespace dpgrid

#endif  // DPGRID_GRID_STREAMING_H_
