#ifndef DPGRID_GRID_SYNOPSIS_H_
#define DPGRID_GRID_SYNOPSIS_H_

#include <span>
#include <string>
#include <vector>

#include "common/check.h"
#include "geo/rect.h"

namespace dpgrid {

/// A cell of a published synopsis: a region and its (noisy, possibly
/// negative) count.
struct SynopsisCell {
  Rect region;
  double count = 0.0;
};

/// A differentially private synopsis of a 2-D dataset.
///
/// Implementations publish a partition of the domain into cells with noisy
/// counts, and answer rectangular count queries from those cells, using the
/// uniformity assumption for partially covered cells (paper §II-B).
class Synopsis {
 public:
  virtual ~Synopsis() = default;

  /// Estimated number of points in `query`.
  virtual double Answer(const Rect& query) const = 0;

  /// Answers a batch: out[i] = Answer(queries[i]), bitwise-identical to the
  /// scalar calls. The base implementation is a scalar fallback; grid-backed
  /// synopses override it with tight loops that hoist virtual dispatch and
  /// per-query setup out of the hot path. `out` must match `queries` in
  /// length.
  virtual void AnswerBatch(std::span<const Rect> queries,
                           std::span<double> out) const {
    DPGRID_CHECK(queries.size() == out.size());
    for (size_t i = 0; i < queries.size(); ++i) out[i] = Answer(queries[i]);
  }

  /// Estimated nanoseconds AnswerBatch spends per query. A constant of
  /// the synopsis's shape (grid sizes, tree size), fixed once it is built
  /// or restored, and never timed. QueryEngine reads it only to decide
  /// whether and how finely to shard a batch, so it never changes an
  /// answer. The default fits a scalar Answer of a few prefix-sum reads.
  virtual double QueryCostNs() const { return 100.0; }

  /// Short method name for reports, e.g. "U256" or "A32,5".
  virtual std::string Name() const = 0;

  /// The published cells (finest level). Used to generate synthetic data and
  /// to inspect the synopsis. Order is unspecified.
  virtual std::vector<SynopsisCell> ExportCells() const = 0;
};

}  // namespace dpgrid

#endif  // DPGRID_GRID_SYNOPSIS_H_
