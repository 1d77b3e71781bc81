#ifndef DPGRID_GEO_DATASET_H_
#define DPGRID_GEO_DATASET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "geo/point.h"
#include "geo/rect.h"

namespace dpgrid {

/// A 2-dimensional point dataset together with the public domain rectangle
/// the points live in.
///
/// The domain is assumed public (it is part of the problem statement in the
/// paper); only the points are private. Points outside the domain are
/// rejected at construction.
class Dataset {
 public:
  /// Creates a dataset over `domain` with the given points. Aborts if any
  /// point lies outside the domain or the domain is empty.
  Dataset(Rect domain, std::vector<Point2> points);

  /// Creates an empty dataset over `domain`.
  explicit Dataset(Rect domain);

  Dataset(const Dataset&) = default;
  Dataset& operator=(const Dataset&) = default;
  Dataset(Dataset&&) = default;
  Dataset& operator=(Dataset&&) = default;

  /// Number of points N.
  int64_t size() const { return static_cast<int64_t>(points_.size()); }

  /// The public domain rectangle.
  const Rect& domain() const { return domain_; }

  /// All points.
  const std::vector<Point2>& points() const { return points_; }

  /// Tight bounding box of the points (empty Rect if no points).
  Rect BoundingBox() const;

  /// Exact number of points inside `query` (brute force O(N); use
  /// RangeCountIndex for repeated queries).
  int64_t CountInRect(const Rect& query) const;

 private:
  Rect domain_;
  std::vector<Point2> points_;
};

/// Loads "x,y" lines (optionally with a header) into a dataset over `domain`.
/// Points outside the domain are clamped onto its closed interior; lines
/// whose x or y is not finite (nan, inf) are skipped.
/// Returns false on I/O failure.
bool LoadCsvPoints(const std::string& path, const Rect& domain, Dataset* out);

/// Writes the dataset's points as "x,y" lines. Returns false on I/O failure.
bool SaveCsvPoints(const std::string& path, const Dataset& dataset);

}  // namespace dpgrid

#endif  // DPGRID_GEO_DATASET_H_
