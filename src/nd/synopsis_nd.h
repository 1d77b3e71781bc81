#ifndef DPGRID_ND_SYNOPSIS_ND_H_
#define DPGRID_ND_SYNOPSIS_ND_H_

#include <span>
#include <string>

#include "common/check.h"
#include "nd/box_nd.h"

namespace dpgrid {

/// A differentially private synopsis of a d-dimensional dataset: the
/// d-dimensional counterpart of Synopsis.
class SynopsisNd {
 public:
  virtual ~SynopsisNd() = default;

  /// Estimated number of points in `query`.
  virtual double Answer(const BoxNd& query) const = 0;

  /// Answers a batch: out[i] = Answer(queries[i]), bitwise-identical to the
  /// scalar calls. Scalar fallback here; the grid synopses override it.
  virtual void AnswerBatch(std::span<const BoxNd> queries,
                           std::span<double> out) const {
    DPGRID_CHECK(queries.size() == out.size());
    for (size_t i = 0; i < queries.size(); ++i) out[i] = Answer(queries[i]);
  }

  /// Estimated nanoseconds AnswerBatch spends per query; see
  /// Synopsis::QueryCostNs.
  virtual double QueryCostNs() const { return 100.0; }

  /// Short method name for reports, e.g. "U3d-14".
  virtual std::string Name() const = 0;

  /// Dimensionality d of the boxes this synopsis answers.
  virtual size_t dims() const = 0;
};

}  // namespace dpgrid

#endif  // DPGRID_ND_SYNOPSIS_ND_H_
