#ifndef DPGRID_ND_UNIFORM_GRID_ND_H_
#define DPGRID_ND_UNIFORM_GRID_ND_H_

#include <cmath>
#include <memory>
#include <optional>
#include <string>

#include "common/random.h"
#include "dp/budget.h"
#include "nd/grid_nd.h"
#include "nd/guidelines_nd.h"
#include "nd/synopsis_nd.h"

namespace dpgrid {

/// Options for UniformGridNd.
struct UniformGridNdOptions {
  /// Per-axis grid size m. 0 = generalized Guideline 1.
  int grid_size = 0;
  /// Guideline constant c (see guidelines_nd.h).
  double guideline_c = 10.0;
};

/// The Uniform Grid method in d dimensions: an m^d equi-width grid with
/// Laplace noisy counts, answering orthotope count queries with the
/// uniformity assumption on partially covered cells.
class UniformGridNd : public SynopsisNd {
 public:
  UniformGridNd(const DatasetNd& dataset, PrivacyBudget& budget, Rng& rng,
                const UniformGridNdOptions& options = {});

  UniformGridNd(const DatasetNd& dataset, double epsilon, Rng& rng,
                const UniformGridNdOptions& options = {});

  /// Snapshot-store restore: adopts the noisy grid (m cells on every
  /// axis) and builds its prefix index as the constructor does.
  static std::unique_ptr<UniformGridNd> Restore(UniformGridNdOptions options,
                                                GridNd noisy);

  double Answer(const BoxNd& query) const override;
  void AnswerBatch(std::span<const BoxNd> queries,
                   std::span<double> out) const override;
  /// Up to 3^d fractional blocks of 2^d prefix corners each, ~10 ns a read.
  double QueryCostNs() const override { return 10.0 * std::pow(6.0, dims()); }
  std::string Name() const override;

  size_t dims() const override { return noisy_->dims(); }

  int grid_size() const { return grid_size_; }
  const GridNd& noisy_counts() const { return *noisy_; }
  const UniformGridNdOptions& options() const { return options_; }

 private:
  UniformGridNd() = default;

  void Build(const DatasetNd& dataset, PrivacyBudget& budget, Rng& rng);

  /// Builds prefix_ from noisy_; Build and Restore both end here.
  void BuildIndex();

  UniformGridNdOptions options_;
  int grid_size_ = 0;
  std::optional<GridNd> noisy_;
  std::optional<PrefixSumNd> prefix_;
};

}  // namespace dpgrid

#endif  // DPGRID_ND_UNIFORM_GRID_ND_H_
