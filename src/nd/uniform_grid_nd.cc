#include "nd/uniform_grid_nd.h"

#include "common/check.h"

namespace dpgrid {

UniformGridNd::UniformGridNd(const DatasetNd& dataset, PrivacyBudget& budget,
                             Rng& rng, const UniformGridNdOptions& options)
    : options_(options) {
  Build(dataset, budget, rng);
}

UniformGridNd::UniformGridNd(const DatasetNd& dataset, double epsilon,
                             Rng& rng, const UniformGridNdOptions& options)
    : options_(options) {
  PrivacyBudget budget(epsilon);
  Build(dataset, budget, rng);
}

void UniformGridNd::Build(const DatasetNd& dataset, PrivacyBudget& budget,
                          Rng& rng) {
  grid_size_ = options_.grid_size;
  if (grid_size_ <= 0) {
    grid_size_ = ChooseUniformGridSizeNd(
        static_cast<double>(dataset.size()), budget.total(), dataset.dims(),
        options_.guideline_c);
  }
  DPGRID_CHECK(grid_size_ >= 1);
  std::vector<size_t> sizes(dataset.dims(),
                            static_cast<size_t>(grid_size_));
  noisy_.emplace(GridNd::FromDataset(dataset, sizes));
  const double eps = budget.SpendRemaining("ugnd/cell-counts");
  noisy_->AddLaplaceNoise(eps, rng);
  BuildIndex();
}

void UniformGridNd::BuildIndex() {
  prefix_.emplace(noisy_->values(), noisy_->sizes());
}

std::unique_ptr<UniformGridNd> UniformGridNd::Restore(
    UniformGridNdOptions options, GridNd noisy) {
  for (size_t n : noisy.sizes()) DPGRID_CHECK(n == noisy.sizes()[0]);
  std::unique_ptr<UniformGridNd> ug(new UniformGridNd());
  ug->options_ = options;
  ug->grid_size_ = static_cast<int>(noisy.sizes()[0]);
  ug->noisy_.emplace(std::move(noisy));
  ug->BuildIndex();
  return ug;
}

double UniformGridNd::Answer(const BoxNd& query) const {
  double lo[PrefixSumNd::kMaxDims];
  double hi[PrefixSumNd::kMaxDims];
  noisy_->ToCellCoords(query, lo, hi);
  return prefix_->FractionalSum(lo, hi);
}

void UniformGridNd::AnswerBatch(std::span<const BoxNd> queries,
                                std::span<double> out) const {
  AnswerBatchLeafGridNd(*noisy_, *prefix_, queries, out);
}

std::string UniformGridNd::Name() const {
  return "U" + std::to_string(noisy_->dims()) + "d-" +
         std::to_string(grid_size_);
}

}  // namespace dpgrid
