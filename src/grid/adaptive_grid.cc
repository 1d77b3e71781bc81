#include "grid/adaptive_grid.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "dp/laplace.h"

namespace dpgrid {

AdaptiveGrid::AdaptiveGrid(const Dataset& dataset, PrivacyBudget& budget,
                           Rng& rng, const AdaptiveGridOptions& options)
    : options_(options) {
  Build(dataset, budget, rng);
}

AdaptiveGrid::AdaptiveGrid(const Dataset& dataset, double epsilon, Rng& rng,
                           const AdaptiveGridOptions& options)
    : options_(options) {
  PrivacyBudget budget(epsilon);
  Build(dataset, budget, rng);
}

std::unique_ptr<AdaptiveGrid> AdaptiveGrid::Restore(
    AdaptiveGridOptions options, GridCounts level1,
    std::span<const size_t> leaf_sizes, std::span<const double> leaf_values) {
  std::unique_ptr<AdaptiveGrid> ag(new AdaptiveGrid());
  ag->options_ = options;
  ag->AdoptCounts(std::move(level1), leaf_sizes, leaf_values);
  return ag;
}

void AdaptiveGrid::AdoptCounts(GridCounts level1,
                               std::span<const size_t> leaf_sizes,
                               std::span<const double> leaf_values) {
  AdaptiveGridNdOptions nd;
  nd.level1_size = options_.level1_size;
  nd.alpha = options_.alpha;
  nd.c2 = options_.c2;
  nd.guideline_c = options_.guideline_c;
  nd.max_level2_size = options_.max_level2_size;
  nd.constrained_inference = options_.constrained_inference;
  // Axis 0 = y, axis 1 = x: the values keep their row-major order.
  const Rect d = level1.domain();
  const size_t nx = level1.nx();
  const size_t ny = level1.ny();
  index_ = AdaptiveGridNd::Restore(
      nd,
      GridNd::FromRaw(BoxNd({d.ylo, d.xlo}, {d.yhi, d.xhi}), {ny, nx},
                      std::move(level1.mutable_values())),
      leaf_sizes, leaf_values);
}

void AdaptiveGrid::Build(const Dataset& dataset, PrivacyBudget& budget,
                         Rng& rng) {
  DPGRID_CHECK(options_.alpha > 0.0 && options_.alpha < 1.0);

  // -- Choose m1 ------------------------------------------------------------
  double total_epsilon = budget.total();
  int m1_int = options_.level1_size;
  if (m1_int <= 0) {
    double n = static_cast<double>(dataset.size());
    double guideline_epsilon = total_epsilon;
    if (options_.n_estimate_fraction > 0.0) {
      double eps_n = budget.SpendFraction(options_.n_estimate_fraction,
                                          "ag/noisy-n-estimate");
      n = LaplaceMechanism(n, /*sensitivity=*/1.0, eps_n, rng);
      if (n < 1.0) n = 1.0;
      guideline_epsilon = budget.remaining();
    }
    m1_int = ChooseAdaptiveLevel1Size(n, guideline_epsilon,
                                      options_.guideline_c);
  }
  DPGRID_CHECK(m1_int >= 1);
  const auto m1 = static_cast<size_t>(m1_int);

  // -- Level 1: noisy coarse counts with budget alpha * eps ------------------
  double eps_remaining = budget.remaining();
  double eps1 = budget.Spend(options_.alpha * eps_remaining,
                             "ag/level1-counts");
  double eps2 = budget.SpendRemaining("ag/level2-counts");
  DPGRID_CHECK(eps1 > 0.0 && eps2 > 0.0);

  GridCounts level1_exact = GridCounts::FromDataset(dataset, m1, m1);
  GridCounts level1_noisy = level1_exact;
  level1_noisy.AddLaplaceNoise(eps1, rng);

  // -- Choose m2 per cell (Guideline 2), from the *noisy* counts -------------
  std::vector<size_t> m2(m1 * m1, 1);
  for (size_t i = 0; i < m2.size(); ++i) {
    int size = ChooseAdaptiveLevel2Size(level1_noisy.values()[i], eps2,
                                        options_.c2);
    if (options_.max_level2_size > 0) {
      size = std::min(size, options_.max_level2_size);
    }
    m2[i] = static_cast<size_t>(size);
  }

  // -- Level 2: second data pass, exact leaf histograms ----------------------
  std::vector<GridCounts> leaves;
  leaves.reserve(m1 * m1);
  size_t total_leaf_cells = 0;
  for (size_t size : m2) total_leaf_cells += size * size;
  GridCounts domain_grid(dataset.domain(), m1, m1);  // for cell rects only
  for (size_t iy = 0; iy < m1; ++iy) {
    for (size_t ix = 0; ix < m1; ++ix) {
      const size_t sz = m2[iy * m1 + ix];
      leaves.emplace_back(domain_grid.CellRect(ix, iy), sz, sz);
    }
  }
  for (const Point2& p : dataset.points()) {
    size_t ix = 0;
    size_t iy = 0;
    domain_grid.CellOf(p, &ix, &iy);
    GridCounts& leaf = leaves[iy * m1 + ix];
    size_t lx = 0;
    size_t ly = 0;
    leaf.CellOf(p, &lx, &ly);
    leaf.add(lx, ly, 1.0);
  }

  // -- Noise leaves with budget (1 - alpha) * eps -----------------------------
  for (GridCounts& leaf : leaves) leaf.AddLaplaceNoise(eps2, rng);

  // -- Constrained inference (2-level, paper §IV-B) ---------------------------
  // v' = weighted average of the level-1 noisy count v (variance 2/eps1²)
  // and the sum of its leaves (variance m2² · 2/eps2²); the residual is then
  // spread equally across the leaves so that sum(leaves) == v'.
  GridCounts level1(dataset.domain(), m1, m1);
  std::vector<double> leaf_values;
  leaf_values.reserve(total_leaf_cells);
  for (size_t cell = 0; cell < leaves.size(); ++cell) {
    GridCounts& leaf = leaves[cell];
    double v = level1_noisy.values()[cell];
    double leaf_cells = static_cast<double>(leaf.values().size());
    double leaf_sum = leaf.Total();
    double v_final = v;
    if (options_.constrained_inference) {
      double var_v = LaplaceVariance(1.0, eps1);
      double var_sum = leaf_cells * LaplaceVariance(1.0, eps2);
      double w_v = (1.0 / var_v) / (1.0 / var_v + 1.0 / var_sum);
      v_final = w_v * v + (1.0 - w_v) * leaf_sum;
      double residual_per_leaf = (v_final - leaf_sum) / leaf_cells;
      for (double& u : leaf.mutable_values()) u += residual_per_leaf;
    }
    level1.mutable_values()[cell] = v_final;
    leaf_values.insert(leaf_values.end(), leaf.values().begin(),
                       leaf.values().end());
  }
  AdoptCounts(std::move(level1), m2, leaf_values);
}

double AdaptiveGrid::Answer(const Rect& query) const {
  const double lo[2] = {query.ylo, query.xlo};
  const double hi[2] = {query.yhi, query.xhi};
  return index_->AnswerBounds(lo, hi);
}

void AdaptiveGrid::AnswerBatch(std::span<const Rect> queries,
                               std::span<double> out) const {
  DPGRID_CHECK(queries.size() == out.size());
  constexpr size_t kChunk = AdaptiveGridNd::kBatchChunk;
  // Per-thread axis-major bounds (y rows, then x rows), as AnswerChunk
  // reads them. Thread-local because QueryEngine shards one batch across
  // threads; capacity persists, so steady-state batches allocate nothing.
  thread_local std::vector<double> bounds;
  bounds.resize(4 * kChunk);
  double* qlo = bounds.data();
  double* qhi = qlo + 2 * kChunk;
  for (size_t base = 0; base < queries.size(); base += kChunk) {
    const size_t chunk = std::min(kChunk, queries.size() - base);
    for (size_t k = 0; k < chunk; ++k) {
      const Rect& q = queries[base + k];
      qlo[k] = q.ylo;
      qlo[kChunk + k] = q.xlo;
      qhi[k] = q.yhi;
      qhi[kChunk + k] = q.xhi;
    }
    index_->AnswerChunk(qlo, qhi, chunk, out.data() + base);
  }
}

std::string AdaptiveGrid::Name() const {
  int c2_int = static_cast<int>(std::lround(options_.c2));
  return "A" + std::to_string(level1_size()) + "," + std::to_string(c2_int);
}

Rect AdaptiveGrid::domain() const {
  const BoxNd& d = index_->level1_counts().domain();
  return Rect{d.lo(1), d.lo(0), d.hi(1), d.hi(0)};
}

std::vector<SynopsisCell> AdaptiveGrid::ExportCells() const {
  // Regions use GridCounts' cell arithmetic, level 1 and leaf alike.
  const auto m1 = static_cast<size_t>(level1_size());
  const GridCounts level1(domain(), m1, m1);  // for cell rects only
  std::vector<SynopsisCell> cells;
  cells.reserve(static_cast<size_t>(TotalLeafCells()));
  for (size_t cell = 0; cell < m1 * m1; ++cell) {
    const GridNd& leaf = *index_->leaves()[cell].counts;
    const size_t m2 = leaf.sizes()[0];
    const GridCounts geometry(level1.CellRect(cell % m1, cell / m1), m2, m2);
    for (size_t ly = 0; ly < m2; ++ly) {
      for (size_t lx = 0; lx < m2; ++lx) {
        cells.push_back(SynopsisCell{geometry.CellRect(lx, ly),
                                     leaf.values()[ly * m2 + lx]});
      }
    }
  }
  return cells;
}

double AdaptiveGrid::Level1Count(size_t ix, size_t iy) const {
  return index_->Level1Count(iy * static_cast<size_t>(level1_size()) + ix);
}

int AdaptiveGrid::Level2Size(size_t ix, size_t iy) const {
  return index_->Level2Size(iy * static_cast<size_t>(level1_size()) + ix);
}

}  // namespace dpgrid
