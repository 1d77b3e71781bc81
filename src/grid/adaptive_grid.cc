#include "grid/adaptive_grid.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "dp/laplace.h"
#include "index/frac_kernel.h"

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
  const size_t m1 = level1.nx();
  DPGRID_CHECK(level1.ny() == m1);
  DPGRID_CHECK(leaf_sizes.size() == m1 * m1);
  std::unique_ptr<AdaptiveGrid> ag(new AdaptiveGrid());
  ag->options_ = options;
  ag->m1_ = static_cast<int>(m1);
  ag->leaves_.reserve(leaf_sizes.size());
  size_t offset = 0;
  for (size_t cell = 0; cell < leaf_sizes.size(); ++cell) {
    const size_t m2 = leaf_sizes[cell];
    DPGRID_CHECK(m2 >= 1 && leaf_values.size() - offset >= m2 * m2);
    const std::span<const double> values = leaf_values.subspan(offset, m2 * m2);
    offset += values.size();
    ag->leaves_.push_back(LeafBlock{
        GridCounts::FromRaw(level1.CellRect(cell % m1, cell / m1), m2, m2,
                            std::vector<double>(values.begin(), values.end())),
        {}});
  }
  DPGRID_CHECK(offset == leaf_values.size());
  ag->level1_.emplace(std::move(level1));
  ag->BuildIndexes();
  return ag;
}

void AdaptiveGrid::BuildIndexes() {
  size_t corners = 0;
  for (LeafBlock& block : leaves_) {
    block.prefix.emplace(block.counts.values(), block.counts.nx(),
                         block.counts.ny());
    corners += block.prefix->corners().size();
  }
  level1_prefix_.emplace(level1_->values(), level1_->nx(), level1_->ny());
  flat_ = FlatLeafIndex2D();
  flat_.Reserve(leaves_.size(), corners);
  for (const LeafBlock& block : leaves_) {
    flat_.Add(block.counts, *block.prefix);
  }
}

void AdaptiveGrid::Build(const Dataset& dataset, PrivacyBudget& budget,
                         Rng& rng) {
  DPGRID_CHECK(options_.alpha > 0.0 && options_.alpha < 1.0);

  // -- Choose m1 ------------------------------------------------------------
  double total_epsilon = budget.total();
  m1_ = options_.level1_size;
  if (m1_ <= 0) {
    double n = static_cast<double>(dataset.size());
    double guideline_epsilon = total_epsilon;
    if (options_.n_estimate_fraction > 0.0) {
      double eps_n = budget.SpendFraction(options_.n_estimate_fraction,
                                          "ag/noisy-n-estimate");
      n = LaplaceMechanism(n, /*sensitivity=*/1.0, eps_n, rng);
      if (n < 1.0) n = 1.0;
      guideline_epsilon = budget.remaining();
    }
    m1_ = ChooseAdaptiveLevel1Size(n, guideline_epsilon, options_.guideline_c);
  }
  DPGRID_CHECK(m1_ >= 1);
  const auto m1 = static_cast<size_t>(m1_);

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
  std::vector<int> m2(m1 * m1, 1);
  for (size_t i = 0; i < m2.size(); ++i) {
    int size = ChooseAdaptiveLevel2Size(level1_noisy.values()[i], eps2,
                                        options_.c2);
    if (options_.max_level2_size > 0) {
      size = std::min(size, options_.max_level2_size);
    }
    m2[i] = size;
  }

  // -- Level 2: second data pass, exact leaf histograms ----------------------
  leaves_.clear();
  leaves_.reserve(m1 * m1);
  GridCounts domain_grid(dataset.domain(), m1, m1);  // for cell rects only
  for (size_t iy = 0; iy < m1; ++iy) {
    for (size_t ix = 0; ix < m1; ++ix) {
      size_t cell = iy * m1 + ix;
      auto sz = static_cast<size_t>(m2[cell]);
      leaves_.push_back(
          LeafBlock{GridCounts(domain_grid.CellRect(ix, iy), sz, sz), {}});
    }
  }
  for (const Point2& p : dataset.points()) {
    size_t ix = 0;
    size_t iy = 0;
    domain_grid.CellOf(p, &ix, &iy);
    LeafBlock& block = leaves_[iy * m1 + ix];
    size_t lx = 0;
    size_t ly = 0;
    block.counts.CellOf(p, &lx, &ly);
    block.counts.add(lx, ly, 1.0);
  }

  // -- Noise leaves with budget (1 - alpha) * eps -----------------------------
  for (LeafBlock& block : leaves_) {
    block.counts.AddLaplaceNoise(eps2, rng);
  }

  // -- Constrained inference (2-level, paper §IV-B) ---------------------------
  // v' = weighted average of the level-1 noisy count v (variance 2/eps1²)
  // and the sum of its leaves (variance m2² · 2/eps2²); the residual is then
  // spread equally across the leaves so that sum(leaves) == v'.
  level1_.emplace(dataset.domain(), m1, m1);
  for (size_t cell = 0; cell < leaves_.size(); ++cell) {
    LeafBlock& block = leaves_[cell];
    double v = level1_noisy.values()[cell];
    double leaf_cells = static_cast<double>(block.counts.values().size());
    double leaf_sum = block.counts.Total();
    double v_final = v;
    if (options_.constrained_inference) {
      double var_v = LaplaceVariance(1.0, eps1);
      double var_sum = leaf_cells * LaplaceVariance(1.0, eps2);
      double w_v = (1.0 / var_v) / (1.0 / var_v + 1.0 / var_sum);
      v_final = w_v * v + (1.0 - w_v) * leaf_sum;
      double residual_per_leaf = (v_final - leaf_sum) / leaf_cells;
      for (double& u : block.counts.mutable_values()) u += residual_per_leaf;
    }
    level1_->mutable_values()[cell] = v_final;
  }
  BuildIndexes();
}

double AdaptiveGrid::AnswerOne(const Rect& query) const {
  const GridCounts& l1 = *level1_;
  // Domain → level-1 cell units via precomputed reciprocals (no divisions).
  double fx0 = (query.xlo - l1.domain().xlo) * l1.inv_cell_width();
  double fx1 = (query.xhi - l1.domain().xlo) * l1.inv_cell_width();
  double fy0 = (query.ylo - l1.domain().ylo) * l1.inv_cell_height();
  double fy1 = (query.yhi - l1.domain().ylo) * l1.inv_cell_height();
  const auto m1 = static_cast<double>(m1_);
  fx0 = std::clamp(fx0, 0.0, m1);
  fx1 = std::clamp(fx1, 0.0, m1);
  fy0 = std::clamp(fy0, 0.0, m1);
  fy1 = std::clamp(fy1, 0.0, m1);
  if (fx1 <= fx0 || fy1 <= fy0) return 0.0;

  int bx0 = static_cast<int>(std::floor(fx0));
  int bx1 = static_cast<int>(std::ceil(fx1)) - 1;
  int by0 = static_cast<int>(std::floor(fy0));
  int by1 = static_cast<int>(std::ceil(fy1)) - 1;
  bx0 = std::clamp(bx0, 0, m1_ - 1);
  bx1 = std::clamp(bx1, 0, m1_ - 1);
  by0 = std::clamp(by0, 0, m1_ - 1);
  by1 = std::clamp(by1, 0, m1_ - 1);

  // Level-1 cells fully covered by the query: answered by v' via the
  // level-1 prefix sums. (Consistency from constrained inference makes this
  // equal to summing their leaves.)
  int ix_full0 = (fx0 <= bx0) ? bx0 : bx0 + 1;
  int ix_full1 = (fx1 >= bx1 + 1) ? bx1 + 1 : bx1;  // one past last
  int iy_full0 = (fy0 <= by0) ? by0 : by0 + 1;
  int iy_full1 = (fy1 >= by1 + 1) ? by1 + 1 : by1;
  bool has_interior = ix_full1 > ix_full0 && iy_full1 > iy_full0;

  double total = 0.0;
  if (has_interior) {
    total += level1_prefix_->BlockSum(
        static_cast<size_t>(ix_full0), static_cast<size_t>(ix_full1),
        static_cast<size_t>(iy_full0), static_cast<size_t>(iy_full1));
  }

  // Border level-1 cells: answered from their leaf grids with fractional
  // (uniformity) proration.
  for (int by = by0; by <= by1; ++by) {
    for (int bx = bx0; bx <= bx1; ++bx) {
      bool interior = has_interior && bx >= ix_full0 && bx < ix_full1 &&
                      by >= iy_full0 && by < iy_full1;
      if (interior) continue;
      const LeafBlock& block =
          leaves_[static_cast<size_t>(by) * m1_ + static_cast<size_t>(bx)];
      total += FracView2D::Make(block.counts, *block.prefix).Answer(query);
    }
  }
  return total;
}

double AdaptiveGrid::Answer(const Rect& query) const {
  return AnswerOne(query);
}

namespace {

/// Per-thread pair buffer for the batched border decomposition.
/// Thread-local (not per-call) because QueryEngine shards one batch
/// across threads, and capacity persists so steady-state batches
/// allocate nothing.
std::vector<CellPair>& GetAgPairScratch() {
  thread_local std::vector<CellPair> pairs;
  return pairs;
}

/// Queries decomposed per chunk before the border kernels run; big enough
/// that same-cell runs form in the sorted pair array, small enough that
/// the pair/contribution buffers stay cache-resident.
constexpr size_t kAgChunk = 4096;

}  // namespace

void AdaptiveGrid::AnswerBatch(std::span<const Rect> queries,
                               std::span<double> out) const {
  DPGRID_CHECK(queries.size() == out.size());
  const Rect* q = queries.data();
  double* o = out.data();
  const size_t n = queries.size();
  std::vector<CellPair>& pairs = GetAgPairScratch();
  // A query's border is at most two partial rows plus two partial columns
  // (no interior only when one axis spans <= 2 cells).
  const size_t max_pairs_per_query = 4 * static_cast<size_t>(m1_) + 4;
  // Sort-bucket histogram, maintained during emission so the pair sort
  // skips its counting pass.
  const uint32_t sort_shift = flat_.pair_sort_shift();
  uint32_t hist[kPairSortBuckets];

  const GridCounts& l1 = *level1_;
  const double x_origin = l1.domain().xlo;
  const double y_origin = l1.domain().ylo;
  const double inv_w = l1.inv_cell_width();
  const double inv_h = l1.inv_cell_height();
  const double m1f = static_cast<double>(m1_);

  // Two passes per chunk: decompose every query against the level-1 grid
  // (interior answered straight from the level-1 prefix sums, border cells
  // emitted as (query, cell) jobs), answer all border jobs through the
  // flattened leaf kernel, then accumulate the contributions. Emission is
  // query-major and row-major within a query, and accumulation follows
  // emission order, so each out[i] is built by exactly the operation
  // sequence of the scalar AnswerOne — bitwise identical.
  for (size_t base = 0; base < n; base += kAgChunk) {
    const size_t chunk = std::min(kAgChunk, n - base);
    size_t np = 0;
    std::fill(hist, hist + kPairSortBuckets, 0u);
    for (size_t k = 0; k < chunk; ++k) {
      if (pairs.size() < np + max_pairs_per_query) {
        pairs.resize(std::max(np + max_pairs_per_query, 2 * pairs.size()));
      }
      CellPair* pw = pairs.data();
      const Rect& query = q[base + k];
      double fx0 = (query.xlo - x_origin) * inv_w;
      double fx1 = (query.xhi - x_origin) * inv_w;
      double fy0 = (query.ylo - y_origin) * inv_h;
      double fy1 = (query.yhi - y_origin) * inv_h;
      fx0 = std::clamp(fx0, 0.0, m1f);
      fx1 = std::clamp(fx1, 0.0, m1f);
      fy0 = std::clamp(fy0, 0.0, m1f);
      fy1 = std::clamp(fy1, 0.0, m1f);
      if (fx1 <= fx0 || fy1 <= fy0) {
        o[base + k] = 0.0;
        continue;
      }
      int bx0 = static_cast<int>(std::floor(fx0));
      int bx1 = static_cast<int>(std::ceil(fx1)) - 1;
      int by0 = static_cast<int>(std::floor(fy0));
      int by1 = static_cast<int>(std::ceil(fy1)) - 1;
      bx0 = std::clamp(bx0, 0, m1_ - 1);
      bx1 = std::clamp(bx1, 0, m1_ - 1);
      by0 = std::clamp(by0, 0, m1_ - 1);
      by1 = std::clamp(by1, 0, m1_ - 1);
      const int ix_full0 = (fx0 <= bx0) ? bx0 : bx0 + 1;
      const int ix_full1 = (fx1 >= bx1 + 1) ? bx1 + 1 : bx1;
      const int iy_full0 = (fy0 <= by0) ? by0 : by0 + 1;
      const int iy_full1 = (fy1 >= by1 + 1) ? by1 + 1 : by1;
      const bool has_interior = ix_full1 > ix_full0 && iy_full1 > iy_full0;

      double total = 0.0;
      if (has_interior) {
        // `+=`, not `=`: keeps even a -0.0 block sum on the scalar path's
        // exact accumulation sequence.
        total += level1_prefix_->BlockSum(
            static_cast<size_t>(ix_full0), static_cast<size_t>(ix_full1),
            static_cast<size_t>(iy_full0), static_cast<size_t>(iy_full1));
      }
      o[base + k] = total;

      const auto qk = static_cast<uint32_t>(k);
      // Emits the contiguous cell range [c0, c1) for this query: one
      // histogram range-add per touched sort bucket (instead of a
      // counter increment per cell), then tight consecutive-cell stores.
      const auto emit_run = [&](uint32_t c0, uint32_t c1) {
        const uint32_t b1 = (c1 - 1) >> sort_shift;
        for (uint32_t b = c0 >> sort_shift; b <= b1; ++b) {
          const uint32_t lo = std::max(c0, b << sort_shift);
          const uint32_t hi = std::min(c1, (b + 1) << sort_shift);
          hist[b] += hi - lo;
        }
        for (uint32_t c = c0; c < c1; ++c) pw[np++] = CellPair{qk, c};
      };
      for (int by = by0; by <= by1; ++by) {
        const auto row = static_cast<uint32_t>(by) *
                         static_cast<uint32_t>(m1_);
        const bool row_interior =
            has_interior && by >= iy_full0 && by < iy_full1;
        if (!row_interior) {
          emit_run(row + static_cast<uint32_t>(bx0),
                   row + static_cast<uint32_t>(bx1) + 1);
        } else {
          if (bx0 < ix_full0) {
            emit_run(row + static_cast<uint32_t>(bx0),
                     row + static_cast<uint32_t>(ix_full0));
          }
          if (ix_full1 <= bx1) {
            emit_run(row + static_cast<uint32_t>(ix_full1),
                     row + static_cast<uint32_t>(bx1) + 1);
          }
        }
      }
    }

    AccumulateCellPairs(flat_, q + base, pairs.data(), np, hist, o + base);
  }
}

std::string AdaptiveGrid::Name() const {
  int c2_int = static_cast<int>(std::lround(options_.c2));
  return "A" + std::to_string(m1_) + "," + std::to_string(c2_int);
}

std::vector<SynopsisCell> AdaptiveGrid::ExportCells() const {
  std::vector<SynopsisCell> cells;
  cells.reserve(static_cast<size_t>(TotalLeafCells()));
  for (const LeafBlock& block : leaves_) {
    for (size_t iy = 0; iy < block.counts.ny(); ++iy) {
      for (size_t ix = 0; ix < block.counts.nx(); ++ix) {
        cells.push_back(SynopsisCell{block.counts.CellRect(ix, iy),
                                     block.counts.at(ix, iy)});
      }
    }
  }
  return cells;
}

double AdaptiveGrid::Level1Count(size_t ix, size_t iy) const {
  return level1_->at(ix, iy);
}

int AdaptiveGrid::Level2Size(size_t ix, size_t iy) const {
  return static_cast<int>(
      leaves_[iy * static_cast<size_t>(m1_) + ix].counts.nx());
}

int64_t AdaptiveGrid::TotalLeafCells() const {
  int64_t total = 0;
  for (const LeafBlock& block : leaves_) {
    total += static_cast<int64_t>(block.counts.values().size());
  }
  return total;
}

}  // namespace dpgrid
