#include "nd/adaptive_grid_nd.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "dp/laplace.h"

namespace dpgrid {

AdaptiveGridNd::AdaptiveGridNd(const DatasetNd& dataset,
                               PrivacyBudget& budget, Rng& rng,
                               const AdaptiveGridNdOptions& options)
    : options_(options) {
  Build(dataset, budget, rng);
}

AdaptiveGridNd::AdaptiveGridNd(const DatasetNd& dataset, double epsilon,
                               Rng& rng, const AdaptiveGridNdOptions& options)
    : options_(options) {
  PrivacyBudget budget(epsilon);
  Build(dataset, budget, rng);
}

std::unique_ptr<AdaptiveGridNd> AdaptiveGridNd::Restore(
    AdaptiveGridNdOptions options, GridNd level1,
    std::span<const size_t> leaf_sizes, std::span<const double> leaf_values) {
  const size_t d = level1.dims();
  for (size_t n : level1.sizes()) DPGRID_CHECK(n == level1.sizes()[0]);
  DPGRID_CHECK(leaf_sizes.size() == level1.num_cells());
  std::unique_ptr<AdaptiveGridNd> ag(new AdaptiveGridNd());
  ag->options_ = options;
  ag->m1_ = static_cast<int>(level1.sizes()[0]);
  ag->leaves_.resize(leaf_sizes.size());
  size_t offset = 0;
  for (size_t i = 0; i < leaf_sizes.size(); ++i) {
    std::vector<size_t> sizes(d, leaf_sizes[i]);
    size_t cells = 1;
    for (size_t n : sizes) cells *= n;
    DPGRID_CHECK(leaf_values.size() - offset >= cells);
    const std::span<const double> values = leaf_values.subspan(offset, cells);
    offset += cells;
    ag->leaves_[i].counts.emplace(GridNd::FromRaw(
        level1.CellBoxFlat(i), std::move(sizes),
        std::vector<double>(values.begin(), values.end())));
  }
  DPGRID_CHECK(offset == leaf_values.size());
  ag->level1_.emplace(std::move(level1));
  ag->BuildIndexes();
  return ag;
}

void AdaptiveGridNd::BuildIndexes() {
  level1_prefix_.emplace(level1_->values(), level1_->sizes());
  size_t corners = 0;
  for (const LeafBlock& block : leaves_) {
    size_t padded = 1;
    for (size_t n : block.counts->sizes()) padded *= n + 1;
    corners += padded;
  }
  flat_ = FlatLeafIndexNd();
  flat_.Reserve(leaves_.size(), corners, level1_->dims());
  for (const LeafBlock& block : leaves_) {
    const PrefixSumNd prefix(block.counts->values(), block.counts->sizes());
    flat_.Add(*block.counts, prefix.corners());
  }
  BuildFaceSlabIndex(FaceSlabIndexNd::kMaxClasses);
}

void AdaptiveGridNd::BuildFaceSlabIndex(int max_classes) {
  int max_leaf = 0;
  for (size_t i = 0; i < flat_.num_cells(); ++i) {
    const PrefixViewNd view = flat_.View(i);
    for (size_t a = 0; a < view.dims; ++a) {
      max_leaf = std::max(max_leaf, static_cast<int>(view.sizes[a]));
    }
  }
  const int classes = FaceSlabIndexNd::ChooseClasses(
      flat_.dims(), m1_, std::min(max_leaf, max_classes), flat_.arena_size());
  faces_.Build(flat_, m1_, classes);
}

void AdaptiveGridNd::LimitFaceSlabClassesForTesting(int max_classes) {
  BuildFaceSlabIndex(max_classes);
}

void AdaptiveGridNd::Build(const DatasetNd& dataset, PrivacyBudget& budget,
                           Rng& rng) {
  DPGRID_CHECK(options_.alpha > 0.0 && options_.alpha < 1.0);
  const size_t d = dataset.dims();

  m1_ = options_.level1_size;
  if (m1_ <= 0) {
    m1_ = ChooseAdaptiveLevel1SizeNd(static_cast<double>(dataset.size()),
                                     budget.total(), d, options_.guideline_c);
  }
  DPGRID_CHECK(m1_ >= 1);
  const std::vector<size_t> l1_sizes(d, static_cast<size_t>(m1_));

  const double eps1 =
      budget.Spend(options_.alpha * budget.remaining(), "agnd/level1-counts");
  const double eps2 = budget.SpendRemaining("agnd/level2-counts");

  GridNd level1_noisy = GridNd::FromDataset(dataset, l1_sizes);
  level1_noisy.AddLaplaceNoise(eps1, rng);

  // Leaf sizes per level-1 cell from the generalized Guideline 2.
  const size_t l1_cells = level1_noisy.num_cells();
  std::vector<int> m2(l1_cells, 1);
  for (size_t i = 0; i < l1_cells; ++i) {
    int size = ChooseAdaptiveLevel2SizeNd(level1_noisy.values()[i], eps2, d,
                                          options_.c2);
    m2[i] = std::min(size, std::max(1, options_.max_level2_size));
  }

  // Second pass: exact leaf histograms.
  GridNd domain_grid(dataset.domain(), l1_sizes);  // geometry only
  leaves_.clear();
  leaves_.resize(l1_cells);
  for (size_t i = 0; i < l1_cells; ++i) {
    leaves_[i].counts.emplace(domain_grid.CellBoxFlat(i),
                              std::vector<size_t>(d,
                                                  static_cast<size_t>(m2[i])));
  }
  for (const PointNd& p : dataset.points()) {
    GridNd& leaf = *leaves_[domain_grid.FlatCellOf(p)].counts;
    leaf.mutable_values()[leaf.FlatCellOf(p)] += 1.0;
  }
  for (LeafBlock& block : leaves_) block.counts->AddLaplaceNoise(eps2, rng);

  // 2-level constrained inference, exactly as in 2-D.
  level1_.emplace(dataset.domain(), l1_sizes);
  for (size_t i = 0; i < l1_cells; ++i) {
    LeafBlock& block = leaves_[i];
    const double v = level1_noisy.values()[i];
    const double leaf_cells =
        static_cast<double>(block.counts->num_cells());
    const double leaf_sum = block.counts->Total();
    double v_final = v;
    if (options_.constrained_inference) {
      const double var_v = LaplaceVariance(1.0, eps1);
      const double var_sum = leaf_cells * LaplaceVariance(1.0, eps2);
      const double w_v = (1.0 / var_v) / (1.0 / var_v + 1.0 / var_sum);
      v_final = w_v * v + (1.0 - w_v) * leaf_sum;
      const double residual = (v_final - leaf_sum) / leaf_cells;
      for (double& u : block.counts->mutable_values()) u += residual;
    }
    level1_->mutable_values()[i] = v_final;
  }
  BuildIndexes();
}

bool AdaptiveGridNd::Decompose(const double* qlo, const double* qhi,
                               Level1SpanNd* span) const {
  const size_t d = level1_->dims();
  const double m1 = static_cast<double>(m1_);
  const double* inv = level1_->inv_cell_extents().data();
  span->has_interior = true;
  for (size_t a = 0; a < d; ++a) {
    // GridNd::ToCellCoords's arithmetic, clamped to the grid.
    const double org = level1_->domain().lo(a);
    const double lo = std::clamp((qlo[a] - org) * inv[a], 0.0, m1);
    const double hi = std::clamp((qhi[a] - org) * inv[a], 0.0, m1);
    if (hi <= lo) return false;
    const int64_t b_lo = std::clamp<int64_t>(
        static_cast<int64_t>(std::floor(lo)), 0, m1_ - 1);
    const int64_t b_hi = std::clamp<int64_t>(
        static_cast<int64_t>(std::ceil(hi)) - 1, 0, m1_ - 1);
    const int64_t f_lo =
        (lo <= static_cast<double>(b_lo)) ? b_lo : b_lo + 1;
    const int64_t f_hi =
        (hi >= static_cast<double>(b_hi + 1)) ? b_hi + 1 : b_hi;
    span->b_lo[a] = b_lo;
    span->b_hi[a] = b_hi;
    span->full_lo[a] = static_cast<size_t>(f_lo);
    span->full_hi[a] = static_cast<size_t>(std::max<int64_t>(f_lo, f_hi));
    if (span->full_hi[a] <= span->full_lo[a]) span->has_interior = false;
  }
  return true;
}

double AdaptiveGridNd::AnswerHead(const double* qlo, const double* qhi,
                                  const Level1SpanNd& span) const {
  double total = 0.0;
  // `+=`, not `=`: one accumulation sequence, even for a -0.0 block sum.
  if (span.has_interior) {
    total += level1_prefix_->BlockSum(span.full_lo, span.full_hi);
  }
  return faces_.AddFaceTerms(qlo, qhi, span, total);
}

template <typename Run>
void AdaptiveGridNd::ForEachBorderRun(const Level1SpanNd& span,
                                      Run&& run) const {
  // An odometer over the outer axes (0..d-2) with contiguous runs along
  // the last (fastest) axis. A row cut on two or more outer axes holds
  // only edge and corner cells; a row cut on one outer axis a holds face
  // cells of axis a where the last axis is fully covered; an uncut row
  // holds face cells of the last axis on both sides of the interior.
  const size_t d = level1_->dims();
  const size_t last = d - 1;
  const auto m1u = static_cast<uint32_t>(m1_);
  const auto c_lo = static_cast<uint32_t>(span.b_lo[last]);
  const auto c_hi = static_cast<uint32_t>(span.b_hi[last]) + 1;
  const auto i_lo = static_cast<uint32_t>(span.full_lo[last]);
  const auto i_hi = static_cast<uint32_t>(span.full_hi[last]);
  const auto last_bit = static_cast<uint8_t>(1u << last);
  int64_t idx[PrefixSumNd::kMaxDims];
  for (size_t a = 0; a < last; ++a) idx[a] = span.b_lo[a];
  while (true) {
    uint32_t row = 0;
    size_t cuts = 0;
    size_t cut_axis = 0;
    for (size_t a = 0; a < last; ++a) {
      row = row * m1u + static_cast<uint32_t>(idx[a]);
      if (idx[a] < static_cast<int64_t>(span.full_lo[a]) ||
          idx[a] >= static_cast<int64_t>(span.full_hi[a])) {
        ++cuts;
        cut_axis = a;
      }
    }
    row *= m1u;
    if (cuts >= 2) {
      run(row + c_lo, row + c_hi, uint8_t{0});
    } else if (cuts == 1) {
      if (c_lo < i_lo) run(row + c_lo, row + i_lo, uint8_t{0});
      if (i_lo < i_hi) {
        run(row + i_lo, row + i_hi, static_cast<uint8_t>(1u << cut_axis));
      }
      if (i_hi < c_hi) run(row + i_hi, row + c_hi, uint8_t{0});
    } else {
      if (c_lo < i_lo) run(row + c_lo, row + i_lo, last_bit);
      if (i_hi < c_hi) run(row + i_hi, row + c_hi, last_bit);
    }
    bool rolled_over = true;
    for (size_t a = last; a-- > 0;) {
      if (++idx[a] <= span.b_hi[a]) {
        rolled_over = false;
        break;
      }
      idx[a] = span.b_lo[a];
    }
    if (rolled_over) break;
  }
}

double AdaptiveGridNd::Answer(const BoxNd& query) const {
  const size_t d = level1_->dims();
  double qlo[PrefixSumNd::kMaxDims];
  double qhi[PrefixSumNd::kMaxDims];
  for (size_t a = 0; a < d; ++a) {
    qlo[a] = query.lo(a);
    qhi[a] = query.hi(a);
  }
  return AnswerBounds(qlo, qhi);
}

double AdaptiveGridNd::AnswerBounds(const double* qlo,
                                    const double* qhi) const {
  Level1SpanNd span;
  if (!Decompose(qlo, qhi, &span)) return 0.0;
  double total = AnswerHead(qlo, qhi, span);
  // The remaining border cells, each from its own leaf grid — what the
  // batch kernels compute per (query, cell) pair, in the same order.
  const uint8_t* flags = faces_.flags();
  double leaf_lo[PrefixSumNd::kMaxDims];
  double leaf_hi[PrefixSumNd::kMaxDims];
  ForEachBorderRun(span, [&](uint32_t c0, uint32_t c1, uint8_t skip) {
    for (uint32_t c = c0; c < c1; ++c) {
      if ((flags[c] & skip) != 0) continue;
      flat_.ToCellCoords(c, qlo, qhi, leaf_lo, leaf_hi);
      total += flat_.View(c).FractionalSum(leaf_lo, leaf_hi);
    }
  });
  return total;
}

namespace {

/// Per-thread scratch for the batched N-d border decomposition: the
/// axis-major bounds AnswerBatch transposes each chunk of boxes into
/// (BoxNd stores its bounds in per-box heap vectors), and the (query,
/// cell) pair buffer AnswerChunk emits into. Thread-local (not per-call)
/// because QueryEngine shards one batch across threads, and capacity
/// persists so steady-state batches allocate nothing.
struct AgNdBatchScratch {
  std::vector<double> bounds;
  std::vector<CellPair> pairs;
};

AgNdBatchScratch& GetAgNdBatchScratch() {
  thread_local AgNdBatchScratch scratch;
  return scratch;
}

}  // namespace

void AdaptiveGridNd::AnswerBatch(std::span<const BoxNd> queries,
                                 std::span<double> out) const {
  DPGRID_CHECK(queries.size() == out.size());
  const size_t d = level1_->dims();
  std::vector<double>& bounds = GetAgNdBatchScratch().bounds;
  bounds.resize(2 * d * kBatchChunk);
  double* qlo = bounds.data();
  double* qhi = qlo + d * kBatchChunk;
  for (size_t base = 0; base < queries.size(); base += kBatchChunk) {
    const size_t chunk = std::min(kBatchChunk, queries.size() - base);
    for (size_t k = 0; k < chunk; ++k) {
      const BoxNd& query = queries[base + k];
      for (size_t a = 0; a < d; ++a) {
        qlo[a * kBatchChunk + k] = query.lo(a);
        qhi[a * kBatchChunk + k] = query.hi(a);
      }
    }
    AnswerChunk(qlo, qhi, chunk, out.data() + base);
  }
}

void AdaptiveGridNd::AnswerChunk(const double* qlo, const double* qhi,
                                 size_t n, double* out) const {
  DPGRID_CHECK(n <= kBatchChunk);
  const size_t d = level1_->dims();
  std::vector<CellPair>& pairs = GetAgNdBatchScratch().pairs;
  // Sort-bucket histogram, maintained during emission so the pair sort
  // skips its counting pass.
  const uint32_t sort_shift = flat_.pair_sort_shift();
  uint32_t hist[kPairSortBuckets];
  std::fill(hist, hist + kPairSortBuckets, 0u);
  const uint8_t* flags = faces_.flags();

  // Two passes: decompose every box against the level-1 grid (interior
  // and face-slab terms answered at once, the remaining border cells
  // emitted as (query, cell) jobs), then answer all border jobs through
  // the flattened leaf kernel and accumulate the contributions. Emission
  // is query-major and ascending-flat within a query, and accumulation
  // follows emission order, so each out[k] is built by exactly the
  // operation sequence of the scalar AnswerBounds — bitwise identical.
  size_t np = 0;
  for (size_t k = 0; k < n; ++k) {
    double box_lo[PrefixSumNd::kMaxDims];
    double box_hi[PrefixSumNd::kMaxDims];
    for (size_t a = 0; a < d; ++a) {
      box_lo[a] = qlo[a * kBatchChunk + k];
      box_hi[a] = qhi[a * kBatchChunk + k];
    }
    Level1SpanNd span;
    if (!Decompose(box_lo, box_hi, &span)) {
      out[k] = 0.0;
      continue;
    }
    out[k] = AnswerHead(box_lo, box_hi, span);

    // Upper bound on this query's border pairs: overlapped cells minus
    // the interior block (full_hi >= full_lo per axis by construction,
    // even when there is no interior).
    size_t span_prod = 1;
    size_t full_prod = 1;
    for (size_t a = 0; a < d; ++a) {
      span_prod *= static_cast<size_t>(span.b_hi[a] - span.b_lo[a] + 1);
      full_prod *= span.full_hi[a] - span.full_lo[a];
    }
    const size_t need = span_prod - (span.has_interior ? full_prod : 0);
    if (pairs.size() < np + need) {
      pairs.resize(std::max(np + need, 2 * pairs.size()));
    }
    CellPair* pw = pairs.data();

    const auto qk = static_cast<uint32_t>(k);
    // Emits the cells of [c0, c1) not answered by the face slabs. A
    // whole range gets one histogram range-add per touched sort bucket
    // (instead of a counter increment per cell) and tight stores.
    ForEachBorderRun(span, [&](uint32_t c0, uint32_t c1, uint8_t skip) {
      if (skip != 0) {
        for (uint32_t c = c0; c < c1; ++c) {
          if ((flags[c] & skip) != 0) continue;
          ++hist[c >> sort_shift];
          pw[np++] = CellPair{qk, c};
        }
        return;
      }
      const uint32_t b1 = (c1 - 1) >> sort_shift;
      for (uint32_t b = c0 >> sort_shift; b <= b1; ++b) {
        const uint32_t lo = std::max(c0, b << sort_shift);
        const uint32_t hi = std::min(c1, (b + 1) << sort_shift);
        hist[b] += hi - lo;
      }
      for (uint32_t c = c0; c < c1; ++c) pw[np++] = CellPair{qk, c};
    });
  }
  DPGRID_CHECK_MSG(np <= std::numeric_limits<uint32_t>::max(),
                   "border pair count exceeds 32-bit indexing");

  AccumulateCellPairsNd(flat_, qlo, qhi, kBatchChunk, pairs.data(), np, hist,
                        out);
}

std::string AdaptiveGridNd::Name() const {
  return "A" + std::to_string(level1_->dims()) + "d-" + std::to_string(m1_);
}

int AdaptiveGridNd::Level2Size(size_t flat) const {
  return static_cast<int>(leaves_[flat].counts->sizes()[0]);
}

int64_t AdaptiveGridNd::TotalLeafCells() const {
  int64_t total = 0;
  for (const LeafBlock& block : leaves_) {
    total += static_cast<int64_t>(block.counts->num_cells());
  }
  return total;
}

}  // namespace dpgrid
