#include "grid/streaming.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "common/check.h"
#include "dp/laplace.h"
#include "grid/cell_synopsis.h"
#include "index/prefix_sum2d.h"

namespace dpgrid {

// ---------------------------------------------------------------------------
// StreamingUniformGridBuilder
// ---------------------------------------------------------------------------

namespace {

bool IsFinitePoint(const Point2& p) {
  return std::isfinite(p.x) && std::isfinite(p.y);
}

int ResolveGridSize(int grid_size, int64_t expected_n, double epsilon,
                    double guideline_c) {
  if (grid_size > 0) return grid_size;
  DPGRID_CHECK_MSG(expected_n > 0,
                   "streaming builders need a grid size or an expected N");
  return ChooseUniformGridSize(static_cast<double>(expected_n), epsilon,
                               guideline_c);
}

}  // namespace

StreamingUniformGridBuilder::StreamingUniformGridBuilder(
    Rect domain, double epsilon, int grid_size, int64_t expected_n,
    double guideline_c)
    : epsilon_(epsilon),
      grid_(domain,
            static_cast<size_t>(ResolveGridSize(grid_size, expected_n,
                                                epsilon, guideline_c)),
            static_cast<size_t>(ResolveGridSize(grid_size, expected_n,
                                                epsilon, guideline_c))) {
  DPGRID_CHECK(epsilon > 0.0);
}

void StreamingUniformGridBuilder::AddPoint(const Point2& p) {
  if (!IsFinitePoint(p)) {
    ++points_rejected_;
    return;
  }
  size_t ix = 0;
  size_t iy = 0;
  grid_.CellOf(p, &ix, &iy);
  grid_.add(ix, iy, 1.0);
  ++points_seen_;
}

GridCounts StreamingUniformGridBuilder::Finish(Rng& rng) && {
  grid_.AddLaplaceNoise(epsilon_, rng);
  return std::move(grid_);
}

// ---------------------------------------------------------------------------
// StreamingAdaptiveGridBuilder
// ---------------------------------------------------------------------------

StreamingAdaptiveGridBuilder::StreamingAdaptiveGridBuilder(
    Rect domain, double epsilon, const AdaptiveGridOptions& options,
    int64_t expected_n)
    : options_(options),
      epsilon_(epsilon),
      m1_(options.level1_size),
      level1_(domain, 1, 1) {
  DPGRID_CHECK(epsilon > 0.0);
  DPGRID_CHECK(options_.alpha > 0.0 && options_.alpha < 1.0);
  if (m1_ <= 0) {
    DPGRID_CHECK_MSG(expected_n > 0,
                     "streaming AG needs level1_size or an expected N");
    m1_ = ChooseAdaptiveLevel1Size(static_cast<double>(expected_n), epsilon,
                                   options_.guideline_c);
  }
  level1_ = GridCounts(domain, static_cast<size_t>(m1_),
                       static_cast<size_t>(m1_));
  eps1_ = options_.alpha * epsilon;
  eps2_ = epsilon - eps1_;
}

void StreamingAdaptiveGridBuilder::AddPointPass1(const Point2& p) {
  DPGRID_CHECK_MSG(!level1_done_, "pass 1 already finished");
  if (!IsFinitePoint(p)) {
    ++points_rejected_;
    return;
  }
  size_t ix = 0;
  size_t iy = 0;
  level1_.CellOf(p, &ix, &iy);
  level1_.add(ix, iy, 1.0);
}

void StreamingAdaptiveGridBuilder::FinishLevel1(Rng& rng) {
  DPGRID_CHECK_MSG(!level1_done_, "pass 1 already finished");
  level1_done_ = true;
  level1_.AddLaplaceNoise(eps1_, rng);
  const auto m1 = static_cast<size_t>(m1_);
  leaves_.reserve(m1 * m1);
  for (size_t iy = 0; iy < m1; ++iy) {
    for (size_t ix = 0; ix < m1; ++ix) {
      int m2 = ChooseAdaptiveLevel2Size(level1_.at(ix, iy), eps2_,
                                        options_.c2);
      if (options_.max_level2_size > 0) {
        m2 = std::min(m2, options_.max_level2_size);
      }
      leaves_.emplace_back(level1_.CellRect(ix, iy),
                           static_cast<size_t>(m2),
                           static_cast<size_t>(m2));
    }
  }
}

void StreamingAdaptiveGridBuilder::AddPointPass2(const Point2& p) {
  DPGRID_CHECK_MSG(level1_done_, "FinishLevel1 must run before pass 2");
  if (!IsFinitePoint(p)) return;
  size_t ix = 0;
  size_t iy = 0;
  level1_.CellOf(p, &ix, &iy);
  GridCounts& leaf = leaves_[iy * static_cast<size_t>(m1_) + ix];
  size_t lx = 0;
  size_t ly = 0;
  leaf.CellOf(p, &lx, &ly);
  leaf.add(lx, ly, 1.0);
}

std::vector<SynopsisCell> StreamingAdaptiveGridBuilder::Finish(Rng& rng) && {
  DPGRID_CHECK_MSG(level1_done_, "FinishLevel1 must run before Finish");
  std::vector<SynopsisCell> cells;
  for (size_t cell = 0; cell < leaves_.size(); ++cell) {
    GridCounts& leaf = leaves_[cell];
    leaf.AddLaplaceNoise(eps2_, rng);
    if (options_.constrained_inference) {
      const double v = level1_.values()[cell];
      const double leaf_cells = static_cast<double>(leaf.values().size());
      const double leaf_sum = leaf.Total();
      const double var_v = LaplaceVariance(1.0, eps1_);
      const double var_sum = leaf_cells * LaplaceVariance(1.0, eps2_);
      const double w_v = (1.0 / var_v) / (1.0 / var_v + 1.0 / var_sum);
      const double v_final = w_v * v + (1.0 - w_v) * leaf_sum;
      const double residual = (v_final - leaf_sum) / leaf_cells;
      for (double& u : leaf.mutable_values()) u += residual;
    }
    for (size_t iy = 0; iy < leaf.ny(); ++iy) {
      for (size_t ix = 0; ix < leaf.nx(); ++ix) {
        cells.push_back(SynopsisCell{leaf.CellRect(ix, iy), leaf.at(ix, iy)});
      }
    }
  }
  return cells;
}

// ---------------------------------------------------------------------------
// CSV scan drivers
// ---------------------------------------------------------------------------

namespace {

// A Synopsis over a noisy grid with O(1) prefix-sum answering; what the
// single-scan CSV path produces.
class GridSynopsis : public Synopsis {
 public:
  GridSynopsis(GridCounts grid, std::string name)
      : grid_(std::move(grid)),
        prefix_(grid_.values(), grid_.nx(), grid_.ny()),
        name_(std::move(name)) {}

  double Answer(const Rect& query) const override {
    double x0 = 0.0;
    double x1 = 0.0;
    double y0 = 0.0;
    double y1 = 0.0;
    grid_.ToCellCoords(query, &x0, &x1, &y0, &y1);
    return prefix_.FractionalSum(x0, x1, y0, y1);
  }

  std::string Name() const override { return name_; }

  std::vector<SynopsisCell> ExportCells() const override {
    std::vector<SynopsisCell> cells;
    cells.reserve(grid_.values().size());
    for (size_t iy = 0; iy < grid_.ny(); ++iy) {
      for (size_t ix = 0; ix < grid_.nx(); ++ix) {
        cells.push_back(SynopsisCell{grid_.CellRect(ix, iy),
                                     grid_.at(ix, iy)});
      }
    }
    return cells;
  }

 private:
  GridCounts grid_;
  PrefixSum2D prefix_;
  std::string name_;
};

// Streams "x,y" lines through `consume`; returns false on open failure.
template <typename Fn>
bool ScanCsvPoints(const std::string& path, const Rect& domain, Fn consume) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    double x = 0.0;
    double y = 0.0;
    if (std::sscanf(line, "%lf,%lf", &x, &y) != 2) continue;
    x = std::clamp(x, domain.xlo, domain.xhi);
    y = std::clamp(y, domain.ylo, domain.yhi);
    consume(Point2{x, y});
  }
  std::fclose(f);
  return true;
}

int64_t CountCsvPoints(const std::string& path, const Rect& domain) {
  int64_t n = 0;
  if (!ScanCsvPoints(path, domain, [&n](const Point2&) { ++n; })) return -1;
  return n;
}

}  // namespace

std::unique_ptr<Synopsis> BuildUniformGridFromCsv(const std::string& path,
                                                  const Rect& domain,
                                                  double epsilon, Rng& rng,
                                                  int64_t n_hint) {
  if (n_hint <= 0) {
    n_hint = CountCsvPoints(path, domain);
    if (n_hint < 0) return nullptr;
    if (n_hint == 0) n_hint = 1;
  }
  StreamingUniformGridBuilder builder(domain, epsilon, /*grid_size=*/0,
                                      n_hint);
  if (!ScanCsvPoints(path, domain, [&builder](const Point2& p) {
        builder.AddPoint(p);
      })) {
    return nullptr;
  }
  const int m = builder.grid_size();
  return std::make_unique<GridSynopsis>(std::move(builder).Finish(rng),
                                        "U" + std::to_string(m) + "-csv");
}

std::unique_ptr<Synopsis> BuildAdaptiveGridFromCsv(const std::string& path,
                                                   const Rect& domain,
                                                   double epsilon, Rng& rng,
                                                   int64_t n_hint) {
  if (n_hint <= 0) {
    n_hint = CountCsvPoints(path, domain);
    if (n_hint < 0) return nullptr;
    if (n_hint == 0) n_hint = 1;
  }
  AdaptiveGridOptions options;
  StreamingAdaptiveGridBuilder builder(domain, epsilon, options, n_hint);
  if (!ScanCsvPoints(path, domain, [&builder](const Point2& p) {
        builder.AddPointPass1(p);
      })) {
    return nullptr;
  }
  builder.FinishLevel1(rng);
  if (!ScanCsvPoints(path, domain, [&builder](const Point2& p) {
        builder.AddPointPass2(p);
      })) {
    return nullptr;
  }
  const int m1 = builder.level1_size();
  return std::make_unique<CellSynopsis>(std::move(builder).Finish(rng),
                                        "A" + std::to_string(m1) + "-csv");
}

}  // namespace dpgrid
