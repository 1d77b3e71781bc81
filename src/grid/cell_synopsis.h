#ifndef DPGRID_GRID_CELL_SYNOPSIS_H_
#define DPGRID_GRID_CELL_SYNOPSIS_H_

#include <string>
#include <vector>

#include "grid/synopsis.h"

namespace dpgrid {

/// A synopsis backed by an explicit list of released cells — what an
/// analyst holds after loading a published release. Answers queries by
/// fractional overlap over the stored cells: O(#cells) per query, fine for
/// consumer-side use.
class CellSynopsis : public Synopsis {
 public:
  /// `name` labels the release (e.g. the producing method's Name()).
  explicit CellSynopsis(std::vector<SynopsisCell> cells,
                        std::string name = "cells");

  double Answer(const Rect& query) const override;
  /// Answer scans every cell.
  double QueryCostNs() const override { return 2.0 * cells_.size(); }
  std::string Name() const override { return name_; }
  std::vector<SynopsisCell> ExportCells() const override { return cells_; }

  size_t num_cells() const { return cells_.size(); }

 private:
  std::vector<SynopsisCell> cells_;
  std::string name_;
};

}  // namespace dpgrid

#endif  // DPGRID_GRID_CELL_SYNOPSIS_H_
