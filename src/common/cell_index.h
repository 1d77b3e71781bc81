#ifndef DPGRID_COMMON_CELL_INDEX_H_
#define DPGRID_COMMON_CELL_INDEX_H_

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace dpgrid {

/// floor(v) clamped to the cell range [0, n) of an axis with n >= 1
/// cells. The clamp happens in double, before the conversion to an
/// integer, so out-of-range and infinite coordinates land in the nearest
/// edge cell and NaN in cell 0 — never in an undefined float-to-int cast.
inline size_t ClampedCellIndex(double v, size_t n) {
  // Written as max/min selects (one instruction each, no data-dependent
  // branch); `c > 0.0 ? c : 0.0` also maps NaN to 0.
  double cell = std::floor(v);
  cell = cell > 0.0 ? cell : 0.0;
  const auto last = static_cast<double>(static_cast<int64_t>(n - 1));
  cell = cell < last ? cell : last;
  // In range now, so the signed conversion (one instruction, unlike the
  // unsigned one before AVX-512) is exact.
  return static_cast<size_t>(static_cast<int64_t>(cell));
}

}  // namespace dpgrid

#endif  // DPGRID_COMMON_CELL_INDEX_H_
