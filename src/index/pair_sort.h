#ifndef DPGRID_INDEX_PAIR_SORT_H_
#define DPGRID_INDEX_PAIR_SORT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dpgrid {

/// One (query, leaf cell) border job emitted by a batch decomposition —
/// the unit of work of the adaptive-grid batch pipeline.
struct CellPair {
  uint32_t query = 0;  // index into the batch's query array
  uint32_t cell = 0;   // flat level-1 cell index
};

/// Buckets are kept at 256 so the MSD scatter writes only a handful of
/// active cache lines — a wide single pass fans the scatter across the
/// whole output array and loses more to write misses than the regional
/// second pass costs.
inline constexpr size_t kPairSortBuckets = 256;

/// Right-shift that maps a cell id of an index with `num_cells` leaves to
/// its sort bucket (at most kPairSortBuckets buckets). Emitters use it to
/// histogram pairs while writing them, saving the sort's counting pass.
inline uint32_t PairSortShift(size_t num_cells) {
  uint32_t bits = 1;
  while ((size_t{1} << bits) < num_cells) ++bits;
  return bits > 8 ? bits - 8 : 0;
}

namespace pair_sort {

/// Reused per-thread buffers for the sort/answer/accumulate pipeline.
struct PairScratch {
  std::vector<CellPair> sorted;
  std::vector<CellPair> tmp;
  std::vector<uint32_t> counts;
  std::vector<uint32_t> region_start;
  std::vector<uint32_t> local_counts;
  std::vector<double> contrib;
  // Short-run pairs batched per kernel class (0 = generic, 1 = 1x1
  // leaves), with each entry's position in the sorted array so the
  // flushed contributions land in their slots.
  std::vector<CellPair> pending[2];
  std::vector<uint32_t> pending_pos[2];
  std::vector<double> pending_contrib;
};

/// The calling thread's scratch (thread_local, capacity persists).
PairScratch& GetPairScratch();

/// Stable sort by cell id, using the emitter-maintained bucket histogram
/// (no counting pass). `hist` must hold kPairSortBuckets counts of
/// `pairs[i].cell >> PairSortShift(num_cells)`. Returns the sorted array
/// (one of the scratch buffers); stability keeps every query's pairs in
/// their emission order — the property the accumulation step's
/// bitwise-equal-to-scalar guarantee rests on.
const CellPair* SortPairsByCell(const CellPair* pairs, size_t n,
                                size_t num_cells, const uint32_t* hist,
                                PairScratch* s);

}  // namespace pair_sort
}  // namespace dpgrid

#endif  // DPGRID_INDEX_PAIR_SORT_H_
