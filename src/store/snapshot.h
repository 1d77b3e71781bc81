#ifndef DPGRID_STORE_SNAPSHOT_H_
#define DPGRID_STORE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "grid/synopsis.h"
#include "nd/synopsis_nd.h"

namespace dpgrid {

// Versioned binary snapshot codec for synopses.
//
// A snapshot is a self-describing byte string:
//
//   offset  size  field
//   0       4     magic "DPGS"
//   4       4     u32 format version (kSnapshotFormatVersion)
//   8       4     u32 SynopsisKind
//   12      8     u64 payload size in bytes
//   20      4     u32 CRC-32C of the payload (common/crc32c.h)
//   24      -     payload: SnapshotMeta, then the kind-specific body
//
// Every scalar is little-endian; a "vec" is a u64 count, then the items.
//
//   meta            f64 epsilon, u32 length + label bytes
//   GridCounts      f64 xlo, ylo, xhi, yhi; u64 nx, ny; f64 vec values
//   GridNd          u64 d, d × f64 lo, d × f64 hi; u64 vec sizes;
//                   f64 vec values (row-major, last axis fastest)
//   leaves          u64 vec m2 per level-1 cell (row-major); f64 vec of
//                   every leaf's m2^d values, concatenated in that order
//   UniformGrid     GridCounts
//   AdaptiveGrid    options (i32 level1_size, f64 alpha, c2, guideline_c,
//                   i32 max_level2_size, u32 bool constrained_inference,
//                   f64 n_estimate_fraction); level-1 GridCounts; leaves
//   HierarchyGrid   options (i32 leaf_size, branching, depth, u32 bool);
//                   leaf GridCounts
//   CellSynopsis    u32 length + name; u64 count; count × 5 f64
//   UniformGridNd   options (i32 grid_size, f64 guideline_c); GridNd
//   AdaptiveGridNd  options (as AdaptiveGrid without n_estimate_fraction);
//                   level-1 GridNd; leaves
//   HierarchyNd     options (as HierarchyGrid); leaf GridNd
//
// The payload holds each synopsis's options, shapes and noisy counts and
// nothing derived from them. Decoding rebuilds every index (prefix sums,
// the AG leaf arenas and face slabs) with the same code that builds it,
// so a decoded synopsis answers bitwise-identically to the instance that
// was encoded, and a file cannot carry indexes that disagree with its
// counts. An AG leaf's domain is its level-1 cell, so it is not stored.
// Decoding never trusts its input: any structural damage (bad magic, an
// unknown version or kind, truncation, checksum mismatch, shapes outside
// the build's own bounds, an internally inconsistent payload) returns a
// clean error.

/// Concrete synopsis type stored in a snapshot.
enum class SynopsisKind : uint32_t {
  kUniformGrid = 1,
  kAdaptiveGrid = 2,
  kHierarchyGrid = 3,
  kUniformGridNd = 4,
  kAdaptiveGridNd = 5,
  kHierarchyNd = 6,
  kCellSynopsis = 7,
};

inline constexpr uint32_t kSnapshotFormatVersion = 2;
inline constexpr char kSnapshotMagic[4] = {'D', 'P', 'G', 'S'};
inline constexpr size_t kSnapshotHeaderSize = 24;

/// Build provenance carried alongside the synopsis state.
struct SnapshotMeta {
  /// Total privacy budget the synopsis was built with (informational; the
  /// stored counts are already noisy).
  double epsilon = 0.0;
  /// Free-form label, e.g. the builder pipeline or epoch that produced it.
  std::string label;
};

/// A decoded snapshot: exactly one of `synopsis` (2-D kinds) or
/// `synopsis_nd` (N-d kinds) is set.
struct DecodedSnapshot {
  SynopsisKind kind = SynopsisKind::kUniformGrid;
  SnapshotMeta meta;
  std::unique_ptr<Synopsis> synopsis;
  std::unique_ptr<SynopsisNd> synopsis_nd;
};

/// Encodes a 2-D synopsis. The dynamic type must be UniformGrid,
/// AdaptiveGrid, HierarchyGrid, or CellSynopsis; returns false with *error
/// set for any other type.
bool EncodeSnapshot(const Synopsis& synopsis, const SnapshotMeta& meta,
                    std::string* bytes, std::string* error);

/// Encodes an N-d synopsis (UniformGridNd, AdaptiveGridNd, HierarchyNd).
bool EncodeSnapshot(const SynopsisNd& synopsis, const SnapshotMeta& meta,
                    std::string* bytes, std::string* error);

/// Decodes a snapshot produced by EncodeSnapshot. Returns false with
/// *error set (and *out untouched) on any malformed input; never aborts on
/// untrusted bytes.
bool DecodeSnapshot(std::string_view bytes, DecodedSnapshot* out,
                    std::string* error);

}  // namespace dpgrid

#endif  // DPGRID_STORE_SNAPSHOT_H_
