#include "store/snapshot.h"

#include <bit>
#include <cmath>
#include <cstring>
#include <optional>
#include <utility>
#include <vector>

#include "common/status.h"
#include "grid/adaptive_grid.h"
#include "grid/cell_synopsis.h"
#include "grid/grid_counts.h"
#include "grid/uniform_grid.h"
#include "hier/hierarchy_grid.h"
#include "index/prefix_sum2d.h"
#include "nd/adaptive_grid_nd.h"
#include "nd/grid_nd.h"
#include "nd/hierarchy_nd.h"
#include "nd/uniform_grid_nd.h"
#include "store/byte_io.h"

namespace dpgrid {

namespace {

// Decode-side caps. Real synopses are far below these; they bound the
// arithmetic (no size_t overflow) and the damage a hostile length field can
// do before the payload-bounded vector reads reject it anyway.
constexpr size_t kMaxAxisCells = size_t{1} << 26;
constexpr size_t kMaxTotalCells = size_t{1} << 28;  // GridNd's own cap

// ---------------------------------------------------------------------------
// Component encoders/decoders
// ---------------------------------------------------------------------------

void WriteGridCounts(ByteWriter& w, const GridCounts& g) {
  const Rect& d = g.domain();
  w.F64(d.xlo);
  w.F64(d.ylo);
  w.F64(d.xhi);
  w.F64(d.yhi);
  w.U64(g.nx());
  w.U64(g.ny());
  w.F64Vec(g.values());
}

bool ReadGridCounts(ByteReader& r, std::optional<GridCounts>* out) {
  Rect domain;
  uint64_t nx = 0;
  uint64_t ny = 0;
  std::vector<double> values;
  if (!r.F64(&domain.xlo) || !r.F64(&domain.ylo) || !r.F64(&domain.xhi) ||
      !r.F64(&domain.yhi) || !r.U64(&nx) || !r.U64(&ny) ||
      !r.F64Vec(&values)) {
    return false;
  }
  // NaN bounds pass IsEmpty() (all comparisons false) but poison every
  // derived cell extent — reject non-finite domains outright.
  if (!std::isfinite(domain.xlo) || !std::isfinite(domain.ylo) ||
      !std::isfinite(domain.xhi) || !std::isfinite(domain.yhi)) {
    return r.Fail("grid domain has non-finite bounds");
  }
  if (domain.IsEmpty()) return r.Fail("grid domain is empty");
  if (nx < 1 || ny < 1 || nx > kMaxAxisCells || ny > kMaxAxisCells) {
    return r.Fail("grid dimensions out of range");
  }
  if (values.size() != nx * ny) {
    return r.Fail("grid value count does not match dimensions");
  }
  out->emplace(GridCounts::FromRaw(domain, static_cast<size_t>(nx),
                                   static_cast<size_t>(ny),
                                   std::move(values)));
  return true;
}

void WritePrefix2D(ByteWriter& w, const PrefixSum2D& p) {
  w.U64(p.nx());
  w.U64(p.ny());
  w.F64Vec(p.corners());
}

// `grid` is the already-decoded counts the index must belong to.
bool ReadPrefix2D(ByteReader& r, const GridCounts& grid,
                  std::optional<PrefixSum2D>* out) {
  uint64_t nx = 0;
  uint64_t ny = 0;
  std::vector<double> corners;
  if (!r.U64(&nx) || !r.U64(&ny) || !r.F64Vec(&corners)) return false;
  if (nx != grid.nx() || ny != grid.ny()) {
    return r.Fail("prefix index shape does not match its grid");
  }
  if (corners.size() != (grid.nx() + 1) * (grid.ny() + 1)) {
    return r.Fail("prefix corner count does not match dimensions");
  }
  out->emplace(
      PrefixSum2D::FromRaw(std::move(corners), grid.nx(), grid.ny()));
  return true;
}

void WriteBoxNd(ByteWriter& w, const BoxNd& b) {
  w.U64(b.dims());
  for (size_t a = 0; a < b.dims(); ++a) w.F64(b.lo(a));
  for (size_t a = 0; a < b.dims(); ++a) w.F64(b.hi(a));
}

bool ReadBoxNd(ByteReader& r, std::optional<BoxNd>* out) {
  uint64_t dims = 0;
  if (!r.U64(&dims)) return false;
  if (dims < 1 || dims > PrefixSumNd::kMaxDims) {
    return r.Fail("box dimensionality out of range");
  }
  std::vector<double> lo(static_cast<size_t>(dims));
  std::vector<double> hi(static_cast<size_t>(dims));
  for (double& v : lo) {
    if (!r.F64(&v)) return false;
  }
  for (double& v : hi) {
    if (!r.F64(&v)) return false;
  }
  for (size_t a = 0; a < lo.size(); ++a) {
    if (!std::isfinite(lo[a]) || !std::isfinite(hi[a])) {
      return r.Fail("box has non-finite bounds");
    }
  }
  out->emplace(std::move(lo), std::move(hi));
  return true;
}

void WriteGridNd(ByteWriter& w, const GridNd& g) {
  WriteBoxNd(w, g.domain());
  w.SizeVec(g.sizes());
  w.F64Vec(g.values());
}

bool ReadGridNd(ByteReader& r, std::optional<GridNd>* out) {
  std::optional<BoxNd> domain;
  std::vector<size_t> sizes;
  std::vector<double> values;
  if (!ReadBoxNd(r, &domain) || !r.SizeVec(&sizes) || !r.F64Vec(&values)) {
    return false;
  }
  if (sizes.size() != domain->dims()) {
    return r.Fail("grid dimensionality does not match its domain");
  }
  if (domain->IsEmpty()) return r.Fail("grid domain is empty");
  size_t cells = 1;
  for (size_t n : sizes) {
    if (n < 1 || n > kMaxAxisCells) {
      return r.Fail("grid axis size out of range");
    }
    if (cells > kMaxTotalCells / n) return r.Fail("grid too large");
    cells *= n;
  }
  if (values.size() != cells) {
    return r.Fail("grid value count does not match dimensions");
  }
  out->emplace(GridNd::FromRaw(*std::move(domain), std::move(sizes),
                               std::move(values)));
  return true;
}

void WritePrefixNd(ByteWriter& w, const PrefixSumNd& p) {
  w.SizeVec(p.sizes());
  w.F64Vec(p.corners());
}

// Reads a prefix index's shape and corner array and checks them against
// the already-decoded `grid` it must belong to.
bool ReadPrefixCorners(ByteReader& r, const GridNd& grid,
                       std::vector<double>* corners) {
  std::vector<size_t> sizes;
  if (!r.SizeVec(&sizes) || !r.F64Vec(corners)) return false;
  if (sizes != grid.sizes()) {
    return r.Fail("prefix index shape does not match its grid");
  }
  size_t padded = 1;
  for (size_t n : sizes) {
    // sizes == grid.sizes() is already bounded, so (n + 1) cannot overflow;
    // guard the product anyway.
    if (padded > (size_t{2} * kMaxTotalCells) / (n + 1)) {
      return r.Fail("prefix corner array too large");
    }
    padded *= n + 1;
  }
  if (corners->size() != padded) {
    return r.Fail("prefix corner count does not match dimensions");
  }
  return true;
}

bool ReadPrefixNd(ByteReader& r, const GridNd& grid,
                  std::optional<PrefixSumNd>* out) {
  std::vector<double> corners;
  if (!ReadPrefixCorners(r, grid, &corners)) return false;
  out->emplace(PrefixSumNd::FromRaw(grid.sizes(), std::move(corners)));
  return true;
}

// ---------------------------------------------------------------------------
// Kind bodies
// ---------------------------------------------------------------------------

void WriteUniformGrid(ByteWriter& w, const UniformGrid& ug) {
  WriteGridCounts(w, ug.noisy_counts());
  WritePrefix2D(w, ug.prefix());
}

std::unique_ptr<Synopsis> ReadUniformGrid(ByteReader& r) {
  std::optional<GridCounts> grid;
  std::optional<PrefixSum2D> prefix;
  if (!ReadGridCounts(r, &grid)) return nullptr;
  if (!ReadPrefix2D(r, *grid, &prefix)) return nullptr;
  return UniformGrid::Restore(*std::move(grid), *std::move(prefix));
}

void WriteAdaptiveGrid(ByteWriter& w, const AdaptiveGrid& ag) {
  const AdaptiveGridOptions& o = ag.options();
  w.I32(o.level1_size);
  w.F64(o.alpha);
  w.F64(o.c2);
  w.F64(o.guideline_c);
  w.I32(o.max_level2_size);
  w.Bool(o.constrained_inference);
  w.F64(o.n_estimate_fraction);
  w.I32(ag.level1_size());
  WriteGridCounts(w, ag.level1_counts());
  WritePrefix2D(w, ag.level1_prefix());
  w.U64(ag.leaves().size());
  for (const AdaptiveGrid::LeafBlock& block : ag.leaves()) {
    WriteGridCounts(w, block.counts);
    WritePrefix2D(w, *block.prefix);
  }
}

std::unique_ptr<Synopsis> ReadAdaptiveGrid(ByteReader& r) {
  AdaptiveGridOptions o;
  int32_t m1 = 0;
  if (!r.I32(&o.level1_size) || !r.F64(&o.alpha) || !r.F64(&o.c2) ||
      !r.F64(&o.guideline_c) || !r.I32(&o.max_level2_size) ||
      !r.Bool(&o.constrained_inference) || !r.F64(&o.n_estimate_fraction) ||
      !r.I32(&m1)) {
    return nullptr;
  }
  if (m1 < 1 || static_cast<size_t>(m1) > kMaxAxisCells) {
    r.Fail("adaptive grid level-1 size out of range");
    return nullptr;
  }
  std::optional<GridCounts> level1;
  std::optional<PrefixSum2D> level1_prefix;
  if (!ReadGridCounts(r, &level1)) return nullptr;
  if (level1->nx() != static_cast<size_t>(m1) ||
      level1->ny() != static_cast<size_t>(m1)) {
    r.Fail("level-1 grid shape does not match m1");
    return nullptr;
  }
  if (!ReadPrefix2D(r, *level1, &level1_prefix)) return nullptr;
  uint64_t num_leaves = 0;
  if (!r.U64(&num_leaves)) return nullptr;
  if (num_leaves != static_cast<uint64_t>(m1) * static_cast<uint64_t>(m1)) {
    r.Fail("leaf block count does not match m1 x m1");
    return nullptr;
  }
  std::vector<AdaptiveGrid::LeafBlock> leaves;
  leaves.reserve(static_cast<size_t>(num_leaves));
  for (uint64_t i = 0; i < num_leaves; ++i) {
    std::optional<GridCounts> counts;
    std::optional<PrefixSum2D> prefix;
    if (!ReadGridCounts(r, &counts)) return nullptr;
    if (!ReadPrefix2D(r, *counts, &prefix)) return nullptr;
    leaves.push_back(
        AdaptiveGrid::LeafBlock{*std::move(counts), std::move(prefix)});
  }
  return AdaptiveGrid::Restore(o, m1, *std::move(level1),
                               *std::move(level1_prefix), std::move(leaves));
}

void WriteHierarchyGrid(ByteWriter& w, const HierarchyGrid& h) {
  const HierarchyGridOptions& o = h.options();
  w.I32(o.leaf_size);
  w.I32(o.branching);
  w.I32(o.depth);
  w.Bool(o.constrained_inference);
  WriteGridCounts(w, h.leaf_counts());
  WritePrefix2D(w, h.prefix());
}

// Shared by the 2-D and N-d hierarchy decoders: the (leaf_size, branching,
// depth) triple must describe a well-formed hierarchy.
bool ValidHierarchyShape(int leaf_size, int branching, int depth) {
  if (depth < 1 || leaf_size < 1) return false;
  if (branching < 2 && depth != 1) return false;
  int64_t factor = 1;
  for (int i = 0; i < depth - 1; ++i) {
    factor *= branching;
    if (factor > leaf_size) return false;
  }
  return leaf_size % factor == 0;
}

std::unique_ptr<Synopsis> ReadHierarchyGrid(ByteReader& r) {
  HierarchyGridOptions o;
  if (!r.I32(&o.leaf_size) || !r.I32(&o.branching) || !r.I32(&o.depth) ||
      !r.Bool(&o.constrained_inference)) {
    return nullptr;
  }
  if (!ValidHierarchyShape(o.leaf_size, o.branching, o.depth)) {
    r.Fail("invalid hierarchy shape");
    return nullptr;
  }
  std::optional<GridCounts> leaf;
  std::optional<PrefixSum2D> prefix;
  if (!ReadGridCounts(r, &leaf)) return nullptr;
  if (leaf->nx() != static_cast<size_t>(o.leaf_size) ||
      leaf->ny() != static_cast<size_t>(o.leaf_size)) {
    r.Fail("hierarchy leaf grid shape does not match leaf size");
    return nullptr;
  }
  if (!ReadPrefix2D(r, *leaf, &prefix)) return nullptr;
  return HierarchyGrid::Restore(o, *std::move(leaf), *std::move(prefix));
}

void WriteCellSynopsis(ByteWriter& w, const CellSynopsis& s) {
  w.Str(s.Name());
  const std::vector<SynopsisCell> cells = s.ExportCells();
  w.U64(cells.size());
  for (const SynopsisCell& c : cells) {
    w.F64(c.region.xlo);
    w.F64(c.region.ylo);
    w.F64(c.region.xhi);
    w.F64(c.region.yhi);
    w.F64(c.count);
  }
}

std::unique_ptr<Synopsis> ReadCellSynopsis(ByteReader& r) {
  std::string name;
  uint64_t count = 0;
  if (!r.Str(&name) || !r.U64(&count)) return nullptr;
  if (count == 0) {  // CellSynopsis requires at least one cell
    r.Fail("cell synopsis with zero cells");
    return nullptr;
  }
  constexpr size_t kCellBytes = 5 * sizeof(double);
  if (count > r.remaining() / kCellBytes) {
    r.Fail("cell count exceeds payload");
    return nullptr;
  }
  std::vector<SynopsisCell> cells(static_cast<size_t>(count));
  for (SynopsisCell& c : cells) {
    if (!r.F64(&c.region.xlo) || !r.F64(&c.region.ylo) ||
        !r.F64(&c.region.xhi) || !r.F64(&c.region.yhi) || !r.F64(&c.count)) {
      return nullptr;
    }
  }
  return std::make_unique<CellSynopsis>(std::move(cells), std::move(name));
}

void WriteUniformGridNd(ByteWriter& w, const UniformGridNd& ug) {
  const UniformGridNdOptions& o = ug.options();
  w.I32(o.grid_size);
  w.F64(o.guideline_c);
  w.I32(ug.grid_size());
  WriteGridNd(w, ug.noisy_counts());
  WritePrefixNd(w, ug.prefix());
}

std::unique_ptr<SynopsisNd> ReadUniformGridNd(ByteReader& r) {
  UniformGridNdOptions o;
  int32_t grid_size = 0;
  if (!r.I32(&o.grid_size) || !r.F64(&o.guideline_c) || !r.I32(&grid_size)) {
    return nullptr;
  }
  if (grid_size < 1) {
    r.Fail("uniform grid size out of range");
    return nullptr;
  }
  std::optional<GridNd> noisy;
  std::optional<PrefixSumNd> prefix;
  if (!ReadGridNd(r, &noisy)) return nullptr;
  for (size_t n : noisy->sizes()) {
    if (n != static_cast<size_t>(grid_size)) {
      r.Fail("noisy grid shape does not match grid size");
      return nullptr;
    }
  }
  if (!ReadPrefixNd(r, *noisy, &prefix)) return nullptr;
  return UniformGridNd::Restore(o, grid_size, *std::move(noisy),
                                *std::move(prefix));
}

void WriteAdaptiveGridNd(ByteWriter& w, const AdaptiveGridNd& ag) {
  const AdaptiveGridNdOptions& o = ag.options();
  w.I32(o.level1_size);
  w.F64(o.alpha);
  w.F64(o.c2);
  w.F64(o.guideline_c);
  w.I32(o.max_level2_size);
  w.Bool(o.constrained_inference);
  w.I32(ag.level1_size());
  WriteGridNd(w, ag.level1_counts());
  WritePrefixNd(w, ag.level1_prefix());
  w.U64(ag.leaves().size());
  // Each leaf's prefix index is written from the flat index, which holds
  // the corner arrays verbatim (same bytes as a PrefixSumNd would write).
  const FlatLeafIndexNd& flat = ag.flat_index();
  for (size_t i = 0; i < ag.leaves().size(); ++i) {
    const GridNd& counts = *ag.leaves()[i].counts;
    WriteGridNd(w, counts);
    w.SizeVec(counts.sizes());
    w.F64Vec(flat.Corners(i));
  }
}

std::unique_ptr<SynopsisNd> ReadAdaptiveGridNd(ByteReader& r) {
  AdaptiveGridNdOptions o;
  int32_t m1 = 0;
  if (!r.I32(&o.level1_size) || !r.F64(&o.alpha) || !r.F64(&o.c2) ||
      !r.F64(&o.guideline_c) || !r.I32(&o.max_level2_size) ||
      !r.Bool(&o.constrained_inference) || !r.I32(&m1)) {
    return nullptr;
  }
  if (m1 < 1) {
    r.Fail("adaptive grid level-1 size out of range");
    return nullptr;
  }
  std::optional<GridNd> level1;
  std::optional<PrefixSumNd> level1_prefix;
  if (!ReadGridNd(r, &level1)) return nullptr;
  const size_t d = level1->dims();
  for (size_t n : level1->sizes()) {
    if (n != static_cast<size_t>(m1)) {
      r.Fail("level-1 grid shape does not match m1");
      return nullptr;
    }
  }
  if (!ReadPrefixNd(r, *level1, &level1_prefix)) return nullptr;
  uint64_t num_leaves = 0;
  if (!r.U64(&num_leaves)) return nullptr;
  if (num_leaves != level1->num_cells()) {
    r.Fail("leaf block count does not match m1^d");
    return nullptr;
  }
  std::vector<AdaptiveGridNd::LeafBlock> leaves;
  leaves.reserve(static_cast<size_t>(num_leaves));
  // Decoded leaf prefixes go straight into the flat index, their only
  // in-memory home.
  FlatLeafIndexNd flat;
  flat.Reserve(static_cast<size_t>(num_leaves), 0, d);
  std::vector<double> corners;
  for (uint64_t i = 0; i < num_leaves; ++i) {
    AdaptiveGridNd::LeafBlock block;
    if (!ReadGridNd(r, &block.counts)) return nullptr;
    if (block.counts->dims() != d) {
      r.Fail("leaf grid dimensionality does not match level 1");
      return nullptr;
    }
    if (!ReadPrefixCorners(r, *block.counts, &corners)) return nullptr;
    flat.Add(*block.counts, corners);
    leaves.push_back(std::move(block));
  }
  return AdaptiveGridNd::Restore(o, m1, *std::move(level1),
                                 *std::move(level1_prefix),
                                 std::move(leaves), std::move(flat));
}

void WriteHierarchyNd(ByteWriter& w, const HierarchyNd& h) {
  const HierarchyNdOptions& o = h.options();
  w.I32(o.leaf_size);
  w.I32(o.branching);
  w.I32(o.depth);
  w.Bool(o.constrained_inference);
  WriteGridNd(w, h.leaf_counts());
  WritePrefixNd(w, h.prefix());
}

std::unique_ptr<SynopsisNd> ReadHierarchyNd(ByteReader& r) {
  HierarchyNdOptions o;
  if (!r.I32(&o.leaf_size) || !r.I32(&o.branching) || !r.I32(&o.depth) ||
      !r.Bool(&o.constrained_inference)) {
    return nullptr;
  }
  if (!ValidHierarchyShape(o.leaf_size, o.branching, o.depth)) {
    r.Fail("invalid hierarchy shape");
    return nullptr;
  }
  std::optional<GridNd> leaf;
  std::optional<PrefixSumNd> prefix;
  if (!ReadGridNd(r, &leaf)) return nullptr;
  for (size_t n : leaf->sizes()) {
    if (n != static_cast<size_t>(o.leaf_size)) {
      r.Fail("hierarchy leaf grid shape does not match leaf size");
      return nullptr;
    }
  }
  if (!ReadPrefixNd(r, *leaf, &prefix)) return nullptr;
  return HierarchyNd::Restore(o, *std::move(leaf), *std::move(prefix));
}

// ---------------------------------------------------------------------------
// Envelope
// ---------------------------------------------------------------------------

void WriteMeta(ByteWriter& w, const SnapshotMeta& meta) {
  w.F64(meta.epsilon);
  w.Str(meta.label);
}

bool ReadMeta(ByteReader& r, SnapshotMeta* meta) {
  return r.F64(&meta->epsilon) && r.Str(&meta->label);
}

std::string Seal(SynopsisKind kind, std::string payload) {
  std::string bytes(kSnapshotMagic, sizeof(kSnapshotMagic));
  auto append = [&bytes](const void* p, size_t n) {
    bytes.append(static_cast<const char*>(p), n);
  };
  const uint32_t version = kSnapshotFormatVersion;
  const auto kind_raw = static_cast<uint32_t>(kind);
  const uint64_t payload_size = payload.size();
  const uint64_t checksum = SnapshotChecksum(payload);
  append(&version, sizeof(version));
  append(&kind_raw, sizeof(kind_raw));
  append(&payload_size, sizeof(payload_size));
  append(&checksum, sizeof(checksum));
  bytes += payload;
  return bytes;
}

}  // namespace

uint64_t SnapshotChecksum(std::string_view payload) {
  // FNV-1a 64. The byte-fold chain is inherently serial (each step's
  // multiply depends on the previous), but reading the input one u64 at a
  // time and folding its bytes from a register removes the per-byte load
  // and loop overhead — with the shift extraction below yielding memory
  // order only on little-endian hosts, which this codec already requires
  // (see byte_io.h); the assert keeps a big-endian port from silently
  // computing different digests. This is the wire hot path: the server
  // checksums every request and response body (store/wire framing share
  // this function and its format).
  static_assert(std::endian::native == std::endian::little,
                "word-at-a-time FNV folds bytes via little-endian shifts");
  constexpr uint64_t kPrime = 1099511628211ULL;
  uint64_t h = 14695981039346656037ULL;
  const char* p = payload.data();
  size_t n = payload.size();
  while (n >= 8) {
    uint64_t w;
    std::memcpy(&w, p, sizeof(w));
    h = (h ^ (w & 0xff)) * kPrime;
    h = (h ^ ((w >> 8) & 0xff)) * kPrime;
    h = (h ^ ((w >> 16) & 0xff)) * kPrime;
    h = (h ^ ((w >> 24) & 0xff)) * kPrime;
    h = (h ^ ((w >> 32) & 0xff)) * kPrime;
    h = (h ^ ((w >> 40) & 0xff)) * kPrime;
    h = (h ^ ((w >> 48) & 0xff)) * kPrime;
    h = (h ^ (w >> 56)) * kPrime;
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    h = (h ^ static_cast<unsigned char>(*p++)) * kPrime;
    --n;
  }
  return h;
}

bool EncodeSnapshot(const Synopsis& synopsis, const SnapshotMeta& meta,
                    std::string* bytes, std::string* error) {
  ByteWriter w;
  WriteMeta(w, meta);
  SynopsisKind kind;
  if (const auto* ug = dynamic_cast<const UniformGrid*>(&synopsis)) {
    kind = SynopsisKind::kUniformGrid;
    WriteUniformGrid(w, *ug);
  } else if (const auto* ag = dynamic_cast<const AdaptiveGrid*>(&synopsis)) {
    kind = SynopsisKind::kAdaptiveGrid;
    WriteAdaptiveGrid(w, *ag);
  } else if (const auto* h = dynamic_cast<const HierarchyGrid*>(&synopsis)) {
    kind = SynopsisKind::kHierarchyGrid;
    WriteHierarchyGrid(w, *h);
  } else if (const auto* c = dynamic_cast<const CellSynopsis*>(&synopsis)) {
    kind = SynopsisKind::kCellSynopsis;
    WriteCellSynopsis(w, *c);
  } else {
    return SetError(error, "unsupported synopsis type: " + synopsis.Name());
  }
  *bytes = Seal(kind, std::move(w).Take());
  return true;
}

bool EncodeSnapshot(const SynopsisNd& synopsis, const SnapshotMeta& meta,
                    std::string* bytes, std::string* error) {
  ByteWriter w;
  WriteMeta(w, meta);
  SynopsisKind kind;
  if (const auto* ug = dynamic_cast<const UniformGridNd*>(&synopsis)) {
    kind = SynopsisKind::kUniformGridNd;
    WriteUniformGridNd(w, *ug);
  } else if (const auto* ag =
                 dynamic_cast<const AdaptiveGridNd*>(&synopsis)) {
    kind = SynopsisKind::kAdaptiveGridNd;
    WriteAdaptiveGridNd(w, *ag);
  } else if (const auto* h = dynamic_cast<const HierarchyNd*>(&synopsis)) {
    kind = SynopsisKind::kHierarchyNd;
    WriteHierarchyNd(w, *h);
  } else {
    return SetError(error, "unsupported synopsis type: " + synopsis.Name());
  }
  *bytes = Seal(kind, std::move(w).Take());
  return true;
}

bool DecodeSnapshot(std::string_view bytes, DecodedSnapshot* out,
                    std::string* error) {
  if (bytes.size() < kSnapshotHeaderSize) {
    return SetError(error, "snapshot shorter than header");
  }
  if (std::memcmp(bytes.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) !=
      0) {
    return SetError(error, "bad magic: not a dpgrid snapshot");
  }
  uint32_t version = 0;
  uint32_t kind_raw = 0;
  uint64_t payload_size = 0;
  uint64_t checksum = 0;
  std::memcpy(&version, bytes.data() + 4, sizeof(version));
  std::memcpy(&kind_raw, bytes.data() + 8, sizeof(kind_raw));
  std::memcpy(&payload_size, bytes.data() + 12, sizeof(payload_size));
  std::memcpy(&checksum, bytes.data() + 20, sizeof(checksum));
  if (version != kSnapshotFormatVersion) {
    return SetError(error, "unsupported snapshot format version " +
                               std::to_string(version));
  }
  if (kind_raw < static_cast<uint32_t>(SynopsisKind::kUniformGrid) ||
      kind_raw > static_cast<uint32_t>(SynopsisKind::kCellSynopsis)) {
    return SetError(error,
                    "unknown synopsis kind " + std::to_string(kind_raw));
  }
  const std::string_view payload = bytes.substr(kSnapshotHeaderSize);
  if (payload_size != payload.size()) {
    return SetError(error, "payload size mismatch: header says " +
                               std::to_string(payload_size) + ", file has " +
                               std::to_string(payload.size()));
  }
  if (SnapshotChecksum(payload) != checksum) {
    return SetError(error, "payload checksum mismatch");
  }

  const auto kind = static_cast<SynopsisKind>(kind_raw);
  ByteReader r(payload);
  SnapshotMeta meta;
  std::unique_ptr<Synopsis> synopsis;
  std::unique_ptr<SynopsisNd> synopsis_nd;
  if (ReadMeta(r, &meta)) {
    switch (kind) {
      case SynopsisKind::kUniformGrid:
        synopsis = ReadUniformGrid(r);
        break;
      case SynopsisKind::kAdaptiveGrid:
        synopsis = ReadAdaptiveGrid(r);
        break;
      case SynopsisKind::kHierarchyGrid:
        synopsis = ReadHierarchyGrid(r);
        break;
      case SynopsisKind::kCellSynopsis:
        synopsis = ReadCellSynopsis(r);
        break;
      case SynopsisKind::kUniformGridNd:
        synopsis_nd = ReadUniformGridNd(r);
        break;
      case SynopsisKind::kAdaptiveGridNd:
        synopsis_nd = ReadAdaptiveGridNd(r);
        break;
      case SynopsisKind::kHierarchyNd:
        synopsis_nd = ReadHierarchyNd(r);
        break;
    }
  }
  if (!r.ok() || (synopsis == nullptr && synopsis_nd == nullptr)) {
    return SetError(error, r.error().empty() ? "malformed snapshot payload"
                                             : r.error());
  }
  if (r.remaining() != 0) {
    return SetError(error, "trailing bytes in snapshot payload");
  }
  out->kind = kind;
  out->meta = std::move(meta);
  out->synopsis = std::move(synopsis);
  out->synopsis_nd = std::move(synopsis_nd);
  return true;
}

}  // namespace dpgrid
