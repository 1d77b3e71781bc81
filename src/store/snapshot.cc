#include "store/snapshot.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <utility>
#include <vector>

#include "common/crc32c.h"
#include "common/status.h"
#include "grid/adaptive_grid.h"
#include "grid/cell_synopsis.h"
#include "grid/grid_counts.h"
#include "grid/uniform_grid.h"
#include "hier/hierarchy_grid.h"
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

// True when `cells` cells across `extent` have a positive, finite width
// with a finite reciprocal — the widths grids compute. Otherwise (a domain
// too wide for doubles, or cells of subnormal width) query coordinates
// become NaN, which the query kernels then cast to a cell index.
bool FiniteCellExtent(double extent, size_t cells) {
  const double cell = extent / static_cast<double>(cells);
  return cell > 0.0 && std::isfinite(cell) && std::isfinite(1.0 / cell);
}

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
  if (!FiniteCellExtent(domain.Width(), nx) ||
      !FiniteCellExtent(domain.Height(), ny)) {
    return r.Fail("grid cell extent out of range");
  }
  out->emplace(GridCounts::FromRaw(domain, static_cast<size_t>(nx),
                                   static_cast<size_t>(ny),
                                   std::move(values)));
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
  for (size_t a = 0; a < sizes.size(); ++a) {
    if (!FiniteCellExtent(domain->Extent(a), sizes[a])) {
      return r.Fail("grid cell extent out of range");
    }
  }
  out->emplace(GridNd::FromRaw(*std::move(domain), std::move(sizes),
                               std::move(values)));
  return true;
}

// The leaf grids of both AG kinds, in row-major level-1 order: one side
// length m2 per leaf (a leaf is m2 cells on every axis), then all leaf
// counts concatenated. A leaf's domain is its level-1 cell, which Restore
// derives, so it is not written.
struct LeafArrays {
  std::vector<size_t> sides;
  std::vector<double> values;
};

// The 2-D AG keeps its counts in a d = 2 AdaptiveGridNd, so both kinds
// write their leaves from one.
void WriteLeaves(ByteWriter& w, const AdaptiveGridNd& ag) {
  LeafArrays leaves;
  leaves.values.reserve(static_cast<size_t>(ag.TotalLeafCells()));
  for (const AdaptiveGridNd::LeafBlock& block : ag.leaves()) {
    const std::vector<double>& v = block.counts->values();
    leaves.sides.push_back(block.counts->sizes()[0]);
    leaves.values.insert(leaves.values.end(), v.begin(), v.end());
  }
  w.SizeVec(leaves.sides);
  w.F64Vec(leaves.values);
}

// Reads the leaf arrays of a `dims`-dimensional AG with `num_leaves`
// level-1 cells and checks them against the build's own bounds: every
// side in [1, max_side], and the values exactly the leaves' cells.
bool ReadLeaves(ByteReader& r, size_t num_leaves, size_t dims,
                size_t max_side, LeafArrays* out) {
  if (!r.SizeVec(&out->sides) || !r.F64Vec(&out->values)) return false;
  if (out->sides.size() != num_leaves) {
    return r.Fail("leaf block count does not match the level-1 grid");
  }
  max_side = std::min(max_side, kMaxAxisCells);
  size_t total = 0;
  for (size_t m2 : out->sides) {
    if (m2 < 1 || m2 > max_side) return r.Fail("leaf size out of range");
    size_t cells = 1;
    for (size_t a = 0; a < dims; ++a) {
      if (cells > kMaxTotalCells / m2) return r.Fail("leaf grid too large");
      cells *= m2;
    }
    if (cells > out->values.size() - total) {
      return r.Fail("leaf value count does not match leaf sizes");
    }
    total += cells;
  }
  if (total != out->values.size()) {
    return r.Fail("leaf value count does not match leaf sizes");
  }
  return true;
}

// A leaf's domain is its level-1 cell, split m2 ways on every axis, so
// each leaf's cells must pass the checks a decoded grid's cells pass
// (this also rejects the empty domain GridCounts/GridNd refuse).
bool CheckLeafCells(ByteReader& r, const GridCounts& level1,
                    const std::vector<size_t>& sides) {
  for (size_t i = 0; i < sides.size(); ++i) {
    const Rect cell = level1.CellRect(i % level1.nx(), i / level1.nx());
    if (!FiniteCellExtent(cell.Width(), sides[i]) ||
        !FiniteCellExtent(cell.Height(), sides[i])) {
      return r.Fail("leaf cell extent out of range");
    }
  }
  return true;
}

bool CheckLeafCells(ByteReader& r, const GridNd& level1,
                    const std::vector<size_t>& sides) {
  for (size_t i = 0; i < sides.size(); ++i) {
    const BoxNd cell = level1.CellBoxFlat(i);
    for (size_t a = 0; a < cell.dims(); ++a) {
      if (!FiniteCellExtent(cell.Extent(a), sides[i])) {
        return r.Fail("leaf cell extent out of range");
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Kind bodies
// ---------------------------------------------------------------------------

void WriteUniformGrid(ByteWriter& w, const UniformGrid& ug) {
  WriteGridCounts(w, ug.noisy_counts());
}

std::unique_ptr<Synopsis> ReadUniformGrid(ByteReader& r) {
  std::optional<GridCounts> grid;
  if (!ReadGridCounts(r, &grid)) return nullptr;
  return UniformGrid::FromNoisyCounts(*std::move(grid));
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
  const AdaptiveGridNd& index = ag.index();
  const auto m1 = static_cast<size_t>(ag.level1_size());
  WriteGridCounts(w, GridCounts::FromRaw(ag.domain(), m1, m1,
                                         index.level1_counts().values()));
  WriteLeaves(w, index);
}

std::unique_ptr<Synopsis> ReadAdaptiveGrid(ByteReader& r) {
  AdaptiveGridOptions o;
  if (!r.I32(&o.level1_size) || !r.F64(&o.alpha) || !r.F64(&o.c2) ||
      !r.F64(&o.guideline_c) || !r.I32(&o.max_level2_size) ||
      !r.Bool(&o.constrained_inference) || !r.F64(&o.n_estimate_fraction)) {
    return nullptr;
  }
  std::optional<GridCounts> level1;
  if (!ReadGridCounts(r, &level1)) return nullptr;
  if (level1->nx() != level1->ny()) {
    r.Fail("level-1 grid is not m1 x m1");
    return nullptr;
  }
  // Build caps m2 at max_level2_size when it is positive.
  const size_t max_side = o.max_level2_size > 0
                              ? static_cast<size_t>(o.max_level2_size)
                              : kMaxAxisCells;
  LeafArrays leaves;
  if (!ReadLeaves(r, level1->values().size(), 2, max_side, &leaves) ||
      !CheckLeafCells(r, *level1, leaves.sides)) {
    return nullptr;
  }
  return AdaptiveGrid::Restore(o, *std::move(level1), leaves.sides,
                               leaves.values);
}

void WriteHierarchyGrid(ByteWriter& w, const HierarchyGrid& h) {
  const HierarchyGridOptions& o = h.options();
  w.I32(o.leaf_size);
  w.I32(o.branching);
  w.I32(o.depth);
  w.Bool(o.constrained_inference);
  WriteGridCounts(w, h.leaf_counts());
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
  if (!ReadGridCounts(r, &leaf)) return nullptr;
  if (leaf->nx() != static_cast<size_t>(o.leaf_size) ||
      leaf->ny() != static_cast<size_t>(o.leaf_size)) {
    r.Fail("hierarchy leaf grid shape does not match leaf size");
    return nullptr;
  }
  return HierarchyGrid::Restore(o, *std::move(leaf));
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

// True when every axis of `grid` has the same number of cells, the shape
// the uniform and adaptive N-d builds produce.
bool IsCube(const GridNd& grid) {
  for (size_t n : grid.sizes()) {
    if (n != grid.sizes()[0]) return false;
  }
  return true;
}

void WriteUniformGridNd(ByteWriter& w, const UniformGridNd& ug) {
  const UniformGridNdOptions& o = ug.options();
  w.I32(o.grid_size);
  w.F64(o.guideline_c);
  WriteGridNd(w, ug.noisy_counts());
}

std::unique_ptr<SynopsisNd> ReadUniformGridNd(ByteReader& r) {
  UniformGridNdOptions o;
  if (!r.I32(&o.grid_size) || !r.F64(&o.guideline_c)) return nullptr;
  std::optional<GridNd> noisy;
  if (!ReadGridNd(r, &noisy)) return nullptr;
  if (!IsCube(*noisy)) {
    r.Fail("uniform grid is not m cells on every axis");
    return nullptr;
  }
  return UniformGridNd::Restore(o, *std::move(noisy));
}

void WriteAdaptiveGridNd(ByteWriter& w, const AdaptiveGridNd& ag) {
  const AdaptiveGridNdOptions& o = ag.options();
  w.I32(o.level1_size);
  w.F64(o.alpha);
  w.F64(o.c2);
  w.F64(o.guideline_c);
  w.I32(o.max_level2_size);
  w.Bool(o.constrained_inference);
  WriteGridNd(w, ag.level1_counts());
  WriteLeaves(w, ag);
}

std::unique_ptr<SynopsisNd> ReadAdaptiveGridNd(ByteReader& r) {
  AdaptiveGridNdOptions o;
  if (!r.I32(&o.level1_size) || !r.F64(&o.alpha) || !r.F64(&o.c2) ||
      !r.F64(&o.guideline_c) || !r.I32(&o.max_level2_size) ||
      !r.Bool(&o.constrained_inference)) {
    return nullptr;
  }
  std::optional<GridNd> level1;
  if (!ReadGridNd(r, &level1)) return nullptr;
  if (!IsCube(*level1)) {
    r.Fail("level-1 grid is not m1 cells on every axis");
    return nullptr;
  }
  // Build caps m2 at max(1, max_level2_size).
  const size_t max_side =
      static_cast<size_t>(std::max(1, o.max_level2_size));
  LeafArrays leaves;
  if (!ReadLeaves(r, level1->num_cells(), level1->dims(), max_side,
                  &leaves) ||
      !CheckLeafCells(r, *level1, leaves.sides)) {
    return nullptr;
  }
  return AdaptiveGridNd::Restore(o, *std::move(level1), leaves.sides,
                                 leaves.values);
}

void WriteHierarchyNd(ByteWriter& w, const HierarchyNd& h) {
  const HierarchyNdOptions& o = h.options();
  w.I32(o.leaf_size);
  w.I32(o.branching);
  w.I32(o.depth);
  w.Bool(o.constrained_inference);
  WriteGridNd(w, h.leaf_counts());
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
  if (!ReadGridNd(r, &leaf)) return nullptr;
  for (size_t n : leaf->sizes()) {
    if (n != static_cast<size_t>(o.leaf_size)) {
      r.Fail("hierarchy leaf grid shape does not match leaf size");
      return nullptr;
    }
  }
  return HierarchyNd::Restore(o, *std::move(leaf));
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
  const uint32_t checksum = Crc32c(payload);
  append(&version, sizeof(version));
  append(&kind_raw, sizeof(kind_raw));
  append(&payload_size, sizeof(payload_size));
  append(&checksum, sizeof(checksum));
  bytes += payload;
  return bytes;
}

}  // namespace

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
  // The version is read before the length check: a file of another
  // version may have another header size, and must fail on its version.
  if (bytes.size() < sizeof(kSnapshotMagic) + sizeof(uint32_t)) {
    return SetError(error, "snapshot shorter than header");
  }
  if (std::memcmp(bytes.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) !=
      0) {
    return SetError(error, "bad magic: not a dpgrid snapshot");
  }
  uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 4, sizeof(version));
  if (version != kSnapshotFormatVersion) {
    return SetError(error, "unsupported snapshot format version " +
                               std::to_string(version));
  }
  if (bytes.size() < kSnapshotHeaderSize) {
    return SetError(error, "snapshot shorter than header");
  }
  uint32_t kind_raw = 0;
  uint64_t payload_size = 0;
  uint32_t checksum = 0;
  std::memcpy(&kind_raw, bytes.data() + 8, sizeof(kind_raw));
  std::memcpy(&payload_size, bytes.data() + 12, sizeof(payload_size));
  std::memcpy(&checksum, bytes.data() + 20, sizeof(checksum));
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
  if (Crc32c(payload) != checksum) {
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
