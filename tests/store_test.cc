// Snapshot store round-trip and corruption-rejection tests.
//
// Round-trip: every synopsis type, over a grid of (epsilon, size, dataset)
// cases, must decode to a synopsis whose answers are bitwise-identical to
// the original on a fixed query workload — the persisted-state extension of
// the batch==scalar invariant. The snapshot holds counts only and decoding
// rebuilds every index, so this pins the rebuild to the build. Re-encoding
// the decoded synopsis must also reproduce the exact snapshot bytes.
//
// Corruption: byte-level damage anywhere in a snapshot must fail decoding
// with a clean error — never a crash, never a silently misloaded synopsis.
// A seeded structure-aware mutation sweep re-seals each damaged payload
// with a valid checksum, so the damage reaches the payload parsers.

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "common/random.h"
#include "data/generators.h"
#include "grid/adaptive_grid.h"
#include "grid/cell_synopsis.h"
#include "grid/uniform_grid.h"
#include "hier/hierarchy_grid.h"
#include "nd/adaptive_grid_nd.h"
#include "nd/dataset_nd.h"
#include "nd/hierarchy_nd.h"
#include "nd/uniform_grid_nd.h"
#include "query/query_engine.h"
#include "store/snapshot.h"
#include "store/snapshot_store.h"
#include "tests/test_util.h"
#include "wavelet/privelet.h"

namespace dpgrid {
namespace {

using test::FixedQueries;
using test::FixedQueriesNd;

// Replaces the header's payload size and CRC-32C so they match the current
// payload bytes — used to reach validation layers *behind* the checksum.
void FixupHeader(std::string* bytes) {
  ASSERT_GE(bytes->size(), kSnapshotHeaderSize);
  const uint64_t payload_size = bytes->size() - kSnapshotHeaderSize;
  const uint32_t checksum =
      Crc32c(std::string_view(*bytes).substr(kSnapshotHeaderSize));
  std::memcpy(bytes->data() + 12, &payload_size, sizeof(payload_size));
  std::memcpy(bytes->data() + 20, &checksum, sizeof(checksum));
}

// Encode → decode → assert answers are bitwise-identical to the original
// (batch via QueryEngine and a scalar spot check), the Name survives, and
// re-encoding reproduces the exact bytes.
void ExpectRoundTrip(const Synopsis& original,
                     const std::vector<Rect>& queries, double epsilon) {
  const SnapshotMeta meta{epsilon, "store_test"};
  std::string bytes;
  std::string error;
  ASSERT_TRUE(EncodeSnapshot(original, meta, &bytes, &error)) << error;

  DecodedSnapshot decoded;
  ASSERT_TRUE(DecodeSnapshot(bytes, &decoded, &error))
      << original.Name() << ": " << error;
  ASSERT_NE(decoded.synopsis, nullptr);
  EXPECT_EQ(decoded.synopsis_nd, nullptr);
  EXPECT_EQ(decoded.meta.epsilon, epsilon);
  EXPECT_EQ(decoded.meta.label, "store_test");
  EXPECT_EQ(decoded.synopsis->Name(), original.Name());

  const QueryEngine engine(QueryEngineOptions{.num_threads = 1});
  const std::vector<double> expected = engine.AnswerAll(original, queries);
  const std::vector<double> actual =
      engine.AnswerAll(*decoded.synopsis, queries);
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(expected[i], actual[i])
        << original.Name() << " query " << i << " "
        << queries[i].ToString();
  }
  for (size_t i = 0; i < queries.size(); i += 37) {
    EXPECT_EQ(original.Answer(queries[i]), decoded.synopsis->Answer(queries[i]));
  }

  std::string reencoded;
  ASSERT_TRUE(EncodeSnapshot(*decoded.synopsis, meta, &reencoded, &error))
      << error;
  EXPECT_EQ(bytes, reencoded) << original.Name()
                              << ": re-encode must be byte-identical";
}

void ExpectRoundTripNd(const SynopsisNd& original,
                       const std::vector<BoxNd>& queries, double epsilon) {
  const SnapshotMeta meta{epsilon, "store_test_nd"};
  std::string bytes;
  std::string error;
  ASSERT_TRUE(EncodeSnapshot(original, meta, &bytes, &error)) << error;

  DecodedSnapshot decoded;
  ASSERT_TRUE(DecodeSnapshot(bytes, &decoded, &error))
      << original.Name() << ": " << error;
  ASSERT_NE(decoded.synopsis_nd, nullptr);
  EXPECT_EQ(decoded.synopsis, nullptr);
  EXPECT_EQ(decoded.synopsis_nd->Name(), original.Name());

  const QueryEngine engine(QueryEngineOptions{.num_threads = 1});
  const std::vector<double> expected = engine.AnswerAll(original, queries);
  const std::vector<double> actual =
      engine.AnswerAll(*decoded.synopsis_nd, queries);
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(expected[i], actual[i])
        << original.Name() << " query " << i << " "
        << queries[i].ToString();
  }

  std::string reencoded;
  ASSERT_TRUE(EncodeSnapshot(*decoded.synopsis_nd, meta, &reencoded, &error))
      << error;
  EXPECT_EQ(bytes, reencoded) << original.Name()
                              << ": re-encode must be byte-identical";
}

class StoreRoundTripTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng checkin_rng(321);
    checkin_ = std::make_unique<Dataset>(MakeCheckinLike(8000, checkin_rng));
    Rng uniform_rng(322);
    uniform_ = std::make_unique<Dataset>(
        MakeUniformDataset(Rect{-10.0, -5.0, 30.0, 25.0}, 5000, uniform_rng));
  }

  std::vector<const Dataset*> Datasets() const {
    return {checkin_.get(), uniform_.get()};
  }

  std::unique_ptr<Dataset> checkin_;
  std::unique_ptr<Dataset> uniform_;
};

TEST_F(StoreRoundTripTest, UniformGrid) {
  uint64_t seed = 1;
  for (const Dataset* data : Datasets()) {
    const std::vector<Rect> queries = FixedQueries(data->domain(), 200, 77);
    for (double epsilon : {0.1, 1.0}) {
      for (int m : {0, 32}) {  // 0 = Guideline 1
        Rng rng(seed++);
        UniformGridOptions opts;
        opts.grid_size = m;
        UniformGrid ug(*data, epsilon, rng, opts);
        ExpectRoundTrip(ug, queries, epsilon);
      }
    }
  }
}

TEST_F(StoreRoundTripTest, AdaptiveGrid) {
  uint64_t seed = 100;
  for (const Dataset* data : Datasets()) {
    const std::vector<Rect> queries = FixedQueries(data->domain(), 200, 78);
    for (double epsilon : {0.1, 1.0}) {
      for (int m1 : {0, 8}) {  // 0 = max(10, m_UG / 4)
        Rng rng(seed++);
        AdaptiveGridOptions opts;
        opts.level1_size = m1;
        AdaptiveGrid ag(*data, epsilon, rng, opts);
        ExpectRoundTrip(ag, queries, epsilon);
      }
    }
  }
}

TEST_F(StoreRoundTripTest, HierarchyGrid) {
  uint64_t seed = 200;
  for (const Dataset* data : Datasets()) {
    const std::vector<Rect> queries = FixedQueries(data->domain(), 200, 79);
    for (double epsilon : {0.1, 1.0}) {
      for (int depth : {2, 3}) {
        Rng rng(seed++);
        HierarchyGridOptions opts;
        opts.leaf_size = 64;
        opts.branching = 2;
        opts.depth = depth;
        HierarchyGrid h(*data, epsilon, rng, opts);
        ExpectRoundTrip(h, queries, epsilon);
      }
    }
  }
}

TEST_F(StoreRoundTripTest, CellSynopsis) {
  Rng rng(300);
  UniformGridOptions opts;
  opts.grid_size = 24;
  UniformGrid ug(*checkin_, 1.0, rng, opts);
  CellSynopsis cells(ug.ExportCells(), "release-v1");
  const std::vector<Rect> queries = FixedQueries(checkin_->domain(), 100, 80);
  ExpectRoundTrip(cells, queries, 1.0);
}

TEST_F(StoreRoundTripTest, NdSynopses) {
  const BoxNd domain = BoxNd::Cube(3, 0.0, 100.0);
  Rng data_rng(400);
  const DatasetNd data = MakeUniformDatasetNd(domain, 4000, data_rng);
  const std::vector<BoxNd> queries = FixedQueriesNd(domain, 150, 81);
  uint64_t seed = 401;
  for (double epsilon : {0.5, 1.0}) {
    {
      Rng rng(seed++);
      UniformGridNdOptions opts;
      opts.grid_size = 8;
      UniformGridNd ug(data, epsilon, rng, opts);
      ExpectRoundTripNd(ug, queries, epsilon);
    }
    {
      Rng rng(seed++);
      AdaptiveGridNdOptions opts;
      opts.level1_size = 4;
      AdaptiveGridNd ag(data, epsilon, rng, opts);
      ExpectRoundTripNd(ag, queries, epsilon);
    }
    {
      Rng rng(seed++);
      HierarchyNdOptions opts;
      opts.leaf_size = 16;
      opts.branching = 2;
      opts.depth = 2;
      HierarchyNd h(data, epsilon, rng, opts);
      ExpectRoundTripNd(h, queries, epsilon);
    }
  }
  // Guideline-chosen sizes (size fields 0) must round-trip too.
  {
    Rng rng(seed++);
    UniformGridNd ug(data, 1.0, rng);
    ExpectRoundTripNd(ug, queries, 1.0);
  }
}

TEST_F(StoreRoundTripTest, UnsupportedTypeIsRejected) {
  Rng rng(500);
  Privelet w(*checkin_, 1.0, rng);
  std::string bytes;
  std::string error;
  EXPECT_FALSE(EncodeSnapshot(w, SnapshotMeta{}, &bytes, &error));
  EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------------------
// Corruption rejection
// ---------------------------------------------------------------------------

class StoreCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng data_rng(321);
    Dataset data = MakeCheckinLike(2000, data_rng);
    Rng rng(600);
    UniformGridOptions opts;
    opts.grid_size = 16;
    UniformGrid ug(data, 1.0, rng, opts);
    std::string error;
    ASSERT_TRUE(
        EncodeSnapshot(ug, SnapshotMeta{1.0, "corruption"}, &base_, &error))
        << error;
  }

  std::string base_;
};

TEST_F(StoreCorruptionTest, BaseSnapshotDecodes) {
  DecodedSnapshot decoded;
  std::string error;
  EXPECT_TRUE(DecodeSnapshot(base_, &decoded, &error)) << error;
}

TEST_F(StoreCorruptionTest, ByteLevelMutationsAreRejected) {
  struct Mutation {
    const char* name;
    void (*apply)(std::string*);
  };
  const Mutation kMutations[] = {
      {"empty input", [](std::string* b) { b->clear(); }},
      {"truncated inside header", [](std::string* b) { b->resize(10); }},
      {"header only, no payload",
       [](std::string* b) { b->resize(kSnapshotHeaderSize - 1); }},
      {"flipped magic byte", [](std::string* b) { (*b)[0] ^= 0x01; }},
      {"future format version",
       [](std::string* b) {
         const uint32_t v = 999;
         std::memcpy(b->data() + 4, &v, sizeof(v));
       }},
      {"zero synopsis kind",
       [](std::string* b) {
         const uint32_t k = 0;
         std::memcpy(b->data() + 8, &k, sizeof(k));
       }},
      {"unknown synopsis kind",
       [](std::string* b) {
         const uint32_t k = 99;
         std::memcpy(b->data() + 8, &k, sizeof(k));
       }},
      {"payload size overstated",
       [](std::string* b) {
         uint64_t size = 0;
         std::memcpy(&size, b->data() + 12, sizeof(size));
         size += 1;
         std::memcpy(b->data() + 12, &size, sizeof(size));
       }},
      {"truncated payload", [](std::string* b) { b->resize(b->size() - 7); }},
      {"flipped checksum bit", [](std::string* b) { (*b)[20] ^= 0x40; }},
      {"flipped payload byte",
       [](std::string* b) { (*b)[b->size() / 2] ^= 0x10; }},
      {"flipped last payload byte",
       [](std::string* b) { b->back() ^= 0x01; }},
  };
  for (const Mutation& m : kMutations) {
    std::string bytes = base_;
    m.apply(&bytes);
    DecodedSnapshot decoded;
    std::string error;
    EXPECT_FALSE(DecodeSnapshot(bytes, &decoded, &error)) << m.name;
    EXPECT_FALSE(error.empty()) << m.name;
    EXPECT_EQ(decoded.synopsis, nullptr) << m.name;
    EXPECT_EQ(decoded.synopsis_nd, nullptr) << m.name;
  }
}

// Format v1 (a 28-byte header with a u64 FNV-1a checksum, and prefix-sum
// arrays stored beside the counts) is retired: a v1 file must fail on its
// version, whatever follows the version field.
TEST_F(StoreCorruptionTest, FormatVersionOneIsRejectedByVersion) {
  const std::string_view payload =
      std::string_view(base_).substr(kSnapshotHeaderSize);
  std::string v1(kSnapshotMagic, sizeof(kSnapshotMagic));
  const uint32_t version = 1;
  const auto kind = static_cast<uint32_t>(SynopsisKind::kUniformGrid);
  const uint64_t payload_size = payload.size();
  const uint64_t checksum = 0;
  v1.append(reinterpret_cast<const char*>(&version), sizeof(version));
  v1.append(reinterpret_cast<const char*>(&kind), sizeof(kind));
  v1.append(reinterpret_cast<const char*>(&payload_size),
            sizeof(payload_size));
  v1.append(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  v1.append(payload);
  for (const size_t size : {v1.size(), size_t{8}}) {
    DecodedSnapshot decoded;
    std::string error;
    EXPECT_FALSE(DecodeSnapshot(std::string_view(v1).substr(0, size),
                                &decoded, &error));
    EXPECT_EQ(error, "unsupported snapshot format version 1") << size;
    EXPECT_EQ(decoded.synopsis, nullptr);
  }
}

// Structural validation behind the checksum: a snapshot whose header is
// perfectly consistent but whose payload lies about its contents must still
// fail cleanly.
TEST_F(StoreCorruptionTest, ConsistentHeaderBadPayloadIsRejected) {
  {
    // Payload cut short, header fixed up: the reader must hit a clean
    // truncation error mid-structure.
    std::string bytes = base_;
    bytes.resize(bytes.size() - 16);
    FixupHeader(&bytes);
    DecodedSnapshot decoded;
    std::string error;
    EXPECT_FALSE(DecodeSnapshot(bytes, &decoded, &error));
    EXPECT_FALSE(error.empty());
  }
  {
    // Trailing garbage after a complete payload, header fixed up.
    std::string bytes = base_ + std::string(5, '\0');
    FixupHeader(&bytes);
    DecodedSnapshot decoded;
    std::string error;
    EXPECT_FALSE(DecodeSnapshot(bytes, &decoded, &error));
    EXPECT_EQ(error, "trailing bytes in snapshot payload");
  }
  {
    // Grid dimension field inflated to an absurd value, header fixed up:
    // must be rejected by bounds validation, not by an allocation attempt.
    // The grid's nx field sits right after the meta (f64 epsilon + string)
    // and the 4 domain doubles.
    std::string bytes = base_;
    const size_t meta_size = sizeof(double) + sizeof(uint32_t) +
                             std::string("corruption").size();
    const size_t nx_offset = kSnapshotHeaderSize + meta_size +
                             4 * sizeof(double);
    const uint64_t absurd = uint64_t{1} << 62;
    std::memcpy(bytes.data() + nx_offset, &absurd, sizeof(absurd));
    FixupHeader(&bytes);
    DecodedSnapshot decoded;
    std::string error;
    EXPECT_FALSE(DecodeSnapshot(bytes, &decoded, &error));
    EXPECT_FALSE(error.empty());
  }
  {
    // A finite, non-empty domain whose cells are too narrow for doubles:
    // 1/cell_width overflows to inf, and a query at the origin would then
    // compute 0 * inf = NaN and cast it to a cell index. Also one whose
    // width overflows to inf. Both must be rejected, header fixed up.
    const size_t meta_size = sizeof(double) + sizeof(uint32_t) +
                             std::string("corruption").size();
    for (const auto& domain : {std::vector<double>{0.0, 0.0, 1e-310, 1.0},
                               std::vector<double>{-1e308, 0.0, 1e308, 1.0}}) {
      std::string bytes = base_;
      std::memcpy(bytes.data() + kSnapshotHeaderSize + meta_size,
                  domain.data(), 4 * sizeof(double));
      FixupHeader(&bytes);
      DecodedSnapshot decoded;
      std::string error;
      EXPECT_FALSE(DecodeSnapshot(bytes, &decoded, &error));
      EXPECT_EQ(error, "grid cell extent out of range");
    }
  }
  {
    // Values array length lied down to zero (an empty vector's data() is
    // null — the reader must not touch it), header fixed up.
    std::string bytes = base_;
    const size_t meta_size = sizeof(double) + sizeof(uint32_t) +
                             std::string("corruption").size();
    const size_t len_offset = kSnapshotHeaderSize + meta_size +
                              4 * sizeof(double) + 2 * sizeof(uint64_t);
    const uint64_t zero = 0;
    std::memcpy(bytes.data() + len_offset, &zero, sizeof(zero));
    FixupHeader(&bytes);
    DecodedSnapshot decoded;
    std::string error;
    EXPECT_FALSE(DecodeSnapshot(bytes, &decoded, &error));
    EXPECT_EQ(error, "grid value count does not match dimensions");
  }
}

// A cell-synopsis snapshot claiming zero cells must be rejected cleanly:
// CellSynopsis itself requires at least one cell, so letting the count
// through would abort in its constructor.
TEST_F(StoreCorruptionTest, ZeroCellCountIsRejected) {
  const std::vector<SynopsisCell> cells = {
      SynopsisCell{Rect{0, 0, 1, 1}, 5.0}};
  const CellSynopsis synopsis(cells, "z");
  std::string bytes;
  std::string error;
  ASSERT_TRUE(EncodeSnapshot(synopsis, SnapshotMeta{1.0, "m"}, &bytes,
                             &error))
      << error;
  // Payload: meta (f64 + "m") then name string (u32 + "z") then u64 count.
  const size_t count_offset = kSnapshotHeaderSize + sizeof(double) +
                              sizeof(uint32_t) + 1 + sizeof(uint32_t) + 1;
  const uint64_t zero = 0;
  std::memcpy(bytes.data() + count_offset, &zero, sizeof(zero));
  FixupHeader(&bytes);
  DecodedSnapshot decoded;
  EXPECT_FALSE(DecodeSnapshot(bytes, &decoded, &error));
  EXPECT_EQ(error, "cell synopsis with zero cells");
}

// ---------------------------------------------------------------------------
// Seeded structure-aware mutations
// ---------------------------------------------------------------------------

// Where the fields of a v2 payload lie, found by walking it with the
// layout snapshot.h documents: the offsets of every u64 length or shape
// field, every field boundary, the byte ranges of the count arrays, and
// per grid the offsets of its per-axis cell counts.
struct PayloadLayout {
  std::vector<size_t> u64_fields;
  std::vector<size_t> boundaries;
  std::vector<std::pair<size_t, size_t>> value_ranges;
  std::vector<std::vector<size_t>> shapes;
};

class PayloadWalker {
 public:
  PayloadWalker(std::string_view payload, PayloadLayout* layout)
      : payload_(payload), layout_(layout) {}

  size_t pos() const { return pos_; }

  void Skip(size_t n) {
    pos_ += n;
    layout_->boundaries.push_back(pos_);
  }
  uint64_t U64() {
    uint64_t v = 0;
    std::memcpy(&v, payload_.data() + pos_, sizeof(v));
    layout_->u64_fields.push_back(pos_);
    Skip(sizeof(v));
    return v;
  }
  void Str() {
    uint32_t len = 0;
    std::memcpy(&len, payload_.data() + pos_, sizeof(len));
    Skip(sizeof(len));
    Skip(len);
  }
  void F64Vec() { Values(U64()); }
  void Values(uint64_t count) {
    layout_->value_ranges.emplace_back(pos_, pos_ + count * sizeof(double));
    Skip(count * sizeof(double));
  }
  void SizeVec() {
    const uint64_t n = U64();
    for (uint64_t i = 0; i < n; ++i) U64();
  }
  void GridCounts() {
    Skip(4 * sizeof(double));
    layout_->shapes.push_back({pos_, pos_ + sizeof(uint64_t)});
    U64();
    U64();
    F64Vec();
  }
  void GridNd() {
    const uint64_t d = U64();
    Skip(2 * d * sizeof(double));
    std::vector<size_t>& shape = layout_->shapes.emplace_back();
    const uint64_t n = U64();
    for (uint64_t i = 0; i < n; ++i) {
      shape.push_back(pos_);
      U64();
    }
    F64Vec();
  }
  void Leaves() {
    SizeVec();
    F64Vec();
  }

  void Walk(SynopsisKind kind) {
    Skip(sizeof(double));  // meta epsilon
    Str();                 // meta label
    // Option blocks: i32 = 4 bytes, f64 = 8, bool = u32 = 4.
    switch (kind) {
      case SynopsisKind::kUniformGrid:
        GridCounts();
        break;
      case SynopsisKind::kAdaptiveGrid:
        Skip(4 + 8 + 8 + 8 + 4 + 4 + 8);
        GridCounts();
        Leaves();
        break;
      case SynopsisKind::kHierarchyGrid:
        Skip(4 + 4 + 4 + 4);
        GridCounts();
        break;
      case SynopsisKind::kCellSynopsis:
        Str();
        Values(5 * U64());
        break;
      case SynopsisKind::kUniformGridNd:
        Skip(4 + 8);
        GridNd();
        break;
      case SynopsisKind::kAdaptiveGridNd:
        Skip(4 + 8 + 8 + 8 + 4 + 4);
        GridNd();
        Leaves();
        break;
      case SynopsisKind::kHierarchyNd:
        Skip(4 + 4 + 4 + 4);
        GridNd();
        break;
    }
  }

 private:
  std::string_view payload_;
  PayloadLayout* layout_;
  size_t pos_ = 0;
};

// Every decode of a mutated snapshot must either fail cleanly or yield a
// synopsis that answers the fixed queries (the answers themselves may be
// anything, NaN included); under the sanitizer build a crash or UB here
// fails the test.
TEST(StoreMutationTest, SeededMutationsFailCleanlyOrDecodeToAServingSynopsis) {
  Rng data_rng(700);
  const Dataset data = MakeCheckinLike(3000, data_rng);
  const BoxNd domain = BoxNd::Cube(3, 0.0, 10.0);
  Rng nd_rng(701);
  const DatasetNd data_nd = MakeUniformDatasetNd(domain, 3000, nd_rng);

  std::vector<std::string> snapshots;
  const auto encode = [&snapshots](const auto& synopsis) {
    std::string bytes;
    std::string error;
    ASSERT_TRUE(EncodeSnapshot(synopsis, SnapshotMeta{1.0, "mutate"}, &bytes,
                               &error))
        << error;
    snapshots.push_back(std::move(bytes));
  };
  Rng rng(702);
  encode(UniformGrid(data, 1.0, rng, UniformGridOptions{.grid_size = 12}));
  encode(AdaptiveGrid(data, 1.0, rng,
                      AdaptiveGridOptions{.level1_size = 4,
                                          .max_level2_size = 6}));
  encode(HierarchyGrid(data, 1.0, rng,
                       HierarchyGridOptions{.leaf_size = 8}));
  encode(CellSynopsis({SynopsisCell{Rect{0, 0, 1, 1}, 3.0},
                       SynopsisCell{Rect{1, 0, 2, 1}, 4.0}},
                      "cells"));
  encode(UniformGridNd(data_nd, 1.0, rng,
                       UniformGridNdOptions{.grid_size = 5}));
  encode(AdaptiveGridNd(data_nd, 1.0, rng,
                        AdaptiveGridNdOptions{.level1_size = 3,
                                              .max_level2_size = 3}));
  encode(HierarchyNd(data_nd, 1.0, rng, HierarchyNdOptions{.leaf_size = 4}));
  ASSERT_EQ(snapshots.size(), 7u);

  const std::vector<Rect> queries = FixedQueries(data.domain(), 20, 703);
  const std::vector<BoxNd> queries_nd = FixedQueriesNd(domain, 20, 704);
  const QueryEngine engine(QueryEngineOptions{.num_threads = 1});
  constexpr uint64_t kShapes[] = {0, 1, uint64_t{1} << 32,
                                  uint64_t{1} << 62};
  constexpr int kMutationsPerKind = 160;
  Rng mutate(705);
  size_t failed = 0;
  size_t decoded_ok = 0;
  size_t coordinated = 0;
  // A mutated snapshot must fail cleanly or serve the fixed queries.
  const auto check_decode = [&](const std::string& bytes, uint32_t kind_raw,
                                int op) {
    DecodedSnapshot decoded;
    std::string error;
    if (!DecodeSnapshot(bytes, &decoded, &error)) {
      ++failed;
      EXPECT_FALSE(error.empty()) << "kind " << kind_raw << " op " << op;
      EXPECT_EQ(decoded.synopsis, nullptr);
      EXPECT_EQ(decoded.synopsis_nd, nullptr);
      return;
    }
    ++decoded_ok;
    if (decoded.synopsis != nullptr) {
      EXPECT_EQ(engine.AnswerAll(*decoded.synopsis, queries).size(),
                queries.size());
    } else {
      ASSERT_NE(decoded.synopsis_nd, nullptr);
      EXPECT_EQ(engine.AnswerAll(*decoded.synopsis_nd, queries_nd).size(),
                queries_nd.size());
    }
  };
  for (const std::string& base : snapshots) {
    uint32_t kind_raw = 0;
    std::memcpy(&kind_raw, base.data() + 8, sizeof(kind_raw));
    const auto kind = static_cast<SynopsisKind>(kind_raw);
    const std::string_view payload =
        std::string_view(base).substr(kSnapshotHeaderSize);
    PayloadLayout layout;
    PayloadWalker walker(payload, &layout);
    walker.Walk(kind);
    // The walk must account for every payload byte, or the offsets below
    // would not be field offsets.
    ASSERT_EQ(walker.pos(), payload.size()) << "kind " << kind_raw;
    ASSERT_FALSE(layout.u64_fields.empty());
    ASSERT_FALSE(layout.value_ranges.empty());

    for (int i = 0; i < kMutationsPerKind; ++i) {
      std::string bytes = base;
      const auto pick = [&mutate](size_t n) {
        return static_cast<size_t>(
            mutate.UniformInt(0, static_cast<int64_t>(n) - 1));
      };
      const int op = static_cast<int>(pick(4));
      if (op == 0) {  // a u64 length or shape
        const uint64_t v = kShapes[pick(4)];
        std::memcpy(bytes.data() + kSnapshotHeaderSize +
                        layout.u64_fields[pick(layout.u64_fields.size())],
                    &v, sizeof(v));
      } else if (op == 1) {  // truncate at a field boundary
        bytes.resize(kSnapshotHeaderSize +
                     layout.boundaries[pick(layout.boundaries.size() - 1)]);
      } else if (op == 2) {  // append bytes
        for (size_t n = 1 + pick(16); n > 0; --n) {
          bytes.push_back(static_cast<char>(pick(256)));
        }
      } else {  // flip one bit of one count
        const auto [begin, end] =
            layout.value_ranges[pick(layout.value_ranges.size())];
        if (begin == end) continue;
        const size_t value = begin + sizeof(double) *
                                         pick((end - begin) / sizeof(double));
        const size_t bit = pick(64);
        bytes[kSnapshotHeaderSize + value + bit / 8] ^=
            static_cast<char>(1 << (bit % 8));
      }
      FixupHeader(&bytes);
      check_decode(bytes, kind_raw, op);
    }

    // Coordinated shape rewrites: two per-axis cell counts of one grid
    // change together with their product kept (an m x m grid becomes
    // (f*m) x (m/f) for the smallest prime factor f of m), so the value
    // count stays consistent and the checks behind it — square level-1
    // grids, cube N-d grids — are what the decode reaches.
    for (const std::vector<size_t>& shape : layout.shapes) {
      for (size_t i = 0; i < shape.size(); ++i) {
        for (size_t j = 0; j < shape.size(); ++j) {
          if (i == j) continue;
          std::string bytes = base;
          char* grow = bytes.data() + kSnapshotHeaderSize + shape[i];
          char* shrink = bytes.data() + kSnapshotHeaderSize + shape[j];
          uint64_t a = 0;
          uint64_t b = 0;
          std::memcpy(&a, grow, sizeof(a));
          std::memcpy(&b, shrink, sizeof(b));
          uint64_t f = 2;
          while (f <= b && b % f != 0) ++f;
          if (f > b) continue;  // b == 1: no factor to move
          a *= f;
          b /= f;
          std::memcpy(grow, &a, sizeof(a));
          std::memcpy(shrink, &b, sizeof(b));
          FixupHeader(&bytes);
          ++coordinated;
          check_decode(bytes, kind_raw, 4);
        }
      }
    }
  }
  // Both outcomes must occur, or the sweep is not reaching the parsers
  // (every decode failing) or not damaging anything (none failing).
  EXPECT_GT(failed, 0u);
  EXPECT_GT(decoded_ok, 0u);
  EXPECT_GT(coordinated, 0u);
}

// ---------------------------------------------------------------------------
// SnapshotStore: versioned files with atomic publish
// ---------------------------------------------------------------------------

class SnapshotStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("dpgrid_store_test_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name()))
               .string();
    std::filesystem::remove_all(dir_);
    Rng data_rng(321);
    data_ = std::make_unique<Dataset>(MakeCheckinLike(2000, data_rng));
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::unique_ptr<UniformGrid> MakeGrid(uint64_t seed) {
    Rng rng(seed);
    UniformGridOptions opts;
    opts.grid_size = 16;
    return std::make_unique<UniformGrid>(*data_, 1.0, rng, opts);
  }

  std::string dir_;
  std::unique_ptr<Dataset> data_;
};

TEST_F(SnapshotStoreTest, PublishLoadListPrune) {
  SnapshotStore store(dir_);
  EXPECT_TRUE(store.ListVersions("checkins").empty());

  std::vector<std::unique_ptr<UniformGrid>> grids;
  std::string error;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    grids.push_back(MakeGrid(seed));
    const uint64_t version = store.Publish(
        "checkins", *grids.back(), SnapshotMeta{1.0, "epoch"}, &error);
    ASSERT_EQ(version, seed) << error;
  }
  EXPECT_EQ(store.ListVersions("checkins"),
            (std::vector<uint64_t>{1, 2, 3}));

  // No temp files may survive a publish.
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().extension(), ".dpgs") << entry.path();
  }

  const std::vector<Rect> queries = FixedQueries(data_->domain(), 100, 90);
  const QueryEngine engine(QueryEngineOptions{.num_threads = 1});

  DecodedSnapshot latest;
  uint64_t latest_version = 0;
  ASSERT_TRUE(store.LoadLatest("checkins", &latest, &latest_version, &error))
      << error;
  EXPECT_EQ(latest_version, 3u);
  const std::vector<double> expected = engine.AnswerAll(*grids[2], queries);
  EXPECT_EQ(engine.AnswerAll(*latest.synopsis, queries), expected);

  DecodedSnapshot v2;
  ASSERT_TRUE(store.Load("checkins", 2, &v2, &error)) << error;
  EXPECT_EQ(engine.AnswerAll(*v2.synopsis, queries),
            engine.AnswerAll(*grids[1], queries));

  EXPECT_EQ(store.Prune("checkins", 1), 2u);
  EXPECT_EQ(store.ListVersions("checkins"), (std::vector<uint64_t>{3}));
  ASSERT_TRUE(store.LoadLatest("checkins", &latest, &latest_version, &error));
  EXPECT_EQ(latest_version, 3u);
}

TEST_F(SnapshotStoreTest, IndependentNamesAndMissingLoads) {
  SnapshotStore store(dir_);
  std::string error;
  auto g = MakeGrid(7);
  ASSERT_EQ(store.Publish("alpha", *g, SnapshotMeta{}, &error), 1u) << error;
  ASSERT_EQ(store.Publish("beta", *g, SnapshotMeta{}, &error), 1u) << error;
  ASSERT_EQ(store.Publish("alpha", *g, SnapshotMeta{}, &error), 2u) << error;
  EXPECT_EQ(store.ListVersions("alpha"), (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(store.ListVersions("beta"), (std::vector<uint64_t>{1}));

  DecodedSnapshot out;
  EXPECT_FALSE(store.Load("alpha", 99, &out, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(store.LoadLatest("gamma", &out, nullptr, &error));
  EXPECT_FALSE(error.empty());
}

TEST_F(SnapshotStoreTest, InvalidNamesAreRejected) {
  SnapshotStore store(dir_);
  auto g = MakeGrid(8);
  std::string error;
  for (const char* bad : {"", "../escape", "a/b", "name with space"}) {
    error.clear();
    EXPECT_EQ(store.Publish(bad, *g, SnapshotMeta{}, &error), 0u) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST_F(SnapshotStoreTest, InvalidNamesAreRejectedOnLoadPathsToo) {
  SnapshotStore store(dir_);
  auto g = MakeGrid(10);
  std::string error;
  ASSERT_EQ(store.Publish("inside", *g, SnapshotMeta{}, &error), 1u) << error;
  // A name with a path separator must not be turned into a path on ANY
  // API — "../inside" would otherwise read (or delete) outside the store.
  for (const char* bad : {"../inside", "..", "a/b", ""}) {
    DecodedSnapshot out;
    error.clear();
    EXPECT_FALSE(store.Load(bad, 1, &out, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
    EXPECT_FALSE(store.LoadLatest(bad, &out, nullptr, &error)) << bad;
    EXPECT_TRUE(store.ListVersions(bad).empty()) << bad;
    EXPECT_EQ(store.Prune(bad, 0), 0u) << bad;
  }
  // The store rooted one level deeper sees "../"-relative files exist but
  // must still refuse the traversal.
  SnapshotStore nested((std::filesystem::path(dir_) / "sub").string());
  DecodedSnapshot out;
  EXPECT_FALSE(nested.Load("../inside", 1, &out, &error));
  EXPECT_EQ(nested.Prune("../inside", 0), 0u);
  EXPECT_TRUE(std::filesystem::exists(
      std::filesystem::path(dir_) / SnapshotStore::FileName("inside", 1)));
}

TEST_F(SnapshotStoreTest, ListNamesFindsEveryPublishedName) {
  SnapshotStore store(dir_);
  EXPECT_TRUE(store.ListNames().empty());
  auto g = MakeGrid(11);
  std::string error;
  ASSERT_EQ(store.Publish("zeta", *g, SnapshotMeta{}, &error), 1u) << error;
  ASSERT_EQ(store.Publish("alpha", *g, SnapshotMeta{}, &error), 1u) << error;
  ASSERT_EQ(store.Publish("alpha", *g, SnapshotMeta{}, &error), 2u) << error;
  // Stray files that are not well-formed snapshot names are ignored.
  { std::ofstream junk((std::filesystem::path(dir_) / "README.txt").string()); }
  { std::ofstream junk((std::filesystem::path(dir_) / "noversion.dpgs").string()); }
  EXPECT_EQ(store.ListNames(), (std::vector<std::string>{"alpha", "zeta"}));
}

TEST_F(SnapshotStoreTest, PruneToZeroStillKeepsTheNewestVersion) {
  SnapshotStore store(dir_);
  auto g = MakeGrid(12);
  std::string error;
  for (int i = 0; i < 3; ++i) {
    ASSERT_NE(store.Publish("p", *g, SnapshotMeta{}, &error), 0u) << error;
  }
  // keep=0 clamps to 1: deleting a name's whole history would restart its
  // version numbering at 1, and a serving slot remembering v3 would then
  // (correctly) refuse the "new" v1/v2/v3 forever. Pinned here.
  EXPECT_EQ(store.Prune("p", 0), 2u);
  EXPECT_EQ(store.ListVersions("p"), (std::vector<uint64_t>{3}));
  DecodedSnapshot out;
  uint64_t version = 0;
  ASSERT_TRUE(store.LoadLatest("p", &out, &version, &error)) << error;
  EXPECT_EQ(version, 3u);
  // Publishing after a deep prune continues the sequence, never reuses.
  EXPECT_EQ(store.Publish("p", *g, SnapshotMeta{}, &error), 4u) << error;
  // Pruning below the current count is a no-op.
  EXPECT_EQ(store.Prune("p", 5), 0u);
  EXPECT_EQ(store.ListVersions("p"), (std::vector<uint64_t>{3, 4}));
}

TEST_F(SnapshotStoreTest, PruneWhileLatestIsLoaded) {
  SnapshotStore store(dir_);
  std::string error;
  auto g1 = MakeGrid(13);
  auto g2 = MakeGrid(14);
  ASSERT_EQ(store.Publish("q", *g1, SnapshotMeta{}, &error), 1u) << error;
  ASSERT_EQ(store.Publish("q", *g2, SnapshotMeta{}, &error), 2u) << error;

  DecodedSnapshot latest;
  uint64_t version = 0;
  ASSERT_TRUE(store.LoadLatest("q", &latest, &version, &error)) << error;
  ASSERT_EQ(version, 2u);

  // Prune away everything but the newest; the decoded synopsis is pure
  // in-memory state, so it keeps answering even as files disappear.
  const std::vector<Rect> queries = FixedQueries(data_->domain(), 50, 91);
  const QueryEngine engine(QueryEngineOptions{.num_threads = 1});
  const std::vector<double> before =
      engine.AnswerAll(*latest.synopsis, queries);
  EXPECT_EQ(store.Prune("q", 1), 1u);
  EXPECT_EQ(engine.AnswerAll(*latest.synopsis, queries), before);
  EXPECT_EQ(store.ListVersions("q"), (std::vector<uint64_t>{2}));
  // The pruned version now fails to load with a clean error.
  DecodedSnapshot gone;
  EXPECT_FALSE(store.Load("q", 1, &gone, &error));
  EXPECT_FALSE(error.empty());
  // And the survivor still loads.
  DecodedSnapshot kept;
  ASSERT_TRUE(store.Load("q", 2, &kept, &error)) << error;
  EXPECT_EQ(engine.AnswerAll(*kept.synopsis, queries), before);
}

TEST_F(SnapshotStoreTest, StaleTempFromCrashedWriterIsSweptOnNextPublish) {
  SnapshotStore store(dir_);
  auto g = MakeGrid(15);
  std::string error;
  ASSERT_EQ(store.Publish("r", *g, SnapshotMeta{}, &error), 1u) << error;

  // Simulate a writer that crashed mid-publish: a half-written temp file
  // for this name, plus one belonging to a DIFFERENT name (which this
  // name's publishes must never touch — its writer may still be alive).
  const auto tmp_r = std::filesystem::path(dir_) /
                     (SnapshotStore::FileName("r", 2) + ".tmp");
  const auto tmp_other = std::filesystem::path(dir_) /
                         (SnapshotStore::FileName("other", 1) + ".tmp");
  {
    std::ofstream f(tmp_r.string(), std::ios::binary);
    f << "half-written garbage";
  }
  {
    std::ofstream f(tmp_other.string(), std::ios::binary);
    f << "someone else's half-written publish";
  }
  ASSERT_TRUE(std::filesystem::exists(tmp_r));

  // The stale temp is invisible to readers...
  EXPECT_EQ(store.ListVersions("r"), (std::vector<uint64_t>{1}));
  // ...and the next publish of the same name sweeps it.
  ASSERT_EQ(store.Publish("r", *g, SnapshotMeta{}, &error), 2u) << error;
  EXPECT_FALSE(std::filesystem::exists(tmp_r));
  EXPECT_TRUE(std::filesystem::exists(tmp_other));
  EXPECT_EQ(store.ListVersions("r"), (std::vector<uint64_t>{1, 2}));
  // Everything that survived decodes cleanly.
  DecodedSnapshot out;
  ASSERT_TRUE(store.LoadLatest("r", &out, nullptr, &error)) << error;
}

TEST_F(SnapshotStoreTest, CorruptFileFailsCleanly) {
  SnapshotStore store(dir_);
  auto g = MakeGrid(9);
  std::string error;
  ASSERT_EQ(store.Publish("c", *g, SnapshotMeta{}, &error), 1u) << error;
  // Stomp the published file's payload.
  const std::string path =
      (std::filesystem::path(dir_) / SnapshotStore::FileName("c", 1))
          .string();
  {
    std::ofstream out(path,
                      std::ios::binary | std::ios::in | std::ios::out);
    out.seekp(static_cast<std::streamoff>(kSnapshotHeaderSize + 3));
    out.put('\x7f');
  }
  DecodedSnapshot out;
  EXPECT_FALSE(store.Load("c", 1, &out, &error));
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
}

}  // namespace
}  // namespace dpgrid
