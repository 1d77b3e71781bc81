// Edge cases of the N-d adaptive grid's border-cell decomposition,
// asserting the invariant the dimension-generic batch pipeline must never
// break: AnswerBatch is bitwise-identical to the scalar Answer path — for
// boxes landing exactly on level-1 cell boundaries, degenerate and
// out-of-domain boxes, all-1^d and max_level2_size-capped leaves, slabs
// without interior and faces on level-1 planes — at dims 2, 3 and 4, with
// the face-slab index at its derived size, at one class and switched off,
// and across a snapshot-style Restore. Answers are also checked against a
// per-cell reference that answers every border cell from its own leaf
// grid, within rounding.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "nd/adaptive_grid_nd.h"
#include "nd/dataset_nd.h"
#include "nd/face_slab_index_nd.h"
#include "nd/workload_nd.h"

namespace dpgrid {
namespace {

DatasetNd TestDatasetNd(size_t dims, int64_t n, uint64_t seed) {
  const BoxNd domain(std::vector<double>(dims, 0.0),
                     std::vector<double>(dims, 10.0));
  Rng rng(seed);
  const std::vector<ClusterNd> clusters =
      MakeRandomClustersNd(domain, 8, 0.05, 0.2, 1.0, rng);
  return MakeGaussianMixtureNd(domain, n, clusters, 0.1, rng);
}

// Bitwise comparison of batch vs scalar on `queries`.
void ExpectBatchBitwiseEqual(const AdaptiveGridNd& ag,
                             const std::vector<BoxNd>& queries) {
  std::vector<double> scalar(queries.size());
  std::vector<double> batch(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    scalar[i] = ag.Answer(queries[i]);
  }
  ag.AnswerBatch(queries, batch);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(std::memcmp(&scalar[i], &batch[i], sizeof(double)), 0)
        << "query " << i << ": scalar " << scalar[i] << " batch " << batch[i];
  }
}

// Boxes exercising every decomposition edge of an m1^d level-1 grid over
// [0, 10]^d: exact level-1 boundaries, blocks with and without interior,
// slabs, degenerate (zero-extent) axes, out-of-domain and clamped boxes,
// and fractional straddles.
std::vector<BoxNd> EdgeCaseBoxes(size_t dims, int m1) {
  const double w = 10.0 / m1;
  auto cube = [&](double lo, double hi) {
    return BoxNd(std::vector<double>(dims, lo), std::vector<double>(dims, hi));
  };
  std::vector<BoxNd> qs;
  // Exactly one level-1 cell, on its boundary planes.
  qs.push_back(cube(w, 2 * w));
  // A 2^d block on boundaries (all border, no interior).
  qs.push_back(cube(0.0, 2 * w));
  // A 3^d block on boundaries (1-cell interior).
  if (m1 >= 3) qs.push_back(cube(0.0, 3 * w));
  // Full domain on boundaries (all interior).
  qs.push_back(cube(0.0, 10.0));
  // A slab: full domain except one fractional axis.
  {
    std::vector<double> lo(dims, 0.0);
    std::vector<double> hi(dims, 10.0);
    lo[0] = w + 0.3 * w;
    hi[0] = w + 0.7 * w;
    qs.emplace_back(lo, hi);
  }
  // Degenerate: zero extent along the first axis, then along the last.
  {
    std::vector<double> lo(dims, 0.0);
    std::vector<double> hi(dims, 10.0);
    lo[0] = hi[0] = w;
    qs.emplace_back(lo, hi);
  }
  {
    std::vector<double> lo(dims, 0.0);
    std::vector<double> hi(dims, 10.0);
    lo[dims - 1] = hi[dims - 1] = w;
    qs.emplace_back(lo, hi);
  }
  // Fully degenerate point box on a lattice corner.
  qs.push_back(cube(w, w));
  // Fractional box inside one cell.
  qs.push_back(cube(w + 0.25 * w, w + 0.75 * w));
  // Fractional box straddling a boundary corner.
  qs.push_back(cube(w - 0.5 * w, w + 0.5 * w));
  // Entirely outside the domain; sticking out past every face.
  qs.push_back(cube(-5.0, -1.0));
  qs.push_back(cube(10.5, 12.0));
  qs.push_back(cube(-1.0, 11.0));
  return qs;
}

std::vector<BoxNd> WorkloadBoxes(size_t dims, size_t per_size, uint64_t seed) {
  const BoxNd domain(std::vector<double>(dims, 0.0),
                     std::vector<double>(dims, 10.0));
  Rng rng(seed);
  const WorkloadNd workload = GenerateWorkloadNd(
      domain, std::vector<double>(dims, 5.0), 3, per_size, rng);
  std::vector<BoxNd> queries;
  for (const auto& group : workload.queries) {
    queries.insert(queries.end(), group.begin(), group.end());
  }
  return queries;
}

// Boxes whose face cells the face-slab index answers in its corner
// cases, per axis a: slabs thin along a (inside one level-1 slab, across
// two, and on one plane) and full or fractional on the other axes, which
// have no interior; and boxes with one or both faces along a exactly on
// level-1 planes while the other axes cut fractionally.
std::vector<BoxNd> FaceSlabBoxes(size_t dims, int m1) {
  const double w = 10.0 / m1;
  std::vector<BoxNd> qs;
  for (size_t a = 0; a < dims; ++a) {
    const auto add = [&](double lo_a, double hi_a, double lo_o,
                         double hi_o) {
      std::vector<double> lo(dims, lo_o);
      std::vector<double> hi(dims, hi_o);
      lo[a] = lo_a;
      hi[a] = hi_a;
      qs.emplace_back(lo, hi);
    };
    for (const double frac : {0.0, 0.35 * w}) {
      const double lo_o = frac;
      const double hi_o = 10.0 - frac;
      // No interior: thin inside one slab, across two, and on one plane.
      add(1.3 * w, 1.7 * w, lo_o, hi_o);
      add(1.5 * w, 2.5 * w, lo_o, hi_o);
      add(1.5 * w, 2.0 * w, lo_o, hi_o);
      add(2.0 * w, 2.5 * w, lo_o, hi_o);
      // Faces on level-1 planes, with and without a fractional partner.
      if (m1 >= 4) {
        add(1.0 * w, 3.0 * w, lo_o + 0.2 * w, hi_o - 0.1 * w);
        add(1.0 * w, 3.6 * w, lo_o + 0.2 * w, hi_o - 0.1 * w);
        add(0.4 * w, 3.0 * w, lo_o + 0.2 * w, hi_o - 0.1 * w);
      }
    }
  }
  return qs;
}

std::vector<BoxNd> AllBoxes(size_t dims, int m1, uint64_t seed) {
  std::vector<BoxNd> qs = EdgeCaseBoxes(dims, m1);
  const std::vector<BoxNd> faces = FaceSlabBoxes(dims, m1);
  qs.insert(qs.end(), faces.begin(), faces.end());
  const std::vector<BoxNd> workload = WorkloadBoxes(dims, 300, seed);
  qs.insert(qs.end(), workload.begin(), workload.end());
  return qs;
}

// The per-cell reference: interior from the level-1 prefix sums, every
// other overlapped level-1 cell from a prefix index over its own leaf
// counts, in ascending cell order.
double ReferenceAnswer(const AdaptiveGridNd& ag, const BoxNd& query) {
  const size_t d = ag.dims();
  const int m1 = ag.level1_size();
  std::vector<double> lo;
  std::vector<double> hi;
  ag.level1_counts().ToCellCoords(query, &lo, &hi);
  std::vector<int64_t> b_lo(d);
  std::vector<int64_t> b_hi(d);
  std::vector<size_t> full_lo(d);
  std::vector<size_t> full_hi(d);
  bool has_interior = true;
  for (size_t a = 0; a < d; ++a) {
    lo[a] = std::clamp(lo[a], 0.0, static_cast<double>(m1));
    hi[a] = std::clamp(hi[a], 0.0, static_cast<double>(m1));
    if (hi[a] <= lo[a]) return 0.0;
    b_lo[a] = std::clamp<int64_t>(static_cast<int64_t>(std::floor(lo[a])), 0,
                                  m1 - 1);
    b_hi[a] = std::clamp<int64_t>(static_cast<int64_t>(std::ceil(hi[a])) - 1,
                                  0, m1 - 1);
    const int64_t f_lo = lo[a] <= b_lo[a] ? b_lo[a] : b_lo[a] + 1;
    const int64_t f_hi = hi[a] >= b_hi[a] + 1 ? b_hi[a] + 1 : b_hi[a];
    full_lo[a] = static_cast<size_t>(f_lo);
    full_hi[a] = static_cast<size_t>(std::max(f_lo, f_hi));
    if (full_hi[a] <= full_lo[a]) has_interior = false;
  }
  double total = 0.0;
  if (has_interior) total += ag.level1_prefix().BlockSum(full_lo, full_hi);
  std::vector<int64_t> idx = b_lo;
  while (true) {
    bool interior = has_interior;
    size_t flat = 0;
    for (size_t a = 0; a < d; ++a) {
      if (idx[a] < static_cast<int64_t>(full_lo[a]) ||
          idx[a] >= static_cast<int64_t>(full_hi[a])) {
        interior = false;
      }
      flat = flat * static_cast<size_t>(m1) + static_cast<size_t>(idx[a]);
    }
    if (!interior) {
      const GridNd& leaf = *ag.leaves()[flat].counts;
      const PrefixSumNd prefix(leaf.values(), leaf.sizes());
      std::vector<double> leaf_lo;
      std::vector<double> leaf_hi;
      leaf.ToCellCoords(query, &leaf_lo, &leaf_hi);
      total += prefix.FractionalSum(leaf_lo, leaf_hi);
    }
    size_t a = d;
    while (a-- > 0) {
      if (++idx[a] <= b_hi[a]) break;
      idx[a] = b_lo[a];
    }
    if (a == static_cast<size_t>(-1)) break;
  }
  return total;
}

// |Answer − reference| <= 1e-9 · Σ|leaf counts| on every box.
void ExpectCloseToReference(const AdaptiveGridNd& ag,
                            const std::vector<BoxNd>& queries) {
  double mass = 0.0;
  for (const AdaptiveGridNd::LeafBlock& block : ag.leaves()) {
    for (const double v : block.counts->values()) mass += std::abs(v);
  }
  const double tol = 1e-9 * mass;
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_NEAR(ag.Answer(queries[i]), ReferenceAnswer(ag, queries[i]), tol)
        << "query " << i;
  }
}

// Rebuilds `ag` from copies of its persisted counts — the snapshot-store
// path: every index is rebuilt from them.
std::unique_ptr<AdaptiveGridNd> RestoreCopy(const AdaptiveGridNd& ag) {
  std::vector<size_t> leaf_sizes;
  std::vector<double> leaf_values;
  for (const AdaptiveGridNd::LeafBlock& block : ag.leaves()) {
    leaf_sizes.push_back(block.counts->sizes()[0]);
    leaf_values.insert(leaf_values.end(), block.counts->values().begin(),
                       block.counts->values().end());
  }
  return AdaptiveGridNd::Restore(ag.options(), ag.level1_counts(),
                                 leaf_sizes, leaf_values);
}

class AgNdBorderTest : public ::testing::TestWithParam<size_t> {};

TEST_P(AgNdBorderTest, EdgeQueriesMatchScalarBitwise) {
  const size_t dims = GetParam();
  const DatasetNd data = TestDatasetNd(dims, 20000, 30 + dims);
  Rng rng(40 + dims);
  const AdaptiveGridNd ag(data, 1.0, rng);
  ASSERT_TRUE(ag.flat_index().built());
  ASSERT_EQ(ag.flat_index().dims(), dims);
  ExpectBatchBitwiseEqual(ag, EdgeCaseBoxes(dims, ag.level1_size()));
}

TEST_P(AgNdBorderTest, RandomWorkloadMatchesScalarBitwise) {
  const size_t dims = GetParam();
  const DatasetNd data = TestDatasetNd(dims, 30000, 50 + dims);
  Rng rng(60 + dims);
  const AdaptiveGridNd ag(data, 0.5, rng);
  ExpectBatchBitwiseEqual(ag, WorkloadBoxes(dims, 700, 70 + dims));
}

INSTANTIATE_TEST_SUITE_P(Dims, AgNdBorderTest, ::testing::Values(2, 3, 4));

TEST(AgNdBorderTest, AllUnitLeavesMatchScalarBitwise) {
  const DatasetNd data = TestDatasetNd(3, 20000, 80);
  AdaptiveGridNdOptions options;
  options.max_level2_size = 1;  // every leaf degenerates to 1^d
  Rng rng(81);
  const AdaptiveGridNd ag(data, 1.0, rng, options);
  for (size_t i = 0; i < ag.flat_index().num_cells(); ++i) {
    ASSERT_TRUE(ag.flat_index().IsUnitLeaf(i));
  }
  ExpectBatchBitwiseEqual(ag, EdgeCaseBoxes(3, ag.level1_size()));
  ExpectBatchBitwiseEqual(ag, WorkloadBoxes(3, 500, 82));
}

TEST(AgNdBorderTest, CappedLeavesMatchScalarBitwise) {
  const DatasetNd data = TestDatasetNd(3, 50000, 83);
  AdaptiveGridNdOptions options;
  options.max_level2_size = 2;  // cap binds in dense cells, 1^d elsewhere
  Rng rng(84);
  const AdaptiveGridNd ag(data, 1.0, rng, options);
  bool has_multi = false;
  for (size_t i = 0; i < ag.flat_index().num_cells(); ++i) {
    if (!ag.flat_index().IsUnitLeaf(i)) has_multi = true;
  }
  EXPECT_TRUE(has_multi) << "expected the level-2 cap to bind somewhere";
  ExpectBatchBitwiseEqual(ag, EdgeCaseBoxes(3, ag.level1_size()));
  ExpectBatchBitwiseEqual(ag, WorkloadBoxes(3, 500, 85));
}

TEST(AgNdBorderTest, RestoredGridServesIdenticalBatches) {
  const DatasetNd data = TestDatasetNd(3, 20000, 86);
  Rng rng(87);
  const AdaptiveGridNd ag(data, 1.0, rng);

  // Rebuild from copies of the persisted counts — the snapshot-store path.
  const std::unique_ptr<AdaptiveGridNd> restored = RestoreCopy(ag);
  ASSERT_TRUE(restored->flat_index().built());
  EXPECT_EQ(restored->flat_index().num_cells(), ag.flat_index().num_cells());

  std::vector<BoxNd> queries = EdgeCaseBoxes(3, ag.level1_size());
  const std::vector<BoxNd> extra = WorkloadBoxes(3, 500, 88);
  queries.insert(queries.end(), extra.begin(), extra.end());
  std::vector<double> original(queries.size());
  std::vector<double> from_restore(queries.size());
  ag.AnswerBatch(queries, original);
  restored->AnswerBatch(queries, from_restore);
  EXPECT_EQ(std::memcmp(original.data(), from_restore.data(),
                        queries.size() * sizeof(double)),
            0);
  ExpectBatchBitwiseEqual(*restored, queries);
}

TEST_P(AgNdBorderTest, FaceSlabBoxesMatchScalarBitwise) {
  const size_t dims = GetParam();
  const DatasetNd data = TestDatasetNd(dims, 30000, 90 + dims);
  Rng rng(91 + dims);
  const AdaptiveGridNd ag(data, 1.0, rng);
  EXPECT_GE(ag.face_slab_index().classes(), 1);
  ExpectBatchBitwiseEqual(ag, AllBoxes(dims, ag.level1_size(), 92 + dims));
}

TEST_P(AgNdBorderTest, AnswersMatchPerCellReference) {
  const size_t dims = GetParam();
  const DatasetNd data = TestDatasetNd(dims, 30000, 93 + dims);
  Rng rng(94 + dims);
  AdaptiveGridNd ag(data, 1.0, rng);
  const std::vector<BoxNd> queries =
      AllBoxes(dims, ag.level1_size(), 95 + dims);
  ExpectCloseToReference(ag, queries);
  ag.LimitFaceSlabClassesForTesting(0);
  ExpectCloseToReference(ag, queries);
}

// With every leaf 1^d the index holds class 1 only.
TEST(AgNdBorderTest, UnitLeavesIndexOneClass) {
  const DatasetNd data = TestDatasetNd(3, 20000, 96);
  AdaptiveGridNdOptions options;
  options.max_level2_size = 1;
  Rng rng(97);
  const AdaptiveGridNd ag(data, 1.0, rng, options);
  EXPECT_EQ(ag.face_slab_index().classes(), 1);
  const std::vector<BoxNd> queries = AllBoxes(3, ag.level1_size(), 98);
  ExpectBatchBitwiseEqual(ag, queries);
  ExpectCloseToReference(ag, queries);
}

// K = 0 indexes nothing: the same code path answers every face cell per
// cell, still bitwise batch == scalar.
TEST(AgNdBorderTest, NoClassesMatchesScalarBitwise) {
  const DatasetNd data = TestDatasetNd(3, 30000, 99);
  Rng rng(100);
  AdaptiveGridNd ag(data, 1.0, rng);
  ag.LimitFaceSlabClassesForTesting(0);
  EXPECT_EQ(ag.face_slab_index().classes(), 0);
  EXPECT_EQ(ag.face_slab_index().table_doubles(), 0u);
  for (size_t i = 0; i < ag.flat_index().num_cells(); ++i) {
    ASSERT_EQ(ag.face_slab_index().flags()[i], 0);
  }
  ExpectBatchBitwiseEqual(ag, AllBoxes(3, ag.level1_size(), 101));
}

TEST(AgNdBorderTest, ClassCountFollowsTheMemoryRule) {
  // 3 axes x 21 slabs x 22^2 corners x 10 entries = 304920 doubles.
  EXPECT_EQ(FaceSlabIndexNd::ChooseClasses(3, 21, 64, 152460), 4);
  EXPECT_EQ(FaceSlabIndexNd::ChooseClasses(3, 21, 64, 152459), 3);
  EXPECT_EQ(FaceSlabIndexNd::ChooseClasses(3, 21, 2, 1 << 20), 2);
  EXPECT_EQ(FaceSlabIndexNd::ChooseClasses(3, 21, 64, 0), 0);
}

TEST(AgNdBorderTest, RestoredGridAnswersBitwiseLikeTheBuiltOne) {
  for (const size_t dims : {2, 3, 4}) {
    const DatasetNd data = TestDatasetNd(dims, 20000, 102 + dims);
    Rng rng(103 + dims);
    const AdaptiveGridNd ag(data, 1.0, rng);
    const std::unique_ptr<AdaptiveGridNd> restored = RestoreCopy(ag);
    EXPECT_EQ(restored->face_slab_index().classes(),
              ag.face_slab_index().classes());
    const std::vector<BoxNd> queries =
        AllBoxes(dims, ag.level1_size(), 104 + dims);
    for (size_t i = 0; i < queries.size(); ++i) {
      const double built = ag.Answer(queries[i]);
      const double again = restored->Answer(queries[i]);
      EXPECT_EQ(std::memcmp(&built, &again, sizeof(double)), 0)
          << "dims " << dims << " query " << i;
    }
    ExpectBatchBitwiseEqual(*restored, queries);
  }
}

}  // namespace
}  // namespace dpgrid
