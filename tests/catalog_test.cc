// SynopsisCatalog tests: bootstrap from a SnapshotStore directory, hot
// reload of externally published versions, in-process slot publishing,
// and the unpublished-slot path (must be a clean kNotFound, never zeros
// or an abort).

#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/synopsis_catalog.h"
#include "common/random.h"
#include "data/generators.h"
#include "grid/adaptive_grid.h"
#include "grid/uniform_grid.h"
#include "nd/dataset_nd.h"
#include "nd/uniform_grid_nd.h"
#include "query/query_engine.h"
#include "store/publish.h"
#include "store/snapshot_store.h"
#include "tests/test_util.h"

namespace dpgrid {
namespace {

using test::FixedQueries;

class CatalogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("dpgrid_catalog_test_" +
             std::to_string(
                 ::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name()))
               .string();
    std::filesystem::remove_all(dir_);
    Rng data_rng(321);
    data_ = std::make_unique<Dataset>(MakeCheckinLike(3000, data_rng));
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
  const QueryEngine engine_{QueryEngineOptions{.num_threads = 1}};
};

TEST_F(CatalogTest, BootstrapLoadsLatestVersionOfEveryName) {
  SnapshotStore store(dir_);
  std::string error;
  auto ug_v1 = MakeGrid(1);
  auto ug_v2 = MakeGrid(2);
  ASSERT_EQ(store.Publish("taxi", *ug_v1, SnapshotMeta{1.0, "old"}, &error),
            1u)
      << error;
  ASSERT_EQ(store.Publish("taxi", *ug_v2, SnapshotMeta{1.0, "new"}, &error),
            2u)
      << error;
  Rng ag_rng(3);
  AdaptiveGrid ag(*data_, 1.0, ag_rng);
  ASSERT_EQ(store.Publish("checkins", ag, SnapshotMeta{1.0, "ag"}, &error),
            1u)
      << error;
  // An N-d synopsis rides along under its own name.
  const BoxNd nd_domain = BoxNd::Cube(3, 0.0, 10.0);
  Rng nd_rng(4);
  const DatasetNd nd_data = MakeUniformDatasetNd(nd_domain, 2000, nd_rng);
  UniformGridNdOptions nd_opts;
  nd_opts.grid_size = 6;
  Rng nd_build_rng(5);
  UniformGridNd cube(nd_data, 1.0, nd_build_rng, nd_opts);
  ASSERT_EQ(store.Publish("cube", cube, SnapshotMeta{1.0, "3d"}, &error), 1u)
      << error;

  SynopsisCatalog catalog(&store);
  std::string errors;
  EXPECT_EQ(catalog.LoadAll(&errors), 3u) << errors;
  EXPECT_EQ(catalog.size(), 3u);

  // The 2-D entries answer bitwise-identically to the original synopses
  // (latest version for "taxi").
  const std::vector<Rect> queries = FixedQueries(data_->domain(), 64, 9);
  std::vector<double> out(queries.size());
  uint64_t version = 0;
  ASSERT_EQ(catalog.AnswerBatch(engine_, "taxi", queries, out, &version),
            CatalogStatus::kOk);
  EXPECT_EQ(version, 2u);
  EXPECT_EQ(out, engine_.AnswerAll(*ug_v2, queries));

  ASSERT_EQ(catalog.AnswerBatch(engine_, "checkins", queries, out, &version),
            CatalogStatus::kOk);
  EXPECT_EQ(version, 1u);
  EXPECT_EQ(out, engine_.AnswerAll(ag, queries));

  // The N-d entry answers through the Nd path.
  Rng q_rng(10);
  std::vector<BoxNd> nd_queries;
  for (int i = 0; i < 32; ++i) {
    std::vector<double> lo(3);
    std::vector<double> hi(3);
    for (size_t a = 0; a < 3; ++a) {
      lo[a] = q_rng.Uniform(0.0, 5.0);
      hi[a] = lo[a] + q_rng.Uniform(0.0, 5.0);
    }
    nd_queries.emplace_back(std::move(lo), std::move(hi));
  }
  std::vector<double> nd_out(nd_queries.size());
  ASSERT_EQ(catalog.AnswerBatchNd(engine_, "cube", 3, nd_queries, nd_out,
                                  &version),
            CatalogStatus::kOk);
  EXPECT_EQ(nd_out, engine_.AnswerAll(cube, nd_queries));

  // List reports all three with their metadata.
  const std::vector<CatalogEntryInfo> entries = catalog.List();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].name, "checkins");
  EXPECT_EQ(entries[0].dims, 2u);
  EXPECT_EQ(entries[1].name, "cube");
  EXPECT_EQ(entries[1].dims, 3u);
  EXPECT_EQ(entries[1].label, "3d");
  EXPECT_EQ(entries[2].name, "taxi");
  EXPECT_EQ(entries[2].version, 2u);
  EXPECT_EQ(entries[2].label, "new");
}

TEST_F(CatalogTest, UnpublishedAndUnknownNamesAreNotFound) {
  SnapshotStore store(dir_);
  SynopsisCatalog catalog(&store);
  const std::vector<Rect> queries = FixedQueries(data_->domain(), 8, 11);
  std::vector<double> out(queries.size(), -1.0);
  uint64_t version = 99;

  // Unknown name: no slot at all.
  EXPECT_EQ(catalog.AnswerBatch(engine_, "nobody", queries, out, &version),
            CatalogStatus::kNotFound);

  // A slot that exists (a publisher registered it) but has no published
  // version yet must also be kNotFound — not a zero-filled answer.
  ASSERT_NE(catalog.Slot2D("pending"), nullptr);
  EXPECT_EQ(catalog.AnswerBatch(engine_, "pending", queries, out, &version),
            CatalogStatus::kNotFound);
  EXPECT_EQ(version, 99u);  // untouched on error

  // Same for the Nd path.
  std::vector<BoxNd> nd_queries = {BoxNd::Cube(3, 0.0, 1.0)};
  std::vector<double> nd_out(1);
  EXPECT_EQ(catalog.AnswerBatchNd(engine_, "pending", 3, nd_queries, nd_out,
                                  &version),
            CatalogStatus::kNotFound);
}

TEST_F(CatalogTest, DimsMismatchIsWrongDims) {
  SnapshotStore store(dir_);
  std::string error;
  auto ug = MakeGrid(21);
  ASSERT_EQ(store.Publish("flat", *ug, SnapshotMeta{}, &error), 1u) << error;
  SynopsisCatalog catalog(&store);
  ASSERT_EQ(catalog.LoadAll(nullptr), 1u);

  // 3-d queries against a 2-D synopsis.
  std::vector<BoxNd> nd_queries = {BoxNd::Cube(3, 0.0, 1.0)};
  std::vector<double> nd_out(1);
  EXPECT_EQ(catalog.AnswerBatchNd(engine_, "flat", 3, nd_queries, nd_out,
                                  nullptr),
            CatalogStatus::kWrongDims);

  // A batch whose boxes do not all match the claimed dims is rejected
  // before anything indexes past a shorter box's bounds.
  std::vector<BoxNd> mixed = {BoxNd::Cube(3, 0.0, 1.0),
                              BoxNd::Cube(2, 0.0, 1.0)};
  std::vector<double> mixed_out(2);
  EXPECT_EQ(catalog.AnswerBatchNd(engine_, "flat", 3, mixed, mixed_out,
                                  nullptr),
            CatalogStatus::kWrongDims);
}

TEST_F(CatalogTest, TwoDimensionalQueriesCrossRepresentations) {
  SnapshotStore store(dir_);
  std::string error;
  // A 2-dimensional N-d synopsis under one name...
  const BoxNd domain2 = BoxNd::Cube(2, 0.0, 50.0);
  Rng nd_rng(61);
  const DatasetNd data2 = MakeUniformDatasetNd(domain2, 2000, nd_rng);
  UniformGridNdOptions nd_opts;
  nd_opts.grid_size = 8;
  Rng nd_build(62);
  UniformGridNd flat_nd(data2, 1.0, nd_build, nd_opts);
  ASSERT_EQ(store.Publish("flat-nd", flat_nd, SnapshotMeta{}, &error), 1u)
      << error;
  // ...and a plain 2-D synopsis under another.
  auto flat_2d = MakeGrid(63);
  ASSERT_EQ(store.Publish("flat-2d", *flat_2d, SnapshotMeta{}, &error), 1u)
      << error;
  SynopsisCatalog catalog(&store);
  ASSERT_EQ(catalog.LoadAll(nullptr), 2u);

  std::vector<Rect> rects;
  std::vector<BoxNd> boxes;
  Rng q_rng(64);
  for (int i = 0; i < 24; ++i) {
    const double xlo = q_rng.Uniform(0.0, 30.0);
    const double ylo = q_rng.Uniform(0.0, 30.0);
    const double w = q_rng.Uniform(0.0, 20.0);
    const double h = q_rng.Uniform(0.0, 20.0);
    rects.push_back(Rect{xlo, ylo, xlo + w, ylo + h});
    boxes.emplace_back(std::vector<double>{xlo, ylo},
                       std::vector<double>{xlo + w, ylo + h});
  }
  std::vector<double> out(rects.size());
  uint64_t version = 0;

  // Rect queries against the 2-dim N-d synopsis route through its Nd path.
  ASSERT_EQ(catalog.AnswerBatch(engine_, "flat-nd", rects, out, &version),
            CatalogStatus::kOk);
  EXPECT_EQ(version, 1u);
  EXPECT_EQ(out, engine_.AnswerAll(flat_nd, boxes));

  // 2-d box queries against the plain 2-D synopsis fall back the other way.
  ASSERT_EQ(catalog.AnswerBatchNd(engine_, "flat-2d", 2, boxes, out,
                                  &version),
            CatalogStatus::kOk);
  EXPECT_EQ(version, 1u);
  EXPECT_EQ(out, engine_.AnswerAll(*flat_2d, rects));
}

TEST_F(CatalogTest, KindChangeRepublishServesTheNewerVersion) {
  SnapshotStore store(dir_);
  std::string error;
  auto old_2d = MakeGrid(81);
  ASSERT_EQ(store.Publish("morph", *old_2d, SnapshotMeta{1.0, "2d"}, &error),
            1u)
      << error;
  SynopsisCatalog catalog(&store);
  ASSERT_EQ(catalog.LoadAll(nullptr), 1u);

  std::vector<Rect> rects;
  std::vector<BoxNd> boxes;
  Rng q_rng(82);
  for (int i = 0; i < 16; ++i) {
    const double xlo = q_rng.Uniform(0.0, 30.0);
    const double ylo = q_rng.Uniform(0.0, 30.0);
    rects.push_back(Rect{xlo, ylo, xlo + 10.0, ylo + 10.0});
    boxes.emplace_back(std::vector<double>{xlo, ylo},
                       std::vector<double>{xlo + 10.0, ylo + 10.0});
  }
  std::vector<double> out(rects.size());
  uint64_t version = 0;
  ASSERT_EQ(catalog.AnswerBatch(engine_, "morph", rects, out, &version),
            CatalogStatus::kOk);
  EXPECT_EQ(version, 1u);

  // The name is republished as a 2-dimensional N-d synopsis (v2). After a
  // reload, BOTH query representations must serve v2 — the stale 2-D v1
  // must not keep winning just because its slot is non-empty.
  const BoxNd domain2 = BoxNd::Cube(2, 0.0, 50.0);
  Rng nd_rng(83);
  const DatasetNd data2 = MakeUniformDatasetNd(domain2, 2000, nd_rng);
  UniformGridNdOptions nd_opts;
  nd_opts.grid_size = 8;
  Rng nd_build(84);
  UniformGridNd newer_nd(data2, 1.0, nd_build, nd_opts);
  ASSERT_EQ(store.Publish("morph", newer_nd, SnapshotMeta{1.0, "nd"},
                          &error),
            2u)
      << error;
  ASSERT_EQ(catalog.ReloadAll(nullptr), 1u);

  ASSERT_EQ(catalog.AnswerBatch(engine_, "morph", rects, out, &version),
            CatalogStatus::kOk);
  EXPECT_EQ(version, 2u);
  EXPECT_EQ(out, engine_.AnswerAll(newer_nd, boxes));
  ASSERT_EQ(catalog.AnswerBatchNd(engine_, "morph", 2, boxes, out, &version),
            CatalogStatus::kOk);
  EXPECT_EQ(version, 2u);
  // List() reports the same version the query path serves.
  const auto entries = catalog.List();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].version, 2u);
}

TEST_F(CatalogTest, ReloadNeverRegressesANewerInProcessVersion) {
  SnapshotStore store(dir_);
  std::string error;
  auto durable = MakeGrid(71);
  ASSERT_EQ(store.Publish("x", *durable, SnapshotMeta{1.0, "v1"}, &error),
            1u)
      << error;
  SynopsisCatalog catalog(&store);
  // An in-process publisher is ahead of the durable store (say versions
  // 2..5 were served without persisting).
  auto live = std::shared_ptr<const Synopsis>(MakeGrid(72).release());
  ServingSynopsis* slot = catalog.Slot2D("x");
  slot->Publish(live, SnapshotMeta{1.0, "v5"}, 5);

  // A reload sweep must not march the slot backwards to the store's v1.
  EXPECT_FALSE(catalog.Reload("x", &error));
  EXPECT_TRUE(error.empty());
  EXPECT_EQ(slot->current_version(), 5u);

  // The guard that protects the check-then-load race directly: installing
  // an older or equal version is refused, a newer one is accepted.
  EXPECT_FALSE(slot->PublishIfNewer(live, SnapshotMeta{1.0, "v1"}, 1));
  EXPECT_FALSE(slot->PublishIfNewer(live, SnapshotMeta{1.0, "v5"}, 5));
  EXPECT_EQ(slot->current_version(), 5u);
  EXPECT_TRUE(slot->PublishIfNewer(live, SnapshotMeta{1.0, "v6"}, 6));
  EXPECT_EQ(slot->current_version(), 6u);

  // A SnapshotPublisher whose store-assigned version lags the slot (the
  // reload-vs-publisher race, resolved the other way) must not regress it
  // either: the file is written durably, the slot stays ahead.
  SnapshotPublisher publisher(&store, slot);
  const uint64_t v = publisher.Publish("x", live, SnapshotMeta{1.0, "late"},
                                       &error);
  EXPECT_EQ(v, 2u) << error;  // store's next version after v1
  EXPECT_EQ(slot->current_version(), 6u);
  EXPECT_EQ(store.ListVersions("x"), (std::vector<uint64_t>{1, 2}));
}

TEST_F(CatalogTest, ReloadPicksUpExternallyPublishedVersions) {
  SnapshotStore store(dir_);
  std::string error;
  auto v1 = MakeGrid(31);
  ASSERT_EQ(store.Publish("live", *v1, SnapshotMeta{1.0, "v1"}, &error), 1u)
      << error;

  SynopsisCatalog catalog(&store);
  ASSERT_EQ(catalog.LoadAll(nullptr), 1u);
  const std::vector<Rect> queries = FixedQueries(data_->domain(), 32, 13);
  std::vector<double> out(queries.size());
  uint64_t version = 0;
  ASSERT_EQ(catalog.AnswerBatch(engine_, "live", queries, out, &version),
            CatalogStatus::kOk);
  EXPECT_EQ(version, 1u);

  // Another process (a second store handle) publishes v2 and a new name.
  SnapshotStore other(dir_);
  auto v2 = MakeGrid(32);
  ASSERT_EQ(other.Publish("live", *v2, SnapshotMeta{1.0, "v2"}, &error), 2u)
      << error;
  auto fresh = MakeGrid(33);
  ASSERT_EQ(other.Publish("fresh", *fresh, SnapshotMeta{}, &error), 1u)
      << error;

  // A name with no versions at all is an error, not a silent no-op.
  std::string reload_error;
  EXPECT_FALSE(catalog.Reload("fresh-nonexistent", &reload_error));
  EXPECT_FALSE(reload_error.empty());
  // ...and installs the new version + new name on a full sweep.
  EXPECT_EQ(catalog.ReloadAll(nullptr), 2u);
  ASSERT_EQ(catalog.AnswerBatch(engine_, "live", queries, out, &version),
            CatalogStatus::kOk);
  EXPECT_EQ(version, 2u);
  EXPECT_EQ(out, engine_.AnswerAll(*v2, queries));
  ASSERT_EQ(catalog.AnswerBatch(engine_, "fresh", queries, out, &version),
            CatalogStatus::kOk);
  EXPECT_EQ(version, 1u);

  // A second sweep with nothing new installs nothing, and a single-name
  // reload of an up-to-date name is false with no error.
  EXPECT_EQ(catalog.ReloadAll(nullptr), 0u);
  reload_error.clear();
  EXPECT_FALSE(catalog.Reload("live", &reload_error));
  EXPECT_TRUE(reload_error.empty()) << reload_error;
}

TEST_F(CatalogTest, InProcessPublisherFeedsSlotDirectly) {
  SnapshotStore store(dir_);
  SynopsisCatalog catalog(&store);
  SnapshotPublisher publisher(&store, catalog.Slot2D("stream"));

  Rng noise_rng(41);
  auto synopsis = std::shared_ptr<const Synopsis>(MakeGrid(40).release());
  std::string error;
  const uint64_t version =
      publisher.Publish("stream", synopsis, SnapshotMeta{1.0, "e1"}, &error);
  ASSERT_EQ(version, 1u) << error;

  // Served immediately, no Reload needed, version in step with the store.
  const std::vector<Rect> queries = FixedQueries(data_->domain(), 16, 17);
  std::vector<double> out(queries.size());
  uint64_t served = 0;
  ASSERT_EQ(catalog.AnswerBatch(engine_, "stream", queries, out, &served),
            CatalogStatus::kOk);
  EXPECT_EQ(served, 1u);
  EXPECT_EQ(out, engine_.AnswerAll(*synopsis, queries));
  EXPECT_EQ(store.ListVersions("stream"), (std::vector<uint64_t>{1}));

  // A catalog with no store still serves in-process slots.
  SynopsisCatalog storeless(nullptr);
  storeless.Slot2D("mem")->Publish(synopsis, SnapshotMeta{1.0, "mem"});
  ASSERT_EQ(storeless.AnswerBatch(engine_, "mem", queries, out, &served),
            CatalogStatus::kOk);
  EXPECT_EQ(served, 1u);
  EXPECT_EQ(storeless.LoadAll(nullptr), 0u);
}

TEST_F(CatalogTest, CorruptFileIsReportedAndSkipped) {
  SnapshotStore store(dir_);
  std::string error;
  auto good = MakeGrid(51);
  ASSERT_EQ(store.Publish("good", *good, SnapshotMeta{}, &error), 1u)
      << error;
  auto bad = MakeGrid(52);
  ASSERT_EQ(store.Publish("bad", *bad, SnapshotMeta{}, &error), 1u) << error;
  // Stomp "bad"'s only version.
  const std::string path =
      (std::filesystem::path(dir_) / SnapshotStore::FileName("bad", 1))
          .string();
  {
    std::ofstream out(path, std::ios::binary | std::ios::in | std::ios::out);
    out.seekp(40);
    out.put('\x7f');
  }

  SynopsisCatalog catalog(&store);
  std::string errors;
  EXPECT_EQ(catalog.LoadAll(&errors), 1u);
  EXPECT_NE(errors.find("bad"), std::string::npos) << errors;

  const std::vector<Rect> queries = FixedQueries(data_->domain(), 8, 19);
  std::vector<double> out(queries.size());
  EXPECT_EQ(catalog.AnswerBatch(engine_, "good", queries, out, nullptr),
            CatalogStatus::kOk);
  EXPECT_EQ(catalog.AnswerBatch(engine_, "bad", queries, out, nullptr),
            CatalogStatus::kNotFound);
}

// A corrupt latest file must not leave its name dark: boot falls back to
// the newest older version that loads and still reports the bad file, and
// every later sweep keeps reporting it until a good version supersedes it.
TEST_F(CatalogTest, BootFallsBackPastACorruptLatestVersion) {
  SnapshotStore store(dir_);
  std::string error;
  auto good = MakeGrid(81);
  ASSERT_EQ(store.Publish("demo", *good, SnapshotMeta{1.0, "good"}, &error),
            1u)
      << error;
  const std::string bad_file = SnapshotStore::FileName("demo", 2);
  {
    std::ofstream out((std::filesystem::path(dir_) / bad_file).string(),
                      std::ios::binary);
    out << "not a snapshot";
  }

  SynopsisCatalog catalog(&store);
  std::string errors;
  EXPECT_EQ(catalog.LoadAll(&errors), 1u);
  EXPECT_NE(errors.find(bad_file), std::string::npos) << errors;

  const std::vector<Rect> queries = FixedQueries(data_->domain(), 40, 21);
  const std::vector<double> expected = engine_.AnswerAll(*good, queries);
  std::vector<double> out(queries.size());
  uint64_t version = 0;
  ASSERT_EQ(catalog.AnswerBatch(engine_, "demo", queries, out, &version),
            CatalogStatus::kOk);
  EXPECT_EQ(version, 1u);
  EXPECT_EQ(std::memcmp(out.data(), expected.data(),
                        out.size() * sizeof(double)),
            0);

  // A later sweep re-reports the bad file and keeps serving v1.
  errors.clear();
  EXPECT_EQ(catalog.ReloadAll(&errors), 0u);
  EXPECT_NE(errors.find(bad_file), std::string::npos) << errors;
  std::string reload_error;
  EXPECT_FALSE(catalog.Reload("demo", &reload_error));
  EXPECT_NE(reload_error.find(bad_file), std::string::npos) << reload_error;
  ASSERT_EQ(catalog.AnswerBatch(engine_, "demo", queries, out, &version),
            CatalogStatus::kOk);
  EXPECT_EQ(version, 1u);

  // A good v3 supersedes both.
  auto next = MakeGrid(82);
  ASSERT_EQ(store.Publish("demo", *next, SnapshotMeta{}, &error), 3u)
      << error;
  errors.clear();
  EXPECT_EQ(catalog.ReloadAll(&errors), 1u);
  EXPECT_TRUE(errors.empty()) << errors;
  ASSERT_EQ(catalog.AnswerBatch(engine_, "demo", queries, out, &version),
            CatalogStatus::kOk);
  EXPECT_EQ(version, 3u);
}

}  // namespace
}  // namespace dpgrid
