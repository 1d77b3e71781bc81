// End-to-end loopback tests for the TCP query server (ctest label: net).
//
// The load-bearing invariants:
//   - answers that cross the wire are bitwise-identical to in-process
//     QueryEngine::AnswerAll on the same snapshot (the wire carries raw
//     IEEE doubles, no text round-trip);
//   - a SnapshotPublisher publish mid-stream bumps the version the server
//     serves, and every response carries exactly one version — a batch is
//     never answered by a mix of versions, even while a publisher races
//     the query stream;
//   - framing damage fails with a clean wire error and closes the
//     connection; semantic errors fail only that request;
//   - a sharded engine behind the wire answers bitwise like a one-thread
//     one, and a replaced release is never freed on the handler thread.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/synopsis_catalog.h"
#include "common/random.h"
#include "data/generators.h"
#include "grid/uniform_grid.h"
#include "nd/adaptive_grid_nd.h"
#include "nd/dataset_nd.h"
#include "nd/uniform_grid_nd.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/query_engine.h"
#include "server/client.h"
#include "server/fault_injection.h"
#include "server/server.h"
#include "server/socket_io.h"
#include "store/publish.h"
#include "store/snapshot.h"
#include "store/snapshot_store.h"
#include "tests/test_util.h"

namespace dpgrid {
namespace {

using test::FixedQueries;

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Keyed on the PID, not just the test name: two concurrent runs of
    // this binary (say, a plain and a TSan build tree running ctest at
    // once) would otherwise remove_all each other's directories mid-test.
    dir_ = (std::filesystem::temp_directory_path() /
            ("dpgrid_server_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()
                 ->current_test_info()
                 ->name()))
               .string();
    std::filesystem::remove_all(dir_);
    Rng data_rng(321);
    data_ = std::make_unique<Dataset>(MakeCheckinLike(3000, data_rng));
    store_ = std::make_unique<SnapshotStore>(dir_);
    catalog_ = std::make_unique<SynopsisCatalog>(store_.get());
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Shutdown();
    std::filesystem::remove_all(dir_);
  }

  std::shared_ptr<const Synopsis> MakeGrid(uint64_t seed) {
    Rng rng(seed);
    UniformGridOptions opts;
    opts.grid_size = 16;
    return std::make_shared<const UniformGrid>(*data_, 1.0, rng, opts);
  }

  void StartServer(QueryServerOptions options = {},
                   const QueryEngine* engine = nullptr) {
    server_ = std::make_unique<QueryServer>(
        catalog_.get(), engine != nullptr ? engine : &engine_,
        std::move(options));
    std::string error;
    ASSERT_TRUE(server_->Start(&error)) << error;
    ASSERT_NE(server_->port(), 0);
  }

  void Connect(QueryClient* client) {
    std::string error;
    ASSERT_TRUE(client->Connect("127.0.0.1", server_->port(), &error))
        << error;
  }

  std::string dir_;
  std::unique_ptr<Dataset> data_;
  std::unique_ptr<SnapshotStore> store_;
  std::unique_ptr<SynopsisCatalog> catalog_;
  const QueryEngine engine_{QueryEngineOptions{.num_threads = 1}};
  std::unique_ptr<QueryServer> server_;
};

TEST_F(ServerTest, EndToEndBitwiseIdenticalToInProcessEngine) {
  std::string error;
  auto grid = MakeGrid(1);
  ASSERT_EQ(store_->Publish("taxi", *grid, SnapshotMeta{1.0, "e2e"}, &error),
            1u)
      << error;
  ASSERT_EQ(catalog_->LoadAll(nullptr), 1u);
  StartServer();

  QueryClient client;
  Connect(&client);

  const std::vector<Rect> queries = FixedQueries(data_->domain(), 2000, 7);
  std::vector<double> wire_answers;
  uint64_t version = 0;
  WireStatus status = WireStatus::kInternal;
  ASSERT_TRUE(client.QueryBatch("taxi", queries, &wire_answers, &version,
                                &status, &error))
      << error;
  EXPECT_EQ(status, WireStatus::kOk);
  EXPECT_EQ(version, 1u);

  // Bitwise comparison against the engine running in-process on the very
  // snapshot the server serves.
  const auto snap = catalog_->Slot2D("taxi")->Acquire();
  ASSERT_NE(snap, nullptr);
  const std::vector<double> local =
      engine_.AnswerAll(*snap->synopsis, queries);
  ASSERT_EQ(wire_answers.size(), local.size());
  for (size_t i = 0; i < local.size(); ++i) {
    EXPECT_EQ(wire_answers[i], local[i]) << "query " << i;
  }

  const WireStats stats = server_->StatsSnapshot();
  EXPECT_EQ(stats.batches_answered, 1u);
  EXPECT_EQ(stats.queries_answered, queries.size());
  EXPECT_EQ(stats.malformed_frames, 0u);
}

TEST_F(ServerTest, NdQueriesCrossTheWireBitwiseToo) {
  const BoxNd nd_domain = BoxNd::Cube(3, 0.0, 100.0);
  Rng nd_rng(5);
  const DatasetNd nd_data = MakeUniformDatasetNd(nd_domain, 2000, nd_rng);
  UniformGridNdOptions opts;
  opts.grid_size = 6;
  Rng build_rng(6);
  UniformGridNd cube(nd_data, 1.0, build_rng, opts);
  std::string error;
  ASSERT_EQ(store_->Publish("cube", cube, SnapshotMeta{1.0, "3d"}, &error),
            1u)
      << error;
  ASSERT_EQ(catalog_->LoadAll(nullptr), 1u);
  StartServer();

  Rng q_rng(8);
  std::vector<BoxNd> queries;
  for (int i = 0; i < 300; ++i) {
    std::vector<double> lo(3);
    std::vector<double> hi(3);
    for (size_t a = 0; a < 3; ++a) {
      lo[a] = q_rng.Uniform(0.0, 60.0);
      hi[a] = lo[a] + q_rng.Uniform(0.0, 40.0);
    }
    queries.emplace_back(std::move(lo), std::move(hi));
  }

  QueryClient client;
  Connect(&client);
  std::vector<double> wire_answers;
  uint64_t version = 0;
  WireStatus status = WireStatus::kInternal;
  ASSERT_TRUE(client.QueryBatchNd("cube", 3, queries, &wire_answers,
                                  &version, &status, &error))
      << error;
  EXPECT_EQ(version, 1u);
  EXPECT_EQ(wire_answers, engine_.AnswerAll(cube, queries));
}

TEST_F(ServerTest, SemanticErrorsKeepTheConnectionUsable) {
  std::string error;
  auto grid = MakeGrid(11);
  ASSERT_EQ(store_->Publish("taxi", *grid, SnapshotMeta{}, &error), 1u)
      << error;
  ASSERT_EQ(catalog_->LoadAll(nullptr), 1u);
  QueryServerOptions opts;
  opts.max_batch_queries = 1024;
  StartServer(opts);

  QueryClient client;
  Connect(&client);
  const std::vector<Rect> queries = FixedQueries(data_->domain(), 16, 13);
  std::vector<double> answers;
  uint64_t version = 0;
  WireStatus status = WireStatus::kOk;

  // Unknown name → NOT_FOUND.
  EXPECT_FALSE(client.QueryBatch("ghost", queries, &answers, &version,
                                 &status, &error));
  EXPECT_EQ(status, WireStatus::kNotFound);

  // Wrong dims → WRONG_DIMS.
  std::vector<BoxNd> nd_queries = {BoxNd::Cube(4, 0.0, 1.0)};
  EXPECT_FALSE(client.QueryBatchNd("taxi", 4, nd_queries, &answers, &version,
                                   &status, &error));
  EXPECT_EQ(status, WireStatus::kWrongDims);

  // Oversized batch → TOO_LARGE.
  const std::vector<Rect> big = FixedQueries(data_->domain(), 1025, 14);
  EXPECT_FALSE(client.QueryBatch("taxi", big, &answers, &version, &status,
                                 &error));
  EXPECT_EQ(status, WireStatus::kTooLarge);

  // The connection survived all three errors.
  ASSERT_TRUE(client.QueryBatch("taxi", queries, &answers, &version, &status,
                                &error))
      << error;
  EXPECT_EQ(status, WireStatus::kOk);
  EXPECT_EQ(version, 1u);

  const WireStats stats = server_->StatsSnapshot();
  EXPECT_EQ(stats.errors_returned, 3u);
  EXPECT_EQ(stats.connections_accepted, 1u);
}

#ifndef _WIN32
TEST_F(ServerTest, FramingDamageGetsErrorThenClose) {
  StartServer();

  // Bad magic: server responds MALFORMED_FRAME and closes.
  {
    std::string error;
    const int fd = net::ConnectTcp("127.0.0.1", server_->port(), &error);
    ASSERT_GE(fd, 0) << error;
    std::string frame = EncodeFrame(WireOp::kStats, 77, "");
    frame[0] ^= 0x01;
    ASSERT_TRUE(net::WriteFull(fd, frame.data(), frame.size()));

    char header[kWireHeaderSize];
    ASSERT_TRUE(net::ReadFull(fd, header, sizeof(header)));
    WireOp op;
    uint64_t id = 0;
    uint64_t body_size = 0;
    uint64_t checksum = 0;
    ASSERT_TRUE(DecodeFrameHeader(std::string_view(header, sizeof(header)),
                                  &op, &id, &body_size, &checksum, &error))
        << error;
    EXPECT_EQ(id, 77u);  // request id echoed even from a damaged frame
    std::string body(body_size, '\0');
    ASSERT_TRUE(net::ReadFull(fd, body.data(), body.size()));
    QueryBatchResponse resp;
    ASSERT_TRUE(DecodeQueryBatchResponse(body, &resp, &error)) << error;
    EXPECT_EQ(resp.status, WireStatus::kMalformedFrame);

    // ...and the server closed its end.
    char byte = 0;
    EXPECT_FALSE(net::ReadFull(fd, &byte, 1));
    ::close(fd);
  }

  // Corrupted body (checksum mismatch): same contract.
  {
    std::string error;
    const int fd = net::ConnectTcp("127.0.0.1", server_->port(), &error);
    ASSERT_GE(fd, 0) << error;
    std::string frame =
        EncodeFrame(WireOp::kQueryBatch, 78,
                    EncodeQueryBatchRequest("x", std::vector<Rect>{}));
    frame.back() ^= 0x10;
    ASSERT_TRUE(net::WriteFull(fd, frame.data(), frame.size()));
    char header[kWireHeaderSize];
    ASSERT_TRUE(net::ReadFull(fd, header, sizeof(header)));
    WireOp op;
    uint64_t id = 0;
    uint64_t body_size = 0;
    uint64_t checksum = 0;
    ASSERT_TRUE(DecodeFrameHeader(std::string_view(header, sizeof(header)),
                                  &op, &id, &body_size, &checksum, &error))
        << error;
    std::string body(body_size, '\0');
    ASSERT_TRUE(net::ReadFull(fd, body.data(), body.size()));
    QueryBatchResponse resp;
    ASSERT_TRUE(DecodeQueryBatchResponse(body, &resp, &error)) << error;
    EXPECT_EQ(resp.status, WireStatus::kMalformedFrame);
    char byte = 0;
    EXPECT_FALSE(net::ReadFull(fd, &byte, 1));
    ::close(fd);
  }

  const WireStats stats = server_->StatsSnapshot();
  EXPECT_EQ(stats.malformed_frames, 2u);
}
#endif  // !_WIN32

#ifndef _WIN32
// LIST/STATS/RELOAD carry no payload; a body on them is a semantic error
// (request fails, connection survives), keeping the protocol strict.
TEST_F(ServerTest, NonEmptyBodyOnBodylessOpsIsMalformed) {
  StartServer();
  std::string error;
  const int fd = net::ConnectTcp("127.0.0.1", server_->port(), &error);
  ASSERT_GE(fd, 0) << error;

  auto round_trip = [&](uint64_t id, const std::string& body,
                        StatsResponse* resp) {
    const std::string frame = EncodeFrame(WireOp::kStats, id, body);
    ASSERT_TRUE(net::WriteFull(fd, frame.data(), frame.size()));
    char header[kWireHeaderSize];
    ASSERT_TRUE(net::ReadFull(fd, header, sizeof(header)));
    WireOp op;
    uint64_t resp_id = 0;
    uint64_t body_size = 0;
    uint64_t checksum = 0;
    ASSERT_TRUE(DecodeFrameHeader(std::string_view(header, sizeof(header)),
                                  &op, &resp_id, &body_size, &checksum,
                                  &error))
        << error;
    EXPECT_EQ(resp_id, id);
    std::string resp_body(body_size, '\0');
    ASSERT_TRUE(net::ReadFull(fd, resp_body.data(), resp_body.size()));
    ASSERT_TRUE(DecodeStatsResponse(resp_body, resp, &error)) << error;
  };

  StatsResponse bad;
  round_trip(91, "junk", &bad);
  EXPECT_EQ(bad.status, WireStatus::kMalformedRequest);

  // The connection survived the semantic error.
  StatsResponse good;
  round_trip(92, "", &good);
  EXPECT_EQ(good.status, WireStatus::kOk);
  EXPECT_EQ(good.stats.errors_returned, 1u);
  ::close(fd);
}
#endif  // !_WIN32

TEST_F(ServerTest, ListStatsAndReloadOps) {
  std::string error;
  auto grid = MakeGrid(21);
  ASSERT_EQ(store_->Publish("alpha", *grid, SnapshotMeta{0.5, "a"}, &error),
            1u)
      << error;
  ASSERT_EQ(catalog_->LoadAll(nullptr), 1u);
  StartServer();

  QueryClient client;
  Connect(&client);

  std::vector<CatalogEntryInfo> entries;
  ASSERT_TRUE(client.ListSynopses(&entries, &error)) << error;
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].name, "alpha");
  EXPECT_EQ(entries[0].version, 1u);
  EXPECT_EQ(entries[0].dims, 2u);
  EXPECT_EQ(entries[0].epsilon, 0.5);

  // A second process publishes v2 + a brand-new name; RELOAD makes both
  // servable without restarting the server.
  SnapshotStore other(dir_);
  auto v2 = MakeGrid(22);
  ASSERT_EQ(other.Publish("alpha", *v2, SnapshotMeta{0.5, "a2"}, &error), 2u)
      << error;
  ASSERT_EQ(other.Publish("beta", *v2, SnapshotMeta{0.5, "b"}, &error), 1u)
      << error;
  uint64_t installed = 0;
  ASSERT_TRUE(client.Reload(&installed, &error)) << error;
  EXPECT_EQ(installed, 2u);

  const std::vector<Rect> queries = FixedQueries(data_->domain(), 8, 23);
  std::vector<double> answers;
  uint64_t version = 0;
  ASSERT_TRUE(client.QueryBatch("alpha", queries, &answers, &version,
                                nullptr, &error))
      << error;
  EXPECT_EQ(version, 2u);
  ASSERT_TRUE(client.QueryBatch("beta", queries, &answers, &version, nullptr,
                                &error))
      << error;
  EXPECT_EQ(version, 1u);

  WireStats stats;
  ASSERT_TRUE(client.Stats(&stats, &error)) << error;
  EXPECT_EQ(stats.reloads_installed, 2u);
  EXPECT_EQ(stats.batches_answered, 2u);
  EXPECT_GE(stats.frames_received, 5u);

  // An external reload driver (dpgrid_server's DPGRID_RELOAD_SECS poll)
  // reloads the catalog directly and credits the counter via
  // RecordReloads, so STATS reflects poll-driven installs too.
  auto v3 = MakeGrid(24);
  ASSERT_EQ(other.Publish("alpha", *v3, SnapshotMeta{0.5, "a3"}, &error), 3u)
      << error;
  server_->RecordReloads(catalog_->ReloadAll(nullptr));
  ASSERT_TRUE(client.Stats(&stats, &error)) << error;
  EXPECT_EQ(stats.reloads_installed, 3u);
}

// The acceptance path: a SnapshotPublisher publish mid-stream bumps the
// version the server serves, with no restart and no reload op — the
// publisher's sink IS the catalog slot.
TEST_F(ServerTest, PublishMidStreamBumpsServedVersion) {
  SnapshotPublisher publisher(store_.get(), catalog_->Slot2D("live"));
  auto v1 = MakeGrid(31);
  std::string error;
  ASSERT_EQ(publisher.Publish("live", v1, SnapshotMeta{1.0, "v1"}, &error),
            1u)
      << error;
  StartServer();

  QueryClient client;
  Connect(&client);
  const std::vector<Rect> queries = FixedQueries(data_->domain(), 128, 33);

  std::vector<double> answers;
  uint64_t version = 0;
  ASSERT_TRUE(client.QueryBatch("live", queries, &answers, &version, nullptr,
                                &error))
      << error;
  EXPECT_EQ(version, 1u);
  EXPECT_EQ(answers, engine_.AnswerAll(*v1, queries));

  // Publish v2 while the connection is open; the very next batch serves it.
  auto v2 = MakeGrid(32);
  ASSERT_EQ(publisher.Publish("live", v2, SnapshotMeta{1.0, "v2"}, &error),
            2u)
      << error;
  ASSERT_TRUE(client.QueryBatch("live", queries, &answers, &version, nullptr,
                                &error))
      << error;
  EXPECT_EQ(version, 2u);
  EXPECT_EQ(answers, engine_.AnswerAll(*v2, queries));
  // The bump is durable too: the store holds both versions.
  EXPECT_EQ(store_->ListVersions("live"), (std::vector<uint64_t>{1, 2}));
}

// Exactly-one-version-per-batch under a racing publisher: two distinct
// synopses alternate in the slot while a client streams batches; every
// response must match one synopsis's expected answers wholesale — any mix
// would produce a vector matching neither.
TEST_F(ServerTest, RacingPublisherNeverSplitsABatch) {
  auto synopsis_a = MakeGrid(41);
  auto synopsis_b = MakeGrid(42);
  ServingSynopsis* slot = catalog_->Slot2D("flip");
  slot->Publish(synopsis_a, SnapshotMeta{1.0, "A"});  // v1
  StartServer();

  const std::vector<Rect> queries = FixedQueries(data_->domain(), 256, 43);
  const std::vector<double> expected_a = engine_.AnswerAll(*synopsis_a, queries);
  const std::vector<double> expected_b = engine_.AnswerAll(*synopsis_b, queries);

  // The publisher is paced by the client: once per completed round it
  // starts one Publish, and the client's next round does not begin before
  // that Publish has started, so it races the batch in flight. Publish r
  // finishes before publish r+1 starts, so round r sees a version in
  // [r, r + 1] and the served version changes at least every other round.
  std::atomic<bool> stop{false};
  std::atomic<int> rounds_done{0};
  std::atomic<int> publishes_started{0};
  std::thread publisher([&] {
    // Odd versions serve A, even versions serve B.
    bool next_is_b = true;
    int published = 0;
    while (!stop.load(std::memory_order_acquire)) {
      if (rounds_done.load(std::memory_order_acquire) == published) {
        std::this_thread::yield();
        continue;
      }
      publishes_started.store(++published, std::memory_order_release);
      slot->Publish(next_is_b ? synopsis_b : synopsis_a,
                    SnapshotMeta{1.0, next_is_b ? "B" : "A"});
      next_is_b = !next_is_b;
    }
  });

  QueryClient client;
  Connect(&client);
  std::string error;
  size_t version_changes = 0;
  uint64_t last_version = 0;
  for (int round = 0; round < 200; ++round) {
    while (publishes_started.load(std::memory_order_acquire) < round) {
      std::this_thread::yield();
    }
    std::vector<double> answers;
    uint64_t version = 0;
    ASSERT_TRUE(client.QueryBatch("flip", queries, &answers, &version,
                                  nullptr, &error))
        << error;
    const std::vector<double>& expected =
        (version % 2 == 1) ? expected_a : expected_b;
    ASSERT_EQ(answers, expected)
        << "round " << round << " version " << version
        << ": batch does not match any single version";
    if (version != last_version) ++version_changes;
    last_version = version;
    rounds_done.store(round + 1, std::memory_order_release);
  }
  stop.store(true, std::memory_order_release);
  publisher.join();
  // The race must actually have happened: the served version moved under
  // the client many times.
  EXPECT_GT(version_changes, 5u);
}

#ifndef _WIN32
// The retired DPGW v1 (same header layout, FNV-1a body checksum) is framing
// damage like any other unknown version: MALFORMED_FRAME, then close.
TEST_F(ServerTest, VersionOneFrameIsMalformed) {
  StartServer();
  std::string error;
  const int fd = net::ConnectTcp("127.0.0.1", server_->port(), &error);
  ASSERT_GE(fd, 0) << error;
  std::string frame = EncodeFrame(WireOp::kStats, 9, "");
  const uint32_t v1 = 1;
  // FNV-1a 64 of an empty body is its offset basis.
  const uint64_t fnv = 14695981039346656037ULL;
  std::memcpy(frame.data() + 4, &v1, sizeof(v1));
  std::memcpy(frame.data() + 28, &fnv, sizeof(fnv));
  ASSERT_TRUE(net::WriteFull(fd, frame.data(), frame.size()));

  char header[kWireHeaderSize];
  ASSERT_TRUE(net::ReadFull(fd, header, sizeof(header)));
  WireOp op;
  uint64_t id = 0;
  uint64_t body_size = 0;
  uint64_t checksum = 0;
  ASSERT_TRUE(DecodeFrameHeader(std::string_view(header, sizeof(header)), &op,
                                &id, &body_size, &checksum, &error))
      << error;
  EXPECT_EQ(op, WireOp::kStats);
  EXPECT_EQ(id, 9u);
  std::string body(body_size, '\0');
  ASSERT_TRUE(net::ReadFull(fd, body.data(), body.size()));
  ASSERT_TRUE(VerifyFrameBody(body, checksum, &error)) << error;
  StatsResponse resp;
  ASSERT_TRUE(DecodeStatsResponse(body, &resp, &error)) << error;
  EXPECT_EQ(resp.status, WireStatus::kMalformedFrame);
  EXPECT_EQ(resp.message, "unsupported protocol version");
  char byte = 0;
  EXPECT_FALSE(net::ReadFull(fd, &byte, 1));
  ::close(fd);

  const WireStats stats = server_->StatsSnapshot();
  EXPECT_EQ(stats.malformed_frames, 1u);
  EXPECT_EQ(stats.frames_received, 0u);
}
#endif  // !_WIN32

// --- pipelining ------------------------------------------------------------

TEST_F(ServerTest, PipelinedFramesComeBackInOrderAndBitwiseIdentical) {
  std::string error;
  auto grid = MakeGrid(61);
  ASSERT_EQ(store_->Publish("taxi", *grid, SnapshotMeta{1.0, "pipe"}, &error),
            1u)
      << error;
  ASSERT_EQ(catalog_->LoadAll(nullptr), 1u);
  StartServer();

  // 2000 queries in 128-query frames with 8 frames in flight: many
  // pipelined frames cross one connection, and the reassembled answer
  // vector must be bitwise what the in-process engine computes.
  const std::vector<Rect> queries = FixedQueries(data_->domain(), 2000, 63);
  QueryClient client;
  Connect(&client);
  std::vector<double> answers;
  uint64_t version = 0;
  WireStatus status = WireStatus::kInternal;
  ASSERT_TRUE(client.QueryBatchPipelined("taxi", queries, /*batch_size=*/128,
                                         /*window=*/8, &answers, &version,
                                         &status, &error))
      << error;
  EXPECT_EQ(status, WireStatus::kOk);
  EXPECT_EQ(version, 1u);

  const auto snap = catalog_->Slot2D("taxi")->Acquire();
  ASSERT_NE(snap, nullptr);
  const std::vector<double> local = engine_.AnswerAll(*snap->synopsis, queries);
  ASSERT_EQ(answers.size(), local.size());
  for (size_t i = 0; i < local.size(); ++i) {
    EXPECT_EQ(answers[i], local[i]) << "query " << i;
  }

  const WireStats stats = server_->StatsSnapshot();
  EXPECT_EQ(stats.batches_answered, (2000 + 127) / 128);
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.malformed_frames, 0u);
}

#ifndef _WIN32
// The handler serves one frame per turn and requeues a connection that
// still has frames behind every other connection with work: a STATS
// request on a second connection is answered while the first connection's
// pipelined batches are still queued, not after all of them. A fault hook
// holds the handler on the first batch until the STATS frame is queued,
// so the outcome rests on queue order, not on timing.
TEST_F(ServerTest, PipelinedConnectionDoesNotStarveAnother) {
  std::string error;
  auto grid = MakeGrid(65);
  ASSERT_EQ(store_->Publish("taxi", *grid, SnapshotMeta{1.0, "fair"}, &error),
            1u)
      << error;
  ASSERT_EQ(catalog_->LoadAll(nullptr), 1u);
  StartServer();

  constexpr uint64_t kFirstId = 100;
  const auto gate = std::make_shared<test::Gate>();
  fault::Hooks hooks;
  hooks.only_installing_thread = false;
  hooks.handle_frame = [gate](uint64_t request_id) {
    if (request_id == kFirstId) gate->Hold();
  };
  fault::ScopedFaultInjection inject(std::move(hooks));

  auto wait_for_frames = [&](uint64_t n) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (server_->StatsSnapshot().frames_received < n &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return server_->StatsSnapshot().frames_received == n;
  };

  QueryClient other;
  Connect(&other);
  const int fd = net::ConnectTcp("127.0.0.1", server_->port(), &error);
  ASSERT_GE(fd, 0) << error;

  // 16 frames written back to back (below the 32-frame pipeline depth, so
  // the loop queues them all while the handler is held on the first).
  constexpr int kFrames = 16;
  const std::vector<Rect> queries = FixedQueries(data_->domain(), 64, 67);
  const std::string body = EncodeQueryBatchRequest("taxi", queries);
  std::string frames;
  for (int i = 0; i < kFrames; ++i) {
    frames += EncodeFrame(WireOp::kQueryBatch, kFirstId + i, body);
  }
  ASSERT_TRUE(net::WriteFull(fd, frames.data(), frames.size()));
  ASSERT_TRUE(wait_for_frames(kFrames));

  // The other connection's STATS frame joins the handler's queue while
  // 15 pipelined batches wait behind the held one.
  WireStats stats;
  bool stats_ok = false;
  std::thread stats_thread(
      [&] { stats_ok = other.Stats(&stats, &error); });
  const bool queued = wait_for_frames(kFrames + 1);
  gate->Open();
  stats_thread.join();
  ASSERT_TRUE(queued);
  ASSERT_TRUE(stats_ok) << error;
  // The held batch, and at most one more if the pipelining connection was
  // requeued before the STATS frame reached the queue.
  EXPECT_LE(stats.batches_answered, 2u)
      << "STATS waited for the whole pipelined queue";

  for (int i = 0; i < kFrames; ++i) {
    char header[kWireHeaderSize];
    ASSERT_TRUE(net::ReadFull(fd, header, sizeof(header)));
    WireOp op;
    uint64_t id = 0;
    uint64_t body_size = 0;
    uint64_t checksum = 0;
    ASSERT_TRUE(DecodeFrameHeader(std::string_view(header, sizeof(header)),
                                  &op, &id, &body_size, &checksum, &error))
        << error;
    EXPECT_EQ(id, kFirstId + i);
    std::string resp_body(body_size, '\0');
    ASSERT_TRUE(net::ReadFull(fd, resp_body.data(), resp_body.size()));
    QueryBatchResponse resp;
    ASSERT_TRUE(DecodeQueryBatchResponse(resp_body, &resp, &error)) << error;
    EXPECT_EQ(resp.status, WireStatus::kOk);
    EXPECT_EQ(resp.answers.size(), queries.size());
  }
  ::close(fd);
  EXPECT_EQ(server_->StatsSnapshot().batches_answered,
            static_cast<uint64_t>(kFrames));
}

// RELOAD runs on the loader lane, beside query frames: while a reload is
// held inside its store read, a QUERY_BATCH on another connection is
// answered from the version served before the reload. The query is
// awaited with a bounded timeout before the hook lets the read go, so a
// server that serves RELOAD in front of queries fails here, not hangs.
TEST_F(ServerTest, ReloadDoesNotStallQueriesOnAnotherConnection) {
  std::string error;
  auto v1 = MakeGrid(71);
  ASSERT_EQ(store_->Publish("taxi", *v1, SnapshotMeta{1.0, "v1"}, &error), 1u)
      << error;
  ASSERT_EQ(catalog_->LoadAll(nullptr), 1u);
  StartServer();
  auto v2 = MakeGrid(72);
  ASSERT_EQ(store_->Publish("taxi", *v2, SnapshotMeta{1.0, "v2"}, &error), 2u)
      << error;
  const auto served_v1 = catalog_->Slot2D("taxi")->Acquire();
  ASSERT_NE(served_v1, nullptr);

  const auto gate = std::make_shared<test::Gate>();
  fault::Hooks hooks;
  hooks.only_installing_thread = false;
  hooks.store_read = [gate](const std::string&) {
    gate->Hold();
    return true;
  };
  fault::ScopedFaultInjection inject(std::move(hooks));

  QueryClient admin;
  Connect(&admin);
  QueryClient client;
  Connect(&client);
  uint64_t installed = 0;
  std::string reload_error;
  std::future<bool> reload = std::async(std::launch::async, [&] {
    return admin.Reload(&installed, &reload_error);
  });
  const bool held = gate->WaitHeld();

  const std::vector<Rect> queries = FixedQueries(data_->domain(), 256, 73);
  std::vector<double> answers;
  uint64_t version = 0;
  std::string query_error;
  std::future<bool> query = std::async(std::launch::async, [&] {
    return client.QueryBatch("taxi", queries, &answers, &version, nullptr,
                             &query_error);
  });
  const bool answered_during_reload =
      query.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  gate->Open();
  ASSERT_TRUE(held) << "the reload never reached its store read";
  EXPECT_TRUE(answered_during_reload)
      << "the query waited for the reload on another connection";
  ASSERT_TRUE(query.get()) << query_error;
  EXPECT_EQ(version, 1u);
  EXPECT_EQ(answers, engine_.AnswerAll(*served_v1->synopsis, queries));

  ASSERT_TRUE(reload.get()) << reload_error;
  EXPECT_EQ(installed, 1u);
  const auto served_v2 = catalog_->Slot2D("taxi")->Acquire();
  ASSERT_TRUE(client.QueryBatch("taxi", queries, &answers, &version, nullptr,
                                &error))
      << error;
  EXPECT_EQ(version, 2u);
  EXPECT_EQ(answers, engine_.AnswerAll(*served_v2->synopsis, queries));
}

// Frames pipelined behind a RELOAD wait for it: one connection sends
// QUERY, RELOAD, QUERY, STATS back to back while the reload is held in its
// store read until all four frames have arrived. The responses come back
// in request order, the second QUERY reports the reloaded version, and
// both answers are bitwise the in-process engine's.
TEST_F(ServerTest, PipelinedFramesBehindAReloadKeepRequestOrder) {
  std::string error;
  auto v1 = MakeGrid(75);
  ASSERT_EQ(store_->Publish("taxi", *v1, SnapshotMeta{1.0, "v1"}, &error), 1u)
      << error;
  ASSERT_EQ(catalog_->LoadAll(nullptr), 1u);
  StartServer();
  auto v2 = MakeGrid(76);
  ASSERT_EQ(store_->Publish("taxi", *v2, SnapshotMeta{1.0, "v2"}, &error), 2u)
      << error;
  const auto served_v1 = catalog_->Slot2D("taxi")->Acquire();
  ASSERT_NE(served_v1, nullptr);

  const auto gate = std::make_shared<test::Gate>();
  fault::Hooks hooks;
  hooks.only_installing_thread = false;
  hooks.store_read = [gate](const std::string&) {
    gate->Hold();
    return true;
  };
  fault::ScopedFaultInjection inject(std::move(hooks));

  const std::vector<Rect> queries = FixedQueries(data_->domain(), 128, 77);
  const std::string query_body = EncodeQueryBatchRequest("taxi", queries);
  const std::string frames = EncodeFrame(WireOp::kQueryBatch, 1, query_body) +
                             EncodeFrame(WireOp::kReload, 2, "") +
                             EncodeFrame(WireOp::kQueryBatch, 3, query_body) +
                             EncodeFrame(WireOp::kStats, 4, "");
  const int fd = net::ConnectTcp("127.0.0.1", server_->port(), &error);
  ASSERT_GE(fd, 0) << error;
  ASSERT_TRUE(net::WriteFull(fd, frames.data(), frames.size()));
  const bool held = gate->WaitHeld();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server_->StatsSnapshot().frames_received < 4 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const uint64_t received = server_->StatsSnapshot().frames_received;
  gate->Open();
  ASSERT_TRUE(held) << "the reload never reached its store read";
  ASSERT_EQ(received, 4u);

  auto read_frame = [&](WireOp want_op, uint64_t want_id, std::string* body) {
    char header[kWireHeaderSize];
    ASSERT_TRUE(net::ReadFull(fd, header, sizeof(header)));
    WireOp op;
    uint64_t id = 0;
    uint64_t body_size = 0;
    uint64_t checksum = 0;
    ASSERT_TRUE(DecodeFrameHeader(std::string_view(header, sizeof(header)),
                                  &op, &id, &body_size, &checksum, &error))
        << error;
    EXPECT_EQ(op, want_op);
    EXPECT_EQ(id, want_id);
    body->assign(body_size, '\0');
    ASSERT_TRUE(net::ReadFull(fd, body->data(), body->size()));
  };
  std::string body;
  QueryBatchResponse first;
  read_frame(WireOp::kQueryBatch, 1, &body);
  ASSERT_TRUE(DecodeQueryBatchResponse(body, &first, &error)) << error;
  ReloadResponse reloaded;
  read_frame(WireOp::kReload, 2, &body);
  ASSERT_TRUE(DecodeReloadResponse(body, &reloaded, &error)) << error;
  QueryBatchResponse second;
  read_frame(WireOp::kQueryBatch, 3, &body);
  ASSERT_TRUE(DecodeQueryBatchResponse(body, &second, &error)) << error;
  StatsResponse stats;
  read_frame(WireOp::kStats, 4, &body);
  ASSERT_TRUE(DecodeStatsResponse(body, &stats, &error)) << error;
  ::close(fd);

  EXPECT_EQ(first.status, WireStatus::kOk);
  EXPECT_EQ(first.version, 1u);
  EXPECT_EQ(first.answers, engine_.AnswerAll(*served_v1->synopsis, queries));
  EXPECT_EQ(reloaded.status, WireStatus::kOk);
  EXPECT_EQ(reloaded.installed, 1u);
  const auto served_v2 = catalog_->Slot2D("taxi")->Acquire();
  ASSERT_EQ(served_v2->version, 2u);
  EXPECT_EQ(second.status, WireStatus::kOk);
  EXPECT_EQ(second.version, 2u);
  EXPECT_EQ(second.answers, engine_.AnswerAll(*served_v2->synopsis, queries));
  EXPECT_EQ(stats.status, WireStatus::kOk);
  EXPECT_EQ(stats.stats.batches_answered, 2u);
  EXPECT_EQ(stats.stats.reloads_installed, 1u);
}
#endif  // !_WIN32

// --- METRICS ---------------------------------------------------------------

TEST_F(ServerTest, MetricsOpReportsTrafficAndEvents) {
  std::string error;
  auto grid = MakeGrid(71);
  ASSERT_EQ(store_->Publish("taxi", *grid, SnapshotMeta{1.0, "m"}, &error),
            1u)
      << error;
  ASSERT_EQ(catalog_->LoadAll(nullptr), 1u);
  QueryServerOptions opts;
  opts.slow_frame_us = 1'000'000'000;  // nothing qualifies as slow
  StartServer(opts);

  QueryClient client;
  Connect(&client);
  const std::vector<Rect> queries = FixedQueries(data_->domain(), 500, 73);
  std::vector<double> answers;
  uint64_t version = 0;
  constexpr int kBatches = 3;
  for (int i = 0; i < kBatches; ++i) {
    ASSERT_TRUE(client.QueryBatch("taxi", queries, &answers, &version,
                                  nullptr, &error))
        << error;
  }
  WireStatus status = WireStatus::kOk;
  EXPECT_FALSE(client.QueryBatch("ghost", queries, &answers, &version,
                                 &status, &error));
  EXPECT_EQ(status, WireStatus::kNotFound);

  WireStats stats;
  obs::MetricsSnapshot metrics;
  ASSERT_TRUE(client.Metrics(&stats, &metrics, &error)) << error;

  // The STATS counters ride along in the METRICS body.
  EXPECT_EQ(stats.batches_answered, kBatches);
  EXPECT_EQ(stats.errors_returned, 1u);

  // Per-op cells: 4 QUERY_BATCH frames (one errored), and the METRICS
  // frame counts itself on admission, before the snapshot is taken.
  auto find_op = [&metrics](WireOp op) -> const obs::OpMetricsSnapshot* {
    for (const obs::OpMetricsSnapshot& o : metrics.ops) {
      if (o.op == static_cast<uint32_t>(op)) return &o;
    }
    return nullptr;
  };
  const obs::OpMetricsSnapshot* qb = find_op(WireOp::kQueryBatch);
  ASSERT_NE(qb, nullptr);
  EXPECT_EQ(qb->name, "QUERY_BATCH");
  EXPECT_EQ(qb->requests, kBatches + 1u);
  EXPECT_EQ(qb->errors, 1u);
  EXPECT_GT(qb->bytes_in, 0u);
  EXPECT_GT(qb->bytes_out, 0u);
  // Frame latency lands only after the response is written, so the
  // histogram holds all frames answered before this METRICS request.
  EXPECT_EQ(qb->latency.count, kBatches + 1u);
  const obs::OpMetricsSnapshot* me = find_op(WireOp::kMetrics);
  ASSERT_NE(me, nullptr);
  EXPECT_EQ(me->requests, 1u);
  EXPECT_EQ(me->latency.count, 0u);  // still in flight when snapshotted

  // Stage histograms: every completed frame recorded all six stages.
  ASSERT_EQ(metrics.stages.size(), obs::kNumStages);
  for (size_t i = 0; i < obs::kNumStages; ++i) {
    EXPECT_EQ(metrics.stages[i].count, kBatches + 1u) << obs::StageName(i);
  }

  // Per-dataset cells: "taxi" with the engine-stage histogram, "ghost"
  // with its error.
  ASSERT_EQ(metrics.datasets.size(), 2u);
  EXPECT_EQ(metrics.datasets[0].name, "ghost");  // sorted by name
  EXPECT_EQ(metrics.datasets[0].errors, 1u);
  EXPECT_EQ(metrics.datasets[1].name, "taxi");
  EXPECT_EQ(metrics.datasets[1].batches, kBatches);
  EXPECT_EQ(metrics.datasets[1].queries, kBatches * queries.size());
  EXPECT_EQ(metrics.datasets[1].errors, 0u);
  EXPECT_EQ(metrics.datasets[1].engine_us.count, kBatches);

  // Engine counters and catalog/store lifecycle events ride along.
  EXPECT_EQ(metrics.engine_batches, kBatches);
  EXPECT_EQ(metrics.engine_queries, kBatches * queries.size());
  // The server serves 2-D Rect batches, so the per-family split puts
  // everything in the 2d bins and nothing in the nd bins.
  EXPECT_EQ(metrics.engine_batches_2d, kBatches);
  EXPECT_EQ(metrics.engine_queries_2d, kBatches * queries.size());
  EXPECT_EQ(metrics.engine_batches_nd, 0u);
  EXPECT_EQ(metrics.engine_queries_nd, 0u);
  auto find_event = [&metrics](const std::string& name) -> uint64_t {
    for (const obs::EventSnapshot& e : metrics.events) {
      if (e.name == name) return e.count;
    }
    return ~uint64_t{0};
  };
  EXPECT_EQ(find_event("catalog_versions_installed"), 1u);
  EXPECT_EQ(find_event("store_publishes"), 1u);
  EXPECT_EQ(find_event("catalog_reload_sweeps"), 1u);  // LoadAll's sweep

  // Nothing crossed the (absurd) slow threshold.
  EXPECT_EQ(metrics.slow_frame_us, 1'000'000'000u);
  EXPECT_EQ(metrics.slow_frames, 0u);
  EXPECT_TRUE(metrics.slow_traces.empty());
}

TEST_F(ServerTest, SlowFramesAreRetainedWithStageBreakdown) {
  std::string error;
  auto grid = MakeGrid(75);
  ASSERT_EQ(store_->Publish("taxi", *grid, SnapshotMeta{1.0, "s"}, &error),
            1u)
      << error;
  ASSERT_EQ(catalog_->LoadAll(nullptr), 1u);
  QueryServerOptions opts;
  opts.slow_frame_us = 1;  // every non-instant frame is "slow"
  opts.slow_trace_capacity = 4;
  StartServer(opts);

  QueryClient client;
  Connect(&client);
  const std::vector<Rect> queries = FixedQueries(data_->domain(), 2000, 77);
  std::vector<double> answers;
  uint64_t version = 0;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(client.QueryBatch("taxi", queries, &answers, &version,
                                  nullptr, &error))
        << error;
  }
  obs::MetricsSnapshot metrics;
  ASSERT_TRUE(client.Metrics(nullptr, &metrics, &error)) << error;
  // A 2000-query engine pass takes well over 1µs, so every batch frame
  // crossed the threshold; the ring retains only the last 4.
  EXPECT_GE(metrics.slow_frames, 6u);
  ASSERT_EQ(metrics.slow_traces.size(), 4u);
  for (const obs::FrameTrace& t : metrics.slow_traces) {
    EXPECT_EQ(t.DatasetString(), "taxi");
    EXPECT_EQ(t.queries, queries.size());
    EXPECT_GE(t.TotalUs(), 1u);
    EXPECT_GT(t.unix_s, 0u);
  }
}

// Fixed traffic against the server gives fixed METRICS counts: every
// request, error, byte in, latency sample and stage sample is accounted
// for exactly (only latency values vary from run to run).
TEST_F(ServerTest, MetricsCountsMatchFixedTraffic) {
  std::string error;
  auto grid = MakeGrid(81);
  ASSERT_EQ(store_->Publish("taxi", *grid, SnapshotMeta{1.0, "x"}, &error),
            1u)
      << error;
  ASSERT_EQ(catalog_->LoadAll(nullptr), 1u);
  QueryServerOptions opts;
  opts.slow_frame_us = 1'000'000'000;
  StartServer(opts);

  const std::vector<Rect> queries = FixedQueries(data_->domain(), 300, 83);
  QueryClient client;
  Connect(&client);
  std::vector<double> answers;
  uint64_t version = 0;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.QueryBatch("taxi", queries, &answers, &version,
                                  nullptr, &error))
        << error;
  }
  WireStatus status = WireStatus::kOk;
  EXPECT_FALSE(client.QueryBatch("ghost", queries, &answers, &version,
                                 &status, &error));
  std::vector<CatalogEntryInfo> entries;
  ASSERT_TRUE(client.ListSynopses(&entries, &error)) << error;
  WireStats stats;
  ASSERT_TRUE(client.Stats(&stats, &error)) << error;
  obs::MetricsSnapshot m;
  ASSERT_TRUE(client.Metrics(nullptr, &m, &error)) << error;

  EXPECT_EQ(m.slow_frames, 0u);
  EXPECT_TRUE(m.slow_traces.empty());
  EXPECT_EQ(m.engine_batches, 3u);
  EXPECT_EQ(m.engine_queries, 3 * queries.size());
  EXPECT_EQ(m.engine_batches_2d, 3u);
  EXPECT_EQ(m.engine_queries_2d, 3 * queries.size());
  EXPECT_EQ(m.engine_batches_nd, 0u);
  EXPECT_EQ(m.engine_queries_nd, 0u);

  struct Expected {
    WireOp op;
    uint64_t requests;
    uint64_t errors;
    uint64_t bytes_in;
    // METRICS is still in flight when snapshotted: no response bytes or
    // latency sample yet.
    uint64_t latency_count;
  };
  const uint64_t taxi_in =
      kWireHeaderSize + EncodeQueryBatchRequest("taxi", queries).size();
  const uint64_t ghost_in =
      kWireHeaderSize + EncodeQueryBatchRequest("ghost", queries).size();
  const Expected kExpected[] = {
      {WireOp::kQueryBatch, 4, 1, 3 * taxi_in + ghost_in, 4},
      {WireOp::kListSynopses, 1, 0, kWireHeaderSize, 1},
      {WireOp::kStats, 1, 0, kWireHeaderSize, 1},
      {WireOp::kMetrics, 1, 0, kWireHeaderSize, 0},
  };
  ASSERT_EQ(m.ops.size(), std::size(kExpected));
  for (const Expected& e : kExpected) {
    SCOPED_TRACE(WireOpName(e.op));
    const obs::OpMetricsSnapshot* got = nullptr;
    for (const obs::OpMetricsSnapshot& o : m.ops) {
      if (o.op == static_cast<uint32_t>(e.op)) got = &o;
    }
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->name, WireOpName(e.op));
    EXPECT_EQ(got->requests, e.requests);
    EXPECT_EQ(got->errors, e.errors);
    EXPECT_EQ(got->bytes_in, e.bytes_in);
    EXPECT_EQ(got->bytes_out > 0, e.latency_count > 0);
    EXPECT_EQ(got->latency.count, e.latency_count);
  }
  // Six frames completed before the METRICS request: four batches, LIST
  // and STATS. Each recorded every stage, queue wait included.
  ASSERT_EQ(m.stages.size(), obs::kNumStages);
  for (size_t i = 0; i < obs::kNumStages; ++i) {
    EXPECT_EQ(m.stages[i].count, 6u) << obs::StageName(i);
  }
  ASSERT_EQ(m.datasets.size(), 2u);
  EXPECT_EQ(m.datasets[0].name, "ghost");
  EXPECT_EQ(m.datasets[0].batches, 1u);
  EXPECT_EQ(m.datasets[0].queries, queries.size());
  EXPECT_EQ(m.datasets[0].errors, 1u);
  EXPECT_EQ(m.datasets[0].engine_us.count, 1u);
  EXPECT_EQ(m.datasets[1].name, "taxi");
  EXPECT_EQ(m.datasets[1].batches, 3u);
  EXPECT_EQ(m.datasets[1].queries, 3 * queries.size());
  EXPECT_EQ(m.datasets[1].errors, 0u);
  EXPECT_EQ(m.datasets[1].engine_us.count, 3u);
}

// A 3-d AG with a fixed 16^3 level-1 grid: its cost hint (~7.7 us a box)
// makes a 512-box frame worth ~4 ms of work, which the default engine
// shards, while the build stays small.
std::shared_ptr<const AdaptiveGridNd> MakeAgNd(const DatasetNd& data,
                                               uint64_t seed) {
  Rng rng(seed);
  AdaptiveGridNdOptions opts;
  opts.level1_size = 16;
  return std::make_shared<const AdaptiveGridNd>(data, 1.0, rng, opts);
}

std::vector<BoxNd> Boxes3d(int count, uint64_t seed) {
  return test::FixedQueriesNd(BoxNd::Cube(3, 0.0, 100.0), count, seed);
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// A default-threaded engine serves AG-nd frames while RELOADs install new
// versions. Every frame must equal, bitwise, the one-thread engine's
// answers on the version it reports.
TEST_F(ServerTest, ShardedEngineServesAgNdAcrossReloadsBitwise) {
  Rng data_rng(91);
  const DatasetNd data = MakeUniformDatasetNd(BoxNd::Cube(3, 0.0, 100.0),
                                              20000, data_rng);
  const std::vector<std::shared_ptr<const AdaptiveGridNd>> releases = {
      MakeAgNd(data, 92), MakeAgNd(data, 93), MakeAgNd(data, 94)};
  const std::vector<BoxNd> frame = Boxes3d(512, 95);
  std::vector<std::vector<double>> expected;
  for (const auto& ag : releases) {
    expected.push_back(engine_.AnswerAll(*ag, frame));
  }
  std::string error;
  ASSERT_EQ(store_->Publish("cube", *releases[0], SnapshotMeta{1.0, "r0"},
                            &error),
            1u)
      << error;
  ASSERT_EQ(catalog_->LoadAll(nullptr), 1u);
  const QueryEngine sharded;
  StartServer({}, &sharded);

  constexpr uint64_t kVersions = 7;
  std::atomic<bool> reloads_done{false};
  std::string reload_error;
  std::thread publisher([&] {
    QueryClient admin;
    std::string e;
    bool ok = admin.Connect("127.0.0.1", server_->port(), &e);
    for (uint64_t v = 2; ok && v <= kVersions; ++v) {
      const auto& ag = releases[(v - 1) % releases.size()];
      uint64_t installed = 0;
      ok = store_->Publish("cube", *ag, SnapshotMeta{1.0, "r"}, &e) == v &&
           admin.Reload(&installed, &e) && installed == 1;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (!ok) reload_error = e.empty() ? "reload failed" : e;
    reloads_done.store(true);
  });

  QueryClient client;
  Connect(&client);
  std::vector<bool> seen(kVersions + 1, false);
  int frames = 0;
  int mismatches = 0;
  std::vector<double> answers;
  uint64_t version = 0;
  // Until a frame is served from the last version (or the reloads fail).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!seen[kVersions] && std::chrono::steady_clock::now() < deadline &&
         !(reloads_done.load() && !reload_error.empty())) {
    ASSERT_TRUE(client.QueryBatchNd("cube", 3, frame, &answers, &version,
                                    nullptr, &error))
        << error;
    ASSERT_GE(version, 1u);
    ASSERT_LE(version, kVersions);
    seen[version] = true;
    if (!SameBits(answers, expected[(version - 1) % releases.size()])) {
      ++mismatches;
    }
    ++frames;
  }
  publisher.join();
  EXPECT_TRUE(reload_error.empty()) << reload_error;
  EXPECT_EQ(mismatches, 0) << "of " << frames << " frames";
  EXPECT_TRUE(seen[kVersions]);
  if (sharded.num_threads() > 1) {
    EXPECT_EQ(sharded.batches_sharded(), static_cast<uint64_t>(frames));
  }
}

// engine_batches_sharded counts only the frames the cost rule shards: a
// 1024-query UG frame (~20 us of work) stays inline, a 512-box AG-nd
// frame shards whenever the engine has more than one thread.
TEST_F(ServerTest, MetricsCountShardedBatches) {
  Rng data_rng(96);
  const DatasetNd data = MakeUniformDatasetNd(BoxNd::Cube(3, 0.0, 100.0),
                                              20000, data_rng);
  std::string error;
  ASSERT_EQ(store_->Publish("taxi", *MakeGrid(97), SnapshotMeta{1.0, "ug"},
                            &error),
            1u)
      << error;
  ASSERT_EQ(store_->Publish("cube", *MakeAgNd(data, 98),
                            SnapshotMeta{1.0, "ag"}, &error),
            1u)
      << error;
  ASSERT_EQ(catalog_->LoadAll(nullptr), 2u);
  const QueryEngine engine;
  StartServer({}, &engine);
  QueryClient client;
  Connect(&client);
  std::vector<double> answers;
  uint64_t version = 0;
  obs::MetricsSnapshot m;

  ASSERT_TRUE(client.QueryBatch("taxi", FixedQueries(data_->domain(), 1024, 99),
                                &answers, &version, nullptr, &error))
      << error;
  ASSERT_TRUE(client.Metrics(nullptr, &m, &error)) << error;
  EXPECT_EQ(m.engine_batches_2d, 1u);
  EXPECT_EQ(m.engine_batches_sharded, 0u);

  ASSERT_TRUE(client.QueryBatchNd("cube", 3, Boxes3d(512, 100), &answers,
                                  &version, nullptr, &error))
      << error;
  ASSERT_TRUE(client.Metrics(nullptr, &m, &error)) << error;
  EXPECT_EQ(m.engine_batches_nd, 1u);
  EXPECT_EQ(m.engine_batches_sharded, engine.num_threads() > 1 ? 1u : 0u);
}

// Records the threads that answered and freed one synopsis. AnswerBatch
// can hold on a gate, to keep a batch in flight across a RELOAD.
struct ThreadLog {
  std::mutex mu;
  std::thread::id answered_on;
  std::thread::id freed_on;
  bool freed = false;
};

class ThreadRecordingSynopsisNd : public SynopsisNd {
 public:
  ThreadRecordingSynopsisNd(std::shared_ptr<ThreadLog> log,
                            std::shared_ptr<test::Gate> gate)
      : log_(std::move(log)), gate_(std::move(gate)) {}
  ~ThreadRecordingSynopsisNd() override {
    std::lock_guard<std::mutex> lock(log_->mu);
    log_->freed_on = std::this_thread::get_id();
    log_->freed = true;
  }
  double Answer(const BoxNd&) const override { return 1.0; }
  void AnswerBatch(std::span<const BoxNd>,
                   std::span<double> out) const override {
    {
      std::lock_guard<std::mutex> lock(log_->mu);
      log_->answered_on = std::this_thread::get_id();
    }
    gate_->Hold();
    for (double& v : out) v = 1.0;
  }
  std::string Name() const override { return "thread-recording"; }
  size_t dims() const override { return 3; }

 private:
  std::shared_ptr<ThreadLog> log_;
  std::shared_ptr<test::Gate> gate_;
};

// A query batch holds the last reference to a release that a RELOAD
// replaced while the batch was in flight. Dropping it must hand the
// synopsis to the loader lane: its destructor may run neither on the
// handler nor on the event loop.
TEST_F(ServerTest, ReplacedReleaseIsFreedOnTheLoaderLane) {
  const BoxNd domain = BoxNd::Cube(3, 0.0, 100.0);
  Rng data_rng(101);
  const DatasetNd data = MakeUniformDatasetNd(domain, 2000, data_rng);
  UniformGridNdOptions opts;
  opts.grid_size = 6;
  Rng build_rng(102);
  const UniformGridNd v1(data, 1.0, build_rng, opts);
  const UniformGridNd v2(data, 1.0, build_rng, opts);
  std::string error;
  ASSERT_EQ(store_->Publish("cube", v1, SnapshotMeta{1.0, "v1"}, &error), 1u)
      << error;
  // Version 1 is served from the recording synopsis, published in-process.
  const auto log = std::make_shared<ThreadLog>();
  const auto gate = std::make_shared<test::Gate>();
  catalog_->SlotNd("cube")->Publish(
      std::make_shared<const ThreadRecordingSynopsisNd>(log, gate),
      SnapshotMeta{1.0, "recording"}, 1);

  auto loader_id = std::make_shared<std::thread::id>();
  auto loader_mu = std::make_shared<std::mutex>();
  fault::Hooks hooks;
  hooks.only_installing_thread = false;
  hooks.store_read = [loader_id, loader_mu](const std::string&) {
    std::lock_guard<std::mutex> lock(*loader_mu);
    *loader_id = std::this_thread::get_id();
    return true;
  };
  fault::ScopedFaultInjection inject(std::move(hooks));
  StartServer();

  QueryClient client;
  Connect(&client);
  const std::vector<BoxNd> boxes = Boxes3d(64, 103);
  std::vector<double> answers;
  uint64_t version = 0;
  std::string query_error;
  std::future<bool> query = std::async(std::launch::async, [&] {
    return client.QueryBatchNd("cube", 3, boxes, &answers, &version, nullptr,
                               &query_error);
  });
  ASSERT_TRUE(gate->WaitHeld()) << "the batch never reached the synopsis";

  // Replace version 1 while its batch is held on the handler.
  ASSERT_EQ(store_->Publish("cube", v2, SnapshotMeta{1.0, "v2"}, &error), 2u)
      << error;
  QueryClient admin;
  Connect(&admin);
  uint64_t installed = 0;
  const bool reloaded = admin.Reload(&installed, &error);
  gate->Open();
  ASSERT_TRUE(reloaded) << error;
  EXPECT_EQ(installed, 1u);
  ASSERT_TRUE(query.get()) << query_error;
  EXPECT_EQ(version, 1u);
  EXPECT_EQ(answers, std::vector<double>(boxes.size(), 1.0));

  // The loader frees the queued synopsis as soon as it is idle.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool freed = false;
  while (!freed && std::chrono::steady_clock::now() < deadline) {
    {
      std::lock_guard<std::mutex> lock(log->mu);
      freed = log->freed;
    }
    if (!freed) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(freed) << "the replaced release was never freed";
  std::lock_guard<std::mutex> lock(log->mu);
  std::lock_guard<std::mutex> loader_lock(*loader_mu);
  EXPECT_NE(log->freed_on, log->answered_on)
      << "freed on the handler thread that answered its last batch";
  EXPECT_EQ(log->freed_on, *loader_id) << "not freed on the loader lane";
}

TEST_F(ServerTest, ShutdownUnblocksIdleConnections) {
  StartServer();
  QueryClient client;
  Connect(&client);
  // The client sits idle (server blocked in read); Shutdown must not hang.
  server_->Shutdown();
  EXPECT_FALSE(server_->running());
  // The idle client's next request fails cleanly.
  std::vector<CatalogEntryInfo> entries;
  std::string error;
  EXPECT_FALSE(client.ListSynopses(&entries, &error));
}

}  // namespace
}  // namespace dpgrid
