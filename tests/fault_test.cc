// Failure-matrix tests for the hardened serving stack (ctest label:
// fault). Every fault here is injected deterministically — either through
// the fault::ScopedFaultInjection hook table (short reads, EINTR storms,
// ECONNRESET, instant "stalls", torn snapshot writes, failed
// fsync/rename) or through protocol-level misbehaviour a test can stage
// exactly (partial frames, idle connections, capacity floods). No test
// relies on a real peer misbehaving on cue.
//
// The contracts under test:
//   - a stalled or idle peer cannot pin a handler thread past its
//     deadline (slow-loris bound, idle reaping);
//   - connections beyond max_connections get a decodable kOverloaded
//     verdict with a retry-after hint, not a silent hang;
//   - graceful drain finishes the in-flight frame (bitwise-identical
//     answers) and reports DRAINING via the HEALTH op;
//   - the retrying client reconnects through injected resets and returns
//     answers bitwise-identical to an undisturbed call, from a single
//     snapshot version;
//   - a torn snapshot write (lying disk) publishes a file the catalog
//     refuses, so the previous version keeps serving; failed fsync or
//     rename fails the publish cleanly without burning a version number;
//   - RELOAD reports a latest file it cannot load as INTERNAL, naming the
//     file, while the previous version keeps serving;
//   - a RELOAD held on the loader lane is answered by a graceful drain,
//     and an abrupt shutdown waits for it, then drops its response.

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#ifndef _WIN32
#include <sys/socket.h>
#include <unistd.h>
#endif

#include "catalog/synopsis_catalog.h"
#include "common/random.h"
#include "data/generators.h"
#include "grid/uniform_grid.h"
#include "query/query_engine.h"
#include "server/client.h"
#include "server/fault_injection.h"
#include "server/server.h"
#include "server/socket_io.h"
#include "store/snapshot_store.h"
#include "tests/test_util.h"

namespace dpgrid {
namespace {

using test::FixedQueries;

#ifndef _WIN32

class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Keyed on the PID, not just the test name: two concurrent runs of
    // this binary (say, a plain and a TSan build tree running ctest at
    // once) would otherwise remove_all each other's directories mid-test.
    dir_ = (std::filesystem::temp_directory_path() /
            ("dpgrid_fault_test_" + std::to_string(::getpid()) + "_" +
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

  void PublishGrid(const std::string& name, uint64_t seed) {
    Rng rng(seed);
    UniformGridOptions opts;
    opts.grid_size = 16;
    const UniformGrid grid(*data_, 1.0, rng, opts);
    std::string error;
    ASSERT_NE(store_->Publish(name, grid, SnapshotMeta{1.0, "fault"}, &error),
              0u)
        << error;
  }

  void StartServer(QueryServerOptions options = {}) {
    server_ = std::make_unique<QueryServer>(catalog_.get(), &engine_,
                                            std::move(options));
    std::string error;
    ASSERT_TRUE(server_->Start(&error)) << error;
    ASSERT_NE(server_->port(), 0);
  }

  int RawConnect() {
    std::string error;
    const int fd = net::ConnectTcp("127.0.0.1", server_->port(), &error);
    EXPECT_GE(fd, 0) << error;
    return fd;
  }

  // Blocks until the peer closes (EOF) or errors; fails the test if a
  // stray byte arrives instead. Bounded so a regression hangs the
  // assertion, not the suite.
  void ExpectEof(int fd, int deadline_ms = 5000) {
    char byte = 0;
    const net::IoResult r = net::ReadFullDeadline(
        fd, &byte, 1, net::Deadline::AfterMs(deadline_ms));
    EXPECT_NE(r, net::IoResult::kOk) << "unexpected byte from server";
    EXPECT_NE(r, net::IoResult::kTimeout) << "server failed to close";
  }

  // Reads and decodes one whole response frame from a raw fd.
  bool ReadFrame(int fd, WireOp* op, uint64_t* id, std::string* body,
                 std::string* error) {
    char header[kWireHeaderSize];
    if (net::ReadFullDeadline(fd, header, sizeof(header),
                              net::Deadline::AfterMs(5000)) !=
        net::IoResult::kOk) {
      *error = "no response header";
      return false;
    }
    uint64_t body_size = 0;
    uint64_t checksum = 0;
    if (!DecodeFrameHeader(std::string_view(header, sizeof(header)), op, id,
                           &body_size, &checksum, error)) {
      return false;
    }
    body->resize(static_cast<size_t>(body_size));
    if (body_size > 0 &&
        net::ReadFullDeadline(fd, body->data(), body->size(),
                              net::Deadline::AfterMs(5000)) !=
            net::IoResult::kOk) {
      *error = "no response body";
      return false;
    }
    return VerifyFrameBody(*body, checksum, error);
  }

  std::string dir_;
  std::unique_ptr<Dataset> data_;
  std::unique_ptr<SnapshotStore> store_;
  std::unique_ptr<SynopsisCatalog> catalog_;
  const QueryEngine engine_{QueryEngineOptions{.num_threads = 1}};
  std::unique_ptr<QueryServer> server_;
};

// --- deadlines & admission -------------------------------------------------

TEST_F(FaultTest, SlowLorisPartialHeaderHitsReadDeadline) {
  QueryServerOptions opts;
  opts.read_deadline_ms = 150;
  opts.idle_timeout_ms = 0;  // isolate the frame deadline
  StartServer(opts);

  const int fd = RawConnect();
  // Ten bytes of a valid frame header, then silence: a classic slow
  // loris. The frame clock starts at the first byte; the server must cut
  // us off without a response (a stalled peer is not confused, just
  // hostile or dead).
  const std::string frame = EncodeFrame(WireOp::kStats, 9, "");
  ASSERT_TRUE(net::WriteFull(fd, frame.data(), 10));
  ExpectEof(fd);
  ::close(fd);

  // Same bound for a stalled body: complete header claiming 64 bytes,
  // then only 8 of them.
  const int fd2 = RawConnect();
  const std::string body(64, 'q');
  const std::string frame2 = EncodeFrame(WireOp::kQueryBatch, 10, body);
  ASSERT_TRUE(net::WriteFull(fd2, frame2.data(), kWireHeaderSize + 8));
  ExpectEof(fd2);
  ::close(fd2);

  const WireStats stats = server_->StatsSnapshot();
  EXPECT_EQ(stats.read_timeouts, 2u);
  EXPECT_EQ(stats.idle_timeouts, 0u);
}

TEST_F(FaultTest, IdleConnectionIsReaped) {
  QueryServerOptions opts;
  opts.idle_timeout_ms = 150;
  StartServer(opts);

  const int fd = RawConnect();
  // Send nothing at all; the connection is between frames, so the idle
  // clock (not the frame deadline) governs.
  ExpectEof(fd);
  ::close(fd);

  const WireStats stats = server_->StatsSnapshot();
  EXPECT_EQ(stats.idle_timeouts, 1u);
  EXPECT_EQ(stats.read_timeouts, 0u);
}

TEST_F(FaultTest, OverCapacityConnectionGetsOverloadedVerdict) {
  PublishGrid("taxi", 1);
  ASSERT_EQ(catalog_->LoadAll(nullptr), 1u);
  QueryServerOptions opts;
  opts.max_connections = 1;
  opts.overload_retry_after_ms = 77;
  StartServer(opts);

  // Occupy the single slot, and prove it is occupied (the round trip
  // guarantees the handler thread is registered before the next accept).
  QueryClient blocker;
  std::string error;
  ASSERT_TRUE(blocker.Connect("127.0.0.1", server_->port(), &error)) << error;
  WireStats stats;
  ASSERT_TRUE(blocker.Stats(&stats, &error)) << error;

  // Raw wire contract: the shed frame arrives unsolicited (op HEALTH,
  // request id 0), decodes as kOverloaded with the configured hint, and
  // the server closes right after.
  {
    const int fd = RawConnect();
    WireOp op = WireOp::kQueryBatch;
    uint64_t id = 99;
    std::string body;
    ASSERT_TRUE(ReadFrame(fd, &op, &id, &body, &error)) << error;
    EXPECT_EQ(op, WireOp::kHealth);
    EXPECT_EQ(id, 0u);
    HealthResponse resp;
    ASSERT_TRUE(DecodeHealthResponse(body, &resp, &error)) << error;
    EXPECT_EQ(resp.status, WireStatus::kOverloaded);
    EXPECT_EQ(ParseRetryAfterMs(resp.message), 77u);
    ExpectEof(fd);
    ::close(fd);
  }

  // Client-object contract: a non-retrying client surfaces OVERLOADED in
  // the status out-param instead of a generic transport error.
  {
    QueryClientOptions copts;
    copts.max_retries = 0;
    QueryClient shed(copts);
    ASSERT_TRUE(shed.Connect("127.0.0.1", server_->port(), &error)) << error;
    const std::vector<Rect> queries = FixedQueries(data_->domain(), 8, 3);
    std::vector<double> answers;
    uint64_t version = 0;
    WireStatus status = WireStatus::kOk;
    EXPECT_FALSE(
        shed.QueryBatch("taxi", queries, &answers, &version, &status, &error));
    EXPECT_EQ(status, WireStatus::kOverloaded) << error;
    EXPECT_FALSE(shed.connected());
  }

  const WireStats after = server_->StatsSnapshot();
  EXPECT_EQ(after.connections_shed, 2u);
  EXPECT_EQ(after.connections_accepted, 1u);
}

TEST_F(FaultTest, RetryingClientRecoversOnceCapacityFrees) {
  PublishGrid("taxi", 2);
  ASSERT_EQ(catalog_->LoadAll(nullptr), 1u);
  QueryServerOptions opts;
  opts.max_connections = 1;
  opts.overload_retry_after_ms = 20;
  StartServer(opts);

  auto blocker = std::make_unique<QueryClient>();
  std::string error;
  ASSERT_TRUE(blocker->Connect("127.0.0.1", server_->port(), &error))
      << error;
  WireStats stats;
  ASSERT_TRUE(blocker->Stats(&stats, &error)) << error;

  // Free the slot while the shed client is backing off; its retry loop
  // must land once the blocker's handler exits.
  std::thread releaser([&blocker] {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    blocker.reset();
  });

  QueryClientOptions copts;
  copts.max_retries = 8;
  copts.backoff_initial_ms = 20;
  QueryClient client(copts);
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), &error)) << error;
  const std::vector<Rect> queries = FixedQueries(data_->domain(), 64, 5);
  std::vector<double> answers;
  uint64_t version = 0;
  WireStatus status = WireStatus::kInternal;
  EXPECT_TRUE(client.QueryBatch("taxi", queries, &answers, &version, &status,
                                &error))
      << error;
  EXPECT_EQ(status, WireStatus::kOk);
  EXPECT_EQ(version, 1u);
  EXPECT_EQ(answers.size(), queries.size());
  releaser.join();
}

// --- graceful drain --------------------------------------------------------

TEST_F(FaultTest, DrainFinishesInFlightBatchAndReportsDraining) {
  PublishGrid("taxi", 3);
  ASSERT_EQ(catalog_->LoadAll(nullptr), 1u);
  StartServer();

  const std::vector<Rect> queries = FixedQueries(data_->domain(), 256, 7);
  const std::string request_body = EncodeQueryBatchRequest("taxi", queries);
  const std::string frame = EncodeFrame(WireOp::kQueryBatch, 41, request_body);

  // Put a frame half on the wire so the handler is committed to it
  // (past the idle phase, mid frame-read) when the drain begins.
  const int fd = RawConnect();
  ASSERT_TRUE(net::WriteFull(fd, frame.data(), kWireHeaderSize + 16));

  // Second connection already mid-frame on a HEALTH probe: it must see
  // DRAINING once the drain starts.
  const std::string health_frame = EncodeFrame(WireOp::kHealth, 42, "");
  const int health_fd = RawConnect();
  ASSERT_TRUE(net::WriteFull(health_fd, health_frame.data(), 10));

  // Both handlers must be registered before the drain starts: a
  // connection still sitting in the listen backlog when the drain closes
  // the listen socket is (correctly) dropped, which is not the scenario
  // under test.
  for (int i = 0; server_->active_connections() < 2; ++i) {
    ASSERT_LT(i, 5000) << "handlers never registered";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::atomic<bool> drained{false};
  std::thread drainer([this, &drained] {
    DrainOptions d;
    d.deadline_ms = 10'000;
    drained.store(server_->Shutdown(d));
  });
  // A failed ASSERT below returns from the test body; join the drainer
  // on that path too (the drain deadline bounds the wait) so the failure
  // is reported instead of std::terminate on a joinable thread.
  struct Joiner {
    std::thread& t;
    ~Joiner() {
      if (t.joinable()) t.join();
    }
  } join_guard{drainer};
  // The drain cannot finish while both frames are incomplete, so DRAINING
  // must become observable; bounded so a regression fails instead of
  // hanging the suite.
  for (int i = 0; server_->health() != ServerHealth::kDraining; ++i) {
    ASSERT_LT(i, 5000) << "server never reported DRAINING";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Complete both frames mid-drain.
  ASSERT_TRUE(net::WriteFull(health_fd, health_frame.data() + 10,
                             health_frame.size() - 10));
  ASSERT_TRUE(net::WriteFull(fd, frame.data() + kWireHeaderSize + 16,
                             frame.size() - kWireHeaderSize - 16));

  std::string error;
  WireOp op = WireOp::kQueryBatch;
  uint64_t id = 0;
  std::string body;
  ASSERT_TRUE(ReadFrame(health_fd, &op, &id, &body, &error)) << error;
  EXPECT_EQ(op, WireOp::kHealth);
  EXPECT_EQ(id, 42u);
  HealthResponse health;
  ASSERT_TRUE(DecodeHealthResponse(body, &health, &error)) << error;
  EXPECT_EQ(health.status, WireStatus::kOk);
  EXPECT_EQ(health.state, ServerHealth::kDraining);

  ASSERT_TRUE(ReadFrame(fd, &op, &id, &body, &error)) << error;
  EXPECT_EQ(op, WireOp::kQueryBatch);
  EXPECT_EQ(id, 41u);
  QueryBatchResponse resp;
  ASSERT_TRUE(DecodeQueryBatchResponse(body, &resp, &error)) << error;
  EXPECT_EQ(resp.status, WireStatus::kOk);
  EXPECT_EQ(resp.version, 1u);

  // The drained answer is the real answer, bitwise.
  const auto snap = catalog_->Slot2D("taxi")->Acquire();
  ASSERT_NE(snap, nullptr);
  const std::vector<double> local =
      engine_.AnswerAll(*snap->synopsis, queries);
  ASSERT_EQ(resp.answers.size(), local.size());
  for (size_t i = 0; i < local.size(); ++i) {
    EXPECT_EQ(resp.answers[i], local[i]) << "query " << i;
  }

  // Both connections close after their in-flight frame, and the drain
  // reports success.
  ExpectEof(fd);
  ExpectEof(health_fd);
  ::close(fd);
  ::close(health_fd);
  drainer.join();
  EXPECT_TRUE(drained.load());
}

TEST_F(FaultTest, DrainDeadlineCutsStalledConnections) {
  StartServer();
  const int fd = RawConnect();
  // A frame that never completes: the drain cannot finish it and must
  // fall back to the abrupt path at its deadline.
  const std::string frame = EncodeFrame(WireOp::kStats, 7, "");
  ASSERT_TRUE(net::WriteFull(fd, frame.data(), 10));
  for (int i = 0; server_->active_connections() < 1; ++i) {
    ASSERT_LT(i, 5000) << "handler never registered";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  DrainOptions d;
  d.deadline_ms = 100;
  EXPECT_FALSE(server_->Shutdown(d));
  ExpectEof(fd);
  ::close(fd);
}

TEST_F(FaultTest, HealthReportsServingAndConnectionCount) {
  StartServer();
  QueryClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), &error)) << error;
  ServerHealth state = ServerHealth::kDraining;
  uint64_t active = 0;
  ASSERT_TRUE(client.Health(&state, &active, &error)) << error;
  EXPECT_EQ(state, ServerHealth::kServing);
  EXPECT_GE(active, 1u);
}

// --- retrying client -------------------------------------------------------

TEST_F(FaultTest, RetryAfterInjectedResetIsBitwiseIdentical) {
  PublishGrid("taxi", 4);
  ASSERT_EQ(catalog_->LoadAll(nullptr), 1u);
  StartServer();

  const std::vector<Rect> queries = FixedQueries(data_->domain(), 512, 11);

  // Baseline: an undisturbed batch.
  std::string error;
  std::vector<double> baseline;
  uint64_t baseline_version = 0;
  {
    QueryClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), &error))
        << error;
    WireStatus status = WireStatus::kInternal;
    ASSERT_TRUE(client.QueryBatch("taxi", queries, &baseline,
                                  &baseline_version, &status, &error))
        << error;
  }

  // Same batch with the first response read dying of ECONNRESET: the
  // client must reconnect, resend, and produce the same bits from the
  // same single version. Hooks default to firing only on this (the
  // installing) thread, so the server's handler threads in this process
  // are untouched.
  QueryClientOptions copts;
  copts.max_retries = 2;
  copts.backoff_initial_ms = 1;
  QueryClient client(copts);
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), &error)) << error;

  std::atomic<int> recv_calls{0};
  std::vector<double> answers;
  uint64_t version = 0;
  WireStatus status = WireStatus::kInternal;
  {
    fault::Hooks hooks;
    hooks.recv = [&recv_calls](int, void*, size_t, ssize_t* out) {
      if (recv_calls.fetch_add(1) == 0) {
        errno = ECONNRESET;
        *out = -1;
        return true;  // first recv: injected reset
      }
      return false;  // afterwards: real syscall
    };
    fault::ScopedFaultInjection injection(std::move(hooks));
    ASSERT_TRUE(client.QueryBatch("taxi", queries, &answers, &version,
                                  &status, &error))
        << error;
  }
  EXPECT_GE(recv_calls.load(), 2);
  EXPECT_EQ(status, WireStatus::kOk);
  EXPECT_EQ(version, baseline_version);
  ASSERT_EQ(answers.size(), baseline.size());
  for (size_t i = 0; i < answers.size(); ++i) {
    EXPECT_EQ(answers[i], baseline[i]) << "query " << i;
  }
}

TEST_F(FaultTest, SemanticErrorsAreNeverRetried) {
  PublishGrid("taxi", 5);
  ASSERT_EQ(catalog_->LoadAll(nullptr), 1u);
  StartServer();

  QueryClientOptions copts;
  copts.max_retries = 5;
  QueryClient client(copts);
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), &error)) << error;

  const std::vector<Rect> queries = FixedQueries(data_->domain(), 4, 1);
  std::vector<double> answers;
  uint64_t version = 0;
  WireStatus status = WireStatus::kOk;
  EXPECT_FALSE(client.QueryBatch("ghost", queries, &answers, &version,
                                 &status, &error));
  EXPECT_EQ(status, WireStatus::kNotFound);
  // The connection survived — proof the failure was answered, not
  // retried into a new connection.
  EXPECT_TRUE(client.connected());
  const WireStats stats = server_->StatsSnapshot();
  EXPECT_EQ(stats.connections_accepted, 1u);
}

// --- socket_io primitives under injected faults ----------------------------

TEST_F(FaultTest, ReadFullSurvivesEintrStormAndShortTransfers) {
  int sv[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);

  std::atomic<int> eintr_left{5};
  fault::Hooks hooks;
  hooks.recv = [&eintr_left](int fd, void* buf, size_t n, ssize_t* out) {
    if (eintr_left.fetch_sub(1) > 0) {
      errno = EINTR;
      *out = -1;
      return true;  // five spurious interruptions first
    }
    // Then: the real syscall, one byte at a time (short reads).
    *out = ::recv(fd, buf, n > 0 ? 1 : 0, MSG_DONTWAIT);
    return true;
  };
  hooks.send = [](int fd, const void* buf, size_t n, ssize_t* out) {
    *out = ::send(fd, buf, n > 0 ? 1 : 0, MSG_NOSIGNAL | MSG_DONTWAIT);
    return true;  // one byte per send, too
  };
  fault::ScopedFaultInjection injection(std::move(hooks));

  const std::string message = "sixty-four bytes of payload, delivered one "
                              "reluctant byte at a time!";
  ASSERT_EQ(net::WriteFullDeadline(sv[0], message.data(), message.size(),
                                   net::Deadline::AfterMs(5000)),
            net::IoResult::kOk);
  std::string got(message.size(), '\0');
  ASSERT_EQ(net::ReadFullDeadline(sv[1], got.data(), got.size(),
                                  net::Deadline::AfterMs(5000)),
            net::IoResult::kOk);
  EXPECT_EQ(got, message);
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST_F(FaultTest, EintrStormDoesNotStretchReadDeadline) {
  int sv[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);

  // Regression: WaitFd used to restart an EINTR-interrupted poll() with
  // the ORIGINAL timeout, so a stream of signals stretched a 200ms
  // deadline indefinitely. Each injected interruption here eats 80ms of
  // wall clock; three of them overshoot the deadline, after which the
  // wait must report timeout immediately instead of granting the real
  // poll another full 200ms.
  std::atomic<int> eintr_left{3};
  fault::Hooks hooks;
  hooks.poll = [&eintr_left](int, short, int, int* out) {
    if (eintr_left.fetch_sub(1) > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(80));
      errno = EINTR;
      *out = -1;
      return true;
    }
    return false;  // afterwards: the real syscall
  };
  fault::ScopedFaultInjection injection(std::move(hooks));

  const auto start = std::chrono::steady_clock::now();
  char byte = 0;
  EXPECT_EQ(net::ReadFullDeadline(sv[1], &byte, 1,
                                  net::Deadline::AfterMs(200)),
            net::IoResult::kTimeout);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  // Fixed behavior finishes right after the storm (~240ms); the bug waits
  // out another whole timeout on top (~440ms).
  EXPECT_LT(elapsed, 350) << "EINTR restarts stretched the deadline";
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST_F(FaultTest, ZeroLengthSendParksOnWritabilityNotProgress) {
  int sv[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);

  // Regression: WriteFullDeadline treated send() == 0 as progress and
  // immediately retried, spinning without ever polling. A zero-length
  // send must route through the wait-for-POLLOUT path like EAGAIN does.
  std::atomic<int> zero_sends{3};
  std::atomic<int> polls{0};
  fault::Hooks hooks;
  hooks.send = [&zero_sends](int, const void*, size_t, ssize_t* out) {
    if (zero_sends.fetch_sub(1) > 0) {
      *out = 0;
      return true;  // kernel "takes" nothing, three times
    }
    return false;  // afterwards: the real syscall
  };
  hooks.poll = [&polls](int, short, int, int*) {
    polls.fetch_add(1);
    return false;
  };
  fault::ScopedFaultInjection injection(std::move(hooks));

  const std::string message = "park, don't spin";
  EXPECT_EQ(net::WriteFullDeadline(sv[0], message.data(), message.size(),
                                   net::Deadline::AfterMs(5000)),
            net::IoResult::kOk);
  EXPECT_GE(polls.load(), 3) << "zero-length sends bypassed the poll";

  std::string got(message.size(), '\0');
  ASSERT_EQ(net::ReadFullDeadline(sv[1], got.data(), got.size(),
                                  net::Deadline::AfterMs(5000)),
            net::IoResult::kOk);
  EXPECT_EQ(got, message);
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(DeadlineTest, RemainingMsRoundsUpWhileUnexpired) {
  // Regression: remaining_ms() truncated toward zero, so the final
  // sub-millisecond of a deadline produced poll(..., 0) — a busy spin.
  // An unexpired deadline must never report less than 1ms. The spin below
  // deterministically samples that last fractional window.
  const net::Deadline d = net::Deadline::AfterMs(30);
  while (true) {
    // Sample remaining_ms() first: if the deadline is still unexpired
    // *afterwards*, the sample was definitely taken before expiry (the
    // reverse order would race the clock across the two calls).
    const int remaining = d.remaining_ms();
    if (d.expired()) break;
    EXPECT_GE(remaining, 1);
  }
  EXPECT_EQ(d.remaining_ms(), 0);
  EXPECT_EQ(net::Deadline::None().remaining_ms(), -1);
}

TEST_F(FaultTest, StalledPeerTimesOutInstantlyViaPollHook) {
  int sv[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);

  // A poll that always "times out" models a peer that never sends another
  // byte — without the test actually waiting out a deadline.
  fault::Hooks hooks;
  hooks.poll = [](int, short, int, int* out) {
    *out = 0;
    return true;
  };
  fault::ScopedFaultInjection injection(std::move(hooks));

  char byte = 0;
  EXPECT_EQ(net::ReadFullDeadline(sv[1], &byte, 1,
                                  net::Deadline::AfterMs(60'000)),
            net::IoResult::kTimeout);
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST_F(FaultTest, ConnectTimeoutSurfacesCleanly) {
  // connect() parks in EINPROGRESS and the poll hook never reports
  // writability: the non-blocking connect path must give up with a
  // timeout instead of hanging.
  fault::Hooks hooks;
  hooks.connect = [](int, int* out) {
    errno = EINPROGRESS;
    *out = -1;
    return true;
  };
  hooks.poll = [](int, short, int, int* out) {
    *out = 0;
    return true;
  };
  fault::ScopedFaultInjection injection(std::move(hooks));

  std::string error;
  const int fd =
      net::ConnectTcp("127.0.0.1", 1, &error, /*connect_timeout_ms=*/50);
  EXPECT_LT(fd, 0);
  EXPECT_NE(error.find("cannot connect"), std::string::npos) << error;
}

// --- snapshot store durability faults --------------------------------------

TEST_F(FaultTest, TornSnapshotWriteIsRejectedAndOldVersionKeepsServing) {
  PublishGrid("taxi", 6);
  ASSERT_EQ(catalog_->LoadAll(nullptr), 1u);

  const std::vector<Rect> queries = FixedQueries(data_->domain(), 64, 9);
  const auto v1 = catalog_->Slot2D("taxi")->Acquire();
  ASSERT_NE(v1, nullptr);
  const std::vector<double> before =
      engine_.AnswerAll(*v1->synopsis, queries);

  // Publish v2 through a disk that lies: it drops the second half of the
  // bytes but reports success all the way through fsync and rename, so a
  // torn v2 lands in the store as if a writer had crashed mid-publish.
  {
    fault::Hooks hooks;
    hooks.store_write = [](const std::string&, std::string* bytes) {
      bytes->resize(bytes->size() / 2);
      return true;
    };
    fault::ScopedFaultInjection injection(std::move(hooks));
    Rng rng(7);
    UniformGridOptions gopts;
    gopts.grid_size = 16;
    const UniformGrid grid(*data_, 1.0, rng, gopts);
    std::string error;
    EXPECT_EQ(store_->Publish("taxi", grid, SnapshotMeta{1.0, "torn"},
                              &error),
              2u)
        << error;
  }

  // The torn file is there but unservable; reload must refuse it and keep
  // version 1 in the hot path.
  std::string reload_errors;
  EXPECT_EQ(catalog_->ReloadAll(&reload_errors), 0u);
  EXPECT_FALSE(reload_errors.empty());
  const auto still = catalog_->Slot2D("taxi")->Acquire();
  ASSERT_NE(still, nullptr);
  EXPECT_EQ(still->version, 1u);
  EXPECT_EQ(engine_.AnswerAll(*still->synopsis, queries), before);

  // A healthy publish afterwards supersedes the wreckage.
  PublishGrid("taxi", 8);
  EXPECT_EQ(catalog_->ReloadAll(&reload_errors), 1u);
  EXPECT_EQ(catalog_->Slot2D("taxi")->Acquire()->version, 3u);
}

TEST_F(FaultTest, FsyncAndRenameFailuresFailPublishWithoutResidue) {
  PublishGrid("taxi", 9);

  Rng rng(10);
  UniformGridOptions gopts;
  gopts.grid_size = 16;
  const UniformGrid grid(*data_, 1.0, rng, gopts);

  {
    fault::Hooks hooks;
    hooks.store_fsync = [](const std::string&) { return false; };
    fault::ScopedFaultInjection injection(std::move(hooks));
    std::string error;
    EXPECT_EQ(store_->Publish("taxi", grid, SnapshotMeta{}, &error), 0u);
    EXPECT_NE(error.find("cannot write"), std::string::npos) << error;
  }
  {
    fault::Hooks hooks;
    hooks.store_rename = [](const std::string&, const std::string&) {
      return false;
    };
    fault::ScopedFaultInjection injection(std::move(hooks));
    std::string error;
    EXPECT_EQ(store_->Publish("taxi", grid, SnapshotMeta{}, &error), 0u);
    EXPECT_NE(error.find("cannot publish"), std::string::npos) << error;
  }

  // No temp files left behind, and the failed attempts did not burn a
  // version number.
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().extension(), ".dpgs")
        << "residue: " << entry.path();
  }
  std::string error;
  EXPECT_EQ(store_->Publish("taxi", grid, SnapshotMeta{}, &error), 2u)
      << error;
}

// A latest file that cannot load makes RELOAD fail loudly instead of
// answering OK with 0 installed, which reads as "up to date".
TEST_F(FaultTest, CorruptLatestFileFailsReloadNamingIt) {
  PublishGrid("taxi", 12);
  ASSERT_EQ(catalog_->LoadAll(nullptr), 1u);
  StartServer();
  const std::string garbage_name = SnapshotStore::FileName("taxi", 2);
  {
    std::ofstream out(dir_ + "/" + garbage_name, std::ios::binary);
    out << "this is not a dpgrid snapshot";
  }

  QueryClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), &error)) << error;
  const std::vector<Rect> queries = FixedQueries(data_->domain(), 64, 13);
  const auto v1 = catalog_->Slot2D("taxi")->Acquire();
  ASSERT_NE(v1, nullptr);
  const std::vector<double> before = engine_.AnswerAll(*v1->synopsis, queries);

  uint64_t installed = 0;
  EXPECT_FALSE(client.Reload(&installed, &error));
  EXPECT_NE(error.find("INTERNAL"), std::string::npos) << error;
  EXPECT_NE(error.find(garbage_name), std::string::npos) << error;
  EXPECT_NE(error.find("installed 0"), std::string::npos) << error;

  // Version 1 keeps serving, bitwise, on the same connection.
  std::vector<double> answers;
  uint64_t version = 0;
  ASSERT_TRUE(client.QueryBatch("taxi", queries, &answers, &version, nullptr,
                                &error))
      << error;
  EXPECT_EQ(version, 1u);
  EXPECT_EQ(answers, before);
  const WireStats stats = server_->StatsSnapshot();
  EXPECT_EQ(stats.reloads_installed, 0u);
  EXPECT_EQ(stats.errors_returned, 1u);
}

// Publishes v2 of "taxi" over a served v1 and sends RELOAD from a thread,
// with a store_read hook holding the loader inside its read of v2.
class HeldReloadTest : public FaultTest {
 protected:
  void SetUp() override {
    FaultTest::SetUp();
    PublishGrid("taxi", 14);
    ASSERT_EQ(catalog_->LoadAll(nullptr), 1u);
    StartServer();
    PublishGrid("taxi", 15);
    fault::Hooks hooks;
    hooks.only_installing_thread = false;
    hooks.store_read = [gate = gate_](const std::string&) {
      gate->Hold();
      return true;
    };
    injection_ = std::make_unique<fault::ScopedFaultInjection>(
        std::move(hooks));
    std::string error;
    ASSERT_TRUE(admin_.Connect("127.0.0.1", server_->port(), &error))
        << error;
    reload_ = std::async(std::launch::async, [this] {
      return admin_.Reload(&installed_, &reload_error_);
    });
    ASSERT_TRUE(gate_->WaitHeld()) << "the reload never reached its read";
  }

  void TearDown() override {
    gate_->Open();
    if (reload_.valid()) reload_.wait();
    injection_.reset();
    FaultTest::TearDown();
  }

  const std::shared_ptr<test::Gate> gate_ = std::make_shared<test::Gate>();
  std::unique_ptr<fault::ScopedFaultInjection> injection_;
  QueryClient admin_;
  uint64_t installed_ = 0;
  std::string reload_error_;
  std::future<bool> reload_;
};

TEST_F(HeldReloadTest, GracefulDrainAnswersTheReloadInFlight) {
  std::future<bool> drained = std::async(std::launch::async, [this] {
    DrainOptions d;
    d.deadline_ms = 10'000;
    return server_->Shutdown(d);
  });
  for (int i = 0; server_->health() != ServerHealth::kDraining; ++i) {
    ASSERT_LT(i, 5000) << "server never reported DRAINING";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // The drain cannot finish while the reload it must answer is held.
  EXPECT_EQ(drained.wait_for(std::chrono::milliseconds(100)),
            std::future_status::timeout);
  gate_->Open();
  ASSERT_TRUE(reload_.get()) << reload_error_;
  EXPECT_EQ(installed_, 1u);
  ASSERT_EQ(drained.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  EXPECT_TRUE(drained.get());
  EXPECT_EQ(catalog_->Slot2D("taxi")->current_version(), 2u);
}

TEST_F(HeldReloadTest, AbruptShutdownWaitsForTheReloadThenDropsIt) {
  std::future<void> stopped =
      std::async(std::launch::async, [this] { server_->Shutdown(); });
  // The connection is cut at once, but the loader finishes its ReloadAll
  // before Shutdown returns.
  EXPECT_FALSE(reload_.get());
  EXPECT_EQ(stopped.wait_for(std::chrono::milliseconds(100)),
            std::future_status::timeout);
  gate_->Open();
  ASSERT_EQ(stopped.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  // The install landed although its response was dropped, which is why
  // a client never retries RELOAD.
  EXPECT_EQ(catalog_->Slot2D("taxi")->current_version(), 2u);
}

#endif  // !_WIN32

}  // namespace
}  // namespace dpgrid
