// Wire-protocol codec tests: frame and body round-trips, and table-driven
// malformed-frame rejection in the style of store_test.cc — byte-level
// damage anywhere in a frame must fail decoding with a clean error, never
// a crash or a silently misread request.

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/wire.h"

namespace dpgrid {
namespace {

std::vector<Rect> SampleQueries() {
  return {
      Rect{0.0, 0.0, 1.0, 1.0},
      Rect{-3.5, 2.25, 10.0, 7.5},
      Rect{5.0, 5.0, 5.0, 5.0},  // empty
  };
}

TEST(WireFrameTest, RoundTrip) {
  const std::string body = EncodeQueryBatchRequest("taxi", SampleQueries());
  const std::string frame = EncodeFrame(WireOp::kQueryBatch, 42, body);
  ASSERT_EQ(frame.size(), kWireHeaderSize + body.size());

  WireFrame decoded;
  std::string error;
  ASSERT_TRUE(DecodeFrame(frame, &decoded, &error)) << error;
  EXPECT_EQ(decoded.op, WireOp::kQueryBatch);
  EXPECT_EQ(decoded.request_id, 42u);
  EXPECT_EQ(decoded.body, body);
}

TEST(WireFrameTest, EmptyBodyRoundTrip) {
  const std::string frame = EncodeFrame(WireOp::kStats, 7, "");
  WireFrame decoded;
  std::string error;
  ASSERT_TRUE(DecodeFrame(frame, &decoded, &error)) << error;
  EXPECT_EQ(decoded.op, WireOp::kStats);
  EXPECT_EQ(decoded.request_id, 7u);
  EXPECT_TRUE(decoded.body.empty());
}

TEST(WireFrameTest, MalformedFramesAreRejected) {
  const std::string base = EncodeFrame(
      WireOp::kQueryBatch, 9, EncodeQueryBatchRequest("a", SampleQueries()));
  struct Mutation {
    const char* name;
    void (*apply)(std::string*);
  };
  const Mutation kMutations[] = {
      {"empty input", [](std::string* f) { f->clear(); }},
      {"truncated inside header", [](std::string* f) { f->resize(20); }},
      {"header cut one byte short",
       [](std::string* f) { f->resize(kWireHeaderSize - 1); }},
      {"flipped magic byte", [](std::string* f) { (*f)[0] ^= 0x01; }},
      {"future protocol version",
       [](std::string* f) {
         const uint32_t v = 99;
         std::memcpy(f->data() + 4, &v, sizeof(v));
       }},
      {"zero op code",
       [](std::string* f) {
         const uint32_t op = 0;
         std::memcpy(f->data() + 8, &op, sizeof(op));
       }},
      {"unknown op code",
       [](std::string* f) {
         const uint32_t op = 200;
         std::memcpy(f->data() + 8, &op, sizeof(op));
       }},
      {"body size overstated",
       [](std::string* f) {
         uint64_t size = 0;
         std::memcpy(&size, f->data() + 20, sizeof(size));
         size += 1;
         std::memcpy(f->data() + 20, &size, sizeof(size));
       }},
      {"body size beyond hard cap",
       [](std::string* f) {
         const uint64_t size = kWireMaxBodyBytes + 1;
         std::memcpy(f->data() + 20, &size, sizeof(size));
       }},
      {"truncated body", [](std::string* f) { f->resize(f->size() - 3); }},
      {"flipped checksum bit", [](std::string* f) { (*f)[28] ^= 0x04; }},
      {"flipped body byte",
       [](std::string* f) { (*f)[kWireHeaderSize + 5] ^= 0x20; }},
      {"flipped last body byte", [](std::string* f) { f->back() ^= 0x01; }},
      {"trailing garbage", [](std::string* f) { f->push_back('\x55'); }},
  };
  for (const Mutation& m : kMutations) {
    std::string frame = base;
    m.apply(&frame);
    WireFrame decoded;
    std::string error;
    EXPECT_FALSE(DecodeFrame(frame, &decoded, &error)) << m.name;
    EXPECT_FALSE(error.empty()) << m.name;
  }
}

TEST(WireFrameTest, HeaderHonorsCallerBodyCap) {
  const std::string body(1024, 'x');
  const std::string frame = EncodeFrame(WireOp::kQueryBatch, 1, body);
  WireOp op;
  uint64_t id = 0;
  uint64_t size = 0;
  uint64_t checksum = 0;
  std::string error;
  EXPECT_TRUE(DecodeFrameHeader(
      std::string_view(frame).substr(0, kWireHeaderSize), &op, &id, &size,
      &checksum, &error));
  EXPECT_FALSE(DecodeFrameHeader(
      std::string_view(frame).substr(0, kWireHeaderSize), &op, &id, &size,
      &checksum, &error, /*max_body_bytes=*/512));
  EXPECT_FALSE(error.empty());
}

// --- protocol version ------------------------------------------------------

TEST(WireVersionTest, FramesRoundTripAsVersion2) {
  const std::string body = EncodeQueryBatchRequest("taxi", SampleQueries());
  const std::string frame = EncodeFrame(WireOp::kQueryBatch, 11, body);
  uint32_t header_version = 0;
  std::memcpy(&header_version, frame.data() + 4, sizeof(header_version));
  EXPECT_EQ(header_version, 2u);
  EXPECT_EQ(header_version, kWireProtocolVersion);
  WireFrame decoded;
  std::string error;
  ASSERT_TRUE(DecodeFrame(frame, &decoded, &error)) << error;
  EXPECT_EQ(decoded.op, WireOp::kQueryBatch);
  EXPECT_EQ(decoded.request_id, 11u);
  EXPECT_EQ(decoded.body, body);
}

TEST(WireVersionTest, ChecksumSlotCarriesCrc32c) {
  // CRC32C zero-extended into the u64 checksum slot.
  const std::string body = EncodeQueryBatchRequest("gowalla", SampleQueries());
  const std::string frame = EncodeFrame(WireOp::kQueryBatch, 3, body);
  uint64_t checksum = 0;
  std::memcpy(&checksum, frame.data() + 28, sizeof(checksum));
  EXPECT_EQ(checksum, static_cast<uint64_t>(Crc32c(body)));
  EXPECT_EQ(WireBodyChecksum(body), checksum);
}

TEST(WireVersionTest, CorruptBodyIsRejected) {
  const std::string body = EncodeQueryBatchRequest("taxi", SampleQueries());
  std::string frame = EncodeFrame(WireOp::kQueryBatch, 6, body);
  frame[kWireHeaderSize + 2] ^= 0x10;
  WireFrame decoded;
  std::string error;
  EXPECT_FALSE(DecodeFrame(frame, &decoded, &error));
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
}

TEST(WireVersionTest, EveryVersionButTwoIsRejected) {
  // 0 was never valid, 1 is the retired FNV-1a protocol, 3 is from the
  // future; all are framing damage.
  for (const uint32_t version : {0u, 1u, 3u}) {
    std::string frame = EncodeFrame(WireOp::kStats, 1, "");
    std::memcpy(frame.data() + 4, &version, sizeof(version));
    WireOp op;
    uint64_t id = 0;
    uint64_t size = 0;
    uint64_t checksum = 0;
    std::string error;
    EXPECT_FALSE(DecodeFrameHeader(
        std::string_view(frame).substr(0, kWireHeaderSize), &op, &id, &size,
        &checksum, &error))
        << "version " << version;
    EXPECT_EQ(error, "unsupported protocol version") << "version " << version;
  }
}

// --- CRC32C ----------------------------------------------------------------

TEST(Crc32cTest, KnownAnswers) {
  // The canonical Castagnoli check value (RFC 3720 appendix B.4).
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32cSoftware("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32cHardware("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0u);
  EXPECT_EQ(Crc32c(std::string(32, '\0')), 0x8A9136AAu);
}

TEST(Crc32cTest, HardwareMatchesSoftwareAcrossSizesAndAlignments) {
  // Sizes straddle every fold regime: byte tail only, single u64 lane,
  // short 3-lane blocks, and multiples (plus stragglers) of the long
  // 3-lane block (3 * 4096 bytes). Offsets exercise the alignment
  // preamble.
  std::string data(64 * 1024 + 61, '\0');
  uint32_t state = 0x12345678u;
  for (char& c : data) {
    state = state * 1664525u + 1013904223u;  // LCG; deterministic bytes
    c = static_cast<char>(state >> 24);
  }
  const size_t kSizes[] = {0,    1,    7,     8,     9,     255,
                           256,  257,  768,   769,   4096,  8191,
                           12288, 12289, 24576, 24577, 65536};
  const size_t kOffsets[] = {0, 1, 3, 7};
  for (const size_t size : kSizes) {
    for (const size_t offset : kOffsets) {
      ASSERT_LE(offset + size, data.size());
      const std::string_view view(data.data() + offset, size);
      EXPECT_EQ(Crc32cHardware(view), Crc32cSoftware(view))
          << "size=" << size << " offset=" << offset;
    }
  }
}

TEST(WireQueryBatchTest, RequestRoundTrip2D) {
  const std::vector<Rect> queries = SampleQueries();
  const std::string body = EncodeQueryBatchRequest("checkins", queries);
  QueryBatchRequest req;
  std::string error;
  ASSERT_TRUE(DecodeQueryBatchRequest(body, &req, &error)) << error;
  EXPECT_EQ(req.name, "checkins");
  EXPECT_EQ(req.dims, 2u);
  ASSERT_EQ(req.queries.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(req.queries[i], queries[i]) << i;
  }
  EXPECT_TRUE(req.queries_nd.empty());
}

TEST(WireQueryBatchTest, RequestRoundTripNd) {
  const std::vector<BoxNd> queries = {
      BoxNd({0.0, 1.0, 2.0}, {3.0, 4.0, 5.0}),
      BoxNd({-1.0, -2.0, -3.0}, {0.5, 0.25, 0.125}),
  };
  const std::string body = EncodeQueryBatchRequestNd("cube", 3, queries);
  QueryBatchRequest req;
  std::string error;
  ASSERT_TRUE(DecodeQueryBatchRequest(body, &req, &error)) << error;
  EXPECT_EQ(req.name, "cube");
  EXPECT_EQ(req.dims, 3u);
  ASSERT_EQ(req.queries_nd.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_TRUE(req.queries_nd[i] == queries[i]) << i;
  }
}

TEST(WireQueryBatchTest, EmptyBatchRoundTrips) {
  const std::string body =
      EncodeQueryBatchRequest("empty", std::vector<Rect>{});
  QueryBatchRequest req;
  std::string error;
  ASSERT_TRUE(DecodeQueryBatchRequest(body, &req, &error)) << error;
  EXPECT_EQ(req.count(), 0u);
}

TEST(WireQueryBatchTest, MalformedRequestBodiesAreRejected) {
  const std::string base = EncodeQueryBatchRequest("ok", SampleQueries());
  struct Mutation {
    const char* name;
    std::string (*make)(const std::string&);
  };
  const Mutation kMutations[] = {
      {"empty body", [](const std::string&) { return std::string(); }},
      {"truncated mid-query",
       [](const std::string& b) { return b.substr(0, b.size() - 9); }},
      {"trailing bytes",
       [](const std::string& b) { return b + std::string(4, '\0'); }},
      {"invalid name",
       [](const std::string&) {
         return EncodeQueryBatchRequest("../escape", SampleQueries());
       }},
      {"empty name",
       [](const std::string&) {
         return EncodeQueryBatchRequest("", SampleQueries());
       }},
      {"zero dims",
       [](const std::string& b) {
         std::string m = b;
         // dims sits right after the 4-byte length prefix + "ok".
         const uint32_t dims = 0;
         std::memcpy(m.data() + sizeof(uint32_t) + 2, &dims, sizeof(dims));
         return m;
       }},
      {"absurd dims",
       [](const std::string& b) {
         std::string m = b;
         const uint32_t dims = kWireMaxDims + 1;
         std::memcpy(m.data() + sizeof(uint32_t) + 2, &dims, sizeof(dims));
         return m;
       }},
      {"count exceeds body",
       [](const std::string& b) {
         std::string m = b;
         const uint64_t count = 1u << 30;
         std::memcpy(m.data() + 2 * sizeof(uint32_t) + 2, &count,
                     sizeof(count));
         return m;
       }},
      // Non-finite coordinates would reach unchecked float-to-index casts
      // in the query kernels; the trust boundary must reject them.
      {"NaN coordinate",
       [](const std::string&) {
         const double nan = std::numeric_limits<double>::quiet_NaN();
         return EncodeQueryBatchRequest(
             "ok", std::vector<Rect>{Rect{nan, 0.0, 1.0, 1.0}});
       }},
      {"infinite coordinate",
       [](const std::string&) {
         const double inf = std::numeric_limits<double>::infinity();
         return EncodeQueryBatchRequest(
             "ok", std::vector<Rect>{Rect{0.0, 0.0, inf, 1.0}});
       }},
      {"NaN nd coordinate",
       [](const std::string&) {
         const double nan = std::numeric_limits<double>::quiet_NaN();
         return EncodeQueryBatchRequestNd(
             "ok", 3,
             std::vector<BoxNd>{BoxNd({0.0, nan, 0.0}, {1.0, 1.0, 1.0})});
       }},
  };
  for (const Mutation& m : kMutations) {
    QueryBatchRequest req;
    std::string error;
    EXPECT_FALSE(DecodeQueryBatchRequest(m.make(base), &req, &error))
        << m.name;
    EXPECT_FALSE(error.empty()) << m.name;
  }
}

TEST(WireQueryBatchTest, OverLimitCountIsRejectedEarlyAsTooLarge) {
  const std::string body = EncodeQueryBatchRequest("ok", SampleQueries());
  QueryBatchRequest req;
  std::string error;
  WireStatus reject = WireStatus::kOk;
  EXPECT_FALSE(DecodeQueryBatchRequest(body, &req, &error,
                                       /*max_queries=*/2, &reject));
  EXPECT_EQ(reject, WireStatus::kTooLarge);
  EXPECT_FALSE(error.empty());
  // At the limit it decodes fine.
  reject = WireStatus::kOk;
  EXPECT_TRUE(DecodeQueryBatchRequest(body, &req, &error,
                                      /*max_queries=*/3, &reject))
      << error;
}

TEST(WireResponseTest, QueryBatchOkRoundTrip) {
  const std::vector<double> answers = {1.5, -2.25, 0.0, 1e300};
  const std::string body = EncodeQueryBatchOkBody(12, answers);
  QueryBatchResponse resp;
  std::string error;
  ASSERT_TRUE(DecodeQueryBatchResponse(body, &resp, &error)) << error;
  EXPECT_EQ(resp.status, WireStatus::kOk);
  EXPECT_EQ(resp.version, 12u);
  EXPECT_EQ(resp.answers, answers);
}

TEST(WireResponseTest, ErrorBodyRoundTripsThroughEveryDecoder) {
  const std::string body =
      EncodeErrorBody(WireStatus::kNotFound, "no such synopsis");
  {
    QueryBatchResponse resp;
    std::string error;
    ASSERT_TRUE(DecodeQueryBatchResponse(body, &resp, &error)) << error;
    EXPECT_EQ(resp.status, WireStatus::kNotFound);
    EXPECT_EQ(resp.message, "no such synopsis");
  }
  {
    ListResponse resp;
    std::string error;
    ASSERT_TRUE(DecodeListResponse(body, &resp, &error)) << error;
    EXPECT_EQ(resp.status, WireStatus::kNotFound);
  }
  {
    StatsResponse resp;
    std::string error;
    ASSERT_TRUE(DecodeStatsResponse(body, &resp, &error)) << error;
    EXPECT_EQ(resp.status, WireStatus::kNotFound);
  }
  {
    ReloadResponse resp;
    std::string error;
    ASSERT_TRUE(DecodeReloadResponse(body, &resp, &error)) << error;
    EXPECT_EQ(resp.status, WireStatus::kNotFound);
  }
}

TEST(WireResponseTest, ListOkRoundTrip) {
  std::vector<CatalogEntryInfo> entries(2);
  entries[0].name = "alpha";
  entries[0].version = 3;
  entries[0].dims = 2;
  entries[0].synopsis_name = "U32";
  entries[0].epsilon = 0.5;
  entries[0].label = "epoch-3";
  entries[1].name = "cube";
  entries[1].version = 1;
  entries[1].dims = 4;
  entries[1].synopsis_name = "U4d-6";
  entries[1].epsilon = 1.0;

  const std::string body = EncodeListOkBody(entries);
  ListResponse resp;
  std::string error;
  ASSERT_TRUE(DecodeListResponse(body, &resp, &error)) << error;
  ASSERT_EQ(resp.entries.size(), 2u);
  EXPECT_EQ(resp.entries[0].name, "alpha");
  EXPECT_EQ(resp.entries[0].version, 3u);
  EXPECT_EQ(resp.entries[0].synopsis_name, "U32");
  EXPECT_EQ(resp.entries[0].epsilon, 0.5);
  EXPECT_EQ(resp.entries[0].label, "epoch-3");
  EXPECT_EQ(resp.entries[1].dims, 4u);
}

TEST(WireResponseTest, StatsAndReloadRoundTrip) {
  WireStats stats;
  stats.connections_accepted = 3;
  stats.frames_received = 100;
  stats.malformed_frames = 2;
  stats.batches_answered = 90;
  stats.queries_answered = 90000;
  stats.errors_returned = 8;
  stats.reloads_installed = 4;
  stats.connections_shed = 11;
  stats.read_timeouts = 5;
  stats.idle_timeouts = 6;
  StatsResponse sresp;
  std::string error;
  ASSERT_TRUE(DecodeStatsResponse(EncodeStatsOkBody(stats), &sresp, &error))
      << error;
  EXPECT_EQ(sresp.stats.queries_answered, 90000u);
  EXPECT_EQ(sresp.stats.reloads_installed, 4u);
  EXPECT_EQ(sresp.stats.connections_shed, 11u);
  EXPECT_EQ(sresp.stats.read_timeouts, 5u);
  EXPECT_EQ(sresp.stats.idle_timeouts, 6u);

  ReloadResponse rresp;
  ASSERT_TRUE(DecodeReloadResponse(EncodeReloadOkBody(6), &rresp, &error))
      << error;
  EXPECT_EQ(rresp.installed, 6u);
}

TEST(WireHealthTest, HealthOpFramesRoundTrip) {
  // kHealth was added after the first ops; the frame layer must accept
  // op 5.
  const std::string frame = EncodeFrame(WireOp::kHealth, 99, "");
  WireFrame decoded;
  std::string error;
  ASSERT_TRUE(DecodeFrame(frame, &decoded, &error)) << error;
  EXPECT_EQ(decoded.op, WireOp::kHealth);
  EXPECT_EQ(decoded.request_id, 99u);
}

TEST(WireHealthTest, HealthOkBodyRoundTrip) {
  for (const ServerHealth state :
       {ServerHealth::kServing, ServerHealth::kDraining}) {
    HealthResponse resp;
    std::string error;
    ASSERT_TRUE(DecodeHealthResponse(EncodeHealthOkBody(state, 17), &resp,
                                     &error))
        << error;
    EXPECT_EQ(resp.status, WireStatus::kOk);
    EXPECT_EQ(resp.state, state);
    EXPECT_EQ(resp.active_connections, 17u);
  }
  EXPECT_STREQ(ServerHealthName(ServerHealth::kServing), "SERVING");
  EXPECT_STREQ(ServerHealthName(ServerHealth::kDraining), "DRAINING");
}

TEST(WireHealthTest, OverloadedErrorBodyDecodesThroughHealthDecoder) {
  // The shed verdict a client reads off an over-capacity connection.
  const std::string body = EncodeErrorBody(
      WireStatus::kOverloaded, "server at connection capacity: "
                               "retry_after_ms=250");
  HealthResponse resp;
  std::string error;
  ASSERT_TRUE(DecodeHealthResponse(body, &resp, &error)) << error;
  EXPECT_EQ(resp.status, WireStatus::kOverloaded);
  EXPECT_EQ(ParseRetryAfterMs(resp.message), 250u);
  EXPECT_STREQ(WireStatusName(WireStatus::kOverloaded), "OVERLOADED");
}

TEST(WireHealthTest, MalformedHealthResponsesAreRejected) {
  const std::string ok = EncodeHealthOkBody(ServerHealth::kDraining, 3);
  // Unknown state enum value (2): bytes of the state field live right
  // after the u32 status + empty string message.
  std::string bad_state = ok;
  bad_state[8] = '\x02';
  const struct {
    const char* name;
    std::string body;
  } kCases[] = {
      {"empty body", std::string()},
      {"unknown health state", bad_state},
      {"truncated", ok.substr(0, ok.size() - 4)},
      {"trailing bytes", ok + "zz"},
  };
  for (const auto& c : kCases) {
    HealthResponse resp;
    std::string error;
    EXPECT_FALSE(DecodeHealthResponse(c.body, &resp, &error)) << c.name;
    EXPECT_FALSE(error.empty()) << c.name;
  }
}

TEST(WireHealthTest, ParseRetryAfterMsHandlesAbsentGarbledAndHugeHints) {
  EXPECT_EQ(ParseRetryAfterMs(""), 0u);
  EXPECT_EQ(ParseRetryAfterMs("no hint here"), 0u);
  EXPECT_EQ(ParseRetryAfterMs("retry_after_ms="), 0u);
  EXPECT_EQ(ParseRetryAfterMs("retry_after_ms=abc"), 0u);
  EXPECT_EQ(ParseRetryAfterMs("retry_after_ms=0"), 0u);
  EXPECT_EQ(ParseRetryAfterMs("retry_after_ms=125"), 125u);
  EXPECT_EQ(ParseRetryAfterMs("capacity (max_connections=4): "
                              "retry_after_ms=77 please"),
            77u);
  // Advisory hints are clamped to one minute, even absurd ones.
  EXPECT_EQ(ParseRetryAfterMs("retry_after_ms=9999999999999999999999"),
            60'000u);
}

// --- METRICS ---------------------------------------------------------------

// A snapshot exercising every section of the METRICS body: ops with
// latency histograms, all six stage histograms, datasets, events, and a
// retained slow-frame trace.
obs::HistogramSnapshot MakeHist(uint64_t seed) {
  obs::HistogramSnapshot h;
  h.buckets[0] = seed;
  h.buckets[5] = seed + 1;
  h.buckets[obs::kHistogramBuckets - 1] = 2;  // overflow bucket
  for (const uint64_t b : h.buckets) h.count += b;
  h.sum_us = 1000 * seed + 17;
  h.max_us = (uint64_t{1} << 40) + seed;
  return h;
}

obs::MetricsSnapshot MakeMetricsSnapshot() {
  obs::MetricsSnapshot snap;
  snap.slow_frame_us = 10'000;
  snap.slow_frames = 3;
  snap.engine_batches = 44;
  snap.engine_queries = 44'000;
  snap.engine_batches_2d = 30;
  snap.engine_queries_2d = 30'000;
  snap.engine_batches_nd = 14;
  snap.engine_queries_nd = 14'000;
  snap.engine_batches_sharded = 9;
  obs::OpMetricsSnapshot op;
  op.op = static_cast<uint32_t>(WireOp::kQueryBatch);
  op.name = "QUERY_BATCH";
  op.requests = 40;
  op.errors = 2;
  op.bytes_in = 123'456;
  op.bytes_out = 654'321;
  op.latency = MakeHist(7);
  snap.ops.push_back(op);
  op.op = static_cast<uint32_t>(WireOp::kStats);
  op.name = "STATS";
  op.requests = 4;
  op.latency = MakeHist(1);
  snap.ops.push_back(op);
  for (size_t i = 0; i < obs::kNumStages; ++i) {
    snap.stages.push_back(MakeHist(i));
  }
  obs::DatasetMetricsSnapshot ds;
  ds.name = "checkins";
  ds.batches = 40;
  ds.queries = 40'000;
  ds.errors = 1;
  ds.engine_us = MakeHist(9);
  snap.datasets.push_back(ds);
  snap.events.push_back(obs::EventSnapshot{"catalog_reload_sweeps", 5, 1754});
  obs::FrameTrace trace;
  trace.request_id = 77;
  trace.op = static_cast<uint32_t>(WireOp::kQueryBatch);
  trace.queries = 4096;
  trace.unix_s = 1754'000'000;
  for (size_t i = 0; i < obs::kNumStages; ++i) trace.stage_us[i] = 100 * i;
  trace.SetDataset("checkins");
  snap.slow_traces.push_back(trace);
  return snap;
}

void ExpectHistEq(const obs::HistogramSnapshot& got,
                  const obs::HistogramSnapshot& want) {
  EXPECT_EQ(got.count, want.count);
  EXPECT_EQ(got.sum_us, want.sum_us);
  EXPECT_EQ(got.max_us, want.max_us);
  EXPECT_EQ(got.buckets, want.buckets);
}

TEST(WireMetricsTest, MetricsOpFramesRoundTrip) {
  // kMetrics was added after the first ops; the frame layer must accept
  // op 6.
  const std::string frame = EncodeFrame(WireOp::kMetrics, 88, "");
  WireFrame decoded;
  std::string error;
  ASSERT_TRUE(DecodeFrame(frame, &decoded, &error)) << error;
  EXPECT_EQ(decoded.op, WireOp::kMetrics);
  EXPECT_EQ(decoded.request_id, 88u);
  EXPECT_STREQ(WireOpName(WireOp::kMetrics), "METRICS");
}

TEST(WireMetricsTest, MetricsOkBodyRoundTrip) {
  WireStats stats;
  stats.connections_accepted = 3;
  stats.frames_received = 100;
  stats.queries_answered = 90'000;
  stats.idle_timeouts = 6;
  const obs::MetricsSnapshot snap = MakeMetricsSnapshot();

  MetricsResponse resp;
  std::string error;
  ASSERT_TRUE(
      DecodeMetricsResponse(EncodeMetricsOkBody(stats, snap), &resp, &error))
      << error;
  EXPECT_EQ(resp.status, WireStatus::kOk);
  for (const WireStatsField& f : kWireStatsFields) {
    EXPECT_EQ(resp.stats.*f.field, stats.*f.field) << f.name;
  }
  EXPECT_EQ(resp.metrics.slow_frame_us, snap.slow_frame_us);
  EXPECT_EQ(resp.metrics.slow_frames, snap.slow_frames);
  EXPECT_EQ(resp.metrics.engine_batches, snap.engine_batches);
  EXPECT_EQ(resp.metrics.engine_queries, snap.engine_queries);
  EXPECT_EQ(resp.metrics.engine_batches_2d, snap.engine_batches_2d);
  EXPECT_EQ(resp.metrics.engine_queries_2d, snap.engine_queries_2d);
  EXPECT_EQ(resp.metrics.engine_batches_nd, snap.engine_batches_nd);
  EXPECT_EQ(resp.metrics.engine_queries_nd, snap.engine_queries_nd);
  EXPECT_EQ(resp.metrics.engine_batches_sharded,
            snap.engine_batches_sharded);
  ASSERT_EQ(resp.metrics.ops.size(), snap.ops.size());
  for (size_t i = 0; i < snap.ops.size(); ++i) {
    EXPECT_EQ(resp.metrics.ops[i].op, snap.ops[i].op);
    EXPECT_EQ(resp.metrics.ops[i].name, snap.ops[i].name);
    EXPECT_EQ(resp.metrics.ops[i].requests, snap.ops[i].requests);
    EXPECT_EQ(resp.metrics.ops[i].errors, snap.ops[i].errors);
    EXPECT_EQ(resp.metrics.ops[i].bytes_in, snap.ops[i].bytes_in);
    EXPECT_EQ(resp.metrics.ops[i].bytes_out, snap.ops[i].bytes_out);
    ExpectHistEq(resp.metrics.ops[i].latency, snap.ops[i].latency);
  }
  ASSERT_EQ(resp.metrics.stages.size(), obs::kNumStages);
  for (size_t i = 0; i < obs::kNumStages; ++i) {
    ExpectHistEq(resp.metrics.stages[i], snap.stages[i]);
  }
  ASSERT_EQ(resp.metrics.datasets.size(), 1u);
  EXPECT_EQ(resp.metrics.datasets[0].name, "checkins");
  EXPECT_EQ(resp.metrics.datasets[0].batches, 40u);
  EXPECT_EQ(resp.metrics.datasets[0].queries, 40'000u);
  EXPECT_EQ(resp.metrics.datasets[0].errors, 1u);
  ExpectHistEq(resp.metrics.datasets[0].engine_us, snap.datasets[0].engine_us);
  ASSERT_EQ(resp.metrics.events.size(), 1u);
  EXPECT_EQ(resp.metrics.events[0].name, "catalog_reload_sweeps");
  EXPECT_EQ(resp.metrics.events[0].count, 5u);
  EXPECT_EQ(resp.metrics.events[0].last_unix_s, 1754u);
  ASSERT_EQ(resp.metrics.slow_traces.size(), 1u);
  const obs::FrameTrace& t = resp.metrics.slow_traces[0];
  EXPECT_EQ(t.request_id, 77u);
  EXPECT_EQ(t.op, static_cast<uint32_t>(WireOp::kQueryBatch));
  EXPECT_EQ(t.queries, 4096u);
  EXPECT_EQ(t.unix_s, 1754'000'000u);
  EXPECT_EQ(t.DatasetString(), "checkins");
  for (size_t i = 0; i < obs::kNumStages; ++i) {
    EXPECT_EQ(t.stage_us[i], 100 * i) << i;
  }
}

TEST(WireMetricsTest, EmptySnapshotRoundTrips) {
  // A freshly started server: no ops exercised, no datasets, no traces —
  // but always exactly kNumStages stage histograms.
  obs::MetricsSnapshot snap;
  for (size_t i = 0; i < obs::kNumStages; ++i) snap.stages.emplace_back();
  MetricsResponse resp;
  std::string error;
  ASSERT_TRUE(DecodeMetricsResponse(EncodeMetricsOkBody(WireStats{}, snap),
                                    &resp, &error))
      << error;
  EXPECT_TRUE(resp.metrics.ops.empty());
  EXPECT_TRUE(resp.metrics.datasets.empty());
  EXPECT_TRUE(resp.metrics.slow_traces.empty());
}

TEST(WireMetricsTest, ErrorBodyDecodesThroughMetricsDecoder) {
  const std::string body = EncodeErrorBody(WireStatus::kInternal, "bye");
  MetricsResponse resp;
  std::string error;
  ASSERT_TRUE(DecodeMetricsResponse(body, &resp, &error)) << error;
  EXPECT_EQ(resp.status, WireStatus::kInternal);
  EXPECT_EQ(resp.message, "bye");
}

TEST(WireMetricsTest, MalformedMetricsResponsesAreRejected) {
  // A minimal OK body (empty snapshot, empty message) has a fixed layout,
  // so section headers sit at known offsets:
  //   0   u32 status              8   u32 counter count
  //   12  10 x u64 counters       92  9 x u64 globals
  //   164 u32 op count            168 u32 stage count
  //   172 stage[0] u64 count/sum/max
  //   196 u32 stage[0] bucket count
  obs::MetricsSnapshot snap;
  for (size_t i = 0; i < obs::kNumStages; ++i) snap.stages.emplace_back();
  const std::string ok = EncodeMetricsOkBody(WireStats{}, snap);
  auto patch_u32 = [](std::string body, size_t off, uint32_t v) {
    std::memcpy(body.data() + off, &v, sizeof(v));
    return body;
  };
  // One retained trace puts the per-trace stage count at a fixed distance
  // from the end of the body: u32 stage count + kNumStages u64s.
  obs::MetricsSnapshot traced = snap;
  traced.slow_traces.emplace_back();
  const std::string ok_traced = EncodeMetricsOkBody(WireStats{}, traced);
  const size_t trace_stage_count_off =
      ok_traced.size() - obs::kNumStages * 8 - 4;
  const struct {
    const char* name;
    std::string body;
  } kCases[] = {
      {"empty body", std::string()},
      {"truncated", ok.substr(0, ok.size() - 5)},
      {"trailing bytes", ok + "zz"},
      {"wrong counter count",
       patch_u32(ok, 8, static_cast<uint32_t>(kNumWireStatsFields) - 1)},
      {"op count exceeds body", patch_u32(ok, 164, 1u << 20)},
      {"wrong stage count", patch_u32(ok, 168, obs::kNumStages + 1)},
      {"wrong histogram bucket count",
       patch_u32(ok, 196, obs::kHistogramBuckets - 1)},
      {"wrong trace stage count",
       patch_u32(ok_traced, trace_stage_count_off, obs::kNumStages - 1)},
  };
  for (const auto& c : kCases) {
    MetricsResponse resp;
    std::string error;
    EXPECT_FALSE(DecodeMetricsResponse(c.body, &resp, &error)) << c.name;
    EXPECT_FALSE(error.empty()) << c.name;
  }
}

TEST(WireResponseTest, MalformedResponsesAreRejected) {
  struct Case {
    const char* name;
    std::string body;
  };
  const std::string ok = EncodeQueryBatchOkBody(1, {{1.0, 2.0}});
  const Case kCases[] = {
      {"empty body", std::string()},
      {"unknown status code", std::string("\x63\x00\x00\x00", 4) +
                                  std::string("\x00\x00\x00\x00", 4)},
      {"ok body truncated", ok.substr(0, ok.size() - 4)},
      {"ok body trailing bytes", ok + "zz"},
      {"error body with payload",
       EncodeErrorBody(WireStatus::kNotFound, "x") + "extra"},
  };
  for (const Case& c : kCases) {
    QueryBatchResponse resp;
    std::string error;
    EXPECT_FALSE(DecodeQueryBatchResponse(c.body, &resp, &error)) << c.name;
    EXPECT_FALSE(error.empty()) << c.name;
  }
}

}  // namespace
}  // namespace dpgrid
