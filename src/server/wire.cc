#include "server/wire.h"

#include <cmath>
#include <cstring>

#include "common/check.h"
#include "common/crc32c.h"
#include "common/status.h"

#include "store/byte_io.h"
#include "store/snapshot_store.h"

namespace dpgrid {

namespace {

// Reads the `u32 status, str message` prefix every response body carries.
bool ReadStatusPrefix(ByteReader* r, WireStatus* status, std::string* message,
                      std::string* error) {
  uint32_t raw = 0;
  if (!r->U32(&raw) || !r->Str(message)) {
    return SetError(error, "truncated response status: " + r->error());
  }
  if (raw > static_cast<uint32_t>(WireStatus::kOverloaded)) {
    return SetError(error, "unknown response status code");
  }
  *status = static_cast<WireStatus>(raw);
  return true;
}

// Non-OK responses carry nothing after the status prefix.
bool FinishErrorResponse(const ByteReader& r, std::string* error) {
  if (r.remaining() != 0) {
    return SetError(error, "trailing bytes in error response");
  }
  return true;
}

}  // namespace

const char* WireStatusName(WireStatus status) {
  switch (status) {
    case WireStatus::kOk:
      return "OK";
    case WireStatus::kNotFound:
      return "NOT_FOUND";
    case WireStatus::kMalformedRequest:
      return "MALFORMED_REQUEST";
    case WireStatus::kWrongDims:
      return "WRONG_DIMS";
    case WireStatus::kTooLarge:
      return "TOO_LARGE";
    case WireStatus::kMalformedFrame:
      return "MALFORMED_FRAME";
    case WireStatus::kInternal:
      return "INTERNAL";
    case WireStatus::kOverloaded:
      return "OVERLOADED";
  }
  return "UNKNOWN";
}

const char* WireOpName(WireOp op) {
  switch (op) {
    case WireOp::kQueryBatch:
      return "QUERY_BATCH";
    case WireOp::kListSynopses:
      return "LIST_SYNOPSES";
    case WireOp::kStats:
      return "STATS";
    case WireOp::kReload:
      return "RELOAD";
    case WireOp::kHealth:
      return "HEALTH";
    case WireOp::kMetrics:
      return "METRICS";
  }
  return "UNKNOWN";
}

const char* ServerHealthName(ServerHealth state) {
  switch (state) {
    case ServerHealth::kServing:
      return "SERVING";
    case ServerHealth::kDraining:
      return "DRAINING";
  }
  return "UNKNOWN";
}

// --- framing ---------------------------------------------------------------

uint64_t WireBodyChecksum(std::string_view body) {
  return static_cast<uint64_t>(Crc32c(body));
}

void EncodeFrameHeaderTo(WireOp op, uint64_t request_id,
                         std::string_view body, char out[kWireHeaderSize]) {
  char* p = out;
  auto put = [&p](const void* v, size_t n) {
    std::memcpy(p, v, n);
    p += n;
  };
  put(kWireMagic, sizeof(kWireMagic));
  put(&kWireProtocolVersion, sizeof(kWireProtocolVersion));
  const auto op_raw = static_cast<uint32_t>(op);
  put(&op_raw, sizeof(op_raw));
  put(&request_id, sizeof(request_id));
  const uint64_t size = body.size();
  put(&size, sizeof(size));
  const uint64_t checksum = WireBodyChecksum(body);
  put(&checksum, sizeof(checksum));
}

std::string EncodeFrameHeader(WireOp op, uint64_t request_id,
                              std::string_view body) {
  char header[kWireHeaderSize];
  EncodeFrameHeaderTo(op, request_id, body, header);
  return std::string(header, sizeof(header));
}

std::string EncodeFrame(WireOp op, uint64_t request_id,
                        std::string_view body) {
  std::string frame = EncodeFrameHeader(op, request_id, body);
  frame.append(body.data(), body.size());
  return frame;
}

bool DecodeFrameHeader(std::string_view header, WireOp* op,
                       uint64_t* request_id, uint64_t* body_size,
                       uint64_t* body_checksum, std::string* error,
                       uint64_t max_body_bytes) {
  if (header.size() != kWireHeaderSize) {
    return SetError(error, "frame header must be exactly 36 bytes");
  }
  ByteReader r(header);
  uint32_t magic = 0;
  uint32_t expected_magic = 0;
  std::memcpy(&expected_magic, kWireMagic, sizeof(kWireMagic));
  if (!r.U32(&magic) || magic != expected_magic) {
    return SetError(error, "bad frame magic");
  }
  uint32_t version = 0;
  if (!r.U32(&version) || version != kWireProtocolVersion) {
    return SetError(error, "unsupported protocol version");
  }
  uint32_t raw_op = 0;
  if (!r.U32(&raw_op) || raw_op < static_cast<uint32_t>(WireOp::kQueryBatch) ||
      raw_op > static_cast<uint32_t>(WireOp::kMetrics)) {
    return SetError(error, "unknown op code");
  }
  r.U64(request_id);
  r.U64(body_size);
  r.U64(body_checksum);
  if (*body_size > max_body_bytes) {
    return SetError(error, "frame body exceeds size limit");
  }
  *op = static_cast<WireOp>(raw_op);
  return true;
}

bool VerifyFrameBody(std::string_view body, uint64_t expected_checksum,
                     std::string* error) {
  if (WireBodyChecksum(body) != expected_checksum) {
    return SetError(error, "frame body checksum mismatch");
  }
  return true;
}

bool DecodeFrame(std::string_view bytes, WireFrame* out, std::string* error) {
  if (bytes.size() < kWireHeaderSize) {
    return SetError(error, "truncated frame header");
  }
  uint64_t body_size = 0;
  uint64_t checksum = 0;
  if (!DecodeFrameHeader(bytes.substr(0, kWireHeaderSize), &out->op,
                         &out->request_id, &body_size, &checksum, error)) {
    return false;
  }
  const std::string_view body = bytes.substr(kWireHeaderSize);
  if (body.size() != body_size) {
    return SetError(error, "frame body size does not match header");
  }
  if (!VerifyFrameBody(body, checksum, error)) return false;
  out->body.assign(body.data(), body.size());
  return true;
}

// --- QUERY_BATCH -----------------------------------------------------------

namespace {

void AppendQueryBatchRequest(ByteWriter& w, const std::string& name,
                             std::span<const Rect> queries) {
  w.Str(name);
  w.U32(2);
  w.U64(queries.size());
  for (const Rect& q : queries) {
    w.F64(q.xlo);
    w.F64(q.ylo);
    w.F64(q.xhi);
    w.F64(q.yhi);
  }
}

void AppendQueryBatchRequestNd(ByteWriter& w, const std::string& name,
                               uint32_t dims, std::span<const BoxNd> queries) {
  w.Str(name);
  w.U32(dims);
  w.U64(queries.size());
  for (const BoxNd& q : queries) {
    // Indexing below trusts the shared dimensionality; a shorter box
    // would read past its bounds.
    DPGRID_CHECK_MSG(q.dims() == dims,
                     "all queries in a batch must share `dims`");
    for (size_t a = 0; a < dims; ++a) w.F64(q.lo(a));
    for (size_t a = 0; a < dims; ++a) w.F64(q.hi(a));
  }
}

}  // namespace

std::string EncodeQueryBatchRequest(const std::string& name,
                                    std::span<const Rect> queries) {
  ByteWriter w;
  AppendQueryBatchRequest(w, name, queries);
  return std::move(w).Take();
}

std::string EncodeQueryBatchRequestNd(const std::string& name, uint32_t dims,
                                      std::span<const BoxNd> queries) {
  ByteWriter w;
  AppendQueryBatchRequestNd(w, name, dims, queries);
  return std::move(w).Take();
}

void EncodeQueryBatchRequestTo(const std::string& name,
                               std::span<const Rect> queries,
                               std::string* out) {
  ByteWriter w(std::move(*out));
  AppendQueryBatchRequest(w, name, queries);
  *out = std::move(w).Take();
}

void EncodeQueryBatchRequestNdTo(const std::string& name, uint32_t dims,
                                 std::span<const BoxNd> queries,
                                 std::string* out) {
  ByteWriter w(std::move(*out));
  AppendQueryBatchRequestNd(w, name, dims, queries);
  *out = std::move(w).Take();
}

bool DecodeQueryBatchRequest(std::string_view body, QueryBatchRequest* out,
                             std::string* error, size_t max_queries,
                             WireStatus* reject_status) {
  if (reject_status != nullptr) {
    *reject_status = WireStatus::kMalformedRequest;
  }
  // Decode straight into *out so a reused request object's buffers keep
  // their capacity across frames.
  QueryBatchRequest& req = *out;
  req.name.clear();
  req.queries.clear();
  req.queries_nd.clear();
  ByteReader r(body);
  if (!r.Str(&req.name)) {
    return SetError(error, "truncated name: " + r.error());
  }
  if (!SnapshotStore::ValidName(req.name)) {
    return SetError(error, "invalid synopsis name");
  }
  if (!r.U32(&req.dims)) {
    return SetError(error, "truncated dims: " + r.error());
  }
  if (req.dims == 0 || req.dims > kWireMaxDims) {
    return SetError(error, "dims out of range");
  }
  uint64_t count = 0;
  if (!r.U64(&count)) {
    return SetError(error, "truncated query count: " + r.error());
  }
  if (count > max_queries) {
    if (reject_status != nullptr) *reject_status = WireStatus::kTooLarge;
    return SetError(error, "batch of " + std::to_string(count) +
                               " queries exceeds limit of " +
                               std::to_string(max_queries));
  }
  const size_t per_query = 2 * static_cast<size_t>(req.dims) * sizeof(double);
  if (count > r.remaining() / per_query) {
    return SetError(error, "query count exceeds body size");
  }
  if (req.dims == 2) {
    req.queries.resize(static_cast<size_t>(count));
    for (Rect& q : req.queries) {
      r.F64(&q.xlo);
      r.F64(&q.ylo);
      r.F64(&q.xhi);
      r.F64(&q.yhi);
    }
  } else {
    req.queries_nd.reserve(static_cast<size_t>(count));
    std::vector<double> lo(req.dims);
    std::vector<double> hi(req.dims);
    for (uint64_t i = 0; i < count; ++i) {
      for (double& v : lo) r.F64(&v);
      for (double& v : hi) r.F64(&v);
      req.queries_nd.emplace_back(lo, hi);
    }
  }
  if (!r.ok()) {
    return SetError(error, "truncated queries: " + r.error());
  }
  if (r.remaining() != 0) {
    return SetError(error, "trailing bytes in request body");
  }
  // The engine's coordinate-to-cell casts assume finite inputs (a NaN
  // would sail through std::clamp into a float-to-index cast). In-process
  // callers are trusted; bytes off a socket are not — reject here.
  for (const Rect& q : req.queries) {
    if (!std::isfinite(q.xlo) || !std::isfinite(q.ylo) ||
        !std::isfinite(q.xhi) || !std::isfinite(q.yhi)) {
      return SetError(error, "non-finite query coordinate");
    }
  }
  for (const BoxNd& q : req.queries_nd) {
    for (size_t a = 0; a < q.dims(); ++a) {
      if (!std::isfinite(q.lo(a)) || !std::isfinite(q.hi(a))) {
        return SetError(error, "non-finite query coordinate");
      }
    }
  }
  return true;
}

namespace {

void AppendQueryBatchOkBody(ByteWriter& w, uint64_t version,
                            std::span<const double> answers) {
  w.U32(static_cast<uint32_t>(WireStatus::kOk));
  w.Str("");
  w.U64(version);
  w.U64(answers.size());
  for (double a : answers) w.F64(a);
}

}  // namespace

std::string EncodeQueryBatchOkBody(uint64_t version,
                                   std::span<const double> answers) {
  ByteWriter w;
  AppendQueryBatchOkBody(w, version, answers);
  return std::move(w).Take();
}

void EncodeQueryBatchOkBodyTo(uint64_t version,
                              std::span<const double> answers,
                              std::string* out) {
  ByteWriter w(std::move(*out));
  AppendQueryBatchOkBody(w, version, answers);
  *out = std::move(w).Take();
}

bool DecodeQueryBatchResponse(std::string_view body, QueryBatchResponse* out,
                              std::string* error) {
  ByteReader r(body);
  QueryBatchResponse resp;
  if (!ReadStatusPrefix(&r, &resp.status, &resp.message, error)) return false;
  if (resp.status != WireStatus::kOk) {
    if (!FinishErrorResponse(r, error)) return false;
    *out = std::move(resp);
    return true;
  }
  if (!r.U64(&resp.version) || !r.F64Vec(&resp.answers)) {
    return SetError(error, "truncated query response: " + r.error());
  }
  if (r.remaining() != 0) {
    return SetError(error, "trailing bytes in query response");
  }
  *out = std::move(resp);
  return true;
}

// --- LIST_SYNOPSES ---------------------------------------------------------

std::string EncodeListOkBody(std::span<const CatalogEntryInfo> entries) {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(WireStatus::kOk));
  w.Str("");
  w.U64(entries.size());
  for (const CatalogEntryInfo& e : entries) {
    w.Str(e.name);
    w.U64(e.version);
    w.U32(e.dims);
    w.Str(e.synopsis_name);
    w.F64(e.epsilon);
    w.Str(e.label);
  }
  return std::move(w).Take();
}

bool DecodeListResponse(std::string_view body, ListResponse* out,
                        std::string* error) {
  ByteReader r(body);
  ListResponse resp;
  if (!ReadStatusPrefix(&r, &resp.status, &resp.message, error)) return false;
  if (resp.status != WireStatus::kOk) {
    if (!FinishErrorResponse(r, error)) return false;
    *out = std::move(resp);
    return true;
  }
  uint64_t count = 0;
  if (!r.U64(&count)) {
    return SetError(error, "truncated entry count: " + r.error());
  }
  // Each entry is at least 3 length prefixes + u64 + u32 + f64.
  if (count > r.remaining() / (3 * sizeof(uint32_t) + 20)) {
    return SetError(error, "entry count exceeds body size");
  }
  resp.entries.resize(static_cast<size_t>(count));
  for (CatalogEntryInfo& e : resp.entries) {
    r.Str(&e.name);
    r.U64(&e.version);
    r.U32(&e.dims);
    r.Str(&e.synopsis_name);
    r.F64(&e.epsilon);
    r.Str(&e.label);
  }
  if (!r.ok()) {
    return SetError(error, "truncated list entry: " + r.error());
  }
  if (r.remaining() != 0) {
    return SetError(error, "trailing bytes in list response");
  }
  *out = std::move(resp);
  return true;
}

// --- STATS -----------------------------------------------------------------

std::string EncodeStatsOkBody(const WireStats& stats) {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(WireStatus::kOk));
  w.Str("");
  // The body stays the bare counters in struct order (no count prefix);
  // the table just guarantees encoder, decoder, and every label consumer
  // agree on that order.
  for (const WireStatsField& f : kWireStatsFields) w.U64(stats.*f.field);
  return std::move(w).Take();
}

bool DecodeStatsResponse(std::string_view body, StatsResponse* out,
                         std::string* error) {
  ByteReader r(body);
  StatsResponse resp;
  if (!ReadStatusPrefix(&r, &resp.status, &resp.message, error)) return false;
  if (resp.status != WireStatus::kOk) {
    if (!FinishErrorResponse(r, error)) return false;
    *out = std::move(resp);
    return true;
  }
  for (const WireStatsField& f : kWireStatsFields) r.U64(&(resp.stats.*f.field));
  if (!r.ok()) {
    return SetError(error, "truncated stats response: " + r.error());
  }
  if (r.remaining() != 0) {
    return SetError(error, "trailing bytes in stats response");
  }
  *out = std::move(resp);
  return true;
}

// --- RELOAD ----------------------------------------------------------------

std::string EncodeReloadOkBody(uint64_t installed) {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(WireStatus::kOk));
  w.Str("");
  w.U64(installed);
  return std::move(w).Take();
}

bool DecodeReloadResponse(std::string_view body, ReloadResponse* out,
                          std::string* error) {
  ByteReader r(body);
  ReloadResponse resp;
  if (!ReadStatusPrefix(&r, &resp.status, &resp.message, error)) return false;
  if (resp.status != WireStatus::kOk) {
    if (!FinishErrorResponse(r, error)) return false;
    *out = std::move(resp);
    return true;
  }
  if (!r.U64(&resp.installed)) {
    return SetError(error, "truncated reload response: " + r.error());
  }
  if (r.remaining() != 0) {
    return SetError(error, "trailing bytes in reload response");
  }
  *out = std::move(resp);
  return true;
}

// --- HEALTH ----------------------------------------------------------------

std::string EncodeHealthOkBody(ServerHealth state,
                               uint64_t active_connections) {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(WireStatus::kOk));
  w.Str("");
  w.U32(static_cast<uint32_t>(state));
  w.U64(active_connections);
  return std::move(w).Take();
}

bool DecodeHealthResponse(std::string_view body, HealthResponse* out,
                          std::string* error) {
  ByteReader r(body);
  HealthResponse resp;
  if (!ReadStatusPrefix(&r, &resp.status, &resp.message, error)) return false;
  if (resp.status != WireStatus::kOk) {
    if (!FinishErrorResponse(r, error)) return false;
    *out = std::move(resp);
    return true;
  }
  uint32_t raw_state = 0;
  if (!r.U32(&raw_state) || !r.U64(&resp.active_connections)) {
    return SetError(error, "truncated health response: " + r.error());
  }
  if (raw_state > static_cast<uint32_t>(ServerHealth::kDraining)) {
    return SetError(error, "unknown server health state");
  }
  resp.state = static_cast<ServerHealth>(raw_state);
  if (r.remaining() != 0) {
    return SetError(error, "trailing bytes in health response");
  }
  *out = std::move(resp);
  return true;
}

// --- METRICS ---------------------------------------------------------------

namespace {

void EncodeHistogram(ByteWriter* w, const obs::HistogramSnapshot& h) {
  w->U64(h.count);
  w->U64(h.sum_us);
  w->U64(h.max_us);
  w->U32(static_cast<uint32_t>(obs::kHistogramBuckets));
  for (uint64_t b : h.buckets) w->U64(b);
}

// Strict: client and server ship together, so a bucket-count mismatch is
// corruption or version skew, not something to paper over.
bool DecodeHistogram(ByteReader* r, obs::HistogramSnapshot* h,
                     std::string* error) {
  uint32_t buckets = 0;
  if (!r->U64(&h->count) || !r->U64(&h->sum_us) || !r->U64(&h->max_us) ||
      !r->U32(&buckets)) {
    return SetError(error, "truncated histogram: " + r->error());
  }
  if (buckets != obs::kHistogramBuckets) {
    return SetError(error, "unexpected histogram bucket count");
  }
  for (size_t i = 0; i < obs::kHistogramBuckets; ++i) {
    if (!r->U64(&h->buckets[i])) {
      return SetError(error, "truncated histogram buckets: " + r->error());
    }
  }
  return true;
}

// Smallest possible wire footprint of one histogram; used to bound
// claimed element counts against the bytes actually present.
constexpr uint64_t kWireHistogramBytes =
    3 * 8 + 4 + obs::kHistogramBuckets * 8;

}  // namespace

std::string EncodeMetricsOkBody(const WireStats& stats,
                                const obs::MetricsSnapshot& metrics) {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(WireStatus::kOk));
  w.Str("");

  w.U32(static_cast<uint32_t>(kNumWireStatsFields));
  for (const WireStatsField& f : kWireStatsFields) w.U64(stats.*f.field);

  w.U64(metrics.slow_frame_us);
  w.U64(metrics.slow_frames);
  w.U64(metrics.engine_batches);
  w.U64(metrics.engine_queries);
  w.U64(metrics.engine_batches_2d);
  w.U64(metrics.engine_queries_2d);
  w.U64(metrics.engine_batches_nd);
  w.U64(metrics.engine_queries_nd);
  w.U64(metrics.engine_batches_sharded);

  w.U32(static_cast<uint32_t>(metrics.ops.size()));
  for (const obs::OpMetricsSnapshot& o : metrics.ops) {
    w.U32(o.op);
    w.Str(o.name);
    w.U64(o.requests);
    w.U64(o.errors);
    w.U64(o.bytes_in);
    w.U64(o.bytes_out);
    EncodeHistogram(&w, o.latency);
  }

  w.U32(static_cast<uint32_t>(metrics.stages.size()));
  for (const obs::HistogramSnapshot& h : metrics.stages) {
    EncodeHistogram(&w, h);
  }

  w.U32(static_cast<uint32_t>(metrics.datasets.size()));
  for (const obs::DatasetMetricsSnapshot& d : metrics.datasets) {
    w.Str(d.name);
    w.U64(d.batches);
    w.U64(d.queries);
    w.U64(d.errors);
    EncodeHistogram(&w, d.engine_us);
  }

  w.U32(static_cast<uint32_t>(metrics.events.size()));
  for (const obs::EventSnapshot& e : metrics.events) {
    w.Str(e.name);
    w.U64(e.count);
    w.U64(e.last_unix_s);
  }

  w.U32(static_cast<uint32_t>(metrics.slow_traces.size()));
  for (const obs::FrameTrace& t : metrics.slow_traces) {
    w.U64(t.request_id);
    w.U32(t.op);
    w.U32(t.queries);
    w.Str(t.DatasetString());
    w.U64(t.unix_s);
    w.U32(static_cast<uint32_t>(obs::kNumStages));
    for (uint64_t us : t.stage_us) w.U64(us);
  }
  return std::move(w).Take();
}

bool DecodeMetricsResponse(std::string_view body, MetricsResponse* out,
                           std::string* error) {
  ByteReader r(body);
  MetricsResponse resp;
  if (!ReadStatusPrefix(&r, &resp.status, &resp.message, error)) return false;
  if (resp.status != WireStatus::kOk) {
    if (!FinishErrorResponse(r, error)) return false;
    *out = std::move(resp);
    return true;
  }

  uint32_t counter_count = 0;
  if (!r.U32(&counter_count)) {
    return SetError(error, "truncated metrics response: " + r.error());
  }
  if (counter_count != kNumWireStatsFields) {
    return SetError(error, "unexpected metrics counter count");
  }
  for (const WireStatsField& f : kWireStatsFields) {
    if (!r.U64(&(resp.stats.*f.field))) {
      return SetError(error, "truncated metrics counters: " + r.error());
    }
  }

  obs::MetricsSnapshot& m = resp.metrics;
  if (!r.U64(&m.slow_frame_us) || !r.U64(&m.slow_frames) ||
      !r.U64(&m.engine_batches) || !r.U64(&m.engine_queries) ||
      !r.U64(&m.engine_batches_2d) || !r.U64(&m.engine_queries_2d) ||
      !r.U64(&m.engine_batches_nd) || !r.U64(&m.engine_queries_nd) ||
      !r.U64(&m.engine_batches_sharded)) {
    return SetError(error, "truncated metrics response: " + r.error());
  }

  uint32_t op_count = 0;
  if (!r.U32(&op_count)) {
    return SetError(error, "truncated metrics ops: " + r.error());
  }
  // Minimum per-op footprint: u32 op + empty str (u32 len) + 4 u64 +
  // histogram.
  if (op_count > r.remaining() / (4 + 4 + 4 * 8 + kWireHistogramBytes)) {
    return SetError(error, "metrics op count exceeds body size");
  }
  m.ops.resize(op_count);
  for (obs::OpMetricsSnapshot& o : m.ops) {
    if (!r.U32(&o.op) || !r.Str(&o.name) || !r.U64(&o.requests) ||
        !r.U64(&o.errors) || !r.U64(&o.bytes_in) || !r.U64(&o.bytes_out)) {
      return SetError(error, "truncated metrics op: " + r.error());
    }
    if (!DecodeHistogram(&r, &o.latency, error)) return false;
  }

  uint32_t stage_count = 0;
  if (!r.U32(&stage_count)) {
    return SetError(error, "truncated metrics stages: " + r.error());
  }
  if (stage_count != obs::kNumStages) {
    return SetError(error, "unexpected metrics stage count");
  }
  m.stages.resize(stage_count);
  for (obs::HistogramSnapshot& h : m.stages) {
    if (!DecodeHistogram(&r, &h, error)) return false;
  }

  uint32_t dataset_count = 0;
  if (!r.U32(&dataset_count)) {
    return SetError(error, "truncated metrics datasets: " + r.error());
  }
  if (dataset_count > r.remaining() / (4 + 3 * 8 + kWireHistogramBytes)) {
    return SetError(error, "metrics dataset count exceeds body size");
  }
  m.datasets.resize(dataset_count);
  for (obs::DatasetMetricsSnapshot& d : m.datasets) {
    if (!r.Str(&d.name) || !r.U64(&d.batches) || !r.U64(&d.queries) ||
        !r.U64(&d.errors)) {
      return SetError(error, "truncated metrics dataset: " + r.error());
    }
    if (!DecodeHistogram(&r, &d.engine_us, error)) return false;
  }

  uint32_t event_count = 0;
  if (!r.U32(&event_count)) {
    return SetError(error, "truncated metrics events: " + r.error());
  }
  if (event_count > r.remaining() / (4 + 2 * 8)) {
    return SetError(error, "metrics event count exceeds body size");
  }
  m.events.resize(event_count);
  for (obs::EventSnapshot& e : m.events) {
    if (!r.Str(&e.name) || !r.U64(&e.count) || !r.U64(&e.last_unix_s)) {
      return SetError(error, "truncated metrics event: " + r.error());
    }
  }

  uint32_t trace_count = 0;
  if (!r.U32(&trace_count)) {
    return SetError(error, "truncated metrics traces: " + r.error());
  }
  // u64 id + u32 op + u32 queries + empty str + u64 unix_s + u32 stage
  // count + kNumStages u64.
  if (trace_count >
      r.remaining() / (8 + 4 + 4 + 4 + 8 + 4 + obs::kNumStages * 8)) {
    return SetError(error, "metrics trace count exceeds body size");
  }
  m.slow_traces.resize(trace_count);
  for (obs::FrameTrace& t : m.slow_traces) {
    std::string dataset;
    uint32_t trace_stages = 0;
    if (!r.U64(&t.request_id) || !r.U32(&t.op) || !r.U32(&t.queries) ||
        !r.Str(&dataset) || !r.U64(&t.unix_s) || !r.U32(&trace_stages)) {
      return SetError(error, "truncated metrics trace: " + r.error());
    }
    if (trace_stages != obs::kNumStages) {
      return SetError(error, "unexpected metrics trace stage count");
    }
    t.SetDataset(dataset);
    for (size_t s = 0; s < obs::kNumStages; ++s) {
      if (!r.U64(&t.stage_us[s])) {
        return SetError(error, "truncated metrics trace stages: " + r.error());
      }
    }
  }

  if (r.remaining() != 0) {
    return SetError(error, "trailing bytes in metrics response");
  }
  *out = std::move(resp);
  return true;
}

// --- shared error body -----------------------------------------------------

std::string EncodeErrorBody(WireStatus status, std::string_view message) {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(status));
  w.Str(std::string(message));
  return std::move(w).Take();
}

uint32_t ParseRetryAfterMs(std::string_view message) {
  constexpr std::string_view kKey = "retry_after_ms=";
  const size_t pos = message.find(kKey);
  if (pos == std::string_view::npos) return 0;
  uint64_t value = 0;
  bool any = false;
  for (size_t i = pos + kKey.size(); i < message.size(); ++i) {
    const char c = message[i];
    if (c < '0' || c > '9') break;
    any = true;
    value = value * 10 + static_cast<uint64_t>(c - '0');
    if (value > 60'000) return 60'000;  // clamp hints to one minute
  }
  return any ? static_cast<uint32_t>(value) : 0;
}

}  // namespace dpgrid
