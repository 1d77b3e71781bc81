#include "server/server.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/env.h"
#include "obs/log.h"
#include "server/event_loop.h"

#ifndef _WIN32
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace dpgrid {

QueryServer::QueryServer(SynopsisCatalog* catalog, const QueryEngine* engine,
                         QueryServerOptions options)
    : catalog_(catalog),
      engine_(engine),
      options_(std::move(options)),
      metrics_(options_.slow_trace_capacity) {
  metrics_.set_slow_frame_us(options_.slow_frame_us);
}

QueryServer::~QueryServer() { Shutdown(); }

WireStats QueryServer::StatsSnapshot() const {
  WireStats s;
  s.connections_accepted = connections_accepted_.load();
  s.frames_received = frames_received_.load();
  s.malformed_frames = malformed_frames_.load();
  s.batches_answered = batches_answered_.load();
  s.queries_answered = queries_answered_.load();
  s.errors_returned = errors_returned_.load();
  s.reloads_installed = reloads_installed_.load();
  s.connections_shed = connections_shed_.load();
  s.read_timeouts = read_timeouts_.load();
  s.idle_timeouts = idle_timeouts_.load();
  return s;
}

obs::MetricsSnapshot QueryServer::MetricsSnapshotNow() const {
  obs::MetricsSnapshot m = metrics_.Snapshot();
  for (obs::OpMetricsSnapshot& o : m.ops) {
    if (o.op >= static_cast<uint32_t>(WireOp::kQueryBatch) &&
        o.op <= static_cast<uint32_t>(WireOp::kMetrics)) {
      o.name = WireOpName(static_cast<WireOp>(o.op));
    }
  }
  m.engine_batches = engine_->batches_answered();
  m.engine_queries = engine_->queries_answered();
  m.engine_batches_2d = engine_->batches_answered_2d();
  m.engine_queries_2d = engine_->queries_answered_2d();
  m.engine_batches_nd = engine_->batches_answered_nd();
  m.engine_queries_nd = engine_->queries_answered_nd();
  m.engine_batches_sharded = engine_->batches_sharded();
  m.events = catalog_->EventsSnapshot();
  return m;
}

#ifndef _WIN32

bool QueryServer::Start(std::string* error) {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (started_) {
    if (error != nullptr) *error = "server already started";
    return false;
  }
  // Operational override for the slow-frame threshold (negative values
  // clamp to 0, which disables trace retention).
  options_.slow_frame_us = static_cast<uint64_t>(std::max<int64_t>(
      0, EnvInt64("DPGRID_SLOW_FRAME_US",
                  static_cast<int64_t>(options_.slow_frame_us))));
  metrics_.set_slow_frame_us(options_.slow_frame_us);
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    if (error != nullptr) {
      *error = std::string("socket: ") + std::strerror(errno);
    }
    return false;
  }
  int one = 1;
  if (::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                   sizeof(one)) != 0) {
    // Restart-after-crash rebinding is a correctness property for a
    // drain-and-restart deploy loop, so a kernel that refuses it is
    // worth failing loudly over rather than hitting EADDRINUSE later.
    if (error != nullptr) {
      *error = std::string("setsockopt(SO_REUSEADDR): ") +
               std::strerror(errno);
    }
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    if (error != nullptr) {
      *error = "bad bind address: " + options_.bind_address;
    }
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, options_.backlog) != 0) {
    if (error != nullptr) {
      *error = "cannot listen on " + options_.bind_address + ":" +
               std::to_string(options_.port) + ": " + std::strerror(errno);
    }
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  draining_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  loop_connections_.store(0, std::memory_order_relaxed);
  loop_ = std::make_unique<internal::EventLoopServer>(this, listen_fd_);
  // Replaced synopses are freed on the loader lane, never inside a query
  // frame that happened to hold the last reference.
  catalog_->retire_queue().SetDrainer(
      [loop = loop_.get()] { loop->FreeRetiredSoon(); });
  if (!loop_->Start(error)) {
    catalog_->retire_queue().SetDrainer(nullptr);
    loop_.reset();
    ::close(listen_fd_);  // Start failure means the loop never adopted it
    listen_fd_ = -1;
    running_.store(false, std::memory_order_release);
    return false;
  }
  started_ = true;
  return true;
}

void QueryServer::Shutdown() { DoShutdown(0); }

bool QueryServer::Shutdown(const DrainOptions& drain) {
  return DoShutdown(drain.deadline_ms > 0 ? drain.deadline_ms : 0);
}

bool QueryServer::DoShutdown(int drain_ms) {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (!started_) return true;
  // draining_ goes up before the loop stops so any HEALTH frame served
  // during the drain window already reports DRAINING.
  if (drain_ms > 0) draining_.store(true, std::memory_order_release);
  // The loop owns the listen fd and every connection; Stop() closes the
  // listener, drains (or cuts) connections, and joins the loop and
  // handler thread.
  const bool drained = loop_->Stop(drain_ms);
  catalog_->retire_queue().SetDrainer(nullptr);
  catalog_->retire_queue().FreeAll();
  loop_.reset();
  listen_fd_ = -1;
  loop_connections_.store(0, std::memory_order_relaxed);
  running_.store(false, std::memory_order_release);
  draining_.store(false, std::memory_order_release);
  started_ = false;
  return drained;
}

#else  // _WIN32

bool QueryServer::Start(std::string* error) {
  if (error != nullptr) {
    *error = "QueryServer requires POSIX sockets on this platform";
  }
  return false;
}

void QueryServer::Shutdown() {}
bool QueryServer::Shutdown(const DrainOptions&) { return true; }
bool QueryServer::DoShutdown(int) { return true; }

#endif  // _WIN32

void QueryServer::DispatchFrame(WireOp op, const std::string& body,
                                ConnectionScratch* scratch,
                                obs::FrameTrace* trace) {
  // Counted at dispatch entry, not exit, so a METRICS frame's own request
  // is already in the snapshot it serves.
  metrics_.OnRequest(static_cast<uint32_t>(op),
                     kWireHeaderSize + body.size());
  if (trace != nullptr) trace->op = static_cast<uint32_t>(op);
  WireStatus status = WireStatus::kOk;
  std::string& response_body = scratch->response_body;
  response_body.clear();
  switch (op) {
    case WireOp::kQueryBatch: {
      QueryBatchRequest& req = scratch->request;
      std::string error;
      // The decoder enforces max_batch_queries at the count field, so an
      // over-limit batch is rejected before its queries are parsed. It
      // decodes into the connection's reused request object, so a steady
      // stream of similar batches parses allocation-free.
      const uint64_t decode_start_us = obs::NowMicros();
      WireStatus reject = WireStatus::kMalformedRequest;
      if (!DecodeQueryBatchRequest(body, &req, &error,
                                   options_.max_batch_queries, &reject)) {
        if (trace != nullptr) {
          trace->stage_us[obs::kStageDecode] =
              obs::NowMicros() - decode_start_us;
        }
        status = reject;
        response_body = EncodeErrorBody(status, error);
        break;
      }
      const uint64_t engine_start_us = obs::NowMicros();
      if (trace != nullptr) {
        trace->stage_us[obs::kStageDecode] =
            engine_start_us - decode_start_us;
        trace->queries = static_cast<uint32_t>(
            std::min<size_t>(req.count(), UINT32_MAX));
        trace->SetDataset(req.name);
      }
      std::vector<double>& answers = scratch->answers;
      answers.resize(req.count());
      uint64_t version = 0;
      const CatalogStatus catalog_status =
          req.dims == 2
              ? catalog_->AnswerBatch(*engine_, req.name, req.queries,
                                      answers, &version)
              : catalog_->AnswerBatchNd(*engine_, req.name, req.dims,
                                        req.queries_nd, answers, &version);
      const uint64_t encode_start_us = obs::NowMicros();
      if (trace != nullptr) {
        trace->stage_us[obs::kStageEngine] =
            encode_start_us - engine_start_us;
      }
      metrics_.OnBatch(req.name, req.count(),
                       encode_start_us - engine_start_us,
                       catalog_status != CatalogStatus::kOk);
      switch (catalog_status) {
        case CatalogStatus::kOk:
          batches_answered_.fetch_add(1, std::memory_order_relaxed);
          queries_answered_.fetch_add(req.count(),
                                      std::memory_order_relaxed);
          EncodeQueryBatchOkBodyTo(version, answers, &response_body);
          break;
        case CatalogStatus::kNotFound:
          status = WireStatus::kNotFound;
          response_body = EncodeErrorBody(
              status, "no published synopsis named '" + req.name + "'");
          break;
        case CatalogStatus::kWrongDims:
          status = WireStatus::kWrongDims;
          response_body = EncodeErrorBody(
              status, "'" + req.name + "' does not serve " +
                          std::to_string(req.dims) + "-d queries");
          break;
      }
      if (trace != nullptr) {
        trace->stage_us[obs::kStageEncode] =
            obs::NowMicros() - encode_start_us;
      }
      break;
    }
    case WireOp::kListSynopses:
    case WireOp::kStats:
    case WireOp::kReload:
    case WireOp::kHealth:
    case WireOp::kMetrics: {
      // These ops carry no request payload; enforcing that keeps the
      // protocol strict instead of silently committing to
      // ignore-trailing-bytes semantics.
      const uint64_t handle_start_us = obs::NowMicros();
      if (!body.empty()) {
        status = WireStatus::kMalformedRequest;
        response_body = EncodeErrorBody(status, "request body must be empty");
      } else if (op == WireOp::kListSynopses) {
        response_body = EncodeListOkBody(catalog_->List());
      } else if (op == WireOp::kStats) {
        response_body = EncodeStatsOkBody(StatsSnapshot());
      } else if (op == WireOp::kHealth) {
        response_body = EncodeHealthOkBody(health(), active_connections());
      } else if (op == WireOp::kMetrics) {
        response_body =
            EncodeMetricsOkBody(StatsSnapshot(), MetricsSnapshotNow());
      } else {
        // Runs on the loader lane (event_loop.h), beside query frames.
        std::string errors;
        const size_t installed = catalog_->ReloadAll(&errors);
        RecordReloads(installed);
        if (errors.empty()) {
          response_body = EncodeReloadOkBody(installed);
        } else {
          // A name whose latest file cannot load must not read as "up to
          // date": the client gets INTERNAL with what did install.
          obs::Log(obs::LogLevel::kWarn, "reload_failed",
                   {{"versions_installed", std::to_string(installed)},
                    {"errors", errors}});
          status = WireStatus::kInternal;
          response_body = EncodeErrorBody(
              status, "reload installed " + std::to_string(installed) +
                          " version(s); failed: " + errors);
        }
      }
      // Bodyless ops have no decode/encode split worth separating; the
      // whole handling lands in the engine stage.
      if (trace != nullptr) {
        trace->stage_us[obs::kStageEngine] =
            obs::NowMicros() - handle_start_us;
      }
      break;
    }
  }
  if (status != WireStatus::kOk) {
    errors_returned_.fetch_add(1, std::memory_order_relaxed);
  }
  metrics_.OnResponse(static_cast<uint32_t>(op),
                      kWireHeaderSize + response_body.size(),
                      status != WireStatus::kOk);
}

}  // namespace dpgrid
