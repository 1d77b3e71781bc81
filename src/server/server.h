#ifndef DPGRID_SERVER_SERVER_H_
#define DPGRID_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "catalog/synopsis_catalog.h"
#include "obs/metrics.h"
#include "query/query_engine.h"
#include "server/wire.h"

namespace dpgrid {

namespace internal {
class EventLoopServer;
}  // namespace internal

/// Tuning knobs for QueryServer.
struct QueryServerOptions {
  /// Address to bind; loopback by default so a test or demo server is not
  /// reachable from the network unless asked to be.
  std::string bind_address = "127.0.0.1";
  /// Port to bind; 0 picks an ephemeral port (read it back via port()).
  uint16_t port = 0;
  int backlog = 64;
  /// Per-request cap on batch size; bigger batches get a TOO_LARGE error.
  size_t max_batch_queries = 1 << 20;
  /// Per-frame cap on body bytes, enforced before the body is read.
  uint64_t max_body_bytes = kWireMaxBodyBytes;

  // --- resilience knobs (0 disables each) ---------------------------------

  /// Once a frame's first byte has arrived, the whole frame (header +
  /// body) must arrive within this many milliseconds — the slow-loris
  /// bound. A stalled peer is cut off and counted in read_timeouts.
  int read_deadline_ms = 10'000;
  /// A connection with no new frame for this long is reaped (counted in
  /// idle_timeouts). Generous by default: idle pools are normal.
  int idle_timeout_ms = 300'000;
  /// A peer that takes no response bytes for this long is cut off, so it
  /// cannot pin its buffered responses.
  int write_deadline_ms = 10'000;
  /// Admission cap on concurrently served connections. Excess connections
  /// are accepted, answered with kOverloaded (+ retry_after_ms hint) and
  /// closed instead of silently stacking up.
  size_t max_connections = 1024;
  /// The hint carried in the kOverloaded response message.
  uint32_t overload_retry_after_ms = 100;

  // --- observability knobs ------------------------------------------------

  /// Frames slower (end to end) than this many microseconds are retained
  /// in the slow-trace ring served by the METRICS op; 0 disables
  /// retention. Start() lets the DPGRID_SLOW_FRAME_US env var override
  /// this value.
  uint64_t slow_frame_us = 10'000;
  /// How many slow-frame traces the ring retains (newest win).
  size_t slow_trace_capacity = 64;
};

/// How long a graceful Shutdown lets in-flight frames finish.
struct DrainOptions {
  int deadline_ms = 5'000;
};

/// Per-connection buffers reused across frames: the decoded request, the
/// answer vector, and the encoded response body keep their capacity
/// between requests, so a steady query stream allocates nothing per
/// frame. Oversized one-off buffers are released after the frame (see
/// kRetainedBodyCapacity in event_loop.cc).
struct ConnectionScratch {
  QueryBatchRequest request;
  std::vector<double> answers;
  std::string response_body;
};

/// A TCP query server speaking the DPGW wire protocol (wire.h) over POSIX
/// sockets: the network face of a SynopsisCatalog.
///
/// One epoll event loop (event_loop.h) multiplexes every connection:
/// non-blocking reads feed a per-connection frame state machine, completed
/// frames are dispatched to one handler thread (RELOAD frames to one
/// loader thread, so a reload's store work never holds up queries on
/// other connections), and responses are written back strictly in request
/// order, so one connection can pipeline up to 32 in-flight frames. QUERY_BATCH bodies route through
/// QueryEngine::AnswerAll against exactly one acquired snapshot version
/// (the catalog guarantees a batch is never split across versions), and
/// answers are bitwise-identical to calling the engine in-process on the
/// same snapshot — the wire carries raw IEEE doubles, no text round-trip.
///
/// Framing damage closes the connection after an error response (the
/// stream can no longer be trusted); semantic errors (unknown name, wrong
/// dims, oversized batch) fail only that request. Peers that stall
/// mid-frame, idle past their timeout, or arrive beyond max_connections
/// are shed (see the options above) so no well-formed-but-slow client can
/// pin server resources.
///
/// Shutdown() stops accepting, closes every connection, and joins all
/// threads; it is safe to call from any thread and runs automatically on
/// destruction. Shutdown(DrainOptions) first lets in-flight frames finish
/// (DRAINING via the HEALTH op) up to the deadline, then falls back to the
/// abrupt path for stragglers.
class QueryServer {
 public:
  /// `catalog` and `engine` are borrowed and must outlive the server.
  QueryServer(SynopsisCatalog* catalog, const QueryEngine* engine,
              QueryServerOptions options = {});
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Binds, listens, and starts the event loop. Returns false with
  /// *error set on socket failures (port in use, bad address, ...).
  bool Start(std::string* error);

  /// Abrupt stop: no new connections, every connection closed, all
  /// threads joined. Idempotent.
  void Shutdown();

  /// Graceful stop: stops accepting, lets each connection finish the
  /// frame it is currently reading or answering (new frames are refused
  /// — the server reports DRAINING via the HEALTH op meanwhile), and
  /// falls back to the abrupt path for connections still busy at the
  /// deadline. Returns true when every connection drained in time.
  bool Shutdown(const DrainOptions& drain);

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Lifecycle state as reported by the HEALTH op.
  ServerHealth health() const {
    return draining_.load(std::memory_order_acquire)
               ? ServerHealth::kDraining
               : ServerHealth::kServing;
  }

  /// Connections currently being served (shed ones are not counted).
  size_t active_connections() const {
    return loop_connections_.load(std::memory_order_relaxed);
  }

  /// The bound port (the actual one when options.port was 0); 0 before
  /// Start.
  uint16_t port() const { return port_; }

  /// Consistent-enough snapshot of the per-request metrics counters.
  WireStats StatsSnapshot() const;

  /// Full registry snapshot as served by the METRICS op: per-op and
  /// per-dataset counters and histograms from the registry, merged with
  /// the engine's batch/query counters and the catalog/store lifecycle
  /// events, with op names filled in from WireOpName.
  obs::MetricsSnapshot MetricsSnapshotNow() const;

  /// Credits `n` hot reloads to the STATS counters. The RELOAD op calls
  /// this internally; external reload drivers (e.g. dpgrid_server's
  /// DPGRID_RELOAD_SECS poll, which reloads the catalog directly) must
  /// call it too, or STATS under-reports poll-driven installs.
  void RecordReloads(uint64_t n) {
    reloads_installed_.fetch_add(n, std::memory_order_relaxed);
  }

 private:
  friend class internal::EventLoopServer;

  /// Shared Shutdown tail; drain_ms <= 0 is the abrupt path. Returns
  /// true when no connection had to be cut off.
  bool DoShutdown(int drain_ms);
  /// Dispatches one verified frame into scratch->response_body (the
  /// caller frames it, writing header and body without another payload
  /// copy). Records per-op request/response metrics; when `trace` is
  /// non-null its decode/engine/encode stage timings and query count are
  /// filled in (the caller owns read/queue/write timing and the final
  /// OnFrameDone).
  void DispatchFrame(WireOp op, const std::string& body,
                     ConnectionScratch* scratch,
                     obs::FrameTrace* trace = nullptr);

  SynopsisCatalog* catalog_;
  const QueryEngine* engine_;
  QueryServerOptions options_;
  obs::MetricsRegistry metrics_;

  // Serializes Start/Shutdown; `started_` is only touched under it.
  std::mutex lifecycle_mu_;
  bool started_ = false;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  // Set for the drain window of Shutdown(DrainOptions) so HEALTH frames
  // already in flight report DRAINING.
  std::atomic<bool> draining_{false};

  // The loop owns listen_fd_ once started. `loop_connections_` mirrors
  // the loop's live-connection count so active_connections() stays
  // lock-free for the lane threads.
  std::unique_ptr<internal::EventLoopServer> loop_;
  std::atomic<size_t> loop_connections_{0};

  // Per-request metrics (served by the STATS op).
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> frames_received_{0};
  std::atomic<uint64_t> malformed_frames_{0};
  std::atomic<uint64_t> batches_answered_{0};
  std::atomic<uint64_t> queries_answered_{0};
  std::atomic<uint64_t> errors_returned_{0};
  std::atomic<uint64_t> reloads_installed_{0};
  std::atomic<uint64_t> connections_shed_{0};
  std::atomic<uint64_t> read_timeouts_{0};
  std::atomic<uint64_t> idle_timeouts_{0};
};

}  // namespace dpgrid

#endif  // DPGRID_SERVER_SERVER_H_
