#ifndef DPGRID_SERVER_CLIENT_H_
#define DPGRID_SERVER_CLIENT_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "server/wire.h"

namespace dpgrid {

/// Resilience knobs for QueryClient. Zero/negative disables a knob.
struct QueryClientOptions {
  /// Per-candidate TCP connect budget; on expiry the next resolved
  /// address is tried. <= 0 waits however long the kernel does.
  int connect_timeout_ms = 5'000;
  /// Budget for one request/response exchange (send + receive). A server
  /// that stalls past it costs one closed connection, not a hung caller.
  int request_deadline_ms = 10'000;
  /// Automatic reconnect-and-resend attempts after a transport-level
  /// failure of an idempotent request (everything except Reload). Each
  /// attempt is a complete fresh request, so the one-version-per-batch
  /// guarantee holds per attempt; 0 disables retrying.
  int max_retries = 2;
  /// Exponential backoff schedule between attempts: attempt n sleeps
  /// min(backoff_max_ms, backoff_initial_ms << n), jittered to
  /// [0.5, 1.5) of itself. A kOverloaded retry_after_ms hint raises the
  /// sleep to at least the hint.
  int backoff_initial_ms = 50;
  int backoff_max_ms = 2'000;
  /// Seed for the backoff jitter — a fixed default keeps tests
  /// deterministic; give each production client its own seed so a
  /// thundering herd decorrelates.
  uint64_t jitter_seed = 1;
};

/// Blocking client for the DPGW wire protocol: one TCP connection, one
/// outstanding request at a time.
///
/// Every call returns true only when the server answered with status OK;
/// a wire-level error (NOT_FOUND, WRONG_DIMS, ...) returns false with
/// *status and *error carrying the server's code and message, and the
/// connection stays usable. Transport failures (connection reset, request
/// deadline exceeded, malformed response, overload shed) close the
/// connection — and, for idempotent operations, are retried automatically
/// against a fresh connection per QueryClientOptions. Reload is never
/// retried: its side effect may have landed even when the response did
/// not.
///
/// Not thread-safe: use one QueryClient per thread (connections are
/// cheap; the server multiplexes them all on one event loop).
class QueryClient {
 public:
  QueryClient() = default;
  explicit QueryClient(QueryClientOptions options)
      : options_(options), jitter_state_(options.jitter_seed) {}
  ~QueryClient();

  QueryClient(const QueryClient&) = delete;
  QueryClient& operator=(const QueryClient&) = delete;

  bool Connect(const std::string& host, uint16_t port, std::string* error);
  /// Re-dials the host/port of the last Connect. False (with *error) when
  /// there was no prior Connect or the dial fails.
  bool Reconnect(std::string* error);
  void Close();
  bool connected() const { return fd_ >= 0; }

  /// Largest frame body this client will send or accept (default: the
  /// protocol's 64 MiB cap). Raise it in step with a server configured
  /// for bigger batches; otherwise oversized requests fail before upload
  /// and huge responses are rejected as malformed.
  void set_max_body_bytes(uint64_t bytes) { max_body_bytes_ = bytes; }

  /// Answers a 2-D batch against `name`. On success *version is the single
  /// snapshot version all answers came from and *answers matches `queries`
  /// in length.
  bool QueryBatch(const std::string& name, std::span<const Rect> queries,
                  std::vector<double>* answers, uint64_t* version,
                  WireStatus* status, std::string* error);

  /// d-dimensional counterpart; every query must have dimensionality
  /// `dims` (checked — a mismatched box would be mis-serialized).
  bool QueryBatchNd(const std::string& name, uint32_t dims,
                    std::span<const BoxNd> queries,
                    std::vector<double>* answers, uint64_t* version,
                    WireStatus* status, std::string* error);

  /// Pipelined 2-D batching: slices `queries` into frames of `batch_size`
  /// and keeps up to `window` request frames in flight on the connection,
  /// interleaving non-blocking sends with response reads (so neither
  /// side's socket buffer can fill and deadlock the exchange). Responses
  /// arrive in request order; *answers lines up with `queries` and every
  /// frame must answer from the same snapshot version (a concurrent
  /// catalog reload mid-call fails the call — re-issue it). Any per-frame
  /// error is fatal to the whole call and closes the connection; there is
  /// no automatic retry. The per-exchange deadline re-arms on every byte
  /// of progress in either direction.
  bool QueryBatchPipelined(const std::string& name,
                           std::span<const Rect> queries, size_t batch_size,
                           size_t window, std::vector<double>* answers,
                           uint64_t* version, WireStatus* status,
                           std::string* error);

  /// Lists every synopsis the server catalog holds.
  bool ListSynopses(std::vector<CatalogEntryInfo>* entries,
                    std::string* error);

  /// Fetches the server's request counters.
  bool Stats(WireStats* stats, std::string* error);

  /// Fetches the server's full telemetry snapshot: the STATS counters
  /// plus per-op/per-dataset histograms, stage breakdowns, lifecycle
  /// events, and retained slow-frame traces. Against a server predating
  /// the METRICS op this fails loudly (the old server answers
  /// MALFORMED_FRAME and closes). Either out-param may be nullptr.
  bool Metrics(WireStats* stats, obs::MetricsSnapshot* metrics,
               std::string* error);

  /// Fetches the server's lifecycle state (SERVING/DRAINING) and live
  /// connection count. Against a server predating the HEALTH op this
  /// fails loudly (the old server answers MALFORMED_FRAME and closes).
  bool Health(ServerHealth* state, uint64_t* active_connections,
              std::string* error);

  /// Asks the server to reload its catalog from the snapshot store;
  /// *installed receives how many new versions became servable. Never
  /// retried automatically — a lost response does not prove the reload
  /// did not happen.
  bool Reload(uint64_t* installed, std::string* error);

 private:
  /// Sends one frame and reads the matching response frame (op and
  /// request id must echo). False on transport/framing failure (closes).
  /// Recognizes the server's unsolicited kOverloaded shed frame and
  /// records its retry-after hint for the retry loop.
  bool RoundTrip(WireOp op, const std::string& request_body,
                 std::string* response_body, std::string* error);

  /// Runs `attempt` with automatic reconnect + backoff per options_. An
  /// attempt that fails while the connection survives is a semantic
  /// error — surfaced immediately, never retried.
  bool WithRetries(const std::function<bool(std::string*)>& attempt,
                   std::string* error);

  /// Shared QUERY_BATCH tail: round trip, decode, status/answer-count
  /// checks, out-param fills. `expected_count` is the query count sent.
  bool RunQueryBatch(const std::string& request_body, size_t expected_count,
                     std::vector<double>* answers, uint64_t* version,
                     WireStatus* status, std::string* error);

  /// Surfaces a non-OK wire status; closes the connection when the server
  /// will have closed its end (MALFORMED_FRAME, OVERLOADED). Returns
  /// false.
  bool HandleWireError(WireStatus got, const std::string& message,
                       WireStatus* status, std::string* error);

  QueryClientOptions options_;
  int fd_ = -1;
  std::string host_;
  uint16_t port_ = 0;
  uint64_t next_request_id_ = 1;
  uint64_t max_body_bytes_ = kWireMaxBodyBytes;
  uint64_t jitter_state_ = 1;
  /// Retry-after hint from the most recent kOverloaded shed, consumed by
  /// the next backoff sleep; 0 when the last failure carried no hint.
  uint32_t retry_after_hint_ms_ = 0;
  /// Whether the last RoundTrip failed because the server shed the
  /// connection at admission (distinguishes OVERLOADED from kInternal in
  /// QueryBatch's status out-param).
  bool last_attempt_shed_ = false;
  // Reused across QueryBatch calls so steady-state batches encode and
  // receive without per-frame allocations (this client is per-thread
  // anyway; see the thread-safety note above).
  std::string request_scratch_;
  std::string response_scratch_;
};

}  // namespace dpgrid

#endif  // DPGRID_SERVER_CLIENT_H_
