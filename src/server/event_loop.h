#ifndef DPGRID_SERVER_EVENT_LOOP_H_
#define DPGRID_SERVER_EVENT_LOOP_H_

// The epoll serving engine behind QueryServer.
//
// One loop thread owns the listen socket, an epoll set, and every
// connection's read/write state; connections are non-blocking throughout.
// Each connection runs a frame state machine (header -> body -> verify)
// over reused buffers, and may have up to kMaxPipelineFrames in flight:
// completed frames queue onto the connection, and two lanes serve them.
// The loader lane's one thread serves RELOAD frames, whose store work
// (read, decode, restore, index build) takes tens of milliseconds; the
// handler lane's one thread serves every other op. So a reload never
// queues in front of query frames from other connections. A connection
// sits on at most one lane at a time (handler_active), chosen by its
// front frame, so its ConnectionScratch stays single-writer and its
// responses come out in request order by construction: frames pipelined
// behind a RELOAD wait for it. Each lane serves one frame per turn and
// then routes the connection again, to the back of the lane its next
// frame belongs on, so a connection that pipelines many frames cannot
// starve the others. Between RELOADs the loader also frees the synopses
// of replaced releases, so a query frame that held the last reference to
// one never pays for it. The loop appends finished responses to a
// per-connection write buffer (in order) and flushes it as the socket
// accepts bytes.
//
// Per-frame read deadlines run from the first header byte; idle
// connections are reaped; a peer that stops taking response bytes hits a
// write-progress deadline; connections beyond max_connections get the
// kOverloaded verdict; and a graceful drain still answers frames whose
// bytes already arrived, a RELOAD in flight on the loader included.

#ifndef _WIN32

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/server.h"
#include "server/socket_io.h"
#include "server/wire.h"

namespace dpgrid {
namespace internal {

/// Frames one connection may have in flight — read but not yet written
/// back — before the loop stops reading from it. The pipelining depth and
/// the per-connection memory bound.
inline constexpr size_t kMaxPipelineFrames = 32;

class EventLoopServer {
 public:
  /// `server` is borrowed; `listen_fd` is adopted (the loop closes it).
  EventLoopServer(QueryServer* server, int listen_fd);
  ~EventLoopServer();

  EventLoopServer(const EventLoopServer&) = delete;
  EventLoopServer& operator=(const EventLoopServer&) = delete;

  /// Creates the epoll set, the two lane threads, and the loop thread.
  bool Start(std::string* error);

  /// Stops the engine and joins every thread. drain_ms > 0 first lets
  /// in-flight frames finish; returns true when every connection drained
  /// in time (trivially true for the abrupt path). The abrupt path still
  /// waits for a lane's frame in progress, at most one ReloadAll, and
  /// drops its response with the dead connection.
  bool Stop(int drain_ms);

  /// Asks the loader lane to free the catalog's retired synopses once it
  /// has no RELOAD to serve. Only signals, so any thread may call it.
  void FreeRetiredSoon();

 private:
  // One frame read off the wire, queued for a lane. A frame that failed
  // verification still travels the queue (malformed = true) so its error
  // response keeps request order.
  struct PendingFrame {
    WireOp op = WireOp::kQueryBatch;
    uint64_t request_id = 0;
    std::string body;
    bool malformed = false;
    std::string error;
    /// Microseconds spent reading the frame (first header byte ->
    /// verified body) and the NowMicros stamp at enqueue, so the serving
    /// lane can charge its pickup delay to kStageQueueWait.
    uint64_t read_us = 0;
    uint64_t enqueue_us = 0;
  };

  // A lane-produced response awaiting its in-order write.
  struct ReadyResponse {
    WireOp op = WireOp::kQueryBatch;
    uint64_t request_id = 0;
    std::string body;
    /// Flush, half-close, and linger-close after this response (terminal
    /// error frames and shed verdicts).
    bool close_after = false;
    /// Partially filled frame timing, completed by the write path
    /// (kStageWrite) when the last byte reaches the kernel. Untraced
    /// responses (malformed errors, shed verdicts) skip metrics.
    obs::FrameTrace trace;
    bool traced = false;
  };

  /// Watermark into a connection's write buffer: when write_off crosses
  /// end_off, the corresponding frame's response is fully handed to the
  /// kernel and its trace is finalized. Offsets never rebase — write_buf
  /// only resets once fully drained, after all marks have popped.
  struct WriteMark {
    size_t end_off = 0;
    uint64_t start_us = 0;
    obs::FrameTrace trace;
  };

  struct Conn {
    int fd = -1;
    /// Counted against max_connections and loop_connections_ (shed
    /// connections are not).
    bool counted = false;

    // --- read state (loop thread only) ----------------------------------
    enum class Phase { kIdle, kHeader, kBody };
    Phase phase = Phase::kIdle;
    char header[kWireHeaderSize];
    size_t header_got = 0;
    std::string body;
    size_t body_got = 0;
    uint64_t body_want = 0;
    WireOp op = WireOp::kQueryBatch;
    uint64_t request_id = 0;
    uint64_t checksum = 0;
    /// Frames read but not yet appended to the write buffer (loop thread
    /// only); bounds the pipeline.
    size_t in_flight = 0;
    /// No further frames will be parsed (EOF, terminal error, drain).
    bool no_more_frames = false;
    /// Read-and-discard mode: keep consuming bytes so close does not RST
    /// the queued terminal response.
    bool discard_reads = false;
    bool peer_eof = false;
    /// Drain mode: refuse frames whose bytes have not already arrived.
    bool draining = false;
    /// NowMicros when the current frame's first header byte arrived.
    uint64_t frame_start_us = 0;
    net::Deadline frame_deadline = net::Deadline::None();
    net::Deadline idle_deadline = net::Deadline::None();

    // --- write state (loop thread only) ---------------------------------
    std::string write_buf;
    size_t write_off = 0;
    /// Pending frame-trace watermarks, in write order (see WriteMark).
    std::deque<WriteMark> write_marks;
    net::Deadline write_deadline = net::Deadline::None();
    /// Overrides options.write_deadline_ms when > 0 (shed verdicts use a
    /// tighter bound).
    int write_deadline_override_ms = 0;
    /// After write_buf flushes: shutdown(SHUT_WR) and linger for
    /// linger_ms (discarding reads) so the peer gets the final frame.
    bool close_after_flush = false;
    bool lingering = false;
    int linger_ms = 0;
    net::Deadline linger_deadline = net::Deadline::None();
    uint32_t epoll_events = 0;
    bool closed = false;

    // --- shared with the lane threads (guarded by mu) -------------------
    std::mutex mu;
    std::deque<PendingFrame> requests;
    std::deque<ReadyResponse> responses;
    /// Queued on (or being served by) a lane; on at most one lane, at
    /// most once, at a time.
    bool handler_active = false;
    /// Emptied string buffers cycled between the read path and handler
    /// responses, keeping the steady state allocation-free.
    std::vector<std::string> free_bufs;
    /// True once the loop closed the connection; the lanes drop any
    /// remaining work for it.
    bool dead = false;
    ConnectionScratch scratch;
  };
  using ConnPtr = std::shared_ptr<Conn>;

  // A serving thread and its FIFO of connections with queued frames.
  struct Lane {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<ConnPtr> conns;
    /// Loader only: free the catalog's retired synopses (FreeRetiredSoon).
    bool free_retired = false;
    bool stop = false;
    std::thread thread;
  };

  void Loop();
  void LaneLoop(Lane* lane);
  /// Serves the front frame of `c`; true when `c` still has frames queued
  /// and must be routed again.
  bool RunHandler(const ConnPtr& c);
  /// Queues `c`, whose handler_active the caller holds, at the back of the
  /// lane that serves its front frame: the loader for a RELOAD, the
  /// handler for every other op. Clears handler_active instead when `c`
  /// has nothing left to serve.
  void Route(const ConnPtr& c);
  void NotifyDone(const ConnPtr& c);
  void Wake();

  void AcceptReady();
  void ShedConn(int fd);
  void ReadPass(const ConnPtr& c);
  void StageMalformed(const ConnPtr& c, WireOp op, uint64_t request_id,
                      std::string error);
  void EnqueueFrame(const ConnPtr& c);
  void DispatchHandler(const ConnPtr& c);
  /// Moves ready responses into the write buffer (in order), flushes what
  /// the socket will take, then closes the connection if it is finished.
  void AfterProgress(const ConnPtr& c);
  void FlushResponses(const ConnPtr& c);
  void TryFlush(const ConnPtr& c);
  /// Finalizes traces for responses write_off has fully covered.
  void CompleteWrites(const ConnPtr& c);
  int EffectiveWriteDeadlineMs(const ConnPtr& c) const;
  void UpdateInterest(const ConnPtr& c);
  void SweepDeadlines();
  void BeginDrainAll();
  void CloseAllConns();
  void CloseConn(const ConnPtr& c);

  QueryServer* server_;
  int listen_fd_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  bool accepting_ = true;
  bool started_ = false;
  bool stopped_ = false;

  std::thread loop_thread_;
  std::atomic<bool> stop_requested_{false};
  std::atomic<int> stop_drain_ms_{0};
  bool drained_ = true;

  // Loop-thread-only: live connections by fd.
  std::map<int, ConnPtr> conns_;
  size_t counted_conns_ = 0;

  // RELOAD frames run on the loader lane; every other op on the handler.
  Lane handler_;
  Lane loader_;

  // Connections with freshly produced responses, drained by the loop.
  std::mutex done_mu_;
  std::vector<ConnPtr> done_;
};

}  // namespace internal
}  // namespace dpgrid

#else  // _WIN32

namespace dpgrid {
namespace internal {
// Stub so QueryServer's unique_ptr member destructs on non-POSIX builds
// (the server itself refuses to Start there).
class EventLoopServer {};
}  // namespace internal
}  // namespace dpgrid

#endif  // !_WIN32

#endif  // DPGRID_SERVER_EVENT_LOOP_H_
