#include "server/event_loop.h"

#ifndef _WIN32

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "server/fault_injection.h"

namespace dpgrid {
namespace internal {

namespace {

// Body bytes are committed in bounded chunks as they arrive, so a header
// claiming a huge body cannot make the server pre-allocate it.
constexpr size_t kReadChunk = 256 * 1024;
// Capacity a connection may keep in recycled buffers between frames;
// bigger one-off buffers are released.
constexpr size_t kRetainedBodyCapacity = 1 << 20;
// Caps the per-connection pool of recycled string buffers.
constexpr size_t kMaxFreeBufs = 6;

}  // namespace

EventLoopServer::EventLoopServer(QueryServer* server, int listen_fd)
    : server_(server), listen_fd_(listen_fd) {}

EventLoopServer::~EventLoopServer() { Stop(0); }

bool EventLoopServer::Start(std::string* error) {
  if (!net::SetNonBlocking(listen_fd_)) {
    if (error != nullptr) {
      *error = std::string("fcntl(O_NONBLOCK): ") + std::strerror(errno);
    }
    return false;
  }
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    if (error != nullptr) {
      *error = std::string("epoll_create1: ") + std::strerror(errno);
    }
    return false;
  }
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    if (error != nullptr) {
      *error = std::string("eventfd: ") + std::strerror(errno);
    }
    ::close(epoll_fd_);
    epoll_fd_ = -1;
    return false;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
    if (error != nullptr) {
      *error = std::string("epoll_ctl(listen): ") + std::strerror(errno);
    }
    ::close(epoll_fd_);
    ::close(wake_fd_);
    epoll_fd_ = wake_fd_ = -1;
    return false;
  }
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  for (Lane* lane : {&handler_, &loader_}) {
    lane->thread = std::thread(&EventLoopServer::LaneLoop, this, lane);
  }
  loop_thread_ = std::thread(&EventLoopServer::Loop, this);
  started_ = true;
  return true;
}

bool EventLoopServer::Stop(int drain_ms) {
  if (stopped_) return drained_;
  stopped_ = true;
  stop_drain_ms_.store(drain_ms, std::memory_order_release);
  stop_requested_.store(true, std::memory_order_release);
  if (started_) {
    Wake();
    if (loop_thread_.joinable()) loop_thread_.join();
  }
  // The loop closed every connection before it exited, so the lanes only
  // finish the frame each may be serving and skip the rest.
  for (Lane* lane : {&handler_, &loader_}) {
    {
      std::lock_guard<std::mutex> lock(lane->mu);
      lane->stop = true;
    }
    lane->cv.notify_all();
    if (lane->thread.joinable()) lane->thread.join();
  }
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  epoll_fd_ = wake_fd_ = -1;
  return drained_;
}

void EventLoopServer::Wake() {
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

// --- loop thread -----------------------------------------------------------

void EventLoopServer::Loop() {
  std::vector<epoll_event> events(128);
  bool stop_seen = false;
  net::Deadline drain_deadline = net::Deadline::None();
  while (true) {
    if (!stop_seen && stop_requested_.load(std::memory_order_acquire)) {
      stop_seen = true;
      accepting_ = false;
      if (listen_fd_ >= 0) {
        ::close(listen_fd_);  // auto-removes it from the epoll set
        listen_fd_ = -1;
      }
      const int drain_ms = stop_drain_ms_.load(std::memory_order_acquire);
      if (drain_ms > 0) {
        drain_deadline = net::Deadline::AfterMs(drain_ms);
        BeginDrainAll();
      } else {
        CloseAllConns();
      }
    }
    if (stop_seen) {
      if (conns_.empty()) {
        drained_ = true;
        break;
      }
      if (drain_deadline.expired()) {
        drained_ = false;
        CloseAllConns();
        break;
      }
    }
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), 50);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // the epoll set itself is broken; nothing sane remains
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const uint32_t ev = events[i].events;
      if (fd == wake_fd_) {
        uint64_t drainv = 0;
        while (::read(wake_fd_, &drainv, sizeof(drainv)) > 0) {
        }
        continue;
      }
      if (fd == listen_fd_) {
        AcceptReady();
        continue;
      }
      const auto it = conns_.find(fd);
      if (it == conns_.end()) continue;  // closed earlier in this batch
      ConnPtr c = it->second;
      if ((ev & EPOLLERR) != 0) {
        CloseConn(c);
        continue;
      }
      // EPOLLHUP/EPOLLRDHUP surface as recv() returning 0 or an error,
      // which the read pass reports precisely.
      if ((ev & (EPOLLIN | EPOLLRDHUP | EPOLLHUP)) != 0) ReadPass(c);
      if (!c->closed && (ev & EPOLLOUT) != 0) TryFlush(c);
      if (!c->closed) AfterProgress(c);
    }
    // Responses the lanes finished since the last pass.
    std::vector<ConnPtr> ready;
    {
      std::lock_guard<std::mutex> lock(done_mu_);
      ready.swap(done_);
    }
    for (const ConnPtr& c : ready) {
      if (!c->closed) AfterProgress(c);
    }
    SweepDeadlines();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  CloseAllConns();
}

void EventLoopServer::AcceptReady() {
  while (accepting_) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ECONNABORTED) {
        return;
      }
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Transient fd/memory exhaustion: pause briefly instead of
        // spinning on the level-triggered readiness; the backlog holds.
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        return;
      }
      // Listen socket fatally broken: flip running_ so an operator
      // polling it can tell the server no longer accepts.
      server_->running_.store(false, std::memory_order_release);
      accepting_ = false;
      return;
    }
    if (!net::SetNonBlocking(fd) || !net::SetNoDelay(fd)) {
      ::close(fd);
      continue;
    }
    const QueryServerOptions& opt = server_->options_;
    if (opt.max_connections > 0 && counted_conns_ >= opt.max_connections) {
      ShedConn(fd);
      continue;
    }
    ConnPtr c = std::make_shared<Conn>();
    c->fd = fd;
    c->counted = true;
    c->idle_deadline = net::Deadline::AfterMs(opt.idle_timeout_ms);
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    c->epoll_events = ev.events;
    conns_.emplace(fd, std::move(c));
    ++counted_conns_;
    server_->loop_connections_.fetch_add(1, std::memory_order_relaxed);
    server_->connections_accepted_.fetch_add(1, std::memory_order_relaxed);
  }
}

void EventLoopServer::ShedConn(int fd) {
  server_->connections_shed_.fetch_add(1, std::memory_order_relaxed);
  server_->errors_returned_.fetch_add(1, std::memory_order_relaxed);
  const QueryServerOptions& opt = server_->options_;
  ConnPtr c = std::make_shared<Conn>();
  c->fd = fd;
  c->counted = false;
  c->no_more_frames = true;
  c->discard_reads = true;
  // A peer too slow to take even the verdict frame is not worth the full
  // write deadline.
  c->write_deadline_override_ms = 1000;
  c->linger_ms = 250;
  ReadyResponse verdict;
  verdict.op = WireOp::kHealth;
  verdict.request_id = 0;
  verdict.body = EncodeErrorBody(
      WireStatus::kOverloaded,
      "server at connection capacity (max_connections=" +
          std::to_string(opt.max_connections) +
          "): retry_after_ms=" + std::to_string(opt.overload_retry_after_ms));
  verdict.close_after = true;
  {
    std::lock_guard<std::mutex> lock(c->mu);
    c->responses.push_back(std::move(verdict));
  }
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLRDHUP;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    ::close(fd);
    return;
  }
  c->epoll_events = ev.events;
  conns_.emplace(fd, c);
  AfterProgress(c);
}

void EventLoopServer::ReadPass(const ConnPtr& c) {
  const QueryServerOptions& opt = server_->options_;
  char sink[4096];
  while (!c->closed) {
    if (c->discard_reads) {
      // Consume pending bytes so our eventual close cannot turn into an
      // RST that destroys the queued terminal response. Bounded by the
      // linger deadline.
      const ssize_t r = net::RecvRaw(c->fd, sink, sizeof(sink), MSG_DONTWAIT);
      if (r > 0) continue;
      if (r == 0) {
        c->peer_eof = true;
        c->discard_reads = false;
        return;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      CloseConn(c);
      return;
    }
    if (c->no_more_frames || c->in_flight >= kMaxPipelineFrames) {
      return;  // paused; UpdateInterest drops EPOLLIN meanwhile
    }
    if (c->phase == Conn::Phase::kIdle) {
      c->phase = Conn::Phase::kHeader;
      c->header_got = 0;
    }
    if (c->phase == Conn::Phase::kHeader) {
      const ssize_t r =
          net::RecvRaw(c->fd, c->header + c->header_got,
                       kWireHeaderSize - c->header_got, MSG_DONTWAIT);
      if (r == 0) {
        // Clean EOF. Bytes of a truncated frame get no response;
        // responses still in flight flush first.
        c->peer_eof = true;
        c->no_more_frames = true;
        if (c->header_got == 0) c->phase = Conn::Phase::kIdle;
        return;
      }
      if (r < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          if (c->header_got == 0) {
            c->phase = Conn::Phase::kIdle;
            // A drain serves only frames whose bytes already arrived: a
            // frame that has not started by now is refused.
            if (c->draining) c->no_more_frames = true;
          }
          return;
        }
        CloseConn(c);
        return;
      }
      if (c->header_got == 0) {
        // First byte of a frame arms the slow-loris bound: the whole
        // frame must land within read_deadline_ms.
        c->frame_deadline = net::Deadline::AfterMs(opt.read_deadline_ms);
        c->frame_start_us = obs::NowMicros();
      }
      c->header_got += static_cast<size_t>(r);
      if (c->header_got < kWireHeaderSize) continue;

      WireOp op = WireOp::kQueryBatch;
      uint64_t request_id = 0;
      uint64_t body_size = 0;
      uint64_t checksum = 0;
      std::string frame_error;
      if (!DecodeFrameHeader(std::string_view(c->header, kWireHeaderSize),
                             &op, &request_id, &body_size, &checksum,
                             &frame_error, opt.max_body_bytes)) {
        // Echo whatever sits in the request-id and op slots (when the op
        // is at least a known code) so the client can correlate the
        // failure.
        std::memcpy(&request_id, c->header + 12, sizeof(request_id));
        uint32_t raw_op = 0;
        std::memcpy(&raw_op, c->header + 8, sizeof(raw_op));
        const WireOp echo_op =
            raw_op >= static_cast<uint32_t>(WireOp::kQueryBatch) &&
                    raw_op <= static_cast<uint32_t>(WireOp::kMetrics)
                ? static_cast<WireOp>(raw_op)
                : WireOp::kQueryBatch;
        StageMalformed(c, echo_op, request_id, std::move(frame_error));
        continue;  // now in discard mode
      }
      c->op = op;
      c->request_id = request_id;
      c->checksum = checksum;
      c->body_want = body_size;
      c->body_got = 0;
      {
        std::lock_guard<std::mutex> lock(c->mu);
        if (!c->free_bufs.empty()) {
          c->body = std::move(c->free_bufs.back());
          c->free_bufs.pop_back();
        }
      }
      c->body.clear();
      c->phase = Conn::Phase::kBody;
    }
    if (c->phase == Conn::Phase::kBody) {
      while (c->body_got < c->body_want) {
        if (c->body_got == c->body.size()) {
          c->body.resize(static_cast<size_t>(std::min<uint64_t>(
              c->body_want, c->body.size() + kReadChunk)));
        }
        const ssize_t r = net::RecvRaw(c->fd, c->body.data() + c->body_got,
                                       c->body.size() - c->body_got,
                                       MSG_DONTWAIT);
        if (r == 0) {  // truncated frame: dropped without response
          c->peer_eof = true;
          c->no_more_frames = true;
          return;
        }
        if (r < 0) {
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) return;
          CloseConn(c);
          return;
        }
        c->body_got += static_cast<size_t>(r);
      }
      c->body.resize(c->body_got);
      std::string frame_error;
      if (!VerifyFrameBody(c->body, c->checksum, &frame_error)) {
        StageMalformed(c, c->op, c->request_id, std::move(frame_error));
        continue;
      }
      server_->frames_received_.fetch_add(1, std::memory_order_relaxed);
      EnqueueFrame(c);
      c->phase = Conn::Phase::kIdle;
      c->frame_deadline = net::Deadline::None();
      c->idle_deadline = net::Deadline::AfterMs(opt.idle_timeout_ms);
    }
  }
}

void EventLoopServer::StageMalformed(const ConnPtr& c, WireOp op,
                                     uint64_t request_id, std::string error) {
  server_->malformed_frames_.fetch_add(1, std::memory_order_relaxed);
  server_->errors_returned_.fetch_add(1, std::memory_order_relaxed);
  c->no_more_frames = true;
  c->discard_reads = true;
  c->linger_ms = 2000;
  c->phase = Conn::Phase::kIdle;
  c->frame_deadline = net::Deadline::None();
  PendingFrame f;
  f.op = op;
  f.request_id = request_id;
  f.malformed = true;
  f.error = std::move(error);
  {
    std::lock_guard<std::mutex> lock(c->mu);
    c->requests.push_back(std::move(f));
  }
  ++c->in_flight;
  DispatchHandler(c);
}

void EventLoopServer::EnqueueFrame(const ConnPtr& c) {
  PendingFrame f;
  f.op = c->op;
  f.request_id = c->request_id;
  f.body = std::move(c->body);
  c->body.clear();
  f.enqueue_us = obs::NowMicros();
  f.read_us = f.enqueue_us - c->frame_start_us;
  {
    std::lock_guard<std::mutex> lock(c->mu);
    c->requests.push_back(std::move(f));
  }
  ++c->in_flight;
  DispatchHandler(c);
}

void EventLoopServer::DispatchHandler(const ConnPtr& c) {
  {
    std::lock_guard<std::mutex> lock(c->mu);
    if (c->handler_active || c->dead || c->requests.empty()) return;
    c->handler_active = true;
  }
  Route(c);
}

// --- lanes -----------------------------------------------------------------

void EventLoopServer::Route(const ConnPtr& c) {
  Lane* lane = &handler_;
  {
    std::lock_guard<std::mutex> lock(c->mu);
    if (c->dead || c->requests.empty()) {
      c->handler_active = false;
      return;
    }
    if (c->requests.front().op == WireOp::kReload) lane = &loader_;
  }
  {
    std::lock_guard<std::mutex> lock(lane->mu);
    lane->conns.push_back(c);
  }
  lane->cv.notify_one();
}

void EventLoopServer::FreeRetiredSoon() {
  {
    std::lock_guard<std::mutex> lock(loader_.mu);
    loader_.free_retired = true;
  }
  loader_.cv.notify_one();
}

void EventLoopServer::LaneLoop(Lane* lane) {
  while (true) {
    ConnPtr c;
    {
      std::unique_lock<std::mutex> lock(lane->mu);
      lane->cv.wait(lock, [lane] {
        return lane->stop || lane->free_retired || !lane->conns.empty();
      });
      if (lane->conns.empty()) {
        if (!lane->free_retired) return;  // only reachable when stopping
        lane->free_retired = false;
      } else {
        c = std::move(lane->conns.front());
        lane->conns.pop_front();
      }
    }
    if (c == nullptr) {
      server_->catalog_->retire_queue().FreeAll();
      continue;
    }
    // One frame per turn: a connection with more queued frames waits
    // behind every other connection that has work on the same lane.
    if (RunHandler(c)) Route(c);
  }
}

bool EventLoopServer::RunHandler(const ConnPtr& c) {
  PendingFrame f;
  {
    std::lock_guard<std::mutex> lock(c->mu);
    if (c->dead || c->requests.empty()) {
      c->handler_active = false;
      return false;
    }
    f = std::move(c->requests.front());
    c->requests.pop_front();
    if (!c->free_bufs.empty()) {
      c->scratch.response_body = std::move(c->free_bufs.back());
      c->free_bufs.pop_back();
    }
  }
  if (fault::Armed()) fault::InjectHandleFrame(f.request_id);
  ReadyResponse resp;
  resp.op = f.op;
  resp.request_id = f.request_id;
  if (f.malformed) {
    // Counted by the loop when it was detected; the handler only keeps
    // the error response in request order.
    c->scratch.response_body =
        EncodeErrorBody(WireStatus::kMalformedFrame, f.error);
    resp.close_after = true;
  } else {
    resp.trace.request_id = f.request_id;
    resp.trace.stage_us[obs::kStageRead] = f.read_us;
    resp.trace.stage_us[obs::kStageQueueWait] =
        obs::NowMicros() - f.enqueue_us;
    server_->DispatchFrame(f.op, f.body, &c->scratch, &resp.trace);
    resp.traced = true;
  }
  resp.body = std::move(c->scratch.response_body);
  c->scratch.response_body.clear();
  if (c->scratch.answers.capacity() * sizeof(double) >
      kRetainedBodyCapacity) {
    std::vector<double>().swap(c->scratch.answers);
  }
  if (c->scratch.request.queries.capacity() * sizeof(Rect) >
      kRetainedBodyCapacity) {
    std::vector<Rect>().swap(c->scratch.request.queries);
  }
  if (!c->scratch.request.queries_nd.empty()) {
    // N-d boxes own per-box heap storage; don't retain them at all.
    std::vector<BoxNd>().swap(c->scratch.request.queries_nd);
  }
  bool more = false;
  {
    std::lock_guard<std::mutex> lock(c->mu);
    f.body.clear();
    if (f.body.capacity() > 0 &&
        f.body.capacity() <= kRetainedBodyCapacity &&
        c->free_bufs.size() < kMaxFreeBufs) {
      c->free_bufs.push_back(std::move(f.body));
    }
    c->responses.push_back(std::move(resp));
    more = !c->dead && !c->requests.empty();
    if (!more) c->handler_active = false;
  }
  NotifyDone(c);
  return more;
}

void EventLoopServer::NotifyDone(const ConnPtr& c) {
  {
    std::lock_guard<std::mutex> lock(done_mu_);
    done_.push_back(c);
  }
  Wake();
}

// --- write path ------------------------------------------------------------

int EventLoopServer::EffectiveWriteDeadlineMs(const ConnPtr& c) const {
  return c->write_deadline_override_ms > 0 ? c->write_deadline_override_ms
                                           : server_->options_.write_deadline_ms;
}

void EventLoopServer::FlushResponses(const ConnPtr& c) {
  const QueryServerOptions& opt = server_->options_;
  std::lock_guard<std::mutex> lock(c->mu);
  while (!c->responses.empty()) {
    ReadyResponse& r = c->responses.front();
    const bool was_flushed = c->write_off >= c->write_buf.size();
    char header[kWireHeaderSize];
    EncodeFrameHeaderTo(r.op, r.request_id, r.body, header);
    c->write_buf.append(header, kWireHeaderSize);
    c->write_buf.append(r.body);
    if (r.traced) {
      c->write_marks.push_back(
          WriteMark{c->write_buf.size(), obs::NowMicros(), r.trace});
    }
    if (was_flushed) {
      c->write_deadline = net::Deadline::AfterMs(EffectiveWriteDeadlineMs(c));
    }
    if (r.close_after) c->close_after_flush = true;
    r.body.clear();
    if (r.body.capacity() <= kRetainedBodyCapacity &&
        c->free_bufs.size() < kMaxFreeBufs) {
      c->free_bufs.push_back(std::move(r.body));
    }
    c->responses.pop_front();
    if (c->in_flight > 0) --c->in_flight;
    c->idle_deadline = net::Deadline::AfterMs(opt.idle_timeout_ms);
  }
}

void EventLoopServer::TryFlush(const ConnPtr& c) {
  while (c->write_off < c->write_buf.size()) {
    const ssize_t w =
        net::SendRaw(c->fd, c->write_buf.data() + c->write_off,
                     c->write_buf.size() - c->write_off,
                     MSG_NOSIGNAL | MSG_DONTWAIT);
    if (w > 0) {
      c->write_off += static_cast<size_t>(w);
      // Progress re-arms the bound: the deadline fires only when the peer
      // takes nothing for a whole write_deadline_ms.
      c->write_deadline = net::Deadline::AfterMs(EffectiveWriteDeadlineMs(c));
      // Frames fully handed to the kernel complete here, strictly before
      // the peer can read their bytes — so a follow-up METRICS request
      // always observes the prior frame's finished histograms.
      CompleteWrites(c);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
      CloseConn(c);
      return;
    }
    return;  // would block (or a zero-length send): wait for EPOLLOUT
  }
  if (!c->write_buf.empty()) {
    c->write_buf.clear();
    c->write_off = 0;
    c->write_deadline = net::Deadline::None();
    if (c->write_buf.capacity() > kRetainedBodyCapacity) {
      std::string().swap(c->write_buf);
    }
    if (c->close_after_flush && !c->lingering) {
      // Terminal response delivered to the kernel: half-close so the FIN
      // chases it, then linger (discarding reads) until the peer closes
      // or the deadline cuts the wait.
      ::shutdown(c->fd, SHUT_WR);
      c->lingering = true;
      c->discard_reads = true;
      c->linger_deadline =
          net::Deadline::AfterMs(c->linger_ms > 0 ? c->linger_ms : 2000);
    }
  }
}

void EventLoopServer::CompleteWrites(const ConnPtr& c) {
  while (!c->write_marks.empty() &&
         c->write_marks.front().end_off <= c->write_off) {
    WriteMark& m = c->write_marks.front();
    m.trace.stage_us[obs::kStageWrite] = obs::NowMicros() - m.start_us;
    server_->metrics_.OnFrameDone(m.trace);
    c->write_marks.pop_front();
  }
}

void EventLoopServer::AfterProgress(const ConnPtr& c) {
  if (c->closed) return;
  FlushResponses(c);
  TryFlush(c);
  if (c->closed) return;
  const bool write_idle = c->write_off >= c->write_buf.size();
  if (c->lingering) {
    if (c->peer_eof) {
      CloseConn(c);
      return;
    }
  } else if (c->no_more_frames && !c->close_after_flush &&
             c->in_flight == 0 && write_idle) {
    CloseConn(c);
    return;
  }
  UpdateInterest(c);
}

void EventLoopServer::UpdateInterest(const ConnPtr& c) {
  if (c->closed) return;
  uint32_t want = 0;
  const bool reading =
      c->discard_reads ||
      (!c->no_more_frames && c->in_flight < kMaxPipelineFrames);
  if (reading && !c->peer_eof) want |= EPOLLIN | EPOLLRDHUP;
  if (c->write_off < c->write_buf.size()) want |= EPOLLOUT;
  if (want != c->epoll_events) {
    epoll_event ev{};
    ev.events = want;
    ev.data.fd = c->fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c->fd, &ev);
    c->epoll_events = want;
  }
}

// --- deadlines, drain, close -----------------------------------------------

void EventLoopServer::SweepDeadlines() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    ConnPtr c = it->second;
    ++it;  // CloseConn erases this element; advance first
    if (c->closed) continue;
    if (c->lingering) {
      if (c->linger_deadline.expired()) CloseConn(c);
      continue;
    }
    const bool frame_started =
        (c->phase == Conn::Phase::kHeader && c->header_got > 0) ||
        c->phase == Conn::Phase::kBody;
    if (frame_started && c->frame_deadline.expired()) {
      server_->read_timeouts_.fetch_add(1, std::memory_order_relaxed);
      CloseConn(c);
      continue;
    }
    if (c->write_off < c->write_buf.size() && c->write_deadline.expired()) {
      // A peer that stopped reading its responses pins buffers just like
      // a slow-loris sender; counted under the same umbrella.
      server_->read_timeouts_.fetch_add(1, std::memory_order_relaxed);
      CloseConn(c);
      continue;
    }
    const bool idle = c->phase == Conn::Phase::kIdle && c->in_flight == 0 &&
                      c->write_off >= c->write_buf.size() &&
                      !c->no_more_frames;
    if (idle && c->idle_deadline.expired()) {
      server_->idle_timeouts_.fetch_add(1, std::memory_order_relaxed);
      CloseConn(c);
    }
  }
}

void EventLoopServer::BeginDrainAll() {
  std::vector<ConnPtr> snapshot;
  snapshot.reserve(conns_.size());
  for (const auto& [fd, c] : conns_) snapshot.push_back(c);
  for (const ConnPtr& c : snapshot) {
    if (c->closed) continue;
    c->draining = true;
    // Frames whose bytes already sit in the receive buffer are in flight
    // even though the loop has not looked at them yet; pick them up now.
    ReadPass(c);
    if (!c->closed) AfterProgress(c);
  }
}

void EventLoopServer::CloseAllConns() {
  while (!conns_.empty()) CloseConn(conns_.begin()->second);
}

void EventLoopServer::CloseConn(const ConnPtr& c) {
  if (c->closed) return;
  c->closed = true;
  // Responses never fully handed to the kernel were not observed by the
  // peer; their traces are dropped with the connection.
  c->write_marks.clear();
  {
    std::lock_guard<std::mutex> lock(c->mu);
    c->dead = true;
    c->requests.clear();
    c->responses.clear();
  }
  ::close(c->fd);  // also removes the fd from the epoll set
  if (c->counted) {
    --counted_conns_;
    server_->loop_connections_.fetch_sub(1, std::memory_order_relaxed);
  }
  conns_.erase(c->fd);
}

}  // namespace internal
}  // namespace dpgrid

#endif  // !_WIN32
