#ifndef DPGRID_SERVER_FAULT_INJECTION_H_
#define DPGRID_SERVER_FAULT_INJECTION_H_

// Deterministic fault-injection seam for the serving stack.
//
// Every socket syscall in net:: (socket_io.h), every durability step in
// SnapshotStore's publish path, and its snapshot reads route through the
// Inject*/Store* entry points below, and the serving lanes call
// InjectHandleFrame before each frame. In production nothing is armed and
// the cost is one relaxed atomic load per call — measured noise next to
// the syscall itself. Tests
// arm a Hooks table through ScopedFaultInjection and can then inject short
// reads/writes, EINTR storms, ECONNRESET, stalled peers (a poll that
// "times out" instantly), refused connects, torn snapshot temp files,
// failed fsync/rename, and held or failed snapshot reads — all seeded and
// repeatable, with no real sockets
// misbehaving on cue required.
//
// Hooks fire only on the thread that installed them by default
// (only_installing_thread), so a test that injects faults into its own
// client-side calls cannot accidentally break the server threads
// it is talking to in the same process.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include <sys/types.h>

namespace dpgrid {
namespace fault {

/// The hook table. Every member is optional; an empty hook declines all
/// calls at its site. A socket hook returns true when it produced the
/// call's outcome (*out plus errno — possibly by running the real syscall
/// itself with, say, a clamped length for a short transfer) and false to
/// let the real syscall run untouched.
struct Hooks {
  std::function<bool(int fd, void* buf, size_t n, ssize_t* out)> recv;
  std::function<bool(int fd, const void* buf, size_t n, ssize_t* out)> send;
  /// `events` is the poll events mask (POLLIN/POLLOUT); `timeout_ms` what
  /// the caller would have passed. *out follows poll(): >0 ready, 0 timed
  /// out (the caller treats it as its deadline firing — instant
  /// deterministic stalls), <0 error with errno set.
  std::function<bool(int fd, short events, int timeout_ms, int* out)> poll;
  /// *out follows connect(): 0 success, -1 error with errno set.
  std::function<bool(int fd, int* out)> connect;

  /// SnapshotStore durability seam. `store_write` may truncate *bytes (a
  /// torn write that still reports success — the lying-disk case) or
  /// return false to fail the write after the torn bytes hit the disk.
  /// `store_fsync`/`store_rename` return false to fail that step.
  std::function<bool(const std::string& path, std::string* bytes)>
      store_write;
  std::function<bool(const std::string& path)> store_fsync;
  std::function<bool(const std::string& tmp_path,
                     const std::string& final_path)>
      store_rename;
  /// Called by SnapshotStore::Load before it reads `path`; false fails the
  /// read. It runs outside the hook table's lock, so a hook may block to
  /// hold a reload mid-load (the server's loader lane) while every other
  /// seam stays live.
  std::function<bool(const std::string& path)> store_read;

  /// Called on whichever serving lane (handler or loader) serves a frame,
  /// before it serves it. It runs outside the hook table's lock, so a hook
  /// may block to hold that lane (ordering tests) while every other seam
  /// stays live.
  std::function<void(uint64_t request_id)> handle_frame;

  /// When true (the default) hooks fire only on the installing thread.
  bool only_installing_thread = true;
};

namespace internal {
extern std::atomic<bool> g_armed;
}  // namespace internal

/// Fast-path guard: false in production, so every seam below is one
/// relaxed load and a predicted-not-taken branch.
inline bool Armed() {
  return internal::g_armed.load(std::memory_order_acquire);
}

/// Installs `hooks` for the current scope. At most one injection may be
/// active at a time (nesting aborts — a test composing faults composes
/// them inside one Hooks table instead).
class ScopedFaultInjection {
 public:
  explicit ScopedFaultInjection(Hooks hooks);
  ~ScopedFaultInjection();

  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;
};

// --- seam entry points (socket_io.h, snapshot_store.cc, event_loop.cc) -----
// Each returns true when an armed hook handled the call; callers fall
// through to the real syscall on false. Only call these behind Armed().

bool InjectRecv(int fd, void* buf, size_t n, ssize_t* out);
bool InjectSend(int fd, const void* buf, size_t n, ssize_t* out);
bool InjectPoll(int fd, short events, int timeout_ms, int* out);
bool InjectConnect(int fd, int* out);
/// Runs the handle_frame hook, if any; it has no outcome to return.
void InjectHandleFrame(uint64_t request_id);

// Store seam: these return false when the step must fail (no armed hook
// means the step is allowed). StoreWriteAllowed may truncate *bytes first.
bool StoreWriteAllowed(const std::string& path, std::string* bytes);
bool StoreFsyncAllowed(const std::string& path);
bool StoreRenameAllowed(const std::string& tmp_path,
                        const std::string& final_path);
/// Runs the store_read hook, if any, outside the table's lock.
bool StoreReadAllowed(const std::string& path);

}  // namespace fault
}  // namespace dpgrid

#endif  // DPGRID_SERVER_FAULT_INJECTION_H_
