#include "server/fault_injection.h"

#include <mutex>
#include <thread>
#include <utility>

#include "common/check.h"

namespace dpgrid {
namespace fault {

namespace internal {
std::atomic<bool> g_armed{false};
}  // namespace internal

namespace {

// The active table and its installing thread, guarded by a mutex: the
// slow path only runs while a test has hooks armed, so contention is a
// non-issue and the locking keeps TSan happy about server threads
// racing an injection teardown.
std::mutex g_mu;
Hooks* g_hooks = nullptr;
std::thread::id g_installer;

// Returns the active hooks if this thread is allowed to see them; the
// caller runs `fn` under the lock so the table cannot be torn down while
// a hook executes.
template <typename Fn>
bool WithHooks(Fn&& fn) {
  std::lock_guard<std::mutex> lock(g_mu);
  if (g_hooks == nullptr) return false;
  if (g_hooks->only_installing_thread &&
      std::this_thread::get_id() != g_installer) {
    return false;
  }
  return fn(*g_hooks);
}

}  // namespace

ScopedFaultInjection::ScopedFaultInjection(Hooks hooks) {
  std::lock_guard<std::mutex> lock(g_mu);
  DPGRID_CHECK_MSG(g_hooks == nullptr,
                   "nested fault injection scopes are not supported");
  g_hooks = new Hooks(std::move(hooks));
  g_installer = std::this_thread::get_id();
  internal::g_armed.store(true, std::memory_order_release);
}

ScopedFaultInjection::~ScopedFaultInjection() {
  std::lock_guard<std::mutex> lock(g_mu);
  internal::g_armed.store(false, std::memory_order_release);
  delete g_hooks;
  g_hooks = nullptr;
}

bool InjectRecv(int fd, void* buf, size_t n, ssize_t* out) {
  return WithHooks([&](Hooks& h) {
    return h.recv ? h.recv(fd, buf, n, out) : false;
  });
}

bool InjectSend(int fd, const void* buf, size_t n, ssize_t* out) {
  return WithHooks([&](Hooks& h) {
    return h.send ? h.send(fd, buf, n, out) : false;
  });
}

bool InjectPoll(int fd, short events, int timeout_ms, int* out) {
  return WithHooks([&](Hooks& h) {
    return h.poll ? h.poll(fd, events, timeout_ms, out) : false;
  });
}

bool InjectConnect(int fd, int* out) {
  return WithHooks([&](Hooks& h) {
    return h.connect ? h.connect(fd, out) : false;
  });
}

void InjectHandleFrame(uint64_t request_id) {
  std::function<void(uint64_t)> hook;
  WithHooks([&](Hooks& h) {
    hook = h.handle_frame;
    return true;
  });
  if (hook) hook(request_id);
}

bool StoreReadAllowed(const std::string& path) {
  std::function<bool(const std::string&)> hook;
  WithHooks([&](Hooks& h) {
    hook = h.store_read;
    return true;
  });
  return !hook || hook(path);
}

bool StoreWriteAllowed(const std::string& path, std::string* bytes) {
  bool allowed = true;
  WithHooks([&](Hooks& h) {
    if (h.store_write) allowed = h.store_write(path, bytes);
    return true;
  });
  return allowed;
}

bool StoreFsyncAllowed(const std::string& path) {
  bool allowed = true;
  WithHooks([&](Hooks& h) {
    if (h.store_fsync) allowed = h.store_fsync(path);
    return true;
  });
  return allowed;
}

bool StoreRenameAllowed(const std::string& tmp_path,
                        const std::string& final_path) {
  bool allowed = true;
  WithHooks([&](Hooks& h) {
    if (h.store_rename) allowed = h.store_rename(tmp_path, final_path);
    return true;
  });
  return allowed;
}

}  // namespace fault
}  // namespace dpgrid
