#ifndef DPGRID_COMMON_THREAD_POOL_H_
#define DPGRID_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

namespace dpgrid {

/// CPUs the calling thread may run on: its affinity mask, which a cpuset,
/// `taskset` or a container's CPU pinning narrows, where the platform
/// reports one; std::thread::hardware_concurrency() (every online CPU)
/// elsewhere. Always >= 1.
inline int UsableCpus() {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return n;
  }
#endif
  const int n = static_cast<int>(std::thread::hardware_concurrency());
  return n > 0 ? n : 1;
}

/// A fixed-size worker pool for sharding query batches across cores.
///
/// The pool owns `num_threads() - 1` OS threads; the caller of ParallelFor
/// acts as the remaining worker, so a pool of size 1 spawns no threads and
/// ParallelFor degenerates to a plain loop with zero synchronization
/// overhead. Work is handed out in index chunks through a shared atomic
/// cursor, which keeps threads busy even when per-chunk cost is skewed
/// (e.g. query batches straddling dense and sparse grid regions).
class ThreadPool {
 public:
  /// `num_threads` <= 0 selects UsableCpus() of the constructing thread,
  /// whose affinity the workers inherit.
  explicit ThreadPool(int num_threads = 0) {
    num_threads_ = num_threads > 0 ? num_threads : UsableCpus();
    workers_.reserve(static_cast<size_t>(num_threads_ - 1));
    for (int i = 0; i < num_threads_ - 1; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  int num_threads() const { return num_threads_; }

  /// Runs `fn(begin, end)` over disjoint chunks of [begin, end) covering it
  /// exactly, on up to num_threads() workers (including the calling thread);
  /// `max_threads` > 0 lowers that cap for this call. Blocks until every
  /// chunk has finished. `grain` is the chunk length; 0 picks one
  /// contiguous slab per worker.
  void ParallelFor(size_t begin, size_t end, size_t grain,
                   const std::function<void(size_t, size_t)>& fn,
                   int max_threads = 0) {
    if (end <= begin) return;
    int threads = num_threads_;
    if (max_threads > 0 && max_threads < threads) threads = max_threads;
    const size_t total = end - begin;
    if (grain == 0) {
      grain = (total + static_cast<size_t>(threads) - 1) /
              static_cast<size_t>(threads);
    }
    // Nested calls from inside a pool task run inline: blocking a worker on
    // helpers that need that same worker to run would deadlock the pool.
    // The inline path still walks grain-sized chunks so callers see the same
    // chunk boundaries regardless of thread count.
    if (threads == 1 || total <= grain || inside_worker_) {
      for (size_t b = begin; b < end; b += grain) {
        fn(b, b + grain < end ? b + grain : end);
      }
      return;
    }

    struct Job {
      std::atomic<size_t> next;
      size_t end;
      size_t grain;
      const std::function<void(size_t, size_t)>* fn;
      std::atomic<int> active{0};
      std::mutex done_mu;
      std::condition_variable done_cv;
    };
    Job job;
    job.next.store(begin, std::memory_order_relaxed);
    job.end = end;
    job.grain = grain;
    job.fn = &fn;

    auto drain = [&job] {
      while (true) {
        size_t chunk_begin =
            job.next.fetch_add(job.grain, std::memory_order_relaxed);
        if (chunk_begin >= job.end) break;
        size_t chunk_end = chunk_begin + job.grain;
        if (chunk_end > job.end) chunk_end = job.end;
        (*job.fn)(chunk_begin, chunk_end);
      }
    };

    // Enlist helper threads, then work alongside them.
    const int helpers = threads - 1;
    job.active.store(helpers, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (int i = 0; i < helpers; ++i) {
        tasks_.emplace_back([&job, drain] {
          drain();
          // Decrement under done_mu: if the count dropped outside the lock,
          // the caller's wait could observe 0, return, and destroy `job`
          // while this helper is still about to lock the (dead) mutex.
          std::lock_guard<std::mutex> lock(job.done_mu);
          if (job.active.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            job.done_cv.notify_one();
          }
        });
      }
    }
    wake_.notify_all();
    drain();
    std::unique_lock<std::mutex> lock(job.done_mu);
    job.done_cv.wait(lock, [&job] {
      return job.active.load(std::memory_order_acquire) == 0;
    });
  }

  /// A process-wide pool sized to the CPUs its first user may run on,
  /// used by the query engine so repeated evaluations reuse warm threads.
  static ThreadPool& Shared() {
    static ThreadPool pool;
    return pool;
  }

 private:
  void WorkerLoop() {
    inside_worker_ = true;
    while (true) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        wake_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
        if (stopping_ && tasks_.empty()) return;
        task = std::move(tasks_.front());
        tasks_.pop_front();
      }
      task();
    }
  }

  inline static thread_local bool inside_worker_ = false;

  int num_threads_ = 1;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> tasks_;
  bool stopping_ = false;
};

}  // namespace dpgrid

#endif  // DPGRID_COMMON_THREAD_POOL_H_
