#ifndef DPGRID_STORE_SERVING_H_
#define DPGRID_STORE_SERVING_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "query/query_engine.h"
#include "store/snapshot.h"

namespace dpgrid {

/// Where serving slots send a replaced synopsis once the last reference to
/// its snapshot drops. With no drainer set, the dropping thread frees the
/// synopsis at once. A running QueryServer sets its loader lane as the
/// drainer, so a query batch that outlives its release only queues the
/// synopsis (a large AG takes milliseconds to free), and the loader frees
/// it between RELOADs.
class RetireQueue {
 public:
  /// Takes over the last reference to a replaced synopsis.
  void Retire(std::shared_ptr<const void> synopsis) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (wake_) {
        queued_.push_back(std::move(synopsis));
        wake_();
        return;
      }
    }
    // No drainer: `synopsis` is freed here, outside the lock.
  }

  /// Frees, on the calling thread, every synopsis queued so far; returns
  /// how many.
  size_t FreeAll() {
    std::vector<std::shared_ptr<const void>> doomed;
    {
      std::lock_guard<std::mutex> lock(mu_);
      doomed.swap(queued_);
    }
    return doomed.size();
  }

  /// Makes later Retire calls queue their synopsis and run `wake`, which
  /// must only signal the drainer to call FreeAll. `wake` runs under the
  /// queue's lock, so once SetDrainer(nullptr) returns, no call into the
  /// old drainer is running or can start; Retire frees inline again, and
  /// whatever is still queued waits for FreeAll.
  void SetDrainer(std::function<void()> wake) {
    std::lock_guard<std::mutex> lock(mu_);
    wake_ = std::move(wake);
  }

 private:
  std::mutex mu_;
  std::function<void()> wake_;
  std::vector<std::shared_ptr<const void>> queued_;
};

/// A hot-swappable serving slot for one synopsis name: the read side of the
/// snapshot pipeline.
///
/// Readers call Acquire() (or AnswerBatch, which acquires once per batch)
/// and get a shared_ptr to an immutable Snapshot; a writer calling Publish
/// swaps the slot's pointer RCU-style. In-flight batches keep the old
/// snapshot alive through their shared_ptr and finish against it, so every
/// batch is answered by exactly one version — never a mix — and the old
/// synopsis is released when the last reader drops it: to the slot's
/// RetireQueue when it has one, otherwise freed on that reader's thread.
/// No reader ever blocks on a publish for longer than the pointer swap
/// itself.
///
/// The pointer slot is a mutex-guarded shared_ptr: readers hold the lock
/// for one reference-count increment, a writer for the swap, and queries
/// run entirely outside it. A writer releases the previous snapshot after
/// unlocking, so no synopsis destructor ever runs under the lock.
template <typename SynopsisT, typename QueryT>
class BasicServingSynopsis {
 public:
  /// An immutable published version.
  struct Snapshot {
    uint64_t version = 0;
    SnapshotMeta meta;
    std::shared_ptr<const SynopsisT> synopsis;
  };

  /// `retire` (optional) receives each replaced synopsis.
  explicit BasicServingSynopsis(std::shared_ptr<RetireQueue> retire = nullptr)
      : retire_(std::move(retire)) {}
  BasicServingSynopsis(const BasicServingSynopsis&) = delete;
  BasicServingSynopsis& operator=(const BasicServingSynopsis&) = delete;

  /// Atomically swaps `synopsis` in as the current version. `version` 0
  /// auto-increments from the previous one; pass the SnapshotStore's
  /// version to keep the serving handle and the durable store in step.
  /// Returns the version now being served.
  uint64_t Publish(std::shared_ptr<const SynopsisT> synopsis,
                   SnapshotMeta meta = {}, uint64_t version = 0) {
    DPGRID_CHECK(synopsis != nullptr);
    auto next = NewSnapshot();
    next->meta = std::move(meta);
    next->synopsis = std::move(synopsis);
    std::lock_guard<std::mutex> lock(publish_mu_);
    const auto prev = Load();
    next->version = version != 0 ? version
                                 : (prev != nullptr ? prev->version + 1 : 1);
    Store(next);
    return next->version;
  }

  /// Publishes only if `version` is strictly newer than what the slot
  /// serves — the hot-reload path, where a concurrent in-process
  /// publisher may have installed something newer between the caller's
  /// version check and its (slow) snapshot load. The check and the swap
  /// share the writer lock, so the served version never moves backwards.
  /// Returns true if installed.
  bool PublishIfNewer(std::shared_ptr<const SynopsisT> synopsis,
                      SnapshotMeta meta, uint64_t version) {
    DPGRID_CHECK(synopsis != nullptr);
    DPGRID_CHECK(version != 0);
    auto next = NewSnapshot();
    next->meta = std::move(meta);
    next->synopsis = std::move(synopsis);
    next->version = version;
    std::lock_guard<std::mutex> lock(publish_mu_);
    const auto prev = Load();
    if (prev != nullptr && prev->version >= version) return false;
    Store(next);
    return true;
  }

  /// The current snapshot (nullptr before the first Publish). The returned
  /// pointer stays valid — and its synopsis immutable — for as long as the
  /// caller holds it, regardless of later publishes.
  std::shared_ptr<const Snapshot> Acquire() const { return Load(); }

  /// Version currently being served; 0 before the first Publish.
  uint64_t current_version() const {
    const auto snap = Load();
    return snap != nullptr ? snap->version : 0;
  }

  bool has_snapshot() const { return Load() != nullptr; }

  /// Answers the whole batch against ONE snapshot acquired up front and
  /// returns that snapshot's version, so concurrent publishes can never
  /// split a batch across versions. Returns 0 (and zero-fills `out`) if
  /// nothing has been published yet.
  uint64_t AnswerBatch(const QueryEngine& engine,
                       std::span<const QueryT> queries,
                       std::span<double> out) const {
    DPGRID_CHECK(queries.size() == out.size());
    const auto snap = Load();
    if (snap == nullptr) {
      for (double& v : out) v = 0.0;
      return 0;
    }
    engine.AnswerAll(*snap->synopsis, queries, out);
    return snap->version;
  }

 private:
  std::shared_ptr<Snapshot> NewSnapshot() const {
    if (retire_ == nullptr) return std::make_shared<Snapshot>();
    // Runs on whichever thread drops the last reference: the synopsis
    // goes to the retire queue, and only the small record is freed here.
    return std::shared_ptr<Snapshot>(
        new Snapshot, [retire = retire_](Snapshot* snap) {
          retire->Retire(std::move(snap->synopsis));
          delete snap;
        });
  }
  std::shared_ptr<const Snapshot> Load() const {
    std::lock_guard<std::mutex> lock(slot_mu_);
    return current_;
  }
  void Store(std::shared_ptr<const Snapshot> next) {
    {
      std::lock_guard<std::mutex> lock(slot_mu_);
      current_.swap(next);
    }
    // `next` now holds the previous snapshot; if this was its last
    // reference, it is released here, outside slot_mu_.
  }

  // Guards current_; readers take it only to copy the pointer.
  mutable std::mutex slot_mu_;
  std::shared_ptr<const Snapshot> current_;

  // Serializes writers so version auto-increment is race-free; readers
  // never take this lock (Load takes only slot_mu_).
  std::mutex publish_mu_;

  const std::shared_ptr<RetireQueue> retire_;
};

/// Serving slot for 2-D synopses, fed by the QueryEngine's Rect batches.
using ServingSynopsis = BasicServingSynopsis<Synopsis, Rect>;

/// Serving slot for N-d synopses.
using ServingSynopsisNd = BasicServingSynopsis<SynopsisNd, BoxNd>;

}  // namespace dpgrid

#endif  // DPGRID_STORE_SERVING_H_
