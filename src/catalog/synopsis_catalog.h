#ifndef DPGRID_CATALOG_SYNOPSIS_CATALOG_H_
#define DPGRID_CATALOG_SYNOPSIS_CATALOG_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "query/query_engine.h"
#include "store/serving.h"
#include "store/snapshot_store.h"

namespace dpgrid {

/// Outcome of routing a query batch to a catalog entry.
enum class CatalogStatus : uint32_t {
  kOk = 0,
  /// No such name, or the name exists but nothing has been published into
  /// its slot yet. Callers must surface this as an error — never as a
  /// zero-filled answer — so an unpublished slot cannot masquerade as an
  /// empty dataset.
  kNotFound = 1,
  /// The entry serves a synopsis of a different dimensionality than the
  /// queries (e.g. 3-d boxes against a 2-D grid).
  kWrongDims = 2,
};

/// One row of SynopsisCatalog::List().
struct CatalogEntryInfo {
  std::string name;
  /// Version currently served; 0 if the slot exists but is unpublished.
  uint64_t version = 0;
  /// 2 for 2-D synopses, d for d-dimensional ones, 0 if unpublished.
  uint32_t dims = 0;
  /// Synopsis::Name() of the served version (e.g. "U256"); empty if
  /// unpublished.
  std::string synopsis_name;
  double epsilon = 0.0;
  std::string label;
};

/// A named collection of hot-swappable serving slots: the multi-tenant
/// serving plane between a SnapshotStore directory and the query server.
///
/// Each name owns a ServingSynopsis (2-D) and a ServingSynopsisNd slot;
/// whichever matches the published snapshot's kind is populated. LoadAll
/// bootstraps by loading the latest durable version of every name in the
/// store, and Reload/ReloadAll pick up versions published later by another
/// process — so a publisher writing `.dpgs` files makes them servable
/// without a server restart. In-process publishers can instead write
/// straight into a slot (Slot2D/SlotNd hand out the ServingSynopsis that
/// SnapshotPublisher takes as its sink), making new versions visible to
/// readers at the cost of one pointer swap.
///
/// Thread safety: all methods are safe to call concurrently. Slots are
/// created under a mutex and never removed, so the AnswerBatch fast path
/// takes the mutex only for the name lookup; the answering itself runs on
/// the slot's RCU snapshot (acquired with one pointer copy under the
/// slot's own lock), and every batch is answered by
/// exactly one version (ServingSynopsis acquires once per batch).
class SynopsisCatalog {
 public:
  /// `store` may be nullptr for a purely in-process catalog (slots are then
  /// fed only through Slot2D/SlotNd); it must outlive the catalog.
  explicit SynopsisCatalog(SnapshotStore* store) : store_(store) {}

  SynopsisCatalog(const SynopsisCatalog&) = delete;
  SynopsisCatalog& operator=(const SynopsisCatalog&) = delete;

  /// Bootstraps every name found in the store: loads each name's newest
  /// loadable version into its slot. Returns the number of versions
  /// installed. Per-name failures (e.g. one corrupt file) are appended to
  /// *errors (may be nullptr) and do not stop the sweep.
  size_t LoadAll(std::string* errors);

  /// Installs `name`'s latest durable version if it is newer than what the
  /// slot currently serves. When that file fails to load, falls back to
  /// the newest older version above the one serving that loads, so one
  /// corrupt publish cannot leave a name dark. Returns true if a new
  /// version was installed. *error receives every failed load (set even
  /// when a fallback installed); false with *error empty means "already up
  /// to date", false with *error set means the name has no published
  /// versions at all or no newer version loaded.
  bool Reload(const std::string& name, std::string* error);

  /// Reload() over every name in the store (picks up brand-new names too).
  /// Returns the number of versions installed.
  size_t ReloadAll(std::string* errors);

  /// The 2-D serving slot for `name`, created empty if absent — the sink an
  /// in-process SnapshotPublisher plugs into. The pointer stays valid for
  /// the catalog's lifetime.
  ///
  /// A name's versions must form ONE monotonic sequence: store-assigned
  /// (SnapshotPublisher does this), or auto-incremented within a single
  /// slot. The 2-D and N-d slots auto-increment independently, so a
  /// storeless pipeline that republishes a name as the other kind must
  /// pass explicit versions continuing the sequence, or the newest-wins
  /// routing cannot tell which kind is current.
  ServingSynopsis* Slot2D(const std::string& name);

  /// N-d counterpart.
  ServingSynopsisNd* SlotNd(const std::string& name);

  /// Snapshot of every entry, sorted by name.
  std::vector<CatalogEntryInfo> List() const;

  /// Answers a 2-D batch against `name`'s current version; *version
  /// receives the (single) version that answered. `out` must match
  /// `queries` in length.
  CatalogStatus AnswerBatch(const QueryEngine& engine, const std::string& name,
                            std::span<const Rect> queries,
                            std::span<double> out, uint64_t* version) const;

  /// N-d counterpart; all queries must share one dimensionality `dims`,
  /// which must match the served synopsis. A batch containing a box of a
  /// different dimensionality returns kWrongDims.
  CatalogStatus AnswerBatchNd(const QueryEngine& engine,
                              const std::string& name, size_t dims,
                              std::span<const BoxNd> queries,
                              std::span<double> out, uint64_t* version) const;

  /// Number of names with a slot (published or not).
  size_t size() const;

  /// Receives every replaced version of every slot once its last reader
  /// drops it; a running QueryServer drains it on its loader lane.
  RetireQueue& retire_queue() { return *retired_; }

  /// Lifecycle events for the METRICS op: reload sweeps run, versions
  /// installed through this catalog, and (when a store is attached) the
  /// store's publish count — each with the wall-clock second of its
  /// latest occurrence.
  std::vector<obs::EventSnapshot> EventsSnapshot() const;

 private:
  struct Slot {
    explicit Slot(const std::shared_ptr<RetireQueue>& retire)
        : serving2d(retire), serving_nd(retire) {}
    ServingSynopsis serving2d;
    ServingSynopsisNd serving_nd;
  };

  Slot* GetOrCreateSlot(const std::string& name);
  Slot* FindSlot(const std::string& name) const;
  /// Installs a decoded snapshot into `slot` at `version` unless the slot
  /// already serves that version or newer; returns whether it installed.
  bool Install(Slot* slot, DecodedSnapshot&& decoded, uint64_t version);
  /// Reload's body for one name whose newest file is `latest`: loads the
  /// newest version above the slot's that loads, trying `latest` first,
  /// and appends each failed load to *errors (may be nullptr).
  bool LoadNewest(const std::string& name, uint64_t latest,
                  std::string* errors);

  SnapshotStore* store_;
  // Shared with every snapshot's deleter, which may outlive the catalog.
  const std::shared_ptr<RetireQueue> retired_ =
      std::make_shared<RetireQueue>();
  mutable std::mutex mu_;
  // unique_ptr so slot addresses survive map rehash/rebalance; entries are
  // never erased.
  std::map<std::string, std::unique_ptr<Slot>> slots_;

  // Lifecycle counters behind EventsSnapshot().
  obs::EventCounter reload_sweeps_;
  obs::EventCounter versions_installed_;
};

}  // namespace dpgrid

#endif  // DPGRID_CATALOG_SYNOPSIS_CATALOG_H_
