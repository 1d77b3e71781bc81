#include "catalog/synopsis_catalog.h"

#include <algorithm>
#include <utility>

namespace dpgrid {

namespace {

// The one place that decides which representation serves a name: acquire
// both slots once, newest version wins, 2-D wins ties. List, AnswerBatch,
// and AnswerBatchNd all route through this so they can never disagree.
struct SlotChoice {
  std::shared_ptr<const ServingSynopsis::Snapshot> snap2d;
  std::shared_ptr<const ServingSynopsisNd::Snapshot> snap_nd;
  uint64_t version = 0;  // 0 = nothing published under this name
  bool use_2d = false;
};

SlotChoice ChooseNewest(const ServingSynopsis& serving2d,
                        const ServingSynopsisNd& serving_nd) {
  SlotChoice c;
  c.snap2d = serving2d.Acquire();
  c.snap_nd = serving_nd.Acquire();
  const uint64_t v2d = c.snap2d != nullptr ? c.snap2d->version : 0;
  const uint64_t vnd = c.snap_nd != nullptr ? c.snap_nd->version : 0;
  c.version = std::max(v2d, vnd);
  c.use_2d = v2d != 0 && v2d >= vnd;
  return c;
}

}  // namespace

SynopsisCatalog::Slot* SynopsisCatalog::GetOrCreateSlot(
    const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Slot>& slot = slots_[name];
  if (slot == nullptr) slot = std::make_unique<Slot>(retired_);
  return slot.get();
}

SynopsisCatalog::Slot* SynopsisCatalog::FindSlot(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = slots_.find(name);
  return it != slots_.end() ? it->second.get() : nullptr;
}

bool SynopsisCatalog::Install(Slot* slot, DecodedSnapshot&& decoded,
                              uint64_t version) {
  // PublishIfNewer, not Publish: between Reload's version check and the
  // store load finishing, an in-process publisher may have pushed a newer
  // version into this slot — a plain install would regress it.
  bool installed;
  if (decoded.synopsis != nullptr) {
    installed = slot->serving2d.PublishIfNewer(
        std::shared_ptr<const Synopsis>(std::move(decoded.synopsis)),
        std::move(decoded.meta), version);
  } else {
    installed = slot->serving_nd.PublishIfNewer(
        std::shared_ptr<const SynopsisNd>(std::move(decoded.synopsis_nd)),
        std::move(decoded.meta), version);
  }
  if (installed) versions_installed_.Record();
  return installed;
}

bool SynopsisCatalog::LoadNewest(const std::string& name, uint64_t latest,
                                 std::string* errors) {
  Slot* slot = GetOrCreateSlot(name);
  const uint64_t serving = std::max(slot->serving2d.current_version(),
                                    slot->serving_nd.current_version());
  if (latest <= serving) return false;
  const auto report = [&](const std::string& error) {
    if (errors == nullptr) return;
    if (!errors->empty()) errors->append("; ");
    errors->append(name + ": " + error);
  };
  DecodedSnapshot decoded;
  std::string error;
  if (store_->Load(name, latest, &decoded, &error)) {
    return Install(slot, std::move(decoded), latest);
  }
  report(error);
  // Fall back, newest first, to the older versions still above the one
  // serving. Only this failure path pays for the second directory scan.
  const std::vector<uint64_t> versions = store_->ListVersions(name);
  for (auto it = versions.rbegin(); it != versions.rend(); ++it) {
    if (*it >= latest) continue;
    if (*it <= serving) break;
    if (store_->Load(name, *it, &decoded, &error)) {
      return Install(slot, std::move(decoded), *it);
    }
    report(error);
  }
  return false;
}

bool SynopsisCatalog::Reload(const std::string& name, std::string* error) {
  if (error != nullptr) error->clear();
  if (store_ == nullptr) {
    if (error != nullptr) *error = "catalog has no snapshot store";
    return false;
  }
  const std::vector<uint64_t> versions = store_->ListVersions(name);
  if (versions.empty()) {
    // Distinguish "no such name" from "already up to date" — a reload
    // loop polling a misspelled name must see an error, not silence.
    if (error != nullptr) {
      *error = "no snapshots named '" + name + "' in " + store_->directory();
    }
    return false;
  }
  return LoadNewest(name, versions.back(), error);
}

size_t SynopsisCatalog::LoadAll(std::string* errors) {
  return ReloadAll(errors);
}

size_t SynopsisCatalog::ReloadAll(std::string* errors) {
  if (store_ == nullptr) return 0;
  reload_sweeps_.Record();
  size_t installed = 0;
  // One directory scan for the whole sweep; per-name Reload would rescan
  // the directory once per name.
  for (const auto& [name, latest] : store_->ListLatestVersions()) {
    if (LoadNewest(name, latest, errors)) ++installed;
  }
  return installed;
}

ServingSynopsis* SynopsisCatalog::Slot2D(const std::string& name) {
  return &GetOrCreateSlot(name)->serving2d;
}

ServingSynopsisNd* SynopsisCatalog::SlotNd(const std::string& name) {
  return &GetOrCreateSlot(name)->serving_nd;
}

std::vector<CatalogEntryInfo> SynopsisCatalog::List() const {
  std::vector<std::pair<std::string, Slot*>> entries;
  {
    std::lock_guard<std::mutex> lock(mu_);
    entries.reserve(slots_.size());
    for (const auto& [name, slot] : slots_) {
      entries.emplace_back(name, slot.get());
    }
  }
  std::vector<CatalogEntryInfo> out;
  out.reserve(entries.size());
  for (const auto& [name, slot] : entries) {
    CatalogEntryInfo info;
    info.name = name;
    // A name serves through at most one of the two slots; if both have
    // history (a name that changed kind), report exactly what the query
    // paths would serve.
    const SlotChoice c = ChooseNewest(slot->serving2d, slot->serving_nd);
    if (c.version != 0) {
      info.version = c.version;
      if (c.use_2d) {
        info.dims = 2;
        info.synopsis_name = c.snap2d->synopsis->Name();
        info.epsilon = c.snap2d->meta.epsilon;
        info.label = c.snap2d->meta.label;
      } else {
        info.dims = static_cast<uint32_t>(c.snap_nd->synopsis->dims());
        info.synopsis_name = c.snap_nd->synopsis->Name();
        info.epsilon = c.snap_nd->meta.epsilon;
        info.label = c.snap_nd->meta.label;
      }
    }
    out.push_back(std::move(info));
  }
  return out;
}

CatalogStatus SynopsisCatalog::AnswerBatch(const QueryEngine& engine,
                                           const std::string& name,
                                           std::span<const Rect> queries,
                                           std::span<double> out,
                                           uint64_t* version) const {
  Slot* slot = FindSlot(name);
  if (slot == nullptr) return CatalogStatus::kNotFound;
  // Serve whichever representation is current (a name republished as the
  // other kind never keeps answering from its stale older kind); the
  // whole batch is answered by the single acquired snapshot.
  const SlotChoice c = ChooseNewest(slot->serving2d, slot->serving_nd);
  if (c.version == 0) return CatalogStatus::kNotFound;
  if (c.use_2d) {
    engine.AnswerAll(*c.snap2d->synopsis, queries, out);
    if (version != nullptr) *version = c.version;
    return CatalogStatus::kOk;
  }
  // A 2-dimensional N-d synopsis (e.g. a UniformGridNd over a 2-attribute
  // dataset) answers the same rectangle queries through the Nd path; only
  // a genuine dims mismatch errors. The conversion allocates two vectors
  // per query (BoxNd owns its bounds) — acceptable for this fallback; a
  // deployment hitting it at scale should publish the name as a 2-D kind.
  if (c.snap_nd->synopsis->dims() != 2) return CatalogStatus::kWrongDims;
  std::vector<BoxNd> boxes;
  boxes.reserve(queries.size());
  for (const Rect& q : queries) {
    boxes.emplace_back(std::vector<double>{q.xlo, q.ylo},
                       std::vector<double>{q.xhi, q.yhi});
  }
  engine.AnswerAll(*c.snap_nd->synopsis, boxes, out);
  if (version != nullptr) *version = c.version;
  return CatalogStatus::kOk;
}

CatalogStatus SynopsisCatalog::AnswerBatchNd(const QueryEngine& engine,
                                             const std::string& name,
                                             size_t dims,
                                             std::span<const BoxNd> queries,
                                             std::span<double> out,
                                             uint64_t* version) const {
  // Every box must actually have the claimed dimensionality — the paths
  // below index lo(a)/hi(a) up to `dims`, which is unchecked in BoxNd.
  for (const BoxNd& q : queries) {
    if (q.dims() != dims) return CatalogStatus::kWrongDims;
  }
  Slot* slot = FindSlot(name);
  if (slot == nullptr) return CatalogStatus::kNotFound;
  const SlotChoice c = ChooseNewest(slot->serving2d, slot->serving_nd);
  if (c.version == 0) return CatalogStatus::kNotFound;
  if (c.use_2d) {
    // 2-d boxes against a 2-D synopsis are the same rectangle queries in
    // the other representation.
    if (dims != 2) return CatalogStatus::kWrongDims;
    std::vector<Rect> rects;
    rects.reserve(queries.size());
    for (const BoxNd& q : queries) {
      rects.push_back(Rect{q.lo(0), q.lo(1), q.hi(0), q.hi(1)});
    }
    engine.AnswerAll(*c.snap2d->synopsis, rects, out);
    if (version != nullptr) *version = c.version;
    return CatalogStatus::kOk;
  }
  if (c.snap_nd->synopsis->dims() != dims) return CatalogStatus::kWrongDims;
  engine.AnswerAll(*c.snap_nd->synopsis, queries, out);
  if (version != nullptr) *version = c.version;
  return CatalogStatus::kOk;
}

size_t SynopsisCatalog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.size();
}

std::vector<obs::EventSnapshot> SynopsisCatalog::EventsSnapshot() const {
  std::vector<obs::EventSnapshot> events;
  events.push_back(obs::SnapshotEvent("catalog_reload_sweeps", reload_sweeps_));
  events.push_back(
      obs::SnapshotEvent("catalog_versions_installed", versions_installed_));
  if (store_ != nullptr) {
    events.push_back(
        obs::SnapshotEvent("store_publishes", store_->publish_events()));
  }
  return events;
}

}  // namespace dpgrid
