#include "store/snapshot_store.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <utility>

#include "common/status.h"

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>

#include "server/fault_injection.h"
#endif

namespace dpgrid {

namespace fs = std::filesystem;

namespace {

constexpr char kExtension[] = ".dpgs";

// Parses "<name>.v<version>.dpgs" for the given name; returns 0 on
// mismatch (0 is never a valid published version).
uint64_t ParseVersion(const std::string& filename, const std::string& name) {
  const std::string prefix = name + ".v";
  if (filename.size() <= prefix.size() + sizeof(kExtension) - 1) return 0;
  if (filename.compare(0, prefix.size(), prefix) != 0) return 0;
  if (filename.compare(filename.size() - (sizeof(kExtension) - 1),
                       sizeof(kExtension) - 1, kExtension) != 0) {
    return 0;
  }
  const std::string digits = filename.substr(
      prefix.size(),
      filename.size() - prefix.size() - (sizeof(kExtension) - 1));
  if (digits.empty()) return 0;
  uint64_t version = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return 0;
    if (version > (UINT64_MAX - 9) / 10) return 0;
    version = version * 10 + static_cast<uint64_t>(c - '0');
  }
  return version;
}

// Splits "<name>.v<version>.dpgs" into its parts for any name; returns
// false if the filename does not have that shape or the version digits
// are malformed. The name part is NOT validated here.
bool ParseFileName(const std::string& filename, std::string* name,
                   uint64_t* version) {
  constexpr size_t kExtLen = sizeof(kExtension) - 1;
  if (filename.size() <= kExtLen) return false;
  if (filename.compare(filename.size() - kExtLen, kExtLen, kExtension) != 0) {
    return false;
  }
  const std::string stem = filename.substr(0, filename.size() - kExtLen);
  const size_t dot = stem.rfind(".v");
  if (dot == std::string::npos || dot == 0) return false;
  *name = stem.substr(0, dot);
  return (*version = ParseVersion(filename, *name)) != 0;
}

// Writes `bytes` to `path` and flushes them to stable storage (fsync on
// POSIX) so a rename over the file is durable across a crash.
bool WriteFileDurably(const std::string& path, const std::string& bytes) {
#ifndef _WIN32
  // Fault seam: an armed store_write hook may fail the write outright, or
  // truncate the bytes it is handed — a torn write that still "succeeds"
  // here, exactly what a crashed writer leaves behind. The snapshot
  // checksum catches the damage at load time; the fault tests prove the
  // catalog then keeps serving the previous version.
  std::string faulted;
  const std::string* payload = &bytes;
  if (fault::Armed()) {
    faulted = bytes;
    if (!fault::StoreWriteAllowed(path, &faulted)) return false;
    payload = &faulted;
  }
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  size_t written = 0;
  while (written < payload->size()) {
    const ssize_t n = ::write(fd, payload->data() + written,
                              payload->size() - written);
    if (n < 0) {
      ::close(fd);
      return false;
    }
    written += static_cast<size_t>(n);
  }
  bool synced = ::fsync(fd) == 0;
  if (synced && fault::Armed() && !fault::StoreFsyncAllowed(path)) {
    synced = false;
  }
  return ::close(fd) == 0 && synced;
#else
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out ||
      !out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()))) {
    return false;
  }
  out.flush();
  return static_cast<bool>(out);
#endif
}

// Best-effort fsync of the store directory so the rename itself (the new
// directory entry) survives a crash.
void SyncDirectory(const std::string& dir) {
#ifndef _WIN32
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
#else
  (void)dir;
#endif
}

}  // namespace

SnapshotStore::SnapshotStore(std::string directory)
    : directory_(std::move(directory)) {}

std::string SnapshotStore::FileName(const std::string& name,
                                    uint64_t version) {
  return name + ".v" + std::to_string(version) + kExtension;
}

bool SnapshotStore::ValidName(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

std::string SnapshotStore::PathFor(const std::string& name,
                                   uint64_t version) const {
  return (fs::path(directory_) / FileName(name, version)).string();
}

std::vector<uint64_t> SnapshotStore::ListVersions(
    const std::string& name) const {
  std::vector<uint64_t> versions;
  if (!ValidName(name)) return versions;
  // increment(ec) form: the range-for over a directory_iterator reports
  // mid-scan errors by throwing, which callers here must never see.
  std::error_code ec;
  for (fs::directory_iterator it(directory_, ec), end;
       !ec && it != end; it.increment(ec)) {
    const uint64_t v = ParseVersion(it->path().filename().string(), name);
    if (v != 0) versions.push_back(v);
  }
  std::sort(versions.begin(), versions.end());
  return versions;
}

std::map<std::string, uint64_t> SnapshotStore::ListLatestVersions() const {
  std::map<std::string, uint64_t> latest;
  std::error_code ec;
  for (fs::directory_iterator it(directory_, ec), end;
       !ec && it != end; it.increment(ec)) {
    std::string name;
    uint64_t version = 0;
    if (ParseFileName(it->path().filename().string(), &name, &version) &&
        ValidName(name)) {
      uint64_t& v = latest[name];
      if (version > v) v = version;
    }
  }
  return latest;
}

std::vector<std::string> SnapshotStore::ListNames() const {
  std::vector<std::string> names;
  for (const auto& [name, version] : ListLatestVersions()) {
    names.push_back(name);  // map iteration order is already sorted
  }
  return names;
}

uint64_t SnapshotStore::PublishBytes(const std::string& name,
                                     const std::string& bytes,
                                     std::string* error) {
  if (!ValidName(name)) {
    SetError(error, "invalid snapshot name: '" + name + "'");
    return 0;
  }
  std::lock_guard<std::mutex> lock(publish_mu_);
  std::error_code ec;
  fs::create_directories(directory_, ec);
  if (ec) {
    SetError(error, "cannot create store directory " + directory_ + ": " +
                        ec.message());
    return 0;
  }
  // Sweep temp files a crashed writer left behind for this name (writers
  // to one name serialize among themselves, so nobody else owns them).
  for (fs::directory_iterator it(directory_, ec), end;
       !ec && it != end; it.increment(ec)) {
    const std::string filename = it->path().filename().string();
    constexpr size_t kTmpSuffixLen = 4;  // ".tmp"
    if (filename.size() > kTmpSuffixLen &&
        filename.compare(filename.size() - kTmpSuffixLen, kTmpSuffixLen,
                         ".tmp") == 0 &&
        ParseVersion(filename.substr(0, filename.size() - kTmpSuffixLen),
                     name) != 0) {
      std::error_code remove_ec;
      fs::remove(it->path(), remove_ec);
    }
  }
  ec.clear();
  const std::vector<uint64_t> versions = ListVersions(name);
  const uint64_t version = versions.empty() ? 1 : versions.back() + 1;
  const std::string final_path = PathFor(name, version);
  // The temp file lives in the store directory so the rename cannot cross
  // filesystems (rename is only atomic within one), and the bytes are
  // fsync'd before the rename so a crash cannot publish a hollow file.
  const std::string tmp_path = final_path + ".tmp";
  if (!WriteFileDurably(tmp_path, bytes)) {
    SetError(error, "cannot write " + tmp_path);
    std::remove(tmp_path.c_str());
    return 0;
  }
#ifndef _WIN32
  if (fault::Armed() && !fault::StoreRenameAllowed(tmp_path, final_path)) {
    SetError(error, "cannot publish " + final_path + ": injected rename fault");
    std::remove(tmp_path.c_str());
    return 0;
  }
#endif
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    SetError(error, "cannot publish " + final_path + ": " + ec.message());
    std::remove(tmp_path.c_str());
    return 0;
  }
  SyncDirectory(directory_);
  publish_events_.Record();
  return version;
}

uint64_t SnapshotStore::Publish(const std::string& name,
                                const Synopsis& synopsis,
                                const SnapshotMeta& meta,
                                std::string* error) {
  std::string bytes;
  if (!EncodeSnapshot(synopsis, meta, &bytes, error)) return 0;
  return PublishBytes(name, bytes, error);
}

uint64_t SnapshotStore::Publish(const std::string& name,
                                const SynopsisNd& synopsis,
                                const SnapshotMeta& meta,
                                std::string* error) {
  std::string bytes;
  if (!EncodeSnapshot(synopsis, meta, &bytes, error)) return 0;
  return PublishBytes(name, bytes, error);
}

bool SnapshotStore::Load(const std::string& name, uint64_t version,
                         DecodedSnapshot* out, std::string* error) const {
  if (!ValidName(name)) {
    return SetError(error, "invalid snapshot name: '" + name + "'");
  }
  const std::string path = PathFor(name, version);
#ifndef _WIN32
  // Fault seam: an armed store_read hook may fail the read, or block to
  // hold a reload mid-load.
  if (fault::Armed() && !fault::StoreReadAllowed(path)) {
    return SetError(error, "cannot read " + path);
  }
#endif
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    return SetError(error, "cannot open " + path);
  }
  const std::streamoff size = in.tellg();
  if (size < 0) {
    return SetError(error, "cannot stat " + path);
  }
  in.seekg(0);
  std::string bytes(static_cast<size_t>(size), '\0');
  if (size > 0 && !in.read(bytes.data(), size)) {
    return SetError(error, "cannot read " + path);
  }
  std::string decode_error;
  if (!DecodeSnapshot(bytes, out, &decode_error)) {
    return SetError(error, path + ": " + decode_error);
  }
  return true;
}

bool SnapshotStore::LoadLatest(const std::string& name, DecodedSnapshot* out,
                               uint64_t* version, std::string* error) const {
  const std::vector<uint64_t> versions = ListVersions(name);
  if (versions.empty()) {
    return SetError(error, "no snapshots named '" + name + "' in " +
                               directory_);
  }
  if (!Load(name, versions.back(), out, error)) return false;
  if (version != nullptr) *version = versions.back();
  return true;
}

size_t SnapshotStore::Prune(const std::string& name, size_t keep) {
  if (!ValidName(name)) return 0;
  // Never delete the newest version: a fully emptied name would restart
  // version numbering and break the monotonicity serving relies on.
  if (keep == 0) keep = 1;
  std::vector<uint64_t> versions = ListVersions(name);
  if (versions.size() <= keep) return 0;
  size_t removed = 0;
  for (size_t i = 0; i + keep < versions.size(); ++i) {
    std::error_code ec;
    if (fs::remove(PathFor(name, versions[i]), ec) && !ec) ++removed;
  }
  return removed;
}

}  // namespace dpgrid
