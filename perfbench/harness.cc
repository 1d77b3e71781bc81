#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/vfs.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string model(brand);
  const size_t first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
#else
  return "unknown";
#endif
}

std::string FsName(const std::string& dir) {
  struct statfs fs {};
  if (::statfs(dir.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53ul: return "ext2/3/4";
    case 0x58465342ul: return "xfs";
    case 0x9123683Eul: return "btrfs";
    case 0x01021994ul: return "tmpfs";
    case 0x794C7630ul: return "overlayfs";
    case 0x6969ul: return "nfs";
    case 0x01021997ul: return "9p";
    case 0x65735546ul: return "fuse";
    case 0x2FC12FC1ul: return "zfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return hex;
    }
  }
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

const dpgrid::obs::OpMetricsSnapshot* FindOp(
    const dpgrid::obs::MetricsSnapshot& snap, const char* name) {
  for (const auto& op : snap.ops) {
    if (op.name == name) return &op;
  }
  return nullptr;
}

const dpgrid::obs::DatasetMetricsSnapshot* FindDataset(
    const dpgrid::obs::MetricsSnapshot& snap, const std::string& name) {
  for (const auto& d : snap.datasets) {
    if (d.name == name) return &d;
  }
  return nullptr;
}

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double PeakRssMiB() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void RunOn(Side side) {
  // The vCPUs this process may use, read once, before any thread narrows
  // its own mask: the first goes to the client, the rest to the server.
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    ::sched_getaffinity(0, sizeof(set), &set);
    return set;
  }();
  if (CPU_COUNT(&allowed) < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  bool first = true;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    if (first == (side == Side::kClient)) CPU_SET(cpu, &set);
    first = false;
  }
  ::pthread_setaffinity_np(::pthread_self(), sizeof(set), &set);
}

HostRecord DescribeHost(const std::string& store_dir) {
  HostRecord host;
  host.cpu_model = CpuModel();
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  host.nproc = n > 0 ? static_cast<unsigned>(n) : 0;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  host.avx2 = __builtin_cpu_supports("avx2");
  host.avx512f = __builtin_cpu_supports("avx512f");
#endif
#if defined(__clang__)
  host.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  host.compiler = std::string("gcc ") + __VERSION__;
#else
  host.compiler = "unknown";
#endif
  host.build_type = PERFBENCH_BUILD_TYPE;
  host.store_fs = FsName(store_dir);
  return host;
}

std::string HostJson(const HostRecord& host) {
  return "{\"cpu_model\": " + JsonString(host.cpu_model) +
         ", \"nproc\": " + std::to_string(host.nproc) +
         ", \"avx2\": " + (host.avx2 ? "true" : "false") +
         ", \"avx512f\": " + (host.avx512f ? "true" : "false") +
         ", \"compiler\": " + JsonString(host.compiler) +
         ", \"build_type\": " + JsonString(host.build_type) +
         ", \"store_fs\": " + JsonString(host.store_fs) +
         ", \"store_durability\": \"SnapshotStore::Publish fsyncs file "
         "and directory\"}";
}

ServerBreakdown Breakdown(const dpgrid::obs::MetricsSnapshot& before,
                          const dpgrid::obs::MetricsSnapshot& after,
                          const std::string& dataset) {
  using dpgrid::obs::HistogramSnapshot;
  ServerBreakdown b;
  const auto op_delta = [&](const char* name, uint64_t* requests,
                            uint64_t* errors) {
    const auto* a = FindOp(after, name);
    if (a == nullptr) return HistogramSnapshot{};
    const auto* z = FindOp(before, name);
    *requests = a->requests - (z ? z->requests : 0);
    if (errors != nullptr) *errors = a->errors - (z ? z->errors : 0);
    return z ? a->latency.Delta(z->latency) : a->latency;
  };
  const HistogramSnapshot frame =
      op_delta("QUERY_BATCH", &b.query_frames, &b.query_errors);
  uint64_t reload_frames = 0;
  const HistogramSnapshot reload = op_delta("RELOAD", &reload_frames, nullptr);
  b.engine_batches = after.engine_batches - before.engine_batches;
  // A failed METRICS call (already counted as a failure) leaves a
  // snapshot without stages.
  if (b.query_frames == 0 ||
      before.stages.size() != dpgrid::obs::kNumStages ||
      after.stages.size() != dpgrid::obs::kNumStages) {
    return b;
  }

  const auto per_frame = [&](uint64_t sum_us) {
    return static_cast<double>(sum_us) / static_cast<double>(b.query_frames);
  };
  const auto stage_sum = [&](size_t stage) {
    return after.stages[stage].sum_us - before.stages[stage].sum_us;
  };
  b.frame_us = per_frame(frame.sum_us);
  b.read_us = per_frame(stage_sum(dpgrid::obs::kStageRead));
  b.decode_us = per_frame(stage_sum(dpgrid::obs::kStageDecode));
  b.queue_wait_us = per_frame(stage_sum(dpgrid::obs::kStageQueueWait));
  b.encode_us = per_frame(stage_sum(dpgrid::obs::kStageEncode));
  b.write_us = per_frame(stage_sum(dpgrid::obs::kStageWrite));
  const auto* da = FindDataset(after, dataset);
  const auto* dz = FindDataset(before, dataset);
  if (da != nullptr) {
    b.engine_us = per_frame(da->engine_us.sum_us -
                            (dz ? dz->engine_us.sum_us : 0));
  }
  b.reload_us = reload.MeanUs();
  return b;
}

void Result::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
}

std::string Result::Json(bool correct, uint64_t attempted,
                         uint64_t failed) const {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics_[i].name) + ": {\"value\": " +
           Number(metrics_[i].value) + ", \"unit\": " +
           JsonString(metrics_[i].unit) + "}";
  }
  return out + "}}";
}

}  // namespace perfbench
