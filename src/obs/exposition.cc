#include "obs/exposition.h"

#include <cstdio>

namespace dpgrid {
namespace obs {

namespace {

std::string OpLabel(const OpMetricsSnapshot& o) {
  return o.name.empty() ? "op" + std::to_string(o.op) : o.name;
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(v));
  out->append(buf);
}

void AppendF64(std::string* out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  out->append(buf);
}

void AppendEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\n': out->append("\\n"); break;
      case '\t': out->append("\\t"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c) & 0xff);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
}

// One Prometheus summary-style block for a histogram family instance.
void PromHistogram(std::string* out, const char* family,
                   const std::string& labels,
                   const HistogramSnapshot& h) {
  const char* lead = labels.empty() ? "" : ",";
  const double quantiles[] = {50.0, 95.0, 99.0};
  const char* names[] = {"0.5", "0.95", "0.99"};
  for (size_t q = 0; q < 3; ++q) {
    out->append(family);
    out->append("{");
    out->append(labels);
    out->append(lead);
    out->append("quantile=\"");
    out->append(names[q]);
    out->append("\"} ");
    AppendF64(out, h.Percentile(quantiles[q]));
    out->push_back('\n');
  }
  out->append(family);
  out->append("_max{");
  out->append(labels);
  out->append("} ");
  AppendU64(out, h.max_us);
  out->push_back('\n');
  out->append(family);
  out->append("_count{");
  out->append(labels);
  out->append("} ");
  AppendU64(out, h.count);
  out->push_back('\n');
  out->append(family);
  out->append("_sum{");
  out->append(labels);
  out->append("} ");
  AppendU64(out, h.sum_us);
  out->push_back('\n');
}

void JsonHistogram(std::string* out, const HistogramSnapshot& h) {
  out->append("{\"count\":");
  AppendU64(out, h.count);
  out->append(",\"sum_us\":");
  AppendU64(out, h.sum_us);
  out->append(",\"max_us\":");
  AppendU64(out, h.max_us);
  out->append(",\"p50_us\":");
  AppendF64(out, h.P50());
  out->append(",\"p95_us\":");
  AppendF64(out, h.P95());
  out->append(",\"p99_us\":");
  AppendF64(out, h.P99());
  out->push_back('}');
}

}  // namespace

std::string ToPrometheusText(const std::vector<NamedCounter>& counters,
                             const MetricsSnapshot& m) {
  std::string out;
  out.reserve(4096);
  for (const NamedCounter& c : counters) {
    out.append("# TYPE dpgrid_");
    out.append(c.name);
    out.append(" counter\ndpgrid_");
    out.append(c.name);
    out.push_back(' ');
    AppendU64(&out, c.value);
    out.push_back('\n');
  }
  out.append("# TYPE dpgrid_slow_frames_total counter\n"
             "dpgrid_slow_frames_total ");
  AppendU64(&out, m.slow_frames);
  out.append("\ndpgrid_slow_frame_threshold_us ");
  AppendU64(&out, m.slow_frame_us);
  out.append("\ndpgrid_engine_batches_total ");
  AppendU64(&out, m.engine_batches);
  out.append("\ndpgrid_engine_queries_total ");
  AppendU64(&out, m.engine_queries);
  out.append("\ndpgrid_engine_batches_2d_total ");
  AppendU64(&out, m.engine_batches_2d);
  out.append("\ndpgrid_engine_queries_2d_total ");
  AppendU64(&out, m.engine_queries_2d);
  out.append("\ndpgrid_engine_batches_nd_total ");
  AppendU64(&out, m.engine_batches_nd);
  out.append("\ndpgrid_engine_queries_nd_total ");
  AppendU64(&out, m.engine_queries_nd);
  out.append("\ndpgrid_engine_batches_sharded_total ");
  AppendU64(&out, m.engine_batches_sharded);
  out.push_back('\n');

  for (const OpMetricsSnapshot& o : m.ops) {
    std::string labels = "op=\"";
    AppendEscaped(&labels, OpLabel(o));
    labels.push_back('"');
    out.append("dpgrid_op_requests_total{");
    out.append(labels);
    out.append("} ");
    AppendU64(&out, o.requests);
    out.append("\ndpgrid_op_errors_total{");
    out.append(labels);
    out.append("} ");
    AppendU64(&out, o.errors);
    out.append("\ndpgrid_op_bytes_in_total{");
    out.append(labels);
    out.append("} ");
    AppendU64(&out, o.bytes_in);
    out.append("\ndpgrid_op_bytes_out_total{");
    out.append(labels);
    out.append("} ");
    AppendU64(&out, o.bytes_out);
    out.push_back('\n');
    PromHistogram(&out, "dpgrid_op_latency_us", labels, o.latency);
  }

  for (size_t i = 0; i < m.stages.size(); ++i) {
    std::string labels = "stage=\"";
    labels.append(StageName(i));
    labels.push_back('"');
    PromHistogram(&out, "dpgrid_stage_us", labels, m.stages[i]);
  }

  for (const DatasetMetricsSnapshot& d : m.datasets) {
    std::string labels = "dataset=\"";
    AppendEscaped(&labels, d.name);
    labels.push_back('"');
    out.append("dpgrid_dataset_batches_total{");
    out.append(labels);
    out.append("} ");
    AppendU64(&out, d.batches);
    out.append("\ndpgrid_dataset_queries_total{");
    out.append(labels);
    out.append("} ");
    AppendU64(&out, d.queries);
    out.append("\ndpgrid_dataset_errors_total{");
    out.append(labels);
    out.append("} ");
    AppendU64(&out, d.errors);
    out.push_back('\n');
    PromHistogram(&out, "dpgrid_dataset_engine_us", labels, d.engine_us);
  }

  for (const EventSnapshot& e : m.events) {
    std::string labels = "event=\"";
    AppendEscaped(&labels, e.name);
    labels.push_back('"');
    out.append("dpgrid_event_total{");
    out.append(labels);
    out.append("} ");
    AppendU64(&out, e.count);
    out.append("\ndpgrid_event_last_unix_seconds{");
    out.append(labels);
    out.append("} ");
    AppendU64(&out, e.last_unix_s);
    out.push_back('\n');
  }
  return out;
}

std::string ToJson(const std::vector<NamedCounter>& counters,
                   const MetricsSnapshot& m) {
  std::string out;
  out.reserve(4096);
  out.append("{\"counters\":{");
  for (size_t i = 0; i < counters.size(); ++i) {
    if (i != 0) out.push_back(',');
    out.push_back('"');
    out.append(counters[i].name);
    out.append("\":");
    AppendU64(&out, counters[i].value);
  }
  out.append("},\"slow_frame_us\":");
  AppendU64(&out, m.slow_frame_us);
  out.append(",\"slow_frames\":");
  AppendU64(&out, m.slow_frames);
  out.append(",\"engine_batches\":");
  AppendU64(&out, m.engine_batches);
  out.append(",\"engine_queries\":");
  AppendU64(&out, m.engine_queries);
  out.append(",\"engine_batches_2d\":");
  AppendU64(&out, m.engine_batches_2d);
  out.append(",\"engine_queries_2d\":");
  AppendU64(&out, m.engine_queries_2d);
  out.append(",\"engine_batches_nd\":");
  AppendU64(&out, m.engine_batches_nd);
  out.append(",\"engine_queries_nd\":");
  AppendU64(&out, m.engine_queries_nd);
  out.append(",\"engine_batches_sharded\":");
  AppendU64(&out, m.engine_batches_sharded);

  out.append(",\"ops\":[");
  for (size_t i = 0; i < m.ops.size(); ++i) {
    const OpMetricsSnapshot& o = m.ops[i];
    if (i != 0) out.push_back(',');
    out.append("{\"op\":\"");
    AppendEscaped(&out, OpLabel(o));
    out.append("\",\"requests\":");
    AppendU64(&out, o.requests);
    out.append(",\"errors\":");
    AppendU64(&out, o.errors);
    out.append(",\"bytes_in\":");
    AppendU64(&out, o.bytes_in);
    out.append(",\"bytes_out\":");
    AppendU64(&out, o.bytes_out);
    out.append(",\"latency\":");
    JsonHistogram(&out, o.latency);
    out.push_back('}');
  }

  out.append("],\"stages\":{");
  for (size_t i = 0; i < m.stages.size(); ++i) {
    if (i != 0) out.push_back(',');
    out.push_back('"');
    out.append(StageName(i));
    out.append("\":");
    JsonHistogram(&out, m.stages[i]);
  }

  out.append("},\"datasets\":[");
  for (size_t i = 0; i < m.datasets.size(); ++i) {
    const DatasetMetricsSnapshot& d = m.datasets[i];
    if (i != 0) out.push_back(',');
    out.append("{\"name\":\"");
    AppendEscaped(&out, d.name);
    out.append("\",\"batches\":");
    AppendU64(&out, d.batches);
    out.append(",\"queries\":");
    AppendU64(&out, d.queries);
    out.append(",\"errors\":");
    AppendU64(&out, d.errors);
    out.append(",\"engine\":");
    JsonHistogram(&out, d.engine_us);
    out.push_back('}');
  }

  out.append("],\"events\":[");
  for (size_t i = 0; i < m.events.size(); ++i) {
    if (i != 0) out.push_back(',');
    out.append("{\"name\":\"");
    AppendEscaped(&out, m.events[i].name);
    out.append("\",\"count\":");
    AppendU64(&out, m.events[i].count);
    out.append(",\"last_unix_s\":");
    AppendU64(&out, m.events[i].last_unix_s);
    out.push_back('}');
  }

  out.append("],\"slow_traces\":[");
  for (size_t i = 0; i < m.slow_traces.size(); ++i) {
    const FrameTrace& t = m.slow_traces[i];
    if (i != 0) out.push_back(',');
    out.append("{\"request_id\":");
    AppendU64(&out, t.request_id);
    out.append(",\"op\":");
    AppendU64(&out, t.op);
    out.append(",\"dataset\":\"");
    AppendEscaped(&out, t.DatasetString());
    out.append("\",\"queries\":");
    AppendU64(&out, t.queries);
    out.append(",\"total_us\":");
    AppendU64(&out, t.TotalUs());
    out.append(",\"unix_s\":");
    AppendU64(&out, t.unix_s);
    out.append(",\"stages_us\":{");
    for (size_t s = 0; s < kNumStages; ++s) {
      if (s != 0) out.push_back(',');
      out.push_back('"');
      out.append(StageName(s));
      out.append("\":");
      AppendU64(&out, t.stage_us[s]);
    }
    out.append("}}");
  }
  out.append("]}");
  return out;
}

}  // namespace obs
}  // namespace dpgrid
