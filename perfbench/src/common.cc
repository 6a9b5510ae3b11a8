#include "perfbench/src/common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "src/obs/trace_log.h"

namespace perfbench {

namespace {

void WriteString(std::ostream& os, std::string_view text) {
  os << '"';
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
      os << escaped;
    } else {
      os << c;
    }
  }
  os << '"';
}

void WriteNumber(std::ostream& os, double value) {
  if (!std::isfinite(value)) {
    os << "null";
    return;
  }
  char cell[40];
  std::snprintf(cell, sizeof(cell), "%.17g", value);
  os << cell;
}

}  // namespace

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double SortedQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0;
  }
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

MemoryStatus ReadMemoryStatus() {
  MemoryStatus status;
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    double kib = 0;
    if (key == "RssAnon:" && in >> kib) {
      status.anon_mb = kib / 1024;
    } else if (key == "RssFile:" && in >> kib) {
      status.file_mb = kib / 1024;
    } else if (key == "VmHWM:" && in >> kib) {
      status.hwm_mb = kib / 1024;
    }
    in.ignore(1 << 10, '\n');
  }
  return status;
}

uint16_t SpanName(std::string_view name) {
  return edk::obs::TraceLog::Global().InternName(name);
}

TracingPaused::TracingPaused() : was_enabled_(edk::obs::TraceLog::Enabled()) {
  edk::obs::TraceLog::SetEnabled(false);
}

TracingPaused::~TracingPaused() { edk::obs::TraceLog::SetEnabled(was_enabled_); }

std::vector<SpanTotals> SummarizeWallSpans() {
  const edk::obs::TraceFile file = edk::obs::TraceLog::Global().Snapshot();
  std::vector<edk::obs::TraceEvent> events;
  for (const auto& event : file.wall_events) {
    if (event.dur > 0) {
      events.push_back(event);
    }
  }
  // Per thread, outer spans first: a parent starts no later than its
  // children and, on a tie, lasts longer.
  std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.ts != b.ts) return a.ts < b.ts;
    return a.dur > b.dur;
  });
  std::map<uint16_t, SpanTotals> by_name;
  std::vector<double> child_ns(events.size(), 0);
  std::vector<size_t> open;  // Indices of the enclosing spans.
  for (size_t i = 0; i < events.size(); ++i) {
    const auto& event = events[i];
    while (!open.empty()) {
      const auto& top = events[open.back()];
      if (top.tid == event.tid && event.ts < top.ts + top.dur) {
        break;
      }
      open.pop_back();
    }
    if (!open.empty()) {
      child_ns[open.back()] += static_cast<double>(event.dur);
    }
    open.push_back(i);
  }
  for (size_t i = 0; i < events.size(); ++i) {
    SpanTotals& totals = by_name[events[i].name];
    ++totals.count;
    totals.total_s += static_cast<double>(events[i].dur) * 1e-9;
    totals.self_s +=
        std::max(0.0, static_cast<double>(events[i].dur) - child_ns[i]) * 1e-9;
  }
  std::vector<SpanTotals> out;
  for (auto& [name, totals] : by_name) {
    totals.name = name < file.names.size() ? file.names[name].name
                                           : "name" + std::to_string(name);
    out.push_back(std::move(totals));
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.self_s > b.self_s; });
  return out;
}

uint64_t Fnv1a(std::string_view bytes, uint64_t hash) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string Hex64(uint64_t value) {
  char cell[20];
  std::snprintf(cell, sizeof(cell), "%016llx",
                static_cast<unsigned long long>(value));
  return cell;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = MetricValue{value, unit};
}

void Report::Check(const std::string& name, bool ok, const std::string& detail) {
  checks_.push_back(CheckResult{name, ok, detail});
}

void Report::Digest(const std::string& name, const std::string& value) {
  digests_[name] = value;
}

void Report::Env(const std::string& key, const std::string& value) {
  env_[key] = value;
}

void Report::Env(const std::string& key, double value) {
  char cell[40];
  std::snprintf(cell, sizeof(cell), "%.17g", value);
  env_[key] = cell;
}

void Report::AddOps(uint64_t attempted, uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::MemoryAt(const std::string& boundary) {
  memory_.push_back(MemoryPoint{boundary, ReadMemoryStatus()});
}

void Report::WriteJson(std::ostream& os) const {
  os << "{\"attempted\": " << attempted_ << ", \"failed\": " << failed_;
  os << ", \"metrics\": {";
  const char* sep = "";
  for (const auto& [name, metric] : metrics_) {
    os << sep;
    WriteString(os, name);
    os << ": {\"value\": ";
    WriteNumber(os, metric.value);
    os << ", \"unit\": ";
    WriteString(os, metric.unit);
    os << "}";
    sep = ", ";
  }
  os << "}, \"checks\": [";
  sep = "";
  for (const CheckResult& check : checks_) {
    os << sep << "{\"name\": ";
    WriteString(os, check.name);
    os << ", \"ok\": " << (check.ok ? "true" : "false") << ", \"detail\": ";
    WriteString(os, check.detail);
    os << "}";
    sep = ", ";
  }
  os << "], \"digests\": {";
  sep = "";
  for (const auto& [name, value] : digests_) {
    os << sep;
    WriteString(os, name);
    os << ": ";
    WriteString(os, value);
    sep = ", ";
  }
  os << "}, \"env\": {";
  sep = "";
  for (const auto& [key, value] : env_) {
    os << sep;
    WriteString(os, key);
    os << ": ";
    WriteString(os, value);
    sep = ", ";
  }
  os << "}, \"memory\": [";
  sep = "";
  for (const MemoryPoint& point : memory_) {
    os << sep << "{\"boundary\": ";
    WriteString(os, point.boundary);
    os << ", \"anon_mb\": ";
    WriteNumber(os, point.status.anon_mb);
    os << ", \"file_mb\": ";
    WriteNumber(os, point.status.file_mb);
    os << ", \"hwm_mb\": ";
    WriteNumber(os, point.status.hwm_mb);
    os << "}";
    sep = ", ";
  }
  os << "], \"spans\": [";
  sep = "";
  for (const SpanTotals& span : spans_) {
    os << sep << "{\"name\": ";
    WriteString(os, span.name);
    os << ", \"count\": " << span.count << ", \"total_s\": ";
    WriteNumber(os, span.total_s);
    os << ", \"self_s\": ";
    WriteNumber(os, span.self_s);
    os << "}";
    sep = ", ";
  }
  os << "]}";
}

}  // namespace perfbench
