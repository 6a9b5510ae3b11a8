// Shared plumbing of the workbench benchmark: run options, timing and
// quantile helpers, /proc memory readings, the wall-span summary of a
// traced run, and the Report every workload fills in.
//
// The benchmark binary prints the Report as one JSON object on the last
// line of stdout; perfbench/run.py turns it into the result line and the
// human-readable tables.

#ifndef PERFBENCH_SRC_COMMON_H_
#define PERFBENCH_SRC_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/span.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;  // Measured time budget of the run.
  bool trace = false;   // Traced run: per-layer metrics and spans.
  bool tiny = false;    // Smoke-test sizes (seconds-long, not meaningful).
  std::string work_dir = ".";  // Work files: trace file, span dump.
  size_t threads = 1;   // Hardware threads; set by main from nproc.
};

// Median of `values` (0 when empty).
double Median(std::vector<double> values);
// Quantile of an ascending-sorted sample by the nearest-rank rule.
double SortedQuantile(const std::vector<double>& sorted, double q);

// Resident memory from /proc/self/status, in MiB.
struct MemoryStatus {
  double anon_mb = 0;  // RssAnon: heap, stacks, anonymous maps.
  double file_mb = 0;  // RssFile: mapped file pages (the mmap'd trace).
  double hwm_mb = 0;   // VmHWM: peak resident set so far.
};
MemoryStatus ReadMemoryStatus();

// Interns a wall-span name in the global trace log (idempotent).
uint16_t SpanName(std::string_view name);

// Turns tracing off for a scope and restores it: the untraced baseline a
// traced run compares against.
class TracingPaused {
 public:
  TracingPaused();
  ~TracingPaused();
  TracingPaused(const TracingPaused&) = delete;
  TracingPaused& operator=(const TracingPaused&) = delete;

 private:
  bool was_enabled_;
};

// Runs fn() inside a wall span named `span_name`; returns its seconds.
template <typename Fn>
double Timed(const char* span_name, Fn&& fn) {
  edk::obs::WallSpan span(SpanName(span_name));
  const auto start = Clock::now();
  fn();
  return SecondsSince(start);
}

// Per-name totals of the wall spans recorded so far: `self` is a span's
// duration minus the time its direct children (nested spans on the same
// thread) cover.
struct SpanTotals {
  std::string name;
  uint64_t count = 0;
  double total_s = 0;
  double self_s = 0;
};
std::vector<SpanTotals> SummarizeWallSpans();

// FNV-1a over `bytes`, continuing from `hash`.
uint64_t Fnv1a(std::string_view bytes, uint64_t hash = 14695981039346656037ull);
std::string Hex64(uint64_t value);

// What one workload run measured and checked.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  // A correctness gate; a failed gate fails the run.
  void Check(const std::string& name, bool ok, const std::string& detail = "");
  // A digest run.py compares with the one recorded for the seed.
  void Digest(const std::string& name, const std::string& value);
  void Env(const std::string& key, const std::string& value);
  void Env(const std::string& key, double value);
  // Operations attempted and failed (requests, or checks for the
  // non-serving workloads; gates are added on top).
  void AddOps(uint64_t attempted, uint64_t failed);
  // Records RssAnon/RssFile at a layer boundary.
  void MemoryAt(const std::string& boundary);
  void Spans(std::vector<SpanTotals> spans) { spans_ = std::move(spans); }

  void WriteJson(std::ostream& os) const;

 private:
  struct MetricValue {
    double value;
    std::string unit;
  };
  struct CheckResult {
    std::string name;
    bool ok;
    std::string detail;
  };
  struct MemoryPoint {
    std::string boundary;
    MemoryStatus status;
  };
  std::map<std::string, MetricValue> metrics_;
  std::vector<CheckResult> checks_;
  std::map<std::string, std::string> digests_;
  std::map<std::string, std::string> env_;
  std::vector<MemoryPoint> memory_;
  std::vector<SpanTotals> spans_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// Runs `setup` at least three times and for at least 3 seconds (the
// last result is kept by the callee); returns the median time of one.
template <typename Fn>
double MedianSetupSeconds(Fn&& setup) {
  std::vector<double> times;
  const auto first = Clock::now();
  while (times.size() < 3 || SecondsSince(first) < 3) {
    const auto start = Clock::now();
    setup();
    times.push_back(SecondsSince(start));
  }
  return Median(times);
}

// Workload entry points (one translation unit each).
void RunServe(const RunOptions& options, Report* report);
void RunGossip(const RunOptions& options, Report* report);
void RunScan(const RunOptions& options, Report* report);
void RunFigures(const RunOptions& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_COMMON_H_
