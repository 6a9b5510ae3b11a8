// Workbench benchmark binary: runs one workload and prints its Report.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--tiny] [--work-dir DIR]
//
// NAME is serve-index, gossip-sim, trace-scan or paper-figs.
// With --trace 1 the global trace log records the benchmark's layer spans
// (and the library's own) and is written to DIR/trace-NAME.edks at exit
// through the same exit hook as --trace-out. The last stdout line is the
// Report as JSON; perfbench/run.py reads it.

#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "perfbench/src/common.h"
#include "src/exec/parallel.h"
#include "src/obs/flags.h"

namespace {

[[noreturn]] void Usage() {
  std::cerr << "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1"
               " [--tiny] [--work-dir DIR]\n";
  std::exit(2);
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

constexpr bool kOptimized =
#ifdef __OPTIMIZE__
    true;
#else
    false;
#endif

constexpr bool kSanitized =
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    true;
#else
    false;
#endif

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      options.tiny = true;
      continue;
    }
    if (i + 1 >= argc) {
      Usage();
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      Usage();
    }
  }
  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  options.threads = nproc > 0 ? static_cast<size_t>(nproc) : 1;
  edk::SetDefaultThreads(options.threads);
  if (options.trace) {
    edk::obs::ObsFlagValues obs;
    obs.trace_out = options.work_dir + "/trace-" + options.workload + ".edks";
    edk::obs::ApplyObsFlags(obs);
  }

  perfbench::Report report;
  report.Env("workload", options.workload);
  report.Env("seed", static_cast<double>(options.seed));
  report.Env("nproc", static_cast<double>(options.threads));
  report.Env("build_type", PERFBENCH_BUILD_TYPE);
  report.Env("optimized", kOptimized ? "true" : "false");
  report.Env("sanitizer", kSanitized ? "true" : "false");
  report.Env("cpu_model", CpuModel());
  report.Env("loopback_only", "true");
  report.Env("traced", options.trace ? "true" : "false");
  report.Env("tiny", options.tiny ? "true" : "false");
  report.Check("build.valid", kOptimized && !kSanitized,
               "unoptimised or sanitizer build: timings are invalid");

  if (options.workload == "serve-index") {
    perfbench::RunServe(options, &report);
  } else if (options.workload == "gossip-sim") {
    perfbench::RunGossip(options, &report);
  } else if (options.workload == "trace-scan") {
    perfbench::RunScan(options, &report);
  } else if (options.workload == "paper-figs") {
    perfbench::RunFigures(options, &report);
  } else {
    Usage();
  }

  report.MemoryAt("exit");
  const perfbench::MemoryStatus memory = perfbench::ReadMemoryStatus();
  if (options.trace) {
    report.Spans(perfbench::SummarizeWallSpans());
  } else {
    report.Metric("peak_rss_mb", memory.hwm_mb, "MiB");
  }
  report.WriteJson(std::cout);
  std::cout << std::endl;
  return 0;
}
