// trace-scan: the out-of-core EDKT v2 pipeline.
//
// Setup writes a GenerateScaleTrace trace into the work directory; the run
// then repeats ParallelScanSnapshots passes at nproc threads over the warm
// page cache. It does both four times, on four fresh copies. Every pass
// must reproduce the serial scan's checksum and snapshot count.
//
// The traced run splits the pipeline: Open, a plain sequential read of the
// file (the bandwidth ceiling), the serial decode, per-block decode times,
// page faults around the first (cold-mapped) parallel pass, ReadDay on the
// densest day and the linear streaming analyses.

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "src/analysis/streaming.h"
#include "src/obs/span.h"
#include "src/trace/stream/parallel_scan.h"
#include "src/trace/stream/trace_reader.h"
#include "src/workload/stream_generate.h"

namespace perfbench {

namespace {

namespace stream = edk::stream;

struct ScanResult {
  bool ok = false;
  uint64_t snapshots = 0;
  uint64_t entries = 0;
  uint64_t checksum = 0;
};

// Hash of one snapshot over its day, peer, count and every file id in
// order. Four independent FNV-style lanes each take a pair of ids per
// step, so the multiplies overlap; every step is a bijection of the lane,
// so altering any one id changes the hash. The lanes are folded and
// finished with the splitmix64 mixer. A scan adds the hashes up: the
// checksum does not depend on how the scan splits the trace, while an
// altered, dropped or duplicated snapshot changes it.
uint64_t SnapshotHash(int day, uint32_t peer, const uint32_t* files, size_t count) {
  constexpr uint64_t kBasis = 14695981039346656037ull;
  constexpr uint64_t kPrime = 1099511628211ull;
  uint64_t lanes[4] = {kBasis ^ static_cast<uint32_t>(day), kBasis ^ peer, kBasis ^ count,
                       kBasis};
  size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    for (size_t l = 0; l < 4; ++l) {
      const uint64_t pair = files[i + 2 * l] | static_cast<uint64_t>(files[i + 2 * l + 1]) << 32;
      lanes[l] = (lanes[l] ^ pair) * kPrime;
    }
  }
  uint64_t h = lanes[0];
  for (; i < count; ++i) {
    h = (h ^ files[i]) * kPrime;
  }
  for (size_t l = 1; l < 4; ++l) {
    h = (h ^ lanes[l]) * kPrime;
  }
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

ScanResult ScanSerial(const stream::TraceReader& reader) {
  ScanResult result;
  stream::DecodeArena arena;
  for (const auto& info : reader.days()) {
    if (!reader.ForEachSnapshot(info, arena,
                                [&](uint32_t peer, const uint32_t* files, size_t count) {
                                  ++result.snapshots;
                                  result.entries += count;
                                  result.checksum += SnapshotHash(info.day, peer, files, count);
                                })) {
      return result;
    }
  }
  result.ok = true;
  return result;
}

ScanResult ScanParallel(const stream::TraceReader& reader,
                        const std::vector<stream::ScanTask>& tasks, size_t threads) {
  std::vector<ScanResult> partials(tasks.size());
  ScanResult result;
  result.ok = stream::ParallelScanSnapshots(
      reader, tasks,
      [&](size_t t, uint32_t peer, const uint32_t* files, size_t count) {
        ++partials[t].snapshots;
        partials[t].entries += count;
        partials[t].checksum += SnapshotHash(tasks[t].day->day, peer, files, count);
      },
      threads);
  for (const ScanResult& partial : partials) {
    result.snapshots += partial.snapshots;
    result.entries += partial.entries;
    result.checksum += partial.checksum;
  }
  return result;
}

// Reads the whole file sequentially with read(2); returns bytes read.
uint64_t TouchFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return 0;
  }
  std::vector<char> buffer(1 << 20);
  uint64_t total = 0;
  for (;;) {
    const ssize_t got = ::read(fd, buffer.data(), buffer.size());
    if (got <= 0) {
      break;
    }
    total += static_cast<uint64_t>(got);
  }
  ::close(fd);
  return total;
}

struct Faults {
  double minor = 0;
  double major = 0;
};

Faults ReadFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return Faults{static_cast<double>(usage.ru_minflt), static_cast<double>(usage.ru_majflt)};
}

}  // namespace

void RunScan(const RunOptions& options, Report* report) {
  edk::ScaleTraceConfig config;
  config.num_peers = options.tiny ? 20'000 : 4'000'000;
  config.num_files = config.num_peers / 5;
  config.num_days = 21;
  config.seed = options.seed;
  const std::string path = options.work_dir + "/trace-scan.edk2";
  report->Env("scan.population", std::to_string(config.num_peers) + " peers / " +
                                     std::to_string(config.num_files) + " files / " +
                                     std::to_string(config.num_days) + " days");
  report->Env("scan.threads", static_cast<double>(options.threads));

  // The run writes the trace kRounds times and scans each fresh copy for
  // a share of the time budget, so one copy's placement in the page cache
  // does not decide the result.
  constexpr size_t kRounds = 4;
  const double budget = options.tiny ? 0.2 : options.trace ? 0.3 * options.seconds
                                                           : options.seconds;
  std::string error;
  std::vector<double> generate_s;
  std::vector<double> write_mbps;
  std::vector<double> passes;
  std::optional<stream::TraceReader> reader;
  std::vector<stream::ScanTask> tasks;
  ScanResult serial;
  double serial_s = 0;
  double open_s = 0;
  Faults faults_before;
  Faults faults_after;
  uint64_t mismatches = 0;
  for (size_t round = 0; round < kRounds; ++round) {
    reader.reset();
    std::remove(path.c_str());
    std::optional<edk::StreamGenerateStats> gen;
    generate_s.push_back(Timed("bench.stream.generate", [&] {
      gen = edk::GenerateScaleTrace(config, path, false, &error);
    }));
    report->Check("scan.generated", gen.has_value(), error);
    if (!gen.has_value()) {
      return;
    }
    write_mbps.push_back(static_cast<double>(gen->bytes_written) / 1e6 / generate_s.back());
    // Write the dirty pages back now, so background writeback does not
    // compete with the timed scans.
    if (const int fd = ::open(path.c_str(), O_RDONLY); fd >= 0) {
      ::fdatasync(fd);
      ::close(fd);
    }
    open_s = Timed("bench.stream.open", [&] { reader = stream::TraceReader::Open(path, &error); });
    report->Check("scan.opened", reader.has_value(), error);
    if (!reader.has_value()) {
      return;
    }
    tasks = stream::MakeScanTasks(*reader);

    // First pass over the fresh mapping: page faults map the file in.
    faults_before = ReadFaults();
    ScanResult first;
    Timed("bench.stream.scan_parallel",
          [&] { first = ScanParallel(*reader, tasks, options.threads); });
    faults_after = ReadFaults();
    if (round == 0) {
      serial_s = Timed("bench.stream.scan_serial", [&] { serial = ScanSerial(*reader); });
      report->Check("scan.serial_ok", serial.ok, "serial decode failed");
      report->Digest("scan.checksum",
                     Hex64(serial.checksum) + "/" + std::to_string(serial.snapshots));
    }
    TracingPaused untraced;
    const auto start = Clock::now();
    std::vector<ScanResult> results = {first};
    while (results.size() < 3 || SecondsSince(start) < budget / kRounds) {
      ScanResult pass;
      passes.push_back(Timed("bench.stream.scan_parallel", [&] {
        pass = ScanParallel(*reader, tasks, options.threads);
      }));
      results.push_back(pass);
    }
    std::fprintf(stderr, "[scan] copy %zu: generated in %.2f s, median pass %.1f ms\n", round,
                 generate_s.back(),
                 1000 * Median({passes.end() - static_cast<std::ptrdiff_t>(results.size() - 1),
                                passes.end()}));
    for (const ScanResult& pass : results) {
      if (!pass.ok || pass.checksum != serial.checksum ||
          pass.snapshots != serial.snapshots || pass.entries != serial.entries) {
        ++mismatches;
      }
    }
    report->AddOps(results.size(), 0);
  }
  const double bytes = static_cast<double>(reader->size_bytes());
  report->Env("scan.trace_bytes", bytes);
  report->Env("scan.blocks", static_cast<double>(tasks.size()));
  report->Env("scan.snapshots", static_cast<double>(serial.snapshots));
  report->Env("scan.file_entries", static_cast<double>(serial.entries));
  report->Metric("setup_s", Median(generate_s), "s");
  report->MemoryAt("scan");
  report->AddOps(0, mismatches);
  report->Check("scan.parallel_matches_serial", mismatches == 0,
                std::to_string(mismatches) + " parallel passes disagree with the serial scan");
  const double pass_s = Median(passes);
  if (!options.trace) {
    // The fastest pass: the one least disturbed by other tenants of the host.
    report->Metric("throughput_per_s", bytes / *std::min_element(passes.begin(), passes.end()),
                   "1/s");
    reader.reset();
    std::remove(path.c_str());
    return;
  }

  std::vector<double> traced;
  for (size_t i = 0; i < 3; ++i) {
    traced.push_back(Timed("bench.stream.scan_parallel", [&] {
      ScanParallel(*reader, tasks, options.threads);
    }));
  }
  report->Metric("obs.trace_overhead_share", (Median(traced) - pass_s) / pass_s, "ratio");
  report->Metric("stream.write_mbps", Median(write_mbps), "MB/s");
  report->Metric("stream.open_ms", open_s * 1000, "ms");
  const double touch_s = Timed("bench.stream.touch", [&] { TouchFile(path); });
  report->Metric("stream.touch_gbps", bytes / 1e9 / touch_s, "GB/s");
  report->Metric("stream.decode_1t_gbps", bytes / 1e9 / serial_s, "GB/s");
  report->Metric("stream.scan_gbps", bytes / 1e9 / pass_s, "GB/s");
  report->Metric("stream.scan_speedup", serial_s / pass_s, "ratio");
  std::vector<double> block_ms;
  {
    edk::obs::WallSpan span(SpanName("bench.stream.block_decode"));
    stream::DecodeArena arena;
    for (const stream::ScanTask& task : tasks) {
      const auto block_start = Clock::now();
      reader->ForEachSnapshotInBlock(*task.day, task.block, arena,
                                     [](uint32_t, const uint32_t*, size_t) {});
      block_ms.push_back(SecondsSince(block_start) * 1000);
    }
  }
  report->Metric("stream.block_decode_ms_p50", Median(block_ms), "ms");
  report->Metric("stream.block_decode_ms_max",
                 *std::max_element(block_ms.begin(), block_ms.end()), "ms");
  report->Metric("stream.blocks", static_cast<double>(tasks.size()), "count");
  report->Metric("stream.snapshots", static_cast<double>(serial.snapshots), "count");
  report->Metric("stream.minor_faults", faults_after.minor - faults_before.minor, "count");
  report->Metric("stream.major_faults", faults_after.major - faults_before.major, "count");

  const stream::TraceReader::DayInfo* densest = &reader->days().front();
  for (const auto& info : reader->days()) {
    if (info.file_entries > densest->file_entries) {
      densest = &info;
    }
  }
  bool day_ok = false;
  report->Metric("stream.readday_s", Timed("bench.stream.read_day", [&] {
                   day_ok = reader->ReadDay(*densest, &error).has_value();
                 }),
                 "s");
  report->Check("scan.read_day", day_ok, error);
  report->MemoryAt("read_day");
  report->Metric("analysis.daily_activity_s", Timed("bench.analysis.daily_activity", [&] {
                   edk::StreamingDailyActivity(*reader);
                 }),
                 "s");
  report->Metric("analysis.ranked_sources_s", Timed("bench.analysis.ranked_sources", [&] {
                   edk::StreamingRankedSourcesOnDay(*reader, reader->last_day());
                 }),
                 "s");
  // File spread of the most-held file of the densest day.
  std::vector<uint32_t> holders(reader->file_count(), 0);
  stream::DecodeArena arena;
  reader->ForEachSnapshot(*densest, arena, [&](uint32_t, const uint32_t* files, size_t count) {
    for (size_t f = 0; f < count; ++f) {
      ++holders[files[f]];
    }
  });
  const edk::FileId top(static_cast<uint32_t>(
      std::max_element(holders.begin(), holders.end()) - holders.begin()));
  report->Metric("analysis.file_spread_s", Timed("bench.analysis.file_spread", [&] {
                   edk::StreamingFileSpreadOverTime(*reader, top);
                 }),
                 "s");
  report->MemoryAt("analyses");
  reader.reset();
  std::remove(path.c_str());
}

}  // namespace perfbench
