// paper-figs: the figure computations a researcher waits for, called
// directly on the library (no on-disk trace cache).
//
// Setup generates a fixed workload and derives the filtered and
// extrapolated traces. One pass then computes fig13 (clustering), fig14 (randomised
// caches), fig15 (overlap evolution), the fig18 search grid, the fig23
// two-hop grid and the fig01 crawl. Every pass must print the same figure
// numbers; their digest is the correctness gate.

#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "src/analysis/clustering.h"
#include "src/analysis/overlap.h"
#include "src/crawler/crawler.h"
#include "src/exec/parallel.h"
#include "src/semantic/scenario.h"
#include "src/semantic/search_sim.h"
#include "src/trace/filter.h"
#include "src/trace/randomize.h"
#include "src/workload/generator.h"

namespace perfbench {

namespace {

// Folds figure numbers into a digest with full precision.
class Digest {
 public:
  void Add(double value) {
    char cell[40];
    std::snprintf(cell, sizeof(cell), "%.17g;", value);
    hash_ = Fnv1a(cell, hash_);
  }
  void Add(const edk::ClusteringCurve& curve) {
    for (const double p : curve.probability) {
      Add(p);
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = Fnv1a("");
};

// Per-layer times of one figure pass.
struct PassTimes {
  double clustering_s = 0;
  double union_caches_s = 0;
  double randomize_s = 0;
  double overlap_s = 0;
  double search_s = 0;
  double two_hop_s = 0;
  double crawl_s = 0;
  double search_requests = 0;
};

struct Traces {
  edk::Trace filtered;
  edk::Trace extrapolated;
};

uint64_t FigurePass(const Traces& traces, const edk::WorkloadConfig& crawl_workload,
                    uint64_t seed, PassTimes* times) {
  Digest digest;
  constexpr size_t kMaxK = 20;
  // fig13: clustering on the first extrapolated day.
  times->clustering_s += Timed("bench.analysis.clustering", [&] {
    const edk::StaticCaches day = edk::BuildDayCaches(
        traces.extrapolated, traces.extrapolated.first_day());
    digest.Add(edk::ComputeClusteringCurve(day, kMaxK));
  });
  // fig14: the same curve on the union caches and on a randomised copy.
  edk::StaticCaches caches;
  times->union_caches_s += Timed("bench.trace.union_caches",
           [&] { caches = edk::BuildUnionCaches(traces.filtered); });
  edk::StaticCaches randomized;
  times->randomize_s += Timed("bench.trace.randomize", [&] {
    edk::Rng rng = edk::TaskRng(seed ^ 0xfeedULL, 0);
    randomized = edk::RandomizeCachesFully(caches, rng).caches;
  });
  times->clustering_s += Timed("bench.analysis.clustering", [&] {
    digest.Add(edk::ComputeClusteringCurve(caches, kMaxK));
    digest.Add(edk::ComputeClusteringCurve(randomized, kMaxK));
  });
  // fig15: overlap evolution of the day-one cohorts.
  times->overlap_s += Timed("bench.analysis.overlap", [&] {
    edk::OverlapEvolutionOptions overlap;
    overlap.seed = seed;
    for (const auto& cohort : edk::ComputeOverlapEvolution(traces.extrapolated, overlap)) {
      digest.Add(static_cast<double>(cohort.pair_count));
      for (const double mean : cohort.mean_overlap) {
        digest.Add(mean);
      }
    }
  });
  // fig18: list size x strategy grid.
  times->search_s += Timed("bench.semantic.search", [&] {
    const std::array<size_t, 8> sizes = {5, 10, 20, 40, 80, 120, 160, 200};
    const std::array<edk::StrategyKind, 3> strategies = {
        edk::StrategyKind::kLru, edk::StrategyKind::kHistory, edk::StrategyKind::kRandom};
    std::vector<edk::SearchSimResult> results(sizes.size() * strategies.size());
    edk::ParallelFor(0, results.size(), [&](size_t cell) {
      edk::SearchSimConfig config;
      config.strategy = strategies[cell % strategies.size()];
      config.list_size = sizes[cell / strategies.size()];
      config.seed = seed;
      config.track_load = false;
      results[cell] = edk::RunSearchSimulation(caches, config);
    });
    for (const auto& result : results) {
      digest.Add(result.OneHopHitRate());
      times->search_requests += static_cast<double>(result.requests);
    }
  });
  // fig23: one and two hops, without the top 5% / 15% uploaders.
  times->two_hop_s += Timed("bench.semantic.two_hop", [&] {
    const edk::StaticCaches no_top5 = edk::RemoveTopUploaders(caches, 0.05);
    const edk::StaticCaches no_top15 = edk::RemoveTopUploaders(caches, 0.15);
    const std::array<size_t, 5> sizes = {5, 10, 20, 40, 80};
    const std::array<const edk::StaticCaches*, 4> columns = {&caches, &caches, &no_top5,
                                                             &no_top15};
    std::vector<double> rates(sizes.size() * columns.size());
    edk::ParallelFor(0, rates.size(), [&](size_t cell) {
      const size_t column = cell % columns.size();
      edk::SearchSimConfig config;
      config.strategy = edk::StrategyKind::kLru;
      config.list_size = sizes[cell / columns.size()];
      config.two_hop = column > 0;
      config.seed = seed;
      config.track_load = false;
      const auto result = edk::RunSearchSimulation(*columns[column], config);
      rates[cell] = config.two_hop ? result.TotalHitRate() : result.OneHopHitRate();
    });
    for (const double rate : rates) {
      digest.Add(rate);
    }
  });
  // fig01: the crawler's view of a smaller network.
  times->crawl_s += Timed("bench.crawler.crawl", [&] {
    edk::CrawlConfig crawl;
    crawl.workload = crawl_workload;
    crawl.num_servers = 4;
    crawl.prefix_length = 2;
    crawl.initial_daily_browse_budget =
        static_cast<uint32_t>(0.45 * crawl_workload.num_peers);
    crawl.browse_budget_decay = 0.985;
    const edk::CrawlResult result = edk::RunCrawlSimulation(crawl);
    for (const auto& day : result.days) {
      digest.Add(day.users_discovered);
      digest.Add(day.browses_succeeded);
      digest.Add(static_cast<double>(day.files_seen));
    }
  });
  return digest.value();
}

}  // namespace

void RunFigures(const RunOptions& options, Report* report) {
  edk::WorkloadConfig config = edk::MediumWorkloadConfig();
  config.num_peers = options.tiny ? 600 : 3'000;
  config.num_files = options.tiny ? 4'000 : 18'000;
  config.num_topics = options.tiny ? 40 : 120;
  config.num_days = options.tiny ? 10 : 28;
  // The population is fixed (the generator's default seed), so every run
  // computes the same figures over the same amount of data; the run's seed
  // drives the simulations: randomisation, cohort sampling, search.
  edk::WorkloadConfig crawl_workload = config;
  crawl_workload.num_peers = options.tiny ? 300 : 1'200;
  crawl_workload.num_files = options.tiny ? 2'000 : 8'000;
  crawl_workload.num_topics = options.tiny ? 20 : 60;
  crawl_workload.num_days = options.tiny ? 5 : 14;
  report->Env("figs.workload", std::to_string(config.num_peers) + " peers / " +
                                   std::to_string(config.num_files) + " files / " +
                                   std::to_string(config.num_days) + " days");
  report->Env("figs.crawl_workload", std::to_string(crawl_workload.num_peers) + " peers / " +
                                         std::to_string(crawl_workload.num_days) + " days");

  Traces traces;
  std::vector<double> generate_s, filter_s, extrapolate_s;
  const double setup_s = MedianSetupSeconds([&] {
    traces = {};  // Release the previous round, so VmHWM is one setup's peak.
    edk::Trace trace;
    generate_s.push_back(Timed("bench.workload.generate",
                               [&] { trace = edk::GenerateWorkload(config).trace; }));
    filter_s.push_back(
        Timed("bench.trace.filter", [&] { traces.filtered = edk::FilterDuplicates(trace); }));
    extrapolate_s.push_back(Timed("bench.trace.extrapolate", [&] {
      traces.extrapolated = edk::Extrapolate(traces.filtered);
    }));
  });
  report->Metric("setup_s", setup_s, "s");
  report->MemoryAt("setup");

  std::vector<double> passes;
  std::vector<PassTimes> pass_times;
  uint64_t digest = 0;
  uint64_t mismatches = 0;
  const auto start = Clock::now();
  const size_t min_passes = options.tiny ? 1 : 3;
  {
    TracingPaused untraced;
    const double budget = options.trace ? 0.3 * options.seconds : options.seconds;
    while (passes.size() < min_passes || SecondsSince(start) < budget) {
      pass_times.emplace_back();
      const auto pass_start = Clock::now();
      const uint64_t pass_digest =
          FigurePass(traces, crawl_workload, options.seed, &pass_times.back());
      passes.push_back(SecondsSince(pass_start));
      if (passes.size() > 1 && pass_digest != digest) {
        ++mismatches;
      }
      digest = pass_digest;
      if (options.tiny && passes.size() >= min_passes) {
        break;
      }
    }
  }
  report->MemoryAt("figures");
  report->AddOps(passes.size(), mismatches);
  report->Digest("figs.numbers", Hex64(digest));
  report->Check("figs.passes_agree", mismatches == 0,
                std::to_string(mismatches) + " passes printed different figure numbers");
  const double pass_s = Median(passes);
  if (!options.trace) {
    // A pass made of each computation's fastest run: the work least
    // disturbed by other tenants of the host, who slow different
    // computations in different passes.
    double fastest_pass_s = 0;
    for (double PassTimes::*field :
         {&PassTimes::clustering_s, &PassTimes::union_caches_s, &PassTimes::randomize_s,
          &PassTimes::overlap_s, &PassTimes::search_s, &PassTimes::two_hop_s,
          &PassTimes::crawl_s}) {
      double fastest = pass_times.front().*field;
      for (const PassTimes& times : pass_times) {
        fastest = std::min(fastest, times.*field);
      }
      fastest_pass_s += fastest;
    }
    report->Metric("throughput_per_s", 1 / fastest_pass_s, "1/s");
    return;
  }

  PassTimes traced_times;
  const auto traced_start = Clock::now();
  FigurePass(traces, crawl_workload, options.seed, &traced_times);
  report->Metric("obs.trace_overhead_share", (SecondsSince(traced_start) - pass_s) / pass_s,
                 "ratio");
  report->Metric("workload.generate_s", Median(generate_s), "s");
  report->Metric("trace.filter_s", Median(filter_s), "s");
  report->Metric("trace.extrapolate_s", Median(extrapolate_s), "s");
  auto median_of = [&](double PassTimes::*field) {
    std::vector<double> values;
    for (const PassTimes& times : pass_times) {
      values.push_back(times.*field);
    }
    return Median(values);
  };
  report->Metric("trace.union_caches_s", median_of(&PassTimes::union_caches_s), "s");
  report->Metric("trace.randomize_s", median_of(&PassTimes::randomize_s), "s");
  report->Metric("analysis.clustering_s", median_of(&PassTimes::clustering_s), "s");
  report->Metric("analysis.overlap_s", median_of(&PassTimes::overlap_s), "s");
  report->Metric("semantic.search_s", median_of(&PassTimes::search_s), "s");
  report->Metric("semantic.search_requests", pass_times.front().search_requests, "count");
  report->Metric("semantic.two_hop_s", median_of(&PassTimes::two_hop_s), "s");
  report->Metric("crawler.crawl_s", median_of(&PassTimes::crawl_s), "s");
}

}  // namespace perfbench
