// gossip-sim: event-driven semantic gossip on the sharded engine.
//
// RunShardedGossip over MakeClusteredCaches with interest placement and
// shards = threads = nproc, repeated for the run's time budget. The
// engine's deterministic summary is the correctness gate.
//
// The traced run adds two kernel baselines with the same event count: a
// ShardedEngine with the same nodes, shards, lookahead and placement
// running an exchange-shaped send pattern with empty callbacks, and a bare
// EventQueue. Their gap to the gossip run is the callback (protocol) share.

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "src/common/rng.h"
#include "src/net/event_queue.h"
#include "src/net/latency.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/semantic/interest_placement.h"
#include "src/semantic/sharded_gossip.h"
#include "src/sim/sharded_engine.h"
#include "src/workload/geography.h"

namespace perfbench {

namespace {

constexpr uint32_t kFiles = 800;
constexpr uint32_t kTopics = 16;

// Total of a wall phase in MetricsRegistry::WriteJson output.
double WallPhaseSeconds(const std::string& json, const std::string& name) {
  const size_t at = json.find("\"" + name + "\": {\"count\"");
  if (at == std::string::npos) {
    return 0;
  }
  const std::string key = "\"total_seconds\": ";
  const size_t value = json.find(key, at);
  return value == std::string::npos ? 0 : std::strtod(json.c_str() + value + key.size(), nullptr);
}

struct PhaseTotals {
  double window_loop_s = 0;
  double barrier_stall_s = 0;
  double barrier_stall_max_shard_s = 0;
};

PhaseTotals ReadPhases(size_t shards) {
  std::ostringstream os;
  edk::obs::MetricsRegistry::Global().WriteJson(os);
  const std::string json = os.str();
  PhaseTotals totals;
  totals.window_loop_s = WallPhaseSeconds(json, "sim.window_loop");
  totals.barrier_stall_s = WallPhaseSeconds(json, "sim.barrier_stall");
  for (size_t k = 0; k < shards; ++k) {
    totals.barrier_stall_max_shard_s =
        std::max(totals.barrier_stall_max_shard_s,
                 WallPhaseSeconds(json, "sim.shard" + std::to_string(k) + ".barrier_stall"));
  }
  return totals;
}

// Exchange-shaped traffic with empty callbacks: every node initiates once
// per round (a timer), sends a request, and the partner sends a reply.
// Partners stay on the initiator's shard with the gossip run's measured
// probability, so the cross-shard share matches.
class NullExchange {
 public:
  NullExchange(edk::sim::ShardedEngineConfig config, uint32_t nodes, size_t rounds,
               double same_shard_share)
      : engine_(std::move(config)), rounds_(rounds), same_shard_share_(same_shard_share) {
    engine_.EnsureNodes(nodes);
    members_.resize(engine_.shard_count());
    for (uint32_t node = 0; node < nodes; ++node) {
      members_[engine_.shard_of(node)].push_back(node);
    }
    for (uint32_t node = 0; node < nodes; ++node) {
      const double offset = kPeriod * engine_.NodeRng(node).NextDouble();
      engine_.ScheduleOn(node, offset, [this, node] { Initiate(node, 0); });
    }
  }

  uint64_t Run() { return engine_.Run(); }

 private:
  static constexpr double kPeriod = 10.0;

  double Delay(uint32_t node) {
    return engine_.lookahead() * (1 + 3 * engine_.NodeRng(node).NextDouble());
  }

  void Initiate(uint32_t node, size_t round) {
    edk::Rng& rng = engine_.NodeRng(node);
    uint32_t partner = 0;
    if (rng.NextBool(same_shard_share_)) {
      const auto& local = members_[engine_.shard_of(node)];
      partner = local[rng.NextBelow(local.size())];
    } else {
      partner = static_cast<uint32_t>(rng.NextBelow(engine_.node_count()));
    }
    engine_.Send(node, partner, Delay(node), [this, node, partner] {
      engine_.Send(partner, node, Delay(partner), [] {});
    });
    if (round + 1 < rounds_) {
      engine_.ScheduleOn(node, kPeriod, [this, node, round] { Initiate(node, round + 1); });
    }
  }

  edk::sim::ShardedEngine engine_;
  size_t rounds_;
  double same_shard_share_;
  std::vector<std::vector<uint32_t>> members_;
};

// A bare EventQueue running `events` empty events in `chains` timer chains.
double BareQueueEventsPerSecond(uint64_t events, uint32_t chains, uint64_t seed) {
  edk::EventQueue queue;
  edk::Rng rng(seed);
  uint64_t remaining = events;
  std::function<void()> step = [&] {
    if (remaining > chains) {
      --remaining;
      queue.Schedule(0.001 + rng.NextDouble(), step);
    }
  };
  for (uint32_t c = 0; c < chains; ++c) {
    queue.Schedule(rng.NextDouble(), step);
  }
  const auto start = Clock::now();
  const size_t ran = queue.Run();
  return static_cast<double>(ran) / SecondsSince(start);
}

}  // namespace

void RunGossip(const RunOptions& options, Report* report) {
  const uint32_t peers = options.tiny ? 3'000 : 32'000;
  edk::ShardedGossipConfig config;
  config.view_size = 16;
  config.gossip_length = 8;
  config.rounds = 16;
  config.explore_every = 8;
  config.probe_rounds = 2;
  config.trajectory = false;
  config.placement = edk::sim::PlacementPolicy::kInterestClustered;
  config.shards = options.threads;
  config.threads = options.threads;
  config.seed = options.seed;
  report->Env("gossip.population", std::to_string(peers) + " peers / " +
                                       std::to_string(kFiles) + " files / " +
                                       std::to_string(kTopics) + " topics");
  report->Env("gossip.shards", static_cast<double>(config.shards));
  report->Env("gossip.threads", static_cast<double>(config.threads));

  edk::StaticCaches caches;
  static const uint16_t caches_span = SpanName("bench.semantic.caches");
  const double setup_s = MedianSetupSeconds([&] {
    edk::obs::WallSpan span(caches_span);
    caches = {};  // Release the previous round, so VmHWM is one setup's peak.
    caches = edk::MakeClusteredCaches(peers, kFiles, kTopics, options.seed);
  });
  const edk::Geography geography = edk::Geography::PaperDistribution();
  report->Metric("setup_s", setup_s, "s");
  report->MemoryAt("setup");

  static const uint16_t gossip_span = SpanName("bench.semantic.gossip");
  std::vector<double> walls;
  std::vector<double> rates;
  std::vector<PhaseTotals> phases;
  edk::ShardedGossipStats stats;
  std::string summary;
  bool consistent = true;
  const auto start = Clock::now();
  const size_t min_runs = options.tiny ? 1 : 3;
  const double budget = options.trace ? 0.3 * options.seconds : options.seconds;
  while (walls.size() < min_runs || SecondsSince(start) < budget) {
    TracingPaused untraced;
    edk::obs::MetricsRegistry::Global().Reset();
    stats = edk::RunShardedGossip(caches, geography, config);
    walls.push_back(stats.wall_seconds);
    rates.push_back(stats.EventsPerSecond());
    phases.push_back(ReadPhases(config.shards));
    const std::string run_summary = stats.DeterministicSummary();
    consistent = consistent && (summary.empty() || run_summary == summary);
    summary = run_summary;
    if (options.tiny && walls.size() >= min_runs) {
      break;
    }
  }
  report->MemoryAt("gossip");
  report->AddOps(walls.size(), consistent ? 0 : 1);
  report->Digest("gossip.summary", Hex64(Fnv1a(summary)));
  report->Check("gossip.runs_agree", consistent, "deterministic summaries differ between runs");
  report->Check("gossip.no_clamped_or_deferred_sends",
                stats.clamped_sends == 0 && stats.deferred_sends == 0,
                std::to_string(stats.clamped_sends) + " clamped, " +
                    std::to_string(stats.deferred_sends) + " deferred");

  const double wall = Median(walls);
  if (!options.trace) {
    // The fastest run: the one least disturbed by other tenants of the host.
    report->Metric("throughput_per_s", *std::max_element(rates.begin(), rates.end()), "1/s");
    return;
  }

  // Traced run: the same gossip run with tracing on gives the overhead and
  // the engine's own spans (window, barrier merge, mailbox flush, drain).
  double traced_wall = 0;
  {
    edk::obs::WallSpan span(gossip_span);
    traced_wall = edk::RunShardedGossip(caches, geography, config).wall_seconds;
  }
  report->Metric("obs.trace_overhead_share", (traced_wall - wall) / wall, "ratio");

  const double messages = static_cast<double>(stats.messages_sent);
  report->Metric("semantic.caches_s", setup_s, "s");
  report->Metric("sim.events", static_cast<double>(stats.events_executed), "count");
  report->Metric("sim.messages", messages, "count");
  report->Metric("sim.windows", static_cast<double>(stats.windows), "count");
  report->Metric("sim.events_per_window",
                 static_cast<double>(stats.events_executed) / static_cast<double>(stats.windows),
                 "count");
  report->Metric("sim.cross_shard_ratio",
                 static_cast<double>(stats.cross_shard_messages) / messages, "ratio");
  report->Metric("sim.clamped_sends", static_cast<double>(stats.clamped_sends), "count");
  report->Metric("sim.deferred_sends", static_cast<double>(stats.deferred_sends), "count");
  std::vector<double> loop, stall, stall_max;
  for (const PhaseTotals& phase : phases) {
    loop.push_back(phase.window_loop_s);
    stall.push_back(phase.barrier_stall_s);
    stall_max.push_back(phase.barrier_stall_max_shard_s);
  }
  report->Metric("sim.window_loop_s", Median(loop), "s");
  report->Metric("sim.barrier_stall_s", Median(stall), "s");
  report->Metric("sim.barrier_stall_max_shard_s", Median(stall_max), "s");

  // Kernel baselines at the gossip run's event count.
  std::vector<std::span<const edk::FileId>> participants;
  for (const auto& cache : caches.caches) {
    if (!cache.empty()) {
      participants.push_back(cache);
    }
  }
  edk::sim::ShardedEngineConfig engine;
  engine.shards = config.shards;
  engine.threads = config.threads;
  engine.seed = options.seed;
  engine.lookahead = edk::LatencyModel::MinDelay();
  engine.placement = edk::InterestClusteredPlacement(participants);
  static const uint16_t null_span = SpanName("bench.sim.null_engine");
  double null_rate = 0;
  {
    edk::obs::WallSpan span(null_span);
    TracingPaused paused;
    NullExchange null_exchange(
        engine, static_cast<uint32_t>(participants.size()), config.rounds,
        1.0 - static_cast<double>(stats.cross_shard_messages) / messages);
    const auto null_start = Clock::now();
    const uint64_t events = null_exchange.Run();
    null_rate = static_cast<double>(events) / SecondsSince(null_start);
  }
  static const uint16_t queue_span = SpanName("bench.net.event_queue");
  double queue_rate = 0;
  {
    edk::obs::WallSpan span(queue_span);
    TracingPaused paused;
    queue_rate = BareQueueEventsPerSecond(stats.events_executed,
                                          static_cast<uint32_t>(participants.size()),
                                          options.seed);
  }
  report->Metric("sim.null_events_per_s", null_rate, "1/s");
  report->Metric("net.queue_events_per_s", queue_rate, "1/s");
  const double null_seconds = static_cast<double>(stats.events_executed) / null_rate;
  report->Metric("semantic.gossip_callback_share", (wall - null_seconds) / wall, "ratio");
  report->MemoryAt("kernels");
}

}  // namespace perfbench
