#!/usr/bin/env python3
"""Workbench benchmark: builds perfbench, runs one workload, checks it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root. The first run configures and builds the
benchmark (library sources plus perfbench/src) into .bench_build/.

With --trace 0 the result's metrics are the end-to-end metrics of
BENCHMARK.json; with --trace 1 they are its per-layer metrics, from a run
that records wall spans around every layer call (written to
.bench_build/work/trace-NAME.edks). The last stdout line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit code is 0 only when every correctness gate passed.

--smoke runs every workload at tiny size, traced and untraced, and checks
that the printed metric names match BENCHMARK.json both ways and that
every per-layer metric is mapped, here and in the README.md table alike.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(BUILD, "work")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170

WORKLOADS = ("serve-index", "gossip-sim", "trace-scan", "paper-figs")
SERVE = ("serve-index",)
ALL = WORKLOADS

# The map from per-layer metrics to the end-to-end metric each should
# move, one group per row of the per-layer table in perfbench/README.md
# (--smoke checks that the rows agree). Each group: (metric names with
# {a,b} shorthand, workloads that exercise the layer, what it should move).
# Other workloads report the metric as 0: their runs do no work there.
LAYER_GROUPS = (
    ("gen.{late_share,late_p99_us}", SERVE,
     "validity of throughput_per_s and serve.capacity_qps on serve-index"),
    ("serve.capacity_qps", SERVE, "throughput_per_s on serve-index"),
    ("serve.{p50_ms,p99_ms,search_p99_ms,publish_p99_ms}", SERVE,
     "throughput_per_s on serve-index"),
    ("netio.client.{encode_us,decode_us}", SERVE, "throughput_per_s on serve-index"),
    ("netio.server.dispatch_us.{publish,search,query_sources,browse}.{p50,p99}", SERVE,
     "throughput_per_s on serve-index"),
    ("netio.server.bytes_out_per_req", SERVE, "throughput_per_s on serve-index"),
    ("netio.server.rss_mb", SERVE, "peak_rss_mb on serve-index"),
    ("netio.transport_us.{p50,p99}", SERVE, "throughput_per_s on serve-index"),
    ("net.core.{publish,search,query_sources,browse}_us.{p50,p99}", SERVE,
     "throughput_per_s on serve-index"),
    ("net.core.search_results_per_req", SERVE, "throughput_per_s on serve-index"),
    ("sim.{events,messages,windows,events_per_window,cross_shard_ratio,clamped_sends,"
     "deferred_sends}", ("gossip-sim",), "throughput_per_s on gossip-sim"),
    ("sim.{window_loop_s,barrier_stall_s,barrier_stall_max_shard_s}", ("gossip-sim",),
     "throughput_per_s on gossip-sim"),
    ("{sim.null_events_per_s,net.queue_events_per_s,semantic.gossip_callback_share}",
     ("gossip-sim",), "throughput_per_s on gossip-sim"),
    ("semantic.caches_s", ("gossip-sim",), "setup_s on gossip-sim"),
    ("stream.{write_mbps,open_ms}", ("trace-scan",), "setup_s on trace-scan"),
    ("stream.{touch_gbps,decode_1t_gbps,scan_gbps,scan_speedup}", ("trace-scan",),
     "throughput_per_s on trace-scan"),
    ("stream.{block_decode_ms_p50,block_decode_ms_max,blocks,snapshots}", ("trace-scan",),
     "throughput_per_s on trace-scan"),
    ("stream.{minor_faults,major_faults}", ("trace-scan",), "peak_rss_mb on trace-scan"),
    ("{stream.readday_s,analysis.daily_activity_s,analysis.ranked_sources_s,"
     "analysis.file_spread_s}", ("trace-scan",), "none gated; the analysis time on trace-scan"),
    ("{workload.generate_s,trace.filter_s,trace.extrapolate_s}", ("paper-figs",),
     "setup_s on paper-figs"),
    ("{trace.union_caches_s,trace.randomize_s,analysis.clustering_s,analysis.overlap_s,"
     "semantic.search_s,semantic.search_requests,semantic.two_hop_s,crawler.crawl_s}",
     ("paper-figs",), "throughput_per_s on paper-figs"),
    ("obs.trace_overhead_share", ALL, "none; it qualifies the split"),
    ("mem.{peak_anon_mb,peak_file_mb}", ALL, "peak_rss_mb"),
)


def expand(word):
    """Expands `a.{b,c}.d` shorthand into a.b.d and a.c.d."""
    match = re.search(r"\{([^}]*)\}", word)
    if match is None:
        return [word]
    return [name for option in match.group(1).split(",")
            for name in expand(word[:match.start()] + option + word[match.end():])]


# Per-layer metric -> (workloads that exercise the layer, what it should move).
LAYERS = {name: (workloads, moves)
          for names, workloads, moves in LAYER_GROUPS for name in expand(names)}

# Digests of the default seed (1) at full size; other seeds run only the
# internal consistency checks.
DEFAULT_SEED = 1
EXPECTED_DIGESTS = {
    "gossip-sim": {"gossip.summary": "447fe218acd161c3"},
    "trace-scan": {"scan.checksum": "27c55f191bc4dec0/10083458"},
    "paper-figs": {"figs.numbers": "07add78e19f84ef6"},
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the benchmark; True on success."""
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        result = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                text=True)
        if result.returncode != 0:
            log(result.stdout[-4000:])
            log("perfbench: build step failed: " + " ".join(step))
            return False
    return True


def run_binary(workload, seed, seconds, trace, tiny=False):
    """Runs one workload; returns the binary's report dict or None."""
    os.makedirs(WORK, exist_ok=True)
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0",
               "--work-dir", WORK]
    if tiny:
        command.append("--tiny")
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out" % workload)
        return None
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        log("perfbench: %s exited with %d" % (workload, result.returncode))
        return None
    return json.loads(lines[-1])


def finish(report, workload, seed, trace, tiny, benchmark):
    """Applies the gates and the metric contract; returns (result, problems)."""
    problems = ["gate %s: %s" % (c["name"], c["detail"])
                for c in report["checks"] if not c["ok"]]
    if not tiny and seed == DEFAULT_SEED:
        for name, want in EXPECTED_DIGESTS.get(workload, {}).items():
            got = report["digests"].get(name)
            if got != want:
                problems.append("gate %s: digest %s, recorded %s" % (name, got, want))
    gates = len(report["checks"]) + len(EXPECTED_DIGESTS.get(workload, {}))

    raw = dict(report["metrics"])
    if trace:
        memory = report["memory"]
        raw["mem.peak_anon_mb"] = {"value": max(m["anon_mb"] for m in memory), "unit": "MiB"}
        raw["mem.peak_file_mb"] = {"value": max(m["file_mb"] for m in memory), "unit": "MiB"}
    wanted = benchmark["per_layer"] if trace else benchmark["end_to_end"]
    metrics = {}
    for spec in wanted:
        name = spec["name"]
        value = raw.get(name, {}).get("value")
        exercised = not trace or workload in LAYERS.get(name, ((),))[0]
        if value is None and not exercised:
            value = 0
        if value is None or not math.isfinite(value):
            problems.append("metric %s missing" % name)
            continue
        if not trace and value <= 0:
            problems.append("metric %s is %r" % (name, value))
        metrics[name] = {"value": value, "unit": spec["unit"]}
    failed = report["failed"] + len(problems)
    result = {
        "correct": not problems,
        "attempted": report["attempted"] + gates,
        "failed": failed,
        "metrics": metrics,
    }
    return result, problems


def print_tables(report, result, workload, trace):
    env = report["env"]
    print("workload %s  seed %s  nproc %s  build %s (optimized %s, sanitizer %s)"
          % (workload, env.get("seed"), env.get("nproc"), env.get("build_type"),
             env.get("optimized"), env.get("sanitizer")))
    print("cpu %s  loopback_only %s" % (env.get("cpu_model"), env.get("loopback_only")))
    for key in sorted(env):
        if "." in key:
            print("  %-28s %s" % (key, env[key]))
    share = result["failed"] / max(result["attempted"], 1)
    print("operations: %d attempted, %d failed (failed_share %.6f)"
          % (result["attempted"], result["failed"], share))
    print()
    title = "per-layer metric" if trace else "end-to-end metric"
    print("%-48s %16s  %-6s %s" % (title, "value", "unit", "should move" if trace else ""))
    for name, metric in result["metrics"].items():
        moves = LAYERS.get(name, ((), ""))[1] if trace else ""
        print("%-48s %16.6g  %-6s %s" % (name, metric["value"], metric["unit"], moves))
    if trace:
        print()
        print("%-40s %10s %12s %12s" % ("span (self = total - children)", "count",
                                          "total s", "self s"))
        for span in report["spans"]:
            print("%-40s %10d %12.6f %12.6f" % (span["name"], span["count"],
                                                  span["total_s"], span["self_s"]))
    print()
    print("%-20s %12s %12s %12s" % ("memory at", "anon MiB", "file MiB", "peak MiB"))
    for point in report["memory"]:
        print("%-20s %12.1f %12.1f %12.1f" % (point["boundary"], point["anon_mb"],
                                               point["file_mb"], point["hwm_mb"]))


def check_readme(readme, e2e):
    """Problems where README.md disagrees with LAYERS or misses a metric."""
    problems = ["README.md does not document %s" % name
                for name in sorted(e2e) if "`%s`" % name not in readme]
    rows = {}  # Metric -> (workload cell, should-move cell) of its table row.
    for line in readme.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) != 4 or not cells[0].startswith("`"):
            continue
        for word in re.findall(r"`([^`]*)`", cells[0]):
            for name in expand(word):
                rows[name] = (cells[1], cells[3].replace("`", ""))
    for name, (workloads, moves) in sorted(LAYERS.items()):
        want = ("all" if workloads == ALL else ", ".join(workloads), moves)
        if name not in rows:
            problems.append("README.md per-layer table has no row for %s" % name)
        elif rows[name] != want:
            problems.append("README.md maps %s to %s, run.py to %s" % (name, rows[name], want))
    return problems


def smoke(benchmark):
    """Runs every workload tiny, both modes; checks names both ways."""
    problems = []
    e2e = {m["name"] for m in benchmark["end_to_end"]}
    layers = {m["name"] for m in benchmark["per_layer"]}
    if {w["name"] for w in benchmark["workloads"]} != set(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")
    if layers != set(LAYERS):
        problems.append("per-layer metrics not mapped: %s / unknown: %s"
                        % (sorted(layers - set(LAYERS)), sorted(set(LAYERS) - layers)))
    with open(os.path.join(HERE, "README.md")) as f:
        problems += check_readme(f.read(), e2e)
    for workload in WORKLOADS:
        for trace in (False, True):
            report = run_binary(workload, DEFAULT_SEED, 1, trace, tiny=True)
            if report is None:
                problems.append("%s trace=%d did not run" % (workload, trace))
                continue
            result, run_problems = finish(report, workload, DEFAULT_SEED, trace, True,
                                          benchmark)
            problems += ["%s trace=%d: %s" % (workload, trace, p) for p in run_problems]
            want = layers if trace else e2e
            printed = set(result["metrics"])
            produced = set(report["metrics"]) | ({"mem.peak_anon_mb", "mem.peak_file_mb"}
                                                 if trace else set())
            if printed != want:
                problems.append("%s trace=%d prints %s, BENCHMARK.json names %s"
                                % (workload, trace, sorted(printed ^ want), "the rest"))
            stray = produced - want - e2e
            if stray:
                problems.append("%s trace=%d measures unnamed metrics %s"
                                % (workload, trace, sorted(stray)))
            log("smoke %s trace=%d: %s" % (workload, trace,
                                            "ok" if not run_problems else run_problems))
    for problem in problems:
        print("smoke: " + problem)
    print("smoke: %s" % ("ok" if not problems else "FAILED"))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    benchmark = load_benchmark()
    if not build():
        return 1
    if args.smoke:
        return smoke(benchmark)
    report = run_binary(args.workload, args.seed, args.seconds, bool(args.trace))
    if report is None:
        return 1
    result, problems = finish(report, args.workload, args.seed, bool(args.trace), False,
                              benchmark)
    print_tables(report, result, args.workload, bool(args.trace))
    for problem in problems:
        print("FAILED " + problem)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
