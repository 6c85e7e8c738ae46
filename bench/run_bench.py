"""Benchmark of the alertsynth engine on seeded scenarios.

    python3 bench/run_bench.py [--workload NAME|all] [--seed N]
                               [--seconds S] [--trace 0|1]

Each workload's scenario is generated from the seed (the workload's
acceptance seed by default) with alertsynth.synth_harness and cached under
.bench_cache/ in the checkout; generation is never timed.  Every replay
runs in a fresh process (bench/replay.py) through the engine's own path.

--trace 0 alternates closed and paced replays for --seconds (default:
run_seconds of BENCHMARK.json; at least two replays of each mode, each
mode taking half the time) and reports the end-to-end metrics listed in
BENCHMARK.json, times as medians over replays (see end_to_end).
--trace 1 makes one timed closed replay, one traced replay and one paced
replay, and reports the per-layer metrics, the paced latency among them.  Every replay's artifacts are
checked; the last line of output is one JSON object, and the exit status is
1 when any check failed.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
CACHE = os.path.join(ROOT, ".bench_cache")
MIN_REPLAYS = 2
RUN_LIMIT_S = 170.0


def pct(values, q):
    """Nearest-rank percentile, q in (0, 1]."""
    s = sorted(values)
    return s[max(0, min(len(s) - 1, math.ceil(q * len(s)) - 1))]


def scenario(workload, seed):
    """(alerts path, truth path, line count), generated once per spec and seed."""
    from alertsynth.synth_harness import generate_scenario
    key = hashlib.sha256(repr((workload, seed)).encode()).hexdigest()[:12]
    base = os.path.join(CACHE, "inputs", f"{workload.name}-{seed}-{key}")
    alerts, truth = (os.path.join(base, n) for n in ("alerts.jsonl", "truth.csv"))
    if not os.path.exists(truth):
        tmp = f"{base}.tmp{os.getpid()}"
        generate_scenario(workload.specs, workload.noise_rate, workload.duration,
                          seed, tmp)
        shutil.rmtree(base, ignore_errors=True)
        os.replace(tmp, base)
    with open(alerts, "rb") as fh:
        n_lines = sum(1 for _ in fh)
    return alerts, truth, n_lines


class Run:
    """Replays of one workload and seed, with the checks on each."""

    def __init__(self, workload, seed, deadline):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.alerts, self.truth, self.n_lines = scenario(workload, seed)
        self.workdir = os.path.join(CACHE, "runs", f"{workload.name}-{os.getpid()}")
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.digests = {}
        self.purity = []
        self._count = 0

    def replay(self, mode):
        """Run one replay; returns its measurements, or None if it crashed."""
        self._count += 1
        where = os.path.join(self.workdir, str(self._count))
        out = os.path.join(where, "out")
        request = {
            "mode": mode, "alerts": self.alerts, "out": out,
            "config": self.workload.config, "speedup": self.workload.speedup,
            "result": os.path.join(where, "result.json"),
            "spans": os.path.join(CACHE, f"spans-{self.workload.name}-{self.seed}.csv"),
        }
        os.makedirs(where)
        self.attempted += self.n_lines
        error = None
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "replay.py"),
                 json.dumps(request)], capture_output=True, text=True,
                timeout=max(10.0, self.deadline - time.monotonic()))
            if proc.returncode != 0:
                error = f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"
        except subprocess.TimeoutExpired:
            error = "timed out"
        if error is None and not os.path.exists(request["result"]):
            error = "no result"
        if error is not None:
            self.problems.append(f"{mode} replay crashed: {error}")
            self.failed += self.n_lines
            shutil.rmtree(where, ignore_errors=True)
            return None
        from checks import check_replay, export_digest
        with open(request["result"], "r", encoding="utf-8") as fh:
            result = json.load(fh)
        problems, failed, purity = check_replay(out, self.truth, self.n_lines,
                                                result["counters"])
        self.problems.extend(f"{mode} replay: {p}" for p in problems)
        self.failed += failed
        self.purity.append(purity)
        self.digests.setdefault(export_digest(out), []).append(mode)
        shutil.rmtree(where)
        return result

    def finish(self):
        if len(self.digests) > 1:
            self.problems.append(
                "export directories differ between replays: "
                + "; ".join(f"{d[:12]} from {','.join(m)}" for d, m in self.digests.items()))
        shutil.rmtree(self.workdir, ignore_errors=True)

    @property
    def correct(self):
        return not self.problems


def end_to_end(run, seconds):
    """Closed and paced replays, sharing `seconds` of wall time between them;
    returns {metric: (value, samples)}.

    On the shared 2-core VM this was written on, the speed of a pure-Python
    loop drifts between 1.0x and 1.9x in phases lasting seconds to minutes,
    so times are medians over replays.  A paced replay's shutdown does the
    same work as a closed one's, so drain_s uses both; alerts_per_s is the
    parsed alerts over the median feed time of the closed replays plus the
    median drain.
    """
    replays = {"closed": [], "paced": []}
    took = {"closed": 0.0, "paced": 0.0}
    start = time.monotonic()
    while True:
        mode = "closed" if took["closed"] <= took["paced"] else "paced"
        if (min(len(r) for r in replays.values()) >= MIN_REPLAYS
                and time.monotonic() - start + took[mode] / len(replays[mode])
                > seconds):
            break
        t = time.monotonic()
        result = run.replay(mode)
        if result is None:
            return {}
        replays[mode].append(result)
        took[mode] += time.monotonic() - t
    closed, paced = replays["closed"], replays["paced"]
    drain = statistics.median(r["drain_s"] for r in closed + paced)
    feed = statistics.median(r["feed_s"] for r in closed)
    lag = paced[0]["admit_lag_s"]
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in closed + paced),
                    len(closed + paced)),
        "alerts_per_s": (closed[0]["counters"]["parsed"] / (feed + drain),
                         f"{len(closed)} feeds, {len(closed + paced)} drains"),
        "drain_s": (drain, len(closed + paced)),
        "admit_lag_p50_s": (pct(lag, 0.50), len(lag)),
        "admit_lag_p99_s": (pct(lag, 0.99), len(lag)),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in closed),
                        len(closed)),
        "purity": (min(run.purity), len(run.purity)),
    }


def per_layer(run):
    """Timed, traced and paced replays; returns {metric: (value, samples)}."""
    timed = run.replay("timed")
    traced = run.replay("traced")
    paced = run.replay("paced")
    if None in (timed, traced, paced):
        return {}
    layers = traced["layers"]
    shares = layers.pop("trace.self_share")
    print("self time share of traced wall time:")
    for name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"  {share:7.2%}  {name}")
    out = {name: (value, 1) for name, value in layers.items()}
    out["trace.overhead"] = (out.pop("trace.wall_s")[0] / timed["wall_s"], 1)
    calls = [ns / 1e3 for ns in timed["process_ns"]]
    late = [s * 1e3 for s in paced["late_s"]]
    out.update({
        "export_cli.process_us_p50": (pct(calls, 0.50), len(calls)),
        "export_cli.process_us_p99": (pct(calls, 0.99), len(calls)),
        "export_cli.process_us_max": (max(calls), len(calls)),
        "runtime.gc_gen2_count": (paced["gc_gen2"], 1),
        "runtime.gc_pause_ms_max": (max(paced["gc_pauses_s"], default=0.0) * 1e3,
                                    len(paced["gc_pauses_s"])),
        "loadgen.late_p99_ms": (pct(late, 0.99), len(late)),
        "loadgen.late_max_ms": (max(late), len(late)),
        "loadgen.latency_p50_ms": (pct(paced["latency_s"], 0.50) * 1e3,
                                   len(paced["latency_s"])),
        "loadgen.latency_p99_ms": (pct(paced["latency_s"], 0.99) * 1e3,
                                   len(paced["latency_s"])),
    })
    return out


def main(argv=None):
    if not os.path.isdir(os.path.join(ROOT, "src", "alertsynth")):
        print(f"no alertsynth sources under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, help="default: the workload's acceptance seed")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + RUN_LIMIT_S
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        workload = WORKLOADS[name]
        seed = workload.seed if args.seed is None else args.seed
        run = Run(workload, seed, deadline)
        print(f"== {name} seed={seed} lines={run.n_lines} "
              f"speedup={workload.speedup:g} trace={args.trace}")
        try:
            values = per_layer(run) if args.trace else end_to_end(run, args.seconds)
        finally:
            run.finish()
        if values and set(values) != set(units):
            run.problems.append(f"metric set differs from BENCHMARK.json: "
                                f"{sorted(set(values) ^ set(units))}")
        for metric, (value, samples) in values.items():
            print(f"  {metric:40s} {value:14.6g} {units.get(metric, '?'):6s} n={samples}")
            key = metric if len(names) == 1 else f"{name}/{metric}"
            metrics[key] = {"value": value, "unit": units.get(metric, "?")}
        print(f"  failed_share {run.failed}/{run.attempted} lines; "
              f"export sha256 {' '.join(run.digests) or '-'}")
        for problem in run.problems:
            print(f"  CHECK FAILED: {problem}")
        correct = correct and run.correct
        attempted += run.attempted
        failed += run.failed
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
