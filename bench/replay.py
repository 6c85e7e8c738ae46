"""One replay of a generated scenario through the engine, in a fresh process.

    python3 bench/replay.py '<request json>'

The request names the mode, the alerts file, the export directory, the
engine config entries and, for paced runs, the speedup.  The replay drives
the engine's own path (open_source -> Engine.process -> Engine.shutdown)
and writes its measurements as JSON to the request's `result` path.

Modes:
  closed  the file source read as fast as possible;
  timed   closed, with each Engine.process call timed;
  traced  closed, with spans around every public call into each layer;
  paced   an open loop: the stdin source is fed from an iterator that
          spins until each line's due time, start + (ts_i - ts_0) / speedup.
"""

import gc
import json
import os
import resource
import sys
from time import perf_counter, perf_counter_ns

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))


class PacedLines:
    """Offers each line at its due time; records when the engine asks for
    the next one, which is when the previous alert has been handled."""

    def __init__(self, lines, offsets):
        self.lines = lines
        self.offsets = offsets              # due time after start, seconds
        self.due = [0.0] * len(lines)
        self.offered = [0.0] * len(lines)
        self.done = [0.0] * len(lines)

    def __iter__(self):
        start = perf_counter()
        for i, line in enumerate(self.lines):
            now = perf_counter()
            if i:
                self.done[i - 1] = now
            due = start + self.offsets[i]
            while now < due:
                now = perf_counter()
            self.due[i] = due
            self.offered[i] = now
            yield line
        if self.lines:
            self.done[-1] = perf_counter()


def gc_probe():
    """Install a gc callback; returns (pauses in seconds, gen-2 count box)."""
    pauses, gen2, started = [], [0], [0.0]

    def callback(phase, info):
        if phase == "start":
            started[0] = perf_counter()
            return
        pauses.append(perf_counter() - started[0])
        if info["generation"] == 2:
            gen2[0] += 1

    gc.callbacks.append(callback)
    return pauses, gen2


def paced_input(path, speedup, parse_timestamp):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    ts = [parse_timestamp(json.loads(line)["timestamp"]) for line in lines]
    return PacedLines(lines, [(t - ts[0]) / 1e6 / speedup for t in ts])


def drive(engine, alerts, process):
    """Feed every alert, then shut down; returns (start, drain start, end)."""
    start = perf_counter()
    for alert in alerts:
        process(alert)
    drain = perf_counter()
    engine.shutdown()
    return start, drain, perf_counter()


def main(request):
    t0 = perf_counter()
    from alertsynth.export_cli import Engine, build_config
    from alertsynth.ingest import open_source, parse_timestamp
    mode = request["mode"]
    source = "stdin" if mode == "paced" else f"file:{request['alerts']}"
    config = build_config(dict(request["config"], source=source,
                               export_dir=request["out"]))
    engine = Engine(config)
    result = {"setup_s": perf_counter() - t0}

    if mode == "paced":
        pauses, gen2 = gc_probe()
        lags = []
        observe = engine.model_set.observe

        def observe_logged(agg, now):
            lags.append((now - agg.t_end) / 1e6)
            return observe(agg, now)

        engine.model_set.observe = observe_logged
        sys.stdin = paced = paced_input(request["alerts"], request["speedup"],
                                        parse_timestamp)
        _, drain, end = drive(engine, open_source(config.source, None, engine.stats),
                              engine.process)
        sys.stdin = sys.__stdin__
        result.update(
            latency_s=[d - u for d, u in zip(paced.done, paced.due)],
            late_s=[o - u for o, u in zip(paced.offered, paced.due)],
            drain_s=end - drain, admit_lag_s=lags, gc_pauses_s=pauses,
            gc_gen2=gen2[0])
    elif mode == "traced":
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
        start, _, end = drive(
            engine, tracer.iterate(open_source(config.source, None, engine.stats)),
            engine.process)
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics(engine, end - start)
        tracer.write(request["spans"])
    else:
        process = engine.process
        calls = []

        def process_timed(alert):
            t = perf_counter_ns()
            process(alert)
            calls.append(perf_counter_ns() - t)

        start, drain, end = drive(
            engine, open_source(config.source, None, engine.stats),
            process_timed if mode == "timed" else process)
        result.update(wall_s=end - start, feed_s=drain - start, drain_s=end - drain,
                      peak_rss_mb=resource.getrusage(
                          resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                      process_ns=calls)
    result["counters"] = engine.counters()
    with open(request["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
