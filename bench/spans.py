"""Spans around the public calls into each engine layer, and the per-layer
metrics computed from them.

The tracer replaces, for the length of one replay, the module functions and
class methods that the engine looks up at call time.  Each span records its
name, start, end, parent span and the raw_seq of the alert that caused it
(-1 for shutdown work).  Spans stay in memory until the replay ends.
"""

import csv
from collections import defaultdict
from time import perf_counter_ns

from alertsynth import action_space, aggregation, export_cli, ingest, synthesis
from alertsynth.export_cli import Engine
from alertsynth.stream_tracker import StreamTracker

ENCODE = ("map_ais_index", "map_service_index", "maneuver_index",
          "bin_elapsed_index")
SEGMENTERS = (aggregation.ThresholdSegmenter, aggregation.GaussianSegmenter,
              aggregation.ControlChartSegmenter)


def _seq_arg(args):
    return args[1]


def _alert_seq(args):
    return args[1].raw_seq


class Tracer:
    def __init__(self):
        # [name, start_ns, end_ns, parent index, raw_seq, note]
        self.spans = []
        self._stack = []
        self._saved = []

    def _open(self, name, seq):
        parent = self._stack[-1] if self._stack else -1
        if seq is None:
            seq = self.spans[parent][4] if parent >= 0 else -1
        self._stack.append(len(self.spans))
        span = [name, 0, 0, parent, seq, None]
        self.spans.append(span)
        return span

    def wrap(self, owner, attr, name, seq_of=None, note=None):
        """Replace owner.attr by a spanning wrapper; note(args, result) is
        stored with the span when given."""
        inner = getattr(owner, attr)
        self._saved.append((owner, attr, owner.__dict__[attr]))
        stack = self._stack

        def wrapper(*args, **kwargs):
            span = self._open(name, seq_of(args) if seq_of else None)
            span[1] = perf_counter_ns()
            try:
                result = inner(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if note is not None:
                span[5] = note(args, result)
            return result

        setattr(owner, attr, wrapper)

    def iterate(self, alerts):
        """The source iterator with a span around each next()."""
        it = iter(alerts)
        while True:
            span = self._open("ingest.read", -1)
            span[1] = perf_counter_ns()
            try:
                alert = next(it)
            except StopIteration:
                return
            finally:
                span[2] = perf_counter_ns()
                self._stack.pop()
            span[4] = alert.raw_seq
            yield alert

    def install(self):
        w = self.wrap
        w(ingest, "parse_alert_line", "ingest.parse_alert_line", _seq_arg)
        for name in ENCODE:
            w(export_cli, name, f"action_space.{name}")
        w(action_space.Homenet, "contains", "action_space.Homenet.contains",
          note=lambda args, result: args[1])
        w(StreamTracker, "assign", "stream_tracker.StreamTracker.assign")
        w(StreamTracker, "gc", "stream_tracker.StreamTracker.gc",
          note=lambda args, result: (len(args[0].states) + len(result), len(result)))
        for cls in SEGMENTERS:
            w(cls, "feed", "aggregation.feed")
            w(cls, "flush", "aggregation.flush")
        w(export_cli, "build_aggregate", "aggregation.build_aggregate",
          note=lambda args, result: result.n)
        w(synthesis.ModelSet, "observe", "synthesis.ModelSet.observe",
          note=lambda args, result: (result.action, len(args[0].models)))
        for name in ("best_model", "merge_pass", "retire_pass", "decay_all",
                     "characteristic_features"):
            w(synthesis.ModelSet, name, f"synthesis.ModelSet.{name}")
        for name in ("export_payload", "render_export", "export_evidence_series"):
            w(export_cli, name, f"export_cli.{name}",
              note=(lambda args, result: len(result))
              if name != "export_payload" else None)
        w(Engine, "process", "export_cli.Engine.process", _alert_seq)
        w(Engine, "shutdown", "export_cli.Engine.shutdown")

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def write(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("span", "name", "start_ns", "end_ns", "parent", "raw_seq"))
            for k, s in enumerate(self.spans):
                out.writerow((k, s[0], s[1], s[2], s[3], s[4]))

    def self_times(self):
        """Per name: (calls, total ns, self ns); self = duration minus the
        time covered by child spans."""
        child = [0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out = defaultdict(lambda: [0, 0, 0])
        for k, s in enumerate(self.spans):
            row = out[s[0]]
            row[0] += 1
            row[1] += s[2] - s[1]
            row[2] += s[2] - s[1] - child[k]
        return out

    def layer_metrics(self, engine, wall_s):
        """Per-layer metrics of one traced replay, keyed by metric name."""
        spans = self.spans
        times = self.self_times()

        def calls(name):
            return times[name][0]

        def total(name):
            return times[name][1]

        def own(name):
            return times[name][2]

        def notes(name):
            return [s[5] for s in spans if s[0] == name]

        alerts = max(engine.stats.parsed, 1)
        observes = max(calls("synthesis.ModelSet.observe"), 1)
        exports = max(engine.exports_total, 1)
        boundaries = max(calls("stream_tracker.StreamTracker.gc"), 1)
        aggregates = calls("aggregation.build_aggregate")

        root = [0] * len(spans)
        for k, s in enumerate(spans):
            root[k] = root[s[3]] if s[3] >= 0 else k
        drained = sum(1 for k, s in enumerate(spans)
                      if s[0] == "synthesis.ModelSet.observe"
                      and spans[root[k]][0] == "export_cli.Engine.shutdown")
        covered = sum(s[2] - s[1] for s in spans if s[3] < 0)

        ips = notes("action_space.Homenet.contains")
        gcs = notes("stream_tracker.StreamTracker.gc")
        admissions = notes("synthesis.ModelSet.observe")
        ms = engine.model_set
        us, ms_ = 1e-3, 1e-6
        return {
            "ingest.parse_us_per_alert": total("ingest.parse_alert_line") * us / alerts,
            "ingest.read_us_per_alert": own("ingest.read") * us / alerts,
            "action_space.encode_us_per_alert":
                sum(total(f"action_space.{n}") for n in ENCODE) * us / alerts,
            "action_space.homenet_us_per_alert":
                total("action_space.Homenet.contains") * us / alerts,
            "action_space.ip_key_hit_ratio":
                1.0 - len(set(ips)) / len(ips) if ips else 0.0,
            "action_space.ip_key_lookups": len(ips),
            "stream_tracker.assign_us_per_alert":
                own("stream_tracker.StreamTracker.assign") * us / alerts,
            "stream_tracker.gc_ms_per_boundary":
                total("stream_tracker.StreamTracker.gc") * ms_ / boundaries,
            "stream_tracker.streams_open_max":
                max([g[0] for g in gcs] + [len(engine.tracker.states)]),
            "stream_tracker.streams_evicted": sum(g[1] for g in gcs),
            "aggregation.feed_us_per_alert": total("aggregation.feed") * us / alerts,
            "aggregation.flush_ms_total": total("aggregation.flush") * ms_,
            "aggregation.build_us_per_aggregate":
                total("aggregation.build_aggregate") * us / max(aggregates, 1),
            "aggregation.aggregates": aggregates,
            "aggregation.actions_per_aggregate":
                sum(notes("aggregation.build_aggregate")) / max(aggregates, 1),
            "synthesis.observe_us_per_aggregate":
                total("synthesis.ModelSet.observe") * us / observes,
            "synthesis.score_us_per_aggregate":
                total("synthesis.ModelSet.best_model") * us / observes,
            "synthesis.merge_us_per_aggregate":
                total("synthesis.ModelSet.merge_pass") * us / observes,
            "synthesis.update_us_per_aggregate":
                own("synthesis.ModelSet.observe") * us / observes,
            "synthesis.retire_ms_per_boundary":
                total("synthesis.ModelSet.retire_pass") * ms_
                / max(calls("synthesis.ModelSet.retire_pass"), 1),
            "synthesis.characteristic_ms_per_export":
                total("synthesis.ModelSet.characteristic_features") * ms_ / exports,
            "synthesis.models_live_max": max((a[1] for a in admissions), default=0),
            "synthesis.models_created": ms.created_total,
            "synthesis.models_merged": ms.merged_total,
            "synthesis.models_retired": ms.retired_total,
            "synthesis.associate_ratio":
                sum(a[0] == "associate" for a in admissions) / observes,
            "export_cli.payload_ms_per_export":
                total("export_cli.export_payload") * ms_ / exports,
            "export_cli.render_ms_per_export":
                total("export_cli.render_export") * ms_ / exports,
            "export_cli.evidence_csv_ms_per_export":
                total("export_cli.export_evidence_series") * ms_ / exports,
            "export_cli.bytes_per_export":
                (sum(notes("export_cli.render_export"))
                 + sum(notes("export_cli.export_evidence_series"))) / exports,
            "export_cli.exports": engine.exports_total,
            "export_cli.drain_admission_share": drained / observes,
            "export_cli.shutdown_self_ms": own("export_cli.Engine.shutdown") * ms_,
            "trace.span_coverage": covered * 1e-9 / wall_s,
            "trace.wall_s": wall_s,
            "trace.self_share": {name: row[2] * 1e-9 / wall_s
                                 for name, row in times.items()},
        }
