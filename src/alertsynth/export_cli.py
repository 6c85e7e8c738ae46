"""End-to-end pipeline driver, periodic exporter, and command line entry.

The pipeline is single-threaded: alerts are parsed, mapped to actions,
assigned to streams, segmented into aggregates, and folded into the model
set, in queue order.  Every export interval the live models are written to
models-<ts>.json and one evidence row per model is appended to
evidence.csv.  The event-time clock (default) drives decay, stream GC, and
export boundaries from alert timestamps, which makes replays byte-identical;
wall-time mode schedules exports from the wall clock instead and exists for
live feeds.
"""

import argparse
import json
import math
import os
import sys
import time
from array import array
from dataclasses import dataclass, field as dc_field
from datetime import datetime, timezone
from importlib.resources import files as pkg_files
from typing import Dict, List, Optional, Tuple

from .action_space import (COMPONENTS, Action, ConfigError, MappingTables,
                           WeightConfig, bin_elapsed_index, load_mappings,
                           map_ais_index, map_service_index, maneuver_index)
from .aggregation import Aggregate, build_aggregate, make_segmenter
from .ingest import Alert, IngestStats, SourceError, SourceSpec, open_source
from .stream_tracker import StreamTracker
from .synthesis import ModelSet, SynthConfig

SCHEMA_VERSION = "assert-models/1"
PMF_EXPORT_FLOOR = 1e-9

_ALIAS_KEYS = ("timestamp", "src_ip", "dest_ip", "src_port", "dest_port",
               "proto", "signature_id", "signature", "sensor")
_DURATION_KEYS = ("tau", "bin_width", "window", "pivot_horizon", "idle_timeout",
                  "export_interval")


def _default_data(name: str) -> str:
    return str(pkg_files("alertsynth") / "data" / name)


@dataclass
class RunConfig:
    """Fully resolved run settings; validated before the pipeline starts."""

    source: SourceSpec = SourceSpec(kind="stdin")
    ais_map: str = ""
    port_table: str = ""
    homenet: str = ""
    ais_categories: Optional[Tuple[str, ...]] = None
    aliases: Dict[str, str] = dc_field(default_factory=dict)
    segmenter: str = "threshold"
    tau: float = 600.0
    bin_width: float = 60.0
    sigma_bins: float = 3.0
    valley_frac: float = 0.5
    window_n: int = 20
    ks_alpha: float = 0.01
    gamma: float = 2.0 / 3.0
    weights: WeightConfig = dc_field(
        default_factory=lambda: WeightConfig.normalized(0.3, 0.3, 0.3, 0.1))
    window: float = 21600.0
    merge_threshold: float = 0.15
    retire_floor: float = 1.0
    smoothing_eps: float = 1e-6
    pivot_horizon: float = 3600.0
    idle_timeout: Optional[float] = None      # None = 2x window
    export_interval: float = 600.0
    export_dir: str = "out"
    clock_mode: str = "event-time"

    def __post_init__(self) -> None:
        if not self.ais_map:
            self.ais_map = _default_data("ais_map.csv")
        if not self.port_table:
            self.port_table = _default_data("port_table.csv")
        if not self.homenet:
            self.homenet = _default_data("homenet.txt")
        if self.idle_timeout is None:
            self.idle_timeout = 2.0 * self.window
        self.validate()

    def validate(self) -> None:
        self.synth  # building the SynthConfig checks its fields
        checks = [
            (self.sigma_bins > 0, "sigma_bins must be positive"),
            (0 < self.valley_frac <= 1, "valley_frac must be in (0, 1]"),
            (self.window_n >= 2, "window_n must be at least 2"),
            (0 < self.ks_alpha < 1, "ks_alpha must be in (0, 1)"),
            (self.clock_mode in ("event-time", "wall-time"),
             f"unknown clock_mode {self.clock_mode!r}"),
            (self.segmenter in ("threshold", "gaussian", "controlchart"),
             f"unknown segmenter {self.segmenter!r}"),
            (self.source.kind in ("file-replay", "stdin", "tcp-listen"),
             f"unknown source kind {self.source.kind!r}"),
            (self.source.speedup >= 0, "speedup must be nonnegative"),
            *((1 <= getattr(self, key) * 1e6 < math.inf,
               f"{key} must be finite and at least 1 microsecond")
              for key in _DURATION_KEYS),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)

    @property
    def synth(self) -> SynthConfig:
        return SynthConfig(gamma=self.gamma, weights=self.weights,
                           ewma_window=self.window,
                           merge_threshold=self.merge_threshold,
                           retire_floor=self.retire_floor,
                           smoothing_eps=self.smoothing_eps)


def parse_duration(text: str) -> float:
    """'90', '90s', '15m', '6h', '2d' -> seconds."""
    text = text.strip()
    scale = 1.0
    if text and text[-1] in "smhd":
        scale = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}[text[-1]]
        text = text[:-1]
    try:
        return float(text) * scale
    except ValueError:
        raise ConfigError(f"bad duration {text!r}")


def parse_ratio(text: str) -> float:
    """'0.5' or 'a/b' -> float."""
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return float(num) / float(den)
        return float(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"bad number {text!r}")


def parse_weights(text: str) -> WeightConfig:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise ConfigError(f"weights need four components, got {text!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ConfigError(f"bad weights {text!r}")
    return WeightConfig.normalized(*values)


def parse_source(text: str) -> SourceSpec:
    """'file:PATH[:SPEEDUP]' | 'stdin' | 'tcp:HOST:PORT'."""
    text = text.strip()
    if text == "stdin":
        return SourceSpec(kind="stdin")
    kind, _, rest = text.partition(":")
    if kind == "file":
        path, _, tail = rest.rpartition(":")
        if path:
            try:
                return SourceSpec(kind="file-replay", target=path,
                                  speedup=float(tail))
            except ValueError:
                pass  # the colon belonged to the path
        return SourceSpec(kind="file-replay", target=rest)
    if kind == "tcp":
        return SourceSpec(kind="tcp-listen", target=rest)
    raise ConfigError(f"bad source {text!r}")


def parse_config_file(path: str) -> Dict[str, str]:
    """Flat key=value file, each key once; blank lines and # comments ignored."""
    out: Dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


# config key -> parser of its string value
_PARSERS = {
    "source": parse_source,
    "weights": parse_weights,
    "window_n": int,
    "ais_categories": lambda v: tuple(c.strip() for c in v.split(",") if c.strip()),
    **dict.fromkeys(("ais_map", "port_table", "homenet", "segmenter",
                     "export_dir", "clock_mode"), str),
    **dict.fromkeys(_DURATION_KEYS, parse_duration),
    **dict.fromkeys(("sigma_bins", "valley_frac", "ks_alpha", "gamma",
                     "merge_threshold", "retire_floor", "smoothing_eps"),
                    parse_ratio),
}


def build_config(entries: Dict[str, str]) -> RunConfig:
    """RunConfig from flat string entries; unknown keys are fatal."""
    kwargs: Dict[str, object] = {}
    aliases: Dict[str, str] = {}
    for key, value in entries.items():
        if key.startswith("alias_"):
            canonical = key[len("alias_"):]
            if canonical not in _ALIAS_KEYS:
                raise ConfigError(f"unknown alias key {key!r}")
            aliases[canonical] = value
            continue
        parser = _PARSERS.get(key)
        if parser is None:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            kwargs[key] = parser(value)
        except ValueError:
            raise ConfigError(f"bad value for {key}: {value!r}")
    kwargs["aliases"] = aliases
    return RunConfig(**kwargs)


# -- export formatting -------------------------------------------------------


def iso_ts(us: int) -> str:
    sec, rem = divmod(us, 1_000_000)
    top = datetime.fromtimestamp(sec, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%S")
    return f"{top}.{rem:06d}Z"


def compact_ts(us: int) -> str:
    return iso_ts(us).replace("-", "").replace(":", "").replace(".", "")


def round9(x: float) -> float:
    """Fixed-precision decimal rounding (9 significant digits) so exports are
    byte-identical across runs and platforms."""
    return float(f"{x:.9g}")


def export_payload(model_set: ModelSet, now: int) -> dict:
    """Snapshot of the live models as a JSON-ready dict."""
    feats = model_set.characteristic_features()
    models = []
    for m in model_set.models:
        pmfs = {}
        for i, name in enumerate(COMPONENTS):
            vec = m.pmf(i)
            vocab = model_set.vocabularies[i]
            pmfs[name] = {vocab[x]: round9(float(vec[x]))
                          for x in range(len(vocab)) if vec[x] >= PMF_EXPORT_FLOOR}
        models.append({
            "model_id": m.model_id,
            "created_at": iso_ts(m.created_at),
            "last_update_ts": iso_ts(m.last_update_ts),
            "effective_evidence": round9(m.evidence),
            "pmf": pmfs,
            "characteristic": feats[m.model_id],
        })
    return {"schema": SCHEMA_VERSION, "export_ts": iso_ts(now), "models": models}


def render_export(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


EVIDENCE_HEADER = "export_ts,model_id,effective_evidence\n"


def export_evidence_series(rows: List[Tuple[int, int, float]]) -> str:
    """One export's evidence.csv rows (export_ts, model_id,
    effective_evidence), appended below EVIDENCE_HEADER."""
    return "".join(f"{iso_ts(ts)},{model_id},{evidence:.9g}\n"
                   for ts, model_id, evidence in rows)


# -- the pipeline ------------------------------------------------------------


class Engine:
    """Wires ingest, action mapping, stream tracking, segmentation, and
    synthesis together; owns all export side effects."""

    def __init__(self, config: RunConfig) -> None:
        self.config = config
        self.tables: MappingTables = load_mappings(
            config.ais_map, config.port_table, config.homenet,
            config.ais_categories)
        self.tracker = StreamTracker(self.tables.homenet, config.pivot_horizon)
        self.model_set = ModelSet(config.synth, self.tables.cardinalities,
                                  self.tables.vocabularies)
        self.stats = IngestStats()
        self.clock: Optional[int] = None
        self.actions_total = 0
        self.aggregates_total = 0
        self.exports_total = 0
        self.merge_counts: List[int] = []
        # model id admitted for each raw_seq, -1 for a line never admitted
        self.assignments = array("q")
        self._interval_us = int(config.export_interval * 1e6)
        self._next_boundary: Optional[int] = None
        self._next_wall: Optional[float] = None
        self._last_export_ts: Optional[int] = None
        os.makedirs(config.export_dir, exist_ok=True)
        self._evidence_path = os.path.join(config.export_dir, "evidence.csv")
        with open(self._evidence_path, "w", encoding="utf-8") as fh:
            fh.write(EVIDENCE_HEADER)

    # clock and boundaries

    def process(self, alert: Alert) -> None:
        if self.clock is None:
            self.clock = alert.ts
            self._next_boundary = (alert.ts // self._interval_us + 1) * self._interval_us
            self._next_wall = time.monotonic() + self.config.export_interval
        if self.config.clock_mode == "event-time":
            while self._next_boundary < alert.ts:
                self._boundary(self._next_boundary)
                self._next_boundary += self._interval_us
        elif time.monotonic() >= self._next_wall:
            self._boundary(max(self.clock, alert.ts))
            self._next_wall = time.monotonic() + self.config.export_interval
        self.clock = max(self.clock, alert.ts)

        stream_id, direction, transition, elapsed_us = self.tracker.assign(alert)
        state = self.tracker.states[stream_id]
        if state.handle is None:
            state.handle = self._new_segmenter()
        port = alert.src_port if direction == "outbound" else alert.dst_port
        gap = None if elapsed_us is None else elapsed_us / 1e6
        action = Action(
            ais=map_ais_index(alert, self.tables),
            service=map_service_index(port, alert.proto, self.tables),
            maneuver=maneuver_index(direction, transition),
            timebin=bin_elapsed_index(gap),
            ts=alert.ts, stream_id=stream_id, raw_seq=alert.raw_seq)
        self.actions_total += 1
        for actions in state.handle.feed(action, gap):
            self._admit(build_aggregate(actions, self.tables.cardinalities),
                        self.clock)

    def _new_segmenter(self):
        c = self.config
        return make_segmenter(c.segmenter, tau=c.tau, bin_width=c.bin_width,
                              sigma_bins=c.sigma_bins, valley_frac=c.valley_frac,
                              window_n=c.window_n, ks_alpha=c.ks_alpha,
                              window=c.window)

    def _admit(self, agg: Aggregate, now: int) -> None:
        admission = self.model_set.observe(agg, now)
        self.merge_counts.append(len(admission.merges))
        # pad to the largest seq (an array times a count below 1 is empty)
        self.assignments.extend(
            array("q", [-1]) * (max(agg.raw_seqs) + 1 - len(self.assignments)))
        for seq in agg.raw_seqs:
            self.assignments[seq] = admission.model_id
        self.aggregates_total += 1

    def _boundary(self, ts: int) -> None:
        # idle streams are closed first so their aggregates make this export
        self._drain(self.tracker.gc(ts, self.config.idle_timeout), ts)

    def _drain(self, states, ts: int) -> None:
        """Flush the given streams, build and admit their aggregates one at
        a time in (t_end, stream_id) order, retire, and export at ts."""
        runs = [actions for state in states for actions in state.handle.flush()]
        runs.sort(key=lambda run: (max(a.ts for a in run), run[0].stream_id))
        for actions in runs:
            self._admit(build_aggregate(actions, self.tables.cardinalities), ts)
        self.model_set.retire_pass(ts)
        self._export(ts)

    def _export(self, ts: int) -> None:
        if ts == self._last_export_ts:
            return
        self._last_export_ts = ts
        self.model_set.decay_all(ts)
        payload = export_payload(self.model_set, ts)
        name = f"models-{compact_ts(ts)}.json"
        with open(os.path.join(self.config.export_dir, name), "w",
                  encoding="utf-8") as fh:
            fh.write(render_export(payload))
        with open(self._evidence_path, "a", encoding="utf-8") as fh:
            fh.write(export_evidence_series(
                [(ts, m.model_id, m.evidence) for m in self.model_set.models]))
        self.exports_total += 1

    def shutdown(self) -> None:
        """Flush open aggregates, run a final export, write the assignment log."""
        if self.clock is None:
            self.clock = 0  # empty input still produces a (zero-model) export
        self._drain(self.tracker.states.values(), self.clock)
        path = os.path.join(self.config.export_dir, "assignments.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("raw_seq,model_id\n")
            for seq, model_id in enumerate(self.assignments):
                if model_id >= 0:
                    fh.write(f"{seq},{self.model_set.resolve(model_id)}\n")

    def counters(self) -> Dict[str, int]:
        ms = self.model_set
        return {
            "alerts_in": self.stats.lines,
            "parsed": self.stats.parsed,
            "rejected": self.stats.rejected,
            "out_of_order": self.stats.out_of_order,
            "actions": self.actions_total,
            "aggregates": self.aggregates_total,
            "models_live": len(ms.models),
            "models_created": ms.created_total,
            "models_merged": ms.merged_total,
            "models_retired": ms.retired_total,
            "exports": self.exports_total,
        }


def run(config: RunConfig) -> int:
    """Run the whole pipeline to source exhaustion; returns the exit status."""
    engine = Engine(config)
    status = 0
    try:
        for alert in open_source(config.source, config.aliases or None,
                                 engine.stats):
            engine.process(alert)
    except SourceError as exc:
        print(f"source error: {exc}", file=sys.stderr)
        status = 1
    engine.shutdown()
    print(" ".join(f"{k}={v}" for k, v in engine.counters().items()))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="alertsynth",
        description="Synthesize evolving attack models from an IDS alert stream.")
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--source", help="file:PATH[:SPEEDUP] | stdin | tcp:HOST:PORT")
    parser.add_argument("--gamma", help="admission relaxation in (0,1], e.g. 2/3")
    parser.add_argument("--tau", help="threshold segmenter gap, e.g. 600s")
    parser.add_argument("--segmenter", choices=["threshold", "gaussian", "controlchart"])
    parser.add_argument("--window", help="moving window, e.g. 6h")
    parser.add_argument("--weights", help="component weights a,s,v,t")
    parser.add_argument("--export-interval", help="export period, e.g. 10m")
    parser.add_argument("--export-dir", help="output directory")
    parser.add_argument("--ais-map", help="intent map CSV")
    parser.add_argument("--port-table", help="port table CSV")
    parser.add_argument("--homenet", help="homenet CIDR file")
    args = parser.parse_args(argv)

    try:
        entries = parse_config_file(args.config) if args.config else {}
        # every flag's dest is its config key
        entries.update({k: v for k, v in vars(args).items()
                        if k != "config" and v is not None})
        config = build_config(entries)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
