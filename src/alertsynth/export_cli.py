"""End-to-end pipeline driver, periodic exporter, and command line entry.

The pipeline is single-threaded: alerts are parsed, mapped to actions,
assigned to streams, segmented into aggregates, and folded into the model
set, in queue order.  Every export interval the live models are written to
models-<ts>.json and one evidence row per model is appended to
evidence.csv.

The clock is the largest alert timestamp seen (event time), and it drives
decay, deadlines and export boundaries, which makes replays
byte-identical.  At each boundary the stream tracker's pass over its due
streams yields those whose open segment has passed its horizon and those
idle past idle_timeout; their runs are admitted in (t_end,
stream_id) order, stamped with the boundary, before retirement and the
export.  An episode thus reaches the model set within its segmenter's
horizon plus one export interval of its last alert (tau + interval for the
threshold segmenter), not at shutdown.  Once a boundary leaves no live
model and no open stream, the clock skips the empty intervals up to the
next alert.  A boundary is stamped below the alert that passes it and the
shutdown export at the clock, so export stamps strictly increase.
"""

import argparse
import json
import math
import os
import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field as dc_field
from datetime import datetime, timezone
from fnmatch import fnmatch
from importlib.resources import files as pkg_files
from typing import Dict, List, Optional, Tuple

import numpy as np

from .action_space import (COMPONENTS, Action, ConfigError, MappingTables,
                           WeightConfig, bin_elapsed_index, data_lines,
                           load_mappings, map_ais_index, map_service_index,
                           maneuver_index)
from .aggregation import FAR_US, SEGMENTERS, build_aggregate, within_us
from .ingest import Alert, IngestStats, SourceError, SourceSpec, open_source
from .stream_tracker import StreamTracker
from .synthesis import ModelSet, SynthConfig

SCHEMA_VERSION = "assert-models/1"
PMF_EXPORT_FLOOR = 1e-9

_ALIAS_KEYS = ("timestamp", "src_ip", "dest_ip", "src_port", "dest_port",
               "proto", "signature_id", "signature")
_DURATION_KEYS = ("tau", "bin_width", "window", "pivot_horizon", "idle_timeout",
                  "export_interval")


def _is_host_port(target: str) -> bool:
    """Whether target reads HOST:PORT with an integer PORT, split as the TCP
    source splits it; a port out of range is left to the source to refuse."""
    _, sep, port = target.rpartition(":")
    try:
        int(port)
    except ValueError:
        return False
    return bool(sep)


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
    gamma: float = SynthConfig.gamma
    weights: WeightConfig = SynthConfig.weights
    window: float = SynthConfig.ewma_window
    merge_threshold: float = SynthConfig.merge_threshold
    retire_floor: float = SynthConfig.retire_floor
    smoothing_eps: float = SynthConfig.smoothing_eps
    pivot_horizon: float = 3600.0
    idle_timeout: Optional[float] = None      # None = 2x window
    export_interval: float = 600.0
    export_dir: str = "out"

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
        checks = [
            (0 < self.sigma_bins < math.inf, "sigma_bins must be finite and positive"),
            (0 < self.valley_frac <= 1, "valley_frac must be in (0, 1]"),
            (self.window_n >= 2, "window_n must be at least 2"),
            (0 < self.ks_alpha < 1, "ks_alpha must be in (0, 1)"),
            (self.segmenter in SEGMENTERS,
             f"unknown segmenter {self.segmenter!r}"),
            (self.source.kind in ("file-replay", "stdin", "tcp-listen"),
             f"unknown source kind {self.source.kind!r}"),
            (self.source.kind != "file-replay" or self.source.target,
             "file source needs a path"),
            (self.source.kind != "tcp-listen"
             or _is_host_port(self.source.target),
             f"tcp source needs HOST:PORT, got {self.source.target!r}"),
            *((1 <= within_us(getattr(self, key)) < FAR_US,
               f"{key} must be finite and at least 1 microsecond, "
               "and under 2**53 microseconds")
              for key in _DURATION_KEYS),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        self.synth  # building the SynthConfig checks its fields

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
    """'file:PATH' | 'stdin' | 'tcp:HOST:PORT'; PATH is everything after
    'file:', colons included."""
    text = text.strip()
    if text == "stdin":
        return SourceSpec(kind="stdin")
    kind, _, rest = text.partition(":")
    if kind == "file":
        return SourceSpec(kind="file-replay", target=rest)
    if kind == "tcp":
        return SourceSpec(kind="tcp-listen", target=rest)
    raise ConfigError(f"bad source {text!r}")


def parse_config_file(path: str, what: str = "config") -> Dict[str, str]:
    """Flat key=value file, each key once; blank lines and # comments
    ignored.  what names the file in a read error."""
    out: Dict[str, str] = {}
    for lineno, line in data_lines(path, what):
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
                     "export_dir"), str),
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
    t = datetime.fromtimestamp(sec, tz=timezone.utc)
    return "%04d-%02d-%02dT%02d:%02d:%02d.%06dZ" % (
        t.year, t.month, t.day, t.hour, t.minute, t.second, rem)


def compact_ts(us: int) -> str:
    return iso_ts(us).replace("-", "").replace(":", "").replace(".", "")


def round9(x: float) -> float:
    """Fixed-precision decimal rounding (9 significant digits) so exports are
    byte-identical across runs and platforms."""
    return float(f"{x:.9g}")


def export_payload(model_set: ModelSet, now: int) -> dict:
    """Snapshot of the live models as a JSON-ready dict."""
    rows = model_set.pmf_rows()
    feats = model_set.characteristic_features(rows)
    kept = [{name: {} for name in COMPONENTS} for _ in model_set.models]
    at, cols = np.nonzero(rows >= PMF_EXPORT_FLOOR)
    for k, col, p in zip(at.tolist(), cols.tolist(), rows[at, cols].tolist()):
        name, label = model_set.column_labels[col]
        kept[k][name][label] = round9(p)
    models = []
    for m, pmfs in zip(model_set.models, kept):
        models.append({
            "model_id": m.model_id,
            "created_at": iso_ts(m.created_at),
            "last_update_ts": iso_ts(m.last_update_ts),
            "effective_evidence": round9(m.evidence),
            "pmf": pmfs,
            "characteristic": feats[m.model_id],
        })
    return {"schema": SCHEMA_VERSION, "export_ts": iso_ts(now), "models": models}


_json_str = json.encoder.encode_basestring_ascii


def render_export(payload: dict) -> str:
    """payload as json.dumps(payload, sort_keys=True, indent=2) writes it,
    and a newline.  CPython's C encoder ignores indent, so json.dumps would
    format this in pure Python, at about twice the cost of _render."""
    return _render(payload, "\n") + "\n"


def _render(value, newline: str) -> str:
    """JSON text of a dict with str keys, list, str, int or float, in the
    layout of json.dumps(sort_keys=True, indent=2); newline is a line break
    and the current indentation."""
    if isinstance(value, (dict, list)):
        if not value:
            return "{}" if isinstance(value, dict) else "[]"
        inner = newline + "  "
        if isinstance(value, dict):
            items = [f"{_json_str(k)}: {_render(value[k], inner)}"
                     for k in sorted(value)]
            return "{" + inner + ("," + inner).join(items) + newline + "}"
        items = [_render(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, str):
        return _json_str(value)
    return repr(value) if math.isfinite(value) else json.dumps(value)


EVIDENCE_HEADER = "export_ts,model_id,effective_evidence\n"


def export_evidence_series(ts: int, rows: List[Tuple[int, float]]) -> str:
    """The evidence.csv rows (export_ts, model_id, effective_evidence) of
    one export at ts, from its (model_id, evidence) pairs, appended below
    EVIDENCE_HEADER."""
    stamp = iso_ts(ts)
    return "".join(f"{stamp},{model_id},{evidence:.9g}\n"
                   for model_id, evidence in rows)


# -- the pipeline ------------------------------------------------------------


class Engine:
    """Wires ingest, action mapping, stream tracking, segmentation, and
    synthesis together; owns all export side effects."""

    def __init__(self, config: RunConfig) -> None:
        self.config = config
        self.tables: MappingTables = load_mappings(
            config.ais_map, config.port_table, config.homenet,
            config.ais_categories)
        self.tracker = StreamTracker(self.tables.homenet, config.pivot_horizon,
                                     config.idle_timeout)
        self.model_set = ModelSet(config.synth, self.tables.cardinalities,
                                  self.tables.vocabularies)
        self.stats = IngestStats()
        self.clock: Optional[int] = None
        self.actions_total = 0
        self.aggregates_total = 0
        self.exports_total = 0
        # admissions per number of merges they caused
        self.merge_counts: Counter = Counter()
        # model id admitted for each raw_seq, -1 for a line never admitted
        self.assignments = array("q")
        self._interval_us = within_us(config.export_interval)
        self._next_boundary: Optional[int] = None
        self._evidence_path = os.path.join(config.export_dir, "evidence.csv")
        try:
            os.makedirs(config.export_dir, exist_ok=True)
            for name in sorted(os.listdir(config.export_dir)):
                if name in ("evidence.csv", "assignments.csv") or fnmatch(
                        name, "models-*.json"):
                    raise ConfigError(f"export_dir {config.export_dir} holds "
                                      f"{name} from an earlier run")
            with open(self._evidence_path, "w", encoding="utf-8") as fh:
                fh.write(EVIDENCE_HEADER)
        except OSError as exc:
            raise ConfigError(
                f"cannot write export_dir {config.export_dir}: {exc}")

    # clock and boundaries

    def process(self, alert: Alert) -> None:
        if self.clock is None:
            self.clock = alert.ts
            self._next_boundary = (alert.ts // self._interval_us + 1) * self._interval_us
        while self._next_boundary < alert.ts:
            self._boundary(self._next_boundary)
            self._next_boundary += self._interval_us
            if not self.model_set.models and not self.tracker.states:
                # nothing left that a later export could show changing:
                # go on from the last boundary before this alert
                self._next_boundary = max(
                    self._next_boundary,
                    (alert.ts - 1) // self._interval_us * self._interval_us)
        late = alert.ts < self.clock
        self.clock = max(self.clock, alert.ts)

        stream_id, direction, transition, elapsed_us = self.tracker.assign(alert)
        state = self.tracker.states[stream_id]
        runs = []
        if state.handle is None:
            state.handle = SEGMENTERS[self.config.segmenter](self.config)
        elif late and state.horizon is not None and state.horizon < self.clock:
            # a boundary between the clock and the horizon stored at the
            # stream's previous alert would have closed the segment here
            runs = state.handle.flush()
        port = alert.src_port if direction == "outbound" else alert.dst_port
        action = Action(
            ais=map_ais_index(alert, self.tables),
            service=map_service_index(port, alert.proto, self.tables),
            maneuver=maneuver_index(direction, transition),
            timebin=bin_elapsed_index(elapsed_us),
            ts=alert.ts, stream_id=stream_id, raw_seq=alert.raw_seq)
        self.actions_total += 1
        runs += state.handle.feed(action, elapsed_us)
        state.horizon = state.handle.horizon(state.last_ts)
        self._admit(runs, self.clock)

    def _admit(self, runs: List[List[Action]], now: int) -> None:
        """Build and admit closed runs one at a time in (t_end, stream_id)
        order, each stamped now."""
        runs.sort(key=lambda run: (max([a.ts for a in run]), run[0].stream_id))
        for actions in runs:
            agg = build_aggregate(actions, self.tables.cardinalities)
            admission = self.model_set.observe(agg, now)
            self.merge_counts[len(admission.merges)] += 1
            short = max(agg.raw_seqs) + 1 - len(self.assignments)
            if short > 0:  # pad to the largest seq
                self.assignments.extend(array("q", [-1]) * short)
            for seq in agg.raw_seqs:
                self.assignments[seq] = admission.model_id
            self.aggregates_total += 1

    def _boundary(self, ts: int) -> None:
        # quiet segments and idle streams close first so their aggregates
        # make this export
        evicted = self.tracker.gc(ts)
        self._drain(self.tracker.quiet + evicted, ts)

    def _drain(self, states, ts: int) -> None:
        """Flush the given streams that hold a segmenter and release it (the
        stream's next alert starts a fresh one), admit their runs, retire,
        and export at ts."""
        runs = []
        for state in states:
            if state.handle is not None:
                runs += state.handle.flush()
                state.handle = state.horizon = None
        self._admit(runs, ts)
        self.model_set.retire_pass(ts)
        self._export(ts)

    def _export(self, ts: int) -> None:
        payload = export_payload(self.model_set, ts)
        name = f"models-{compact_ts(ts)}.json"
        with open(os.path.join(self.config.export_dir, name), "w",
                  encoding="utf-8") as fh:
            fh.write(render_export(payload))
        with open(self._evidence_path, "a", encoding="utf-8") as fh:
            fh.write(export_evidence_series(
                ts, [(m.model_id, m.evidence) for m in self.model_set.models]))
        self.exports_total += 1

    def shutdown(self) -> None:
        """Flush open aggregates, run a final export, write the assignment log."""
        if self.clock is None:
            self.clock = 0  # empty input still produces a (zero-model) export
        self._drain(self.tracker.states.values(), self.clock)
        # each distinct model id resolved once, to the end of its rows
        tail = {model_id: f",{self.model_set.resolve(model_id)}\n"
                for model_id in set(self.assignments)}
        path = os.path.join(self.config.export_dir, "assignments.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("raw_seq,model_id\n")
            for seq, model_id in enumerate(self.assignments):
                if model_id >= 0:
                    fh.write(f"{seq}{tail[model_id]}")

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
    parser.add_argument("--source", help="file:PATH | stdin | tcp:HOST:PORT")
    parser.add_argument("--gamma", help="admission relaxation in (0,1], e.g. 2/3")
    parser.add_argument("--tau", help="threshold segmenter gap, e.g. 600s")
    parser.add_argument("--segmenter", choices=list(SEGMENTERS))
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
        return run(build_config(entries))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
