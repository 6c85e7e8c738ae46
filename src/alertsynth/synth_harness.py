"""Synthetic scenario generator and recovery scorer.

Scenarios combine background noise (Poisson-rate reconnaissance alerts from
uniform-random external sources) with scripted behaviors: episodic bursts of
alerts against one service, drawn from a pool of sources and carrying a
configured mix of intent stages.  Output is a Suricata-style JSON-lines file
plus a truth CSV mapping each line number to its behavior label, which
score_recovery joins against the pipeline's assignment log.
"""

import argparse
import math
import os
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .action_space import EPHEMERAL_PORT_FLOOR, ConfigError
from .export_cli import iso_ts, parse_config_file, parse_duration, parse_ratio
from .ingest import parse_timestamp


class ScoringError(Exception):
    """Truth and assignment logs do not line up."""


# An arbitrary fixed scenario epoch.
DEFAULT_T0_US = parse_timestamp("2025-03-02T00:00:00Z")

EPHEMERAL = (EPHEMERAL_PORT_FLOOR, 65536)

# Signature text per intent stage, phrased so the packaged keyword rules
# recover the stage without an exact signature-id entry.
STAGE_SIGNATURES: Dict[str, Tuple[int, str]] = {
    "Benign": (2300001, "GPL POLICY benign service heartbeat"),
    "Discovery": (2300002, "ET SCAN inbound service sweep"),
    "VulnerabilityDiscovery": (2300003, "ET EXPLOIT vulnerability check against service"),
    "BruteForce": (2300004, "ET POLICY brute force login attempt"),
    "PrivilegeEscalation": (2300005, "ET EXPLOIT privilege escalation attempt"),
    "ArbitraryCodeExecution": (2300006, "ET EXPLOIT remote code execution payload"),
    "Persistence": (2300007, "ET MALWARE backdoor service install"),
    "DefenseEvasion": (2300008, "ET MALWARE log wipe evasion behavior"),
    "Collection": (2300009, "ET MALWARE credential harvest staging"),
    "DataExfiltration": (2300010, "ET MALWARE data exfil over tunnel"),
    "CommandAndControl": (2300011, "ET MALWARE c2 beacon heartbeat"),
    "Disruption": (2300012, "ET DOS denial of service flood"),
}

_NOISE_TEXTS = (
    (2400001, "ET SCAN external host port sweep"),
    (2400002, "ET SCAN generic service probe"),
    (2400003, "GPL RECON external source probe"),
)
_NOISE_PORTS = (80, 443, 53, 23, 445, 3389, 8080, 22)


@dataclass(frozen=True)
class BehaviorSpec:
    """One scripted behavior: who, what service, which stages, and when."""

    label: str
    sources: Tuple[str, ...]            # external IPs (internal for outbound)
    targets: Tuple[str, ...]            # internal victims (external for outbound)
    service_port: int
    signatures: Tuple[Tuple[int, str], ...]
    ais_mix: Tuple[float, ...]          # relative stage weights, same length
    count: int                          # total alerts over all episodes
    start: float = 0.0                  # seconds after scenario start
    episodes: int = 1
    period: float = 3600.0              # episode start-to-start spacing
    gap_median: float = 1.0             # intra-episode gap median, seconds
    gap_sigma: float = 0.5              # log-normal shape of the gaps
    proto: str = "tcp"
    direction: str = "inbound"          # inbound | outbound

    def __post_init__(self) -> None:
        checks = [
            (self.count >= 1, "count must be at least 1"),
            (all(map(math.isfinite, (self.start, self.period, self.gap_median,
                                     self.gap_sigma))),
             "start, period and gap params must be finite"),
            (self.gap_median > 0 and self.gap_sigma >= 0, "gap params must be positive"),
            (0 <= self.service_port <= 65535, "service_port must be 0-65535"),
            (len(self.signatures) >= 1, "at least one signature required"),
            (len(self.ais_mix) == len(self.signatures),
             "ais_mix length must match signatures"),
            (all(w >= 0 for w in self.ais_mix) and sum(self.ais_mix) > 0,
             "ais_mix must be nonnegative with positive sum"),
            (self.episodes >= 1, "episodes must be at least 1"),
            (self.period > 0, "period must be positive"),
            (len(self.sources) >= 1 and len(self.targets) >= 1,
             "source and target pools must be nonempty"),
            (self.direction in ("inbound", "outbound"),
             f"bad direction {self.direction!r}"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(f"behavior {self.label!r}: {message}")


def _ip4(value: int) -> str:
    return f"{value >> 24 & 255}.{value >> 16 & 255}.{value >> 8 & 255}.{value & 255}"


def _noise_records(rng: np.random.Generator, rate_per_hour: float,
                   duration: float) -> List[tuple]:
    if rate_per_hour <= 0:
        return []
    mean_gap = 3600.0 / rate_per_hour
    n_draw = int(duration / mean_gap * 1.25) + 64
    times = np.cumsum(rng.exponential(mean_gap, n_draw))
    times = times[times < duration]
    n = len(times)
    # 11.0.0.0 .. 126.255.255.255: public space, clear of the homenet
    # ranges, loopback, multicast, and the behavior source pool
    srcs = rng.integers(0x0B000000, 0x7F000000, n)
    dst_a = rng.integers(0, 32, n)
    dst_b = rng.integers(1, 255, n)
    sports = rng.integers(*EPHEMERAL, n)
    dports = rng.choice(_NOISE_PORTS, n)
    texts = rng.integers(0, len(_NOISE_TEXTS), n)
    out = []
    for i in range(n):
        sig_id, sig_text = _NOISE_TEXTS[texts[i]]
        proto = "udp" if dports[i] == 53 else "tcp"
        out.append((int(times[i] * 1e6), _ip4(int(srcs[i])), int(sports[i]),
                    f"10.0.{dst_a[i]}.{dst_b[i]}", int(dports[i]), proto,
                    sig_id, sig_text, "noise"))
    return out


def _behavior_records(rng: np.random.Generator, spec: BehaviorSpec) -> List[tuple]:
    mix = np.asarray(spec.ais_mix, dtype=float)
    mix = mix / mix.sum()
    base, rem = divmod(spec.count, spec.episodes)
    out = []
    for k in range(spec.episodes):
        m = base + (rem if k == 0 else 0)
        if m == 0:
            continue
        gaps = spec.gap_median * np.exp(rng.normal(0.0, spec.gap_sigma, m))
        gaps[0] = 0.0  # first alert sits exactly at the episode start
        offsets = spec.start + k * spec.period + np.cumsum(gaps)
        picks = rng.choice(len(spec.signatures), m, p=mix)
        anchor = spec.sources[k % len(spec.sources)]
        peers = rng.integers(0, len(spec.targets), m)
        ports = rng.integers(*EPHEMERAL, m)
        for i in range(m):
            sig_id, sig_text = spec.signatures[picks[i]]
            peer = spec.targets[peers[i]]
            if spec.direction == "inbound":
                rec = (anchor, int(ports[i]), peer, spec.service_port)
            else:
                # an internal host reaching out from its service port
                rec = (anchor, spec.service_port, peer, int(ports[i]))
            out.append((int(offsets[i] * 1e6),) + rec +
                       (spec.proto, sig_id, sig_text, spec.label))
    return out


def generate_scenario(specs: Sequence[BehaviorSpec], noise_rate: float,
                      duration: float, seed: int, out_dir: str = ".",
                      t0_us: int = DEFAULT_T0_US) -> Tuple[str, str]:
    """Write alerts.jsonl and truth.csv for one scenario; returns the paths.

    noise_rate is in alerts per hour; duration in seconds.  Deterministic
    per seed.  Identical (ts, src, dst, signature) collisions are perturbed
    by +1 microsecond until distinct.
    """
    if not (math.isfinite(noise_rate) and math.isfinite(duration)):
        raise ConfigError("noise_rate and duration must be finite")
    rng = np.random.default_rng(seed)
    records = _noise_records(rng, noise_rate, duration)
    for spec in specs:
        records.extend(_behavior_records(rng, spec))
    records.sort(key=lambda r: (r[0], r[1], r[3], r[6]))

    seen = set()
    bumped = []
    for rec in records:
        ts = rec[0]
        key = (ts, rec[1], rec[3], rec[6])
        while key in seen:
            ts += 1
            key = (ts, rec[1], rec[3], rec[6])
        seen.add(key)
        bumped.append((ts,) + rec[1:])
    bumped.sort(key=lambda r: (r[0], r[1], r[3], r[6]))

    os.makedirs(out_dir, exist_ok=True)
    alerts_path = os.path.join(out_dir, "alerts.jsonl")
    truth_path = os.path.join(out_dir, "truth.csv")
    with open(alerts_path, "w", encoding="utf-8") as af, \
            open(truth_path, "w", encoding="utf-8") as tf:
        tf.write("raw_seq,label\n")
        for seq, rec in enumerate(bumped):
            ts, src, sport, dst, dport, proto, sig_id, sig_text, label = rec
            sig_text = sig_text.replace('"', "'")
            stamp = iso_ts(t0_us + ts)[:-1] + "+0000"  # Suricata's offset form
            af.write(
                f'{{"timestamp": "{stamp}", "event_type": "alert", '
                f'"src_ip": "{src}", "src_port": {sport}, '
                f'"dest_ip": "{dst}", "dest_port": {dport}, '
                f'"proto": "{proto.upper()}", '
                f'"alert": {{"signature_id": {sig_id}, '
                f'"signature": "{sig_text}", "severity": 2}}}}\n')
            tf.write(f"{seq},{label}\n")
    return alerts_path, truth_path


def _read_csv(path: str, expect_header: str) -> List[List[str]]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if not lines or lines[0] != expect_header:
        raise ScoringError(f"{path}: expected header {expect_header!r}")
    return [line.split(",") for line in lines[1:]]


def score_recovery(truth_path: str, assignments_path: str) -> Dict[str, object]:
    """Join truth labels to model assignments and score behavior recovery.

    Purity is computed over non-noise alerts: for each behavior label, the
    largest overlap with any single model, summed and divided by the number
    of behavior alerts.  Every behavior raw_seq must be assigned.
    """
    assigned: Dict[int, int] = {}
    for seq_s, model_s in _read_csv(assignments_path, "raw_seq,model_id"):
        assigned[int(seq_s)] = int(model_s)

    overlap: Dict[str, Dict[int, int]] = {}
    totals: Dict[str, int] = {}
    for seq_s, label in _read_csv(truth_path, "raw_seq,label"):
        if label == "noise":
            continue
        seq = int(seq_s)
        model = assigned.get(seq)
        if model is None:
            raise ScoringError(f"raw_seq {seq} has no model assignment")
        overlap.setdefault(label, {})[model] = overlap.get(label, {}).get(model, 0) + 1
        totals[label] = totals.get(label, 0) + 1

    n = sum(totals.values())
    hits = 0
    majority: Dict[str, int] = {}
    fraction: Dict[str, float] = {}
    for label, counts in overlap.items():
        best_model = max(counts, key=lambda m: (counts[m], -m))
        majority[label] = best_model
        hits += counts[best_model]
        fraction[label] = counts[best_model] / totals[label]
    models_used = {m for counts in overlap.values() for m in counts}
    return {
        "purity": hits / n if n else 1.0,
        "model_count": len(models_used),
        "majority": majority,
        "fraction": fraction,
    }


# -- flat scenario config -----------------------------------------------------


def _signature_pairs(value: str) -> Tuple[Tuple[int, str], ...]:
    pairs = (p.strip().partition(":") for p in value.split(";") if p.strip())
    return tuple((int(sig_s), text.strip()) for sig_s, _, text in pairs)


def _stage_signatures(value: str) -> Tuple[Tuple[int, str], ...]:
    try:
        return tuple(STAGE_SIGNATURES[s.strip()] for s in value.split(",") if s.strip())
    except KeyError as exc:
        raise ConfigError(f"unknown stage {exc.args[0]!r}")


# scenario key -> parser of its string value; behavior.<label>.<field> keys
# are looked up as behavior.<field>
_SCENARIO_PARSERS = {
    "noise_rate": parse_ratio, "duration": parse_duration, "seed": int,
    "t0": parse_timestamp,
    "behavior.signatures": _signature_pairs,
    "behavior.stages": _stage_signatures,
    "behavior.ais_mix": lambda v: tuple(parse_ratio(w) for w in v.split(",")),
    **dict.fromkeys(("behavior.sources", "behavior.targets"),
                    lambda v: tuple(s.strip() for s in v.split(","))),
    **dict.fromkeys(("behavior.service_port", "behavior.count",
                     "behavior.episodes"), int),
    **dict.fromkeys(("behavior.start", "behavior.period"), parse_duration),
    **dict.fromkeys(("behavior.gap_median", "behavior.gap_sigma"), parse_ratio),
    **dict.fromkeys(("behavior.proto", "behavior.direction"), str),
}
_REQUIRED_FIELDS = ("sources", "targets", "service_port", "ais_mix", "count")


def load_scenario(path: str):
    """Parse a flat key=value scenario file.

    Global keys: noise_rate (per hour), duration (seconds or with s/m/h/d
    suffix), seed, t0 (ISO timestamp).  Behavior keys are prefixed
    behavior.<label>.<field>; signatures use id:text pairs joined by ';',
    and the signatures of the listed stages follow them.  Unknown keys or
    fields, missing behavior fields and bad values are all ConfigErrors.
    """
    settings = {"noise_rate": 0.0, "duration": 3600.0, "seed": 0,
                "t0": DEFAULT_T0_US}
    fields: Dict[str, Dict[str, object]] = {}
    for key, value in parse_config_file(path, "scenario").items():
        target, name, table_key = settings, key, key
        if key.startswith("behavior."):
            parts = key.split(".", 2)
            if len(parts) != 3:
                raise ConfigError(f"bad behavior key {key!r}")
            target, name = fields.setdefault(parts[1], {}), parts[2]
            table_key = f"behavior.{name}"
        parser = _SCENARIO_PARSERS.get(table_key)
        if parser is None:
            raise ConfigError(f"unknown scenario key {key!r}")
        try:
            target[name] = parser(value)
        except ValueError:
            raise ConfigError(f"bad value for {key}: {value!r}")

    specs = []
    for label, fv in fields.items():
        missing = [name for name in _REQUIRED_FIELDS if name not in fv]
        if missing:
            raise ConfigError(f"behavior {label!r}: missing {', '.join(missing)}")
        fv["signatures"] = fv.get("signatures", ()) + fv.pop("stages", ())
        specs.append(BehaviorSpec(label=label, **fv))
    return (specs, *settings.values())  # noise_rate, duration, seed, t0_us


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="alertsynth-scenario",
        description="Generate a labeled synthetic alert scenario.")
    parser.add_argument("--spec", required=True, help="flat key=value scenario file")
    parser.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)
    try:
        specs, noise_rate, duration, seed, t0_us = load_scenario(args.spec)
        alerts, truth = generate_scenario(specs, noise_rate, duration, seed,
                                          args.out, t0_us)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    print(alerts)
    print(truth)
    return 0


if __name__ == "__main__":
    sys.exit(main())
