"""Correctness checks on the artifacts of one replay."""

import hashlib
import os
from collections import Counter

from alertsynth.synth_harness import ScoringError, score_recovery

MIN_PURITY = 0.9


def export_digest(out_dir):
    """SHA-256 over every file name and byte in the export directory."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode("utf-8") + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def check_replay(out_dir, truth_path, n_lines, counters):
    """Returns (problems, failed, purity) for one finished replay.

    failed counts rejected lines plus parsed alerts missing from
    assignments.csv.
    """
    problems = []
    if counters["alerts_in"] != n_lines:
        problems.append(f"alerts_in {counters['alerts_in']} != {n_lines} lines")
    with open(os.path.join(out_dir, "assignments.csv"), "r", encoding="utf-8") as fh:
        next(fh)
        seen = Counter(int(line.split(",", 1)[0]) for line in fh)
    missing = sum(1 for seq in range(n_lines) if seq not in seen)
    if missing:
        problems.append(f"{missing} raw_seq missing from assignments.csv")
    repeated = sum(1 for count in seen.values() if count > 1)
    if repeated:
        problems.append(f"{repeated} raw_seq repeated in assignments.csv")
    try:
        purity = score_recovery(truth_path, os.path.join(out_dir, "assignments.csv"))["purity"]
    except ScoringError as exc:
        problems.append(f"scoring failed: {exc}")
        purity = 0.0
    if purity < MIN_PURITY:
        problems.append(f"purity {purity:.4f} < {MIN_PURITY}")
    return problems, counters["rejected"] + missing, purity
