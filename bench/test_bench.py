"""Tests of the benchmark itself, on a scenario small enough to replay in
well under a second.  Run with: python3 -m pytest bench
"""

import contextlib
import io
import json
import os
import shutil
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import replay  # noqa: E402
import run_bench  # noqa: E402
import workloads  # noqa: E402
from alertsynth.synth_harness import BehaviorSpec  # noqa: E402

TINY = workloads.Workload(
    name="tiny",
    specs=(BehaviorSpec(
        label="kerb", sources=("203.0.113.7",), targets=("10.0.1.1",),
        service_port=88, signatures=workloads.sigs("BruteForce", "Discovery"),
        ais_mix=(0.5, 0.5), count=60, start=600.0, episodes=2, period=1800.0,
        gap_median=2.0, gap_sigma=0.5),),
    noise_rate=300.0, duration=7200.0, seed=5, heldout_seed=6, speedup=1e6)


@pytest.fixture
def bench(tmp_path, monkeypatch):
    monkeypatch.setattr(run_bench, "CACHE", str(tmp_path / "cache"))
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", TINY)
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def run_command(*args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = run_bench.main(["--workload", "tiny", *args])
    return status, json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_is_emitted_with_its_unit(bench, trace, section):
    status, result = run_command("--seconds", "0", "--trace", trace)
    assert status == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in bench[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_seconds_default_to_run_seconds(bench, monkeypatch):
    seen = []
    monkeypatch.setattr(run_bench, "end_to_end",
                        lambda run, seconds: seen.append(seconds) or {})
    run_command("--trace", "0")
    assert seen == [bench["run_seconds"]]


@pytest.fixture
def artifacts(bench, tmp_path):
    """Artifacts of one closed replay of the tiny scenario."""
    alerts, truth, n_lines = run_bench.scenario(TINY, TINY.seed)
    out = str(tmp_path / "out")
    request = {"mode": "closed", "alerts": alerts, "out": out, "config": {},
               "result": str(tmp_path / "result.json")}
    replay.main(request)
    with open(request["result"], "r", encoding="utf-8") as fh:
        counters = json.load(fh)["counters"]
    return out, truth, n_lines, counters


def test_clean_replay_passes_the_checks(artifacts):
    problems, failed, purity = checks.check_replay(*artifacts)
    assert problems == [] and failed == 0 and purity >= checks.MIN_PURITY


def test_dropped_assignment_row_fails_the_checks(artifacts):
    out = artifacts[0]
    path = os.path.join(out, "assignments.csv")
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines[:5] + lines[6:])
    problems, failed, _ = checks.check_replay(*artifacts)
    assert any("missing from assignments.csv" in p for p in problems)
    assert failed == 1


def test_changed_export_byte_fails_the_digest_check(artifacts, tmp_path):
    out = artifacts[0]
    copy = str(tmp_path / "copy")
    shutil.copytree(out, copy)
    assert checks.export_digest(copy) == checks.export_digest(out)
    name = sorted(n for n in os.listdir(copy) if n.startswith("models-"))[-1]
    with open(os.path.join(copy, name), "r+b") as fh:
        first = fh.read(1)
        fh.seek(0)
        fh.write(b" " if first != b" " else b"\n")
    digests = {checks.export_digest(out): ["closed"],
               checks.export_digest(copy): ["paced"]}
    assert len(digests) == 2

    run = run_bench.Run(TINY, TINY.seed, time.monotonic() + 60)
    run.digests = digests
    run.finish()
    assert not run.correct
