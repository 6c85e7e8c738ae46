"""Whole runs replayed through the textbook model set.

Every ModelSet.observe and retire_pass call of an engine run is recorded
(the aggregate's pmfs and size, and the stamp) and replayed, in order,
through oracles.ModelSetRef.  Each call must give the same model id,
action, merges and retired ids, and an h_star within 1e-9, so the engine's
shortcuts (the no-merge certificate, one-row re-smoothing, counts views,
the shared decay clock) are checked against the definitions over a run,
not only against the previous commit.  Seeded random churn, replayed the
same way, checks that merge_pass, which scans only the row an admission
touched, finds the merges of the oracle's full pairwise scan.
"""

import importlib.util
import pathlib
import random

import pytest

from alertsynth.export_cli import build_config
from alertsynth.synth_harness import generate_scenario
from alertsynth.synthesis import ModelSet, SynthConfig
from conftest import SCENARIOS, run_engine
from oracles import ModelSetRef
from test_synthesis import CARDS, VOCABS, nearby_agg

_spec = importlib.util.spec_from_file_location(
    "workloads",
    pathlib.Path(__file__).parent.parent / "bench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

CHURN = {"merge_threshold": "0.4", "window": "900s"}


def recording(monkeypatch):
    """A list that, from now on, gets every ModelSet observe and retire_pass
    call in order: ("observe", pmfs, n, now, (model id, action, h_star,
    merges)) and ("retire", now, retired ids)."""
    calls = []
    observe, retire_pass = ModelSet.observe, ModelSet.retire_pass

    def recording_observe(self, agg, now):
        a = observe(self, agg, now)
        calls.append(("observe", [p.tolist() for p in agg.pmfs], agg.n, now,
                      (a.model_id, a.action, a.h_star, list(a.merges))))
        return a

    def recording_retire(self, now):
        retired = retire_pass(self, now)
        calls.append(("retire", now, [m.model_id for m in retired]))
        return retired

    monkeypatch.setattr(ModelSet, "observe", recording_observe)
    monkeypatch.setattr(ModelSet, "retire_pass", recording_retire)
    return calls


def recorded_run(monkeypatch, scenario, config, base):
    """The engine's model set and its recorded calls over a fixture scenario
    or benchmark workload run with config on top of its own."""
    calls = recording(monkeypatch)
    alerts, _ = generate_scenario(scenario.specs, scenario.noise_rate,
                                  scenario.duration, scenario.seed, str(base))
    engine = run_engine(build_config({**scenario.config, **config,
                                      "source": f"file:{alerts}",
                                      "export_dir": str(base / "out")}))
    return engine.model_set, calls


def replay(model_set, calls):
    """Replay calls through the oracle; returns it and its merge count."""
    c = model_set.config
    oracle = ModelSetRef(c.weights.vector,
                         [len(v) for v in model_set.vocabularies], c.gamma,
                         c.ewma_window, c.merge_threshold, c.retire_floor,
                         c.smoothing_eps)
    merges = 0
    for k, call in enumerate(calls):
        if call[0] == "observe":
            _, pmfs, n, now, (model_id, action, h_star, merged) = call
            ref_id, ref_action, ref_h, ref_merged = oracle.observe(pmfs, n, now)
            assert (ref_id, ref_action, ref_merged) == (model_id, action,
                                                        merged), k
            assert (ref_h is None) == (h_star is None), k
            assert h_star is None or abs(ref_h - h_star) <= 1e-9, k
            merges += len(merged)
        else:
            _, now, retired = call
            assert oracle.retire_pass(now) == retired, k
    return oracle, merges


@pytest.mark.parametrize("name,config", [
    ("small", {}),
    ("periodic-c2", {}),
    ("periodic-c2", CHURN),
], ids=["small", "periodic-c2", "periodic-c2-churn"])
def test_run_matches_textbook_model_set(monkeypatch, tmp_path,
                                        record_property, name, config):
    scenario = SCENARIOS.get(name) or workloads.WORKLOADS[name]
    model_set, calls = recorded_run(monkeypatch, scenario, config, tmp_path)
    oracle, merges = replay(model_set, calls)
    assert [m.model_id for m in oracle.models] == \
        [m.model_id for m in model_set.models]
    for key, margin in oracle.margins.items():
        record_property(f"{key}_margin", margin)
    print(f"{name} {config}: {len(calls)} calls, {merges} merges, "
          f"tightest |h_star - bound| {oracle.margins['h_star']:.4g}, "
          f"|JSD - threshold| {oracle.margins['jsd']:.4g}")
    if config == CHURN:
        assert merges > 0
        assert any(call[0] == "retire" and call[2] for call in calls)


def test_random_churn_matches_textbook_model_set(monkeypatch,
                                                  record_property):
    """Seeded churn on a small action space: 40 admissions of neighbouring
    values per seed, under a merge threshold and window that make models
    merge and retire often, with a retire pass after one admission in
    five."""
    calls = recording(monkeypatch)
    merges, margins = 0, {"h_star": float("inf"), "jsd": float("inf")}
    for seed in range(20):
        rng = random.Random(seed)
        ms = ModelSet(SynthConfig(merge_threshold=0.3, ewma_window=3600.0),
                      CARDS, VOCABS)
        calls.clear()
        now = 0
        for _ in range(40):
            ms.observe(nearby_agg(rng, now), now)
            if rng.random() < 0.2:
                ms.retire_pass(now)
            now += rng.randint(0, int(1200 * 1e6))
        oracle, merged = replay(ms, calls)
        assert [m.model_id for m in oracle.models] == \
            [m.model_id for m in ms.models]
        merges += merged
        margins = {k: min(v, oracle.margins[k]) for k, v in margins.items()}
    for key, margin in margins.items():
        record_property(f"{key}_margin", margin)
    print(f"random churn: 20 seeds, {merges} merges, tightest "
          f"|h_star - bound| {margins['h_star']:.4g}, "
          f"|JSD - threshold| {margins['jsd']:.4g}")
    assert merges >= 20
