"""Whole runs replayed through the textbook model set.

Every ModelSet.observe and retire_pass call of an engine run is recorded
(the aggregate's pmfs and size, and the stamp) and replayed, in order,
through oracles.ModelSetRef.  Each call must give the same model id,
action, merges and retired ids, and an h_star within 1e-9, so the engine's
shortcuts (the no-merge certificate, one-row re-smoothing, counts views,
the shared decay clock) are checked against the definitions over a run,
not only against the previous commit.
"""

import importlib.util
import pathlib

import pytest

from alertsynth.export_cli import build_config
from alertsynth.synth_harness import generate_scenario
from alertsynth.synthesis import ModelSet
from conftest import SCENARIOS, run_engine
from oracles import ModelSetRef

_spec = importlib.util.spec_from_file_location(
    "workloads",
    pathlib.Path(__file__).parent.parent / "bench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

CHURN = {"merge_threshold": "0.4", "window": "900s"}


def recorded_run(monkeypatch, scenario, config, base):
    """The engine's model set and its observe and retire_pass calls, in
    order, over a fixture scenario or benchmark workload run with config on
    top of its own: ("observe", pmfs, n, now, (model id, action, h_star,
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
