"""End-to-end quality gates for the full pipeline.

Each test prints one [PASS]/[FAIL] line through pytest's capture so the
verdicts land in the run log, then asserts.  The four scenario fixtures in
conftest.py are session-scoped; the first gate that needs one pays for it.
"""

import json
import math
import os
import statistics
import sys

import numpy as np
import pytest

from alertsynth.action_space import Action
from alertsynth.aggregation import build_aggregate
from alertsynth.ingest import parse_timestamp
from alertsynth.synthesis import (AttackModel, ModelSet, SynthConfig,
                                  WeightConfig, admission_bound, create_model,
                                  cross_entropy, decay, jsd_component,
                                  kl_divergence, model_distance)
from alertsynth.synth_harness import score_recovery
from conftest import FIVE_SERVICES, export_files, latest_export, read_truth
from oracles import (autocorr_peak_ref, cross_entropy_ref, decay_ref,
                     jsd_component_ref, pmf_by_counting)

CARDS = (12, 45, 21, 10)
VOCABS = [tuple(f"v{i}" for i in range(c)) for c in CARDS]
EWMA_WINDOW_US = int(21600.0 * 1e6)


def report(n: int, description: str, ok: bool) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] criterion {n}: {description}", file=sys.__stdout__)
    assert ok, f"criterion {n}: {description}"


def make_agg(ais, service, maneuver, timebin):
    actions = [Action(ais=a, service=s, maneuver=m, timebin=t,
                      ts=i * 1000, stream_id="s", raw_seq=i)
               for i, (a, s, m, t) in enumerate(zip(ais, service, maneuver,
                                                    timebin))]
    return build_aggregate(actions, CARDS)


def load_payloads(out_dir):
    out = []
    for path in export_files(out_dir):
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        out.append((parse_timestamp(payload["export_ts"]), payload))
    return out


def read_evidence(out_dir):
    """evidence.csv rows as (export_ts, model_id, value), file order."""
    rows = []
    with open(os.path.join(out_dir, "evidence.csv"), "r",
              encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            ts_s, mid_s, val_s = line.strip().split(",")
            rows.append((ts_s, int(mid_s), float(val_s)))
    return rows


def test_throughput_100k_alerts(scenario_kerb):
    counters = scenario_kerb.engine.counters()
    runtime = scenario_kerb.engine.runtime_s
    report(1, f"{counters['alerts_in']} alerts processed in {runtime:.1f}s "
              "(floor 100000, budget 300s)",
           counters["alerts_in"] >= 100_000 and runtime <= 300.0)


def test_model_parsimony(scenario_five):
    live = scenario_five.engine.counters()["models_live"]
    report(2, f"{live} live models after five behaviors plus noise "
              "(expected 5..30)", 5 <= live <= 30)


def test_behavior_recovery(scenario_five):
    result = score_recovery(scenario_five.truth_path,
                            os.path.join(scenario_five.out_dir,
                                         "assignments.csv"))
    final = latest_export(scenario_five.out_dir)
    by_id = {m["model_id"]: m for m in final["models"]}
    hits = 0
    for label, service in FIVE_SERVICES.items():
        model = by_id.get(result["majority"][label])
        if model is not None and model["characteristic"]["service"] == service:
            hits += 1
    report(3, f"purity {result['purity']:.3f} (floor 0.9), service "
              f"characteristic recovered for {hits}/5 behaviors (floor 4)",
           result["purity"] >= 0.9 and hits >= 4)


def test_kerberos_detection(scenario_kerb):
    truth = read_truth(scenario_kerb.truth_path)
    end = 0
    with open(scenario_kerb.alerts_path, "r", encoding="utf-8") as fh:
        for seq, line in enumerate(fh):
            if truth[seq] == "kerb":
                ts = parse_timestamp(json.loads(line)["timestamp"])
                end = max(end, ts)
    found = False
    for export_ts, payload in load_payloads(scenario_kerb.out_dir):
        if not end <= export_ts <= end + EWMA_WINDOW_US:
            continue
        for model in payload["models"]:
            if (model["characteristic"]["service"] == "kerberos"
                    and len(model["pmf"]["ais"]) >= 3):
                found = True
    report(4, "kerberos-service model with a 3+ stage intent pmf exported "
              "within one decay window of the behavior end", found)


def test_periodic_evidence_autocorrelation(scenario_periodic):
    per_model = {}
    for _, mid, val in read_evidence(scenario_periodic.out_dir):
        per_model.setdefault(mid, []).append(val)
    series = max(per_model.values(), key=len)
    lag = autocorr_peak_ref(series, 24)
    report(5, f"evidence autocorrelation peaks at lag {lag} exports "
              "(planted period 12, tolerance 1)", 11 <= lag <= 13)


def test_information_theory_suite():
    rng = np.random.default_rng(20250819)
    worst = 0.0
    ok = True
    for _ in range(1000):
        dim = int(rng.integers(2, 25))
        p = rng.dirichlet(np.ones(dim))
        q = rng.dirichlet(np.ones(dim))
        gibbs = cross_entropy(p, q) - cross_entropy(p, p)
        div = jsd_component(p, q)
        checks = [
            gibbs >= -1e-9,
            kl_divergence(p, q) >= -1e-9,
            abs(div - jsd_component(q, p)) <= 1e-9,
            -1e-9 <= div <= math.log(2) + 1e-9,
        ]
        # decaying in two hops must equal one combined hop
        t1, t2 = (int(x) for x in rng.integers(0, 40_000_000_000, 2))
        twins = [AttackModel(0, [p.copy()], 100.0, 0, 0, 0) for _ in range(2)]
        decay(decay(twins[0], t1, 21600.0), t1 + t2, 21600.0)
        decay(twins[1], t1 + t2, 21600.0)
        expected = decay_ref(100.0, (t1 + t2) / 1e6, 21600.0)
        checks.append(abs(twins[0].evidence - twins[1].evidence) <= 1e-9
                      and abs(twins[0].evidence - expected) <= 1e-9)
        worst = max(worst, gibbs if gibbs < 0 else 0.0)
        ok = ok and all(checks)
    report(6, "Gibbs, KL nonnegativity, JSD symmetry and bounds, decay "
              "composition over 1000 random pmf pairs at 1e-9", ok)


def test_merge_convergence(scenario_kerb, scenario_five, scenario_periodic,
                           scenario_small):
    counts = []
    for run in (scenario_kerb, scenario_five, scenario_periodic,
                scenario_small):
        counts.extend(run.engine.merge_counts.elements())
    merged = scenario_small.engine.counters()["models_merged"]
    report(7, f"merges per admission: max {max(counts)}, median "
              f"{statistics.median(counts):g} over {len(counts)} admissions; "
              f"{merged} merges in the engineered-merge run",
           max(counts) <= 5 and statistics.median(counts) <= 3
           and merged >= 1)


def test_oracle_equivalence():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 30))
        cols = [rng.integers(0, c, n) for c in CARDS]
        agg = make_agg(*cols)
        for col, pmf, card in zip(cols, agg.pmfs, CARDS):
            worst = max(worst, float(np.max(np.abs(
                pmf - pmf_by_counting(col, card)))))
        p = rng.dirichlet(np.ones(12))
        q = rng.dirichlet(np.ones(12))
        worst = max(worst, abs(cross_entropy(p, q) - cross_entropy_ref(p, q)))
        worst = max(worst, abs(jsd_component(p, q) - jsd_component_ref(p, q)))
    report(8, f"aggregate pmfs, cross-entropy, and JSD agree with "
              f"brute-force references within {worst:.2e} (tolerance 1e-9)",
           worst <= 1e-9)


def test_replay_determinism(scenario_small):
    names_a = sorted(os.listdir(scenario_small.out_a))
    names_b = sorted(os.listdir(scenario_small.out_b))
    identical = (scenario_small.status_a == scenario_small.status_b == 0
                 and names_a == names_b)
    if identical:
        for name in names_a:
            with open(os.path.join(scenario_small.out_a, name), "rb") as fa, \
                    open(os.path.join(scenario_small.out_b, name), "rb") as fb:
                if fa.read() != fb.read():
                    identical = False
                    break
    report(9, f"two identical runs produced byte-identical artifacts "
              f"({len(names_a)} files)", identical)


def test_admission_boundary():
    checks = []
    for gamma, bound_value in ((1.0, math.log(12)), (2.0 / 3.0, math.log(18))):
        config = SynthConfig(gamma=gamma,
                             weights=WeightConfig(1.0, 0.0, 0.0, 0.0))
        ms = ModelSet(config, CARDS, VOCABS)
        checks.append(abs(ms.bound - bound_value) <= 1e-12)
        checks.append(ms.admit(ms.bound) == "create")
        checks.append(ms.admit(ms.bound - 1e-12) == "associate")
        checks.append(ms.admit(ms.bound + 1e-12) == "create")

        # a uniform model makes every probe's distance exactly the weighted
        # uniform cross-entropy, so gamma alone decides the margin
        uniform = make_agg(list(range(12)), [0] * 12, [0] * 12, [0] * 12)
        ms.models = [create_model(uniform, 0, 0)]
        probe = make_agg([3, 3, 4], [0] * 3, [0] * 3, [0] * 3)
        h = model_distance(probe, ms.models[0], config.weights,
                           config.smoothing_eps)
        checks.append(abs(h - math.log(12)) <= 1e-9)
        expected = "associate" if h < ms.bound else "create"
        checks.append(ms.admit(h) == expected)
        if gamma < 1.0:
            checks.append(ms.admit(h) == "associate")
    default_bound = admission_bound(WeightConfig(1.0, 0.0, 0.0, 0.0), CARDS,
                                    2.0 / 3.0)
    checks.append(abs(default_bound - math.log(18)) <= 1e-12)
    report(10, "strict admission inequality at, just below, and just above "
               "the bound for gamma 1.0 and 2/3", all(checks))
