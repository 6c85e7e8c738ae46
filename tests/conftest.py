"""Shared fixtures: mapping tables and the four end-to-end scenarios.

Scenario runs are session-scoped because they are the expensive part of the
suite; acceptance tests and a few integration tests all read from the same
run artifacts (engine counters, export directories, truth files).  The
SCENARIOS table holds each scenario's generator settings and engine config;
tools/artifact_digests.py runs the same table.
"""

import glob
import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List

import pytest

from alertsynth import load_mappings
from alertsynth.export_cli import Engine, RunConfig, build_config, run
from alertsynth.ingest import open_source
from alertsynth.synth_harness import (STAGE_SIGNATURES, BehaviorSpec,
                                      generate_scenario)


def sigs(*stages: str):
    return tuple(STAGE_SIGNATURES[s] for s in stages)


def run_engine(config: RunConfig) -> Engine:
    """Drive the pipeline in-process so internals stay inspectable."""
    engine = Engine(config)
    t0 = time.monotonic()
    for alert in open_source(config.source, config.aliases or None,
                             engine.stats):
        engine.process(alert)
    engine.shutdown()
    engine.runtime_s = time.monotonic() - t0
    return engine


def latest_export(out_dir: str) -> dict:
    files = sorted(glob.glob(os.path.join(out_dir, "models-*.json")))
    assert files, f"no model exports in {out_dir}"
    with open(files[-1], "r", encoding="utf-8") as fh:
        return json.load(fh)


def export_files(out_dir: str) -> List[str]:
    return sorted(glob.glob(os.path.join(out_dir, "models-*.json")))


def read_truth(truth_path: str) -> Dict[int, str]:
    out = {}
    with open(truth_path, "r", encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            seq_s, label = line.strip().split(",")
            out[int(seq_s)] = label
    return out


@dataclass
class ScenarioRun:
    alerts_path: str
    truth_path: str
    out_dir: str
    engine: Engine


@pytest.fixture(scope="session")
def tables():
    cfg = RunConfig()
    return load_mappings(cfg.ais_map, cfg.port_table, cfg.homenet)


# -- scenario: 100K+ noise alerts hiding one kerberos behavior ---------------

KERB_SPECS = [BehaviorSpec(
    label="kerb", sources=("203.0.113.50",), targets=("10.0.2.9", "10.0.2.10"),
    service_port=88,
    signatures=sigs("BruteForce", "VulnerabilityDiscovery",
                    "PrivilegeEscalation", "ArbitraryCodeExecution"),
    ais_mix=(0.35, 0.25, 0.25, 0.15), count=300,
    start=3600.0, episodes=3, period=1800.0, gap_median=2.0, gap_sigma=0.5,
)]


@pytest.fixture(scope="session")
def scenario_kerb(tmp_path_factory) -> ScenarioRun:
    return scenario_run("kerb", tmp_path_factory.mktemp("kerb"))


# -- scenario: five planted behaviors over six hours of noise ----------------

FIVE_SPECS = [
    BehaviorSpec(label="kerb", sources=("203.0.113.10",), targets=("10.0.2.5",),
                 service_port=88,
                 signatures=sigs("BruteForce", "VulnerabilityDiscovery",
                                 "PrivilegeEscalation"),
                 ais_mix=(0.4, 0.3, 0.3), count=300,
                 start=3600.0, episodes=3, period=1800.0,
                 gap_median=2.0, gap_sigma=0.5),
    BehaviorSpec(label="mssql", sources=("203.0.113.11",), targets=("10.0.2.6",),
                 service_port=1433,
                 signatures=sigs("ArbitraryCodeExecution", "Collection"),
                 ais_mix=(0.6, 0.4), count=240,
                 start=5400.0, episodes=3, period=1800.0,
                 gap_median=2.0, gap_sigma=0.5),
    BehaviorSpec(label="wsman", sources=("203.0.113.12",), targets=("10.0.2.7",),
                 service_port=5985,
                 signatures=sigs("PrivilegeEscalation", "Persistence",
                                 "DefenseEvasion"),
                 ais_mix=(0.4, 0.3, 0.3), count=300,
                 start=7200.0, episodes=3, period=1800.0,
                 gap_median=2.0, gap_sigma=0.5),
    BehaviorSpec(label="ldap", sources=("203.0.113.13",), targets=("10.0.2.8",),
                 service_port=389,
                 signatures=sigs("Discovery", "Collection"),
                 ais_mix=(0.5, 0.5), count=200,
                 start=9000.0, episodes=2, period=1800.0,
                 gap_median=2.0, gap_sigma=0.5),
    BehaviorSpec(label="smtp", sources=("10.0.3.7",), targets=("198.51.100.9",),
                 service_port=25, direction="outbound",
                 signatures=sigs("DataExfiltration", "CommandAndControl"),
                 ais_mix=(0.7, 0.3), count=220,
                 start=10800.0, episodes=2, period=1800.0,
                 gap_median=2.0, gap_sigma=0.5),
]

FIVE_SERVICES = {"kerb": "kerberos", "mssql": "ms-sql", "wsman": "wsman",
                 "ldap": "ldap", "smtp": "smtp"}


@pytest.fixture(scope="session")
def scenario_five(tmp_path_factory) -> ScenarioRun:
    return scenario_run("five", tmp_path_factory.mktemp("five"))


# -- scenario: periodic outbound C2 over eleven days -------------------------

PERIODIC_SPECS = [BehaviorSpec(
    label="c2", sources=("10.0.5.5",), targets=("198.51.100.77",),
    service_port=443, direction="outbound",
    signatures=sigs("CommandAndControl", "DataExfiltration"),
    ais_mix=(0.8, 0.2), count=220,
    start=137.0, episodes=44, period=21600.0, gap_median=1.0, gap_sigma=0.3,
)]


@pytest.fixture(scope="session")
def scenario_periodic(tmp_path_factory) -> ScenarioRun:
    return scenario_run("periodic", tmp_path_factory.mktemp("periodic"))


# -- scenario: small run with an engineered merge, run twice via run() -------

SMALL_SPECS = [
    BehaviorSpec(label="steady", sources=("203.0.113.60",), targets=("10.0.9.1",),
                 service_port=88, signatures=sigs("BruteForce"),
                 ais_mix=(1.0,), count=100,
                 start=600.0, episodes=2, period=1200.0,
                 gap_median=2.0, gap_sigma=0.5),
    BehaviorSpec(label="spike", sources=("203.0.113.61",), targets=("10.0.9.2",),
                 service_port=88, signatures=sigs("PrivilegeEscalation"),
                 ais_mix=(1.0,), count=100,
                 start=2400.0, episodes=2, period=1200.0,
                 gap_median=2.0, gap_sigma=0.5),
    BehaviorSpec(label="bridge", sources=("203.0.113.62",), targets=("10.0.9.3",),
                 service_port=88,
                 signatures=sigs("BruteForce", "PrivilegeEscalation"),
                 ais_mix=(0.5, 0.5), count=100,
                 start=4800.0, episodes=2, period=1200.0,
                 gap_median=2.0, gap_sigma=0.5),
]


# -- the four scenarios: generator settings and engine config ----------------


@dataclass(frozen=True)
class Scenario:
    specs: List[BehaviorSpec]
    noise_rate: float                 # alerts per hour
    duration: float                   # seconds
    seed: int
    config: Dict[str, str] = field(default_factory=dict)

    def generate(self, out_dir: str):
        """(alerts path, truth path) of this scenario written to out_dir."""
        return generate_scenario(self.specs, noise_rate=self.noise_rate,
                                 duration=self.duration, seed=self.seed,
                                 out_dir=out_dir)

    def run_config(self, alerts: str, out_dir: str) -> RunConfig:
        return build_config({**self.config, "source": f"file:{alerts}",
                             "export_dir": out_dir})


SCENARIOS = {
    # seed chosen so the Poisson draw lands above the 100K-alert floor
    "kerb": Scenario(KERB_SPECS, 25000.0, 4 * 3600.0, 20250303),
    "five": Scenario(FIVE_SPECS, 25000.0, 6 * 3600.0, 7),
    "periodic": Scenario(PERIODIC_SPECS, 0.0, 11 * 86400.0, 3,
                         {"export_interval": "1800s"}),
    "small": Scenario(SMALL_SPECS, 600.0, 7200.0, 99),
}


def scenario_run(name: str, base) -> ScenarioRun:
    scenario = SCENARIOS[name]
    alerts, truth = scenario.generate(str(base))
    out = str(base / "out")
    return ScenarioRun(alerts, truth, out,
                       run_engine(scenario.run_config(alerts, out)))


@dataclass
class SmallRun:
    alerts_path: str
    truth_path: str
    out_a: str
    out_b: str
    engine: Engine
    status_a: int
    status_b: int


@pytest.fixture(scope="session")
def scenario_small(tmp_path_factory) -> SmallRun:
    small = SCENARIOS["small"]
    base = tmp_path_factory.mktemp("small")
    alerts, truth = small.generate(str(base))
    out_a, out_b = str(base / "out_a"), str(base / "out_b")
    status_a = run(small.run_config(alerts, out_a))
    status_b = run(small.run_config(alerts, out_b))
    engine = run_engine(small.run_config(alerts, str(base / "out_c")))
    return SmallRun(alerts, truth, out_a, out_b, engine, status_a, status_b)
