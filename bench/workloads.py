"""The benchmark workloads: seeded scenarios, engine config and pacing.

Each workload is a generator spec for alertsynth.synth_harness plus the
engine config entries it runs with.  The engine only ever sees the
generated alerts.jsonl.  `seed` is the acceptance seed (the default) and
`heldout_seed` is kept out of tuning so later claims can be checked on it.

The acceptance scenarios run 30 s to 45 s end to end on a 2-core machine,
too long for one benchmark run, so each workload keeps its scenario's
behaviors and export interval and scales its noise volume or its horizon
down; the comment on each definition says how.
"""

from dataclasses import dataclass, field
from typing import Dict, Tuple

from alertsynth.synth_harness import STAGE_SIGNATURES, BehaviorSpec


def sigs(*stages: str):
    return tuple(STAGE_SIGNATURES[s] for s in stages)


@dataclass(frozen=True)
class Workload:
    name: str
    specs: Tuple[BehaviorSpec, ...]
    noise_rate: float                 # scanner alerts per hour
    duration: float                   # scenario horizon, seconds
    seed: int                         # acceptance seed, the default
    heldout_seed: int                 # not used while tuning the benchmark
    speedup: float                    # paced replay: event seconds per wall second
    config: Dict[str, str] = field(default_factory=dict)


# Why: nearly every scanner source is unique, so almost every alert is its
# own stream and its own aggregate; idle streams outlive the horizon,
# so the shutdown drain and ModelSet.merge_pass dominate and the stream
# table holds the largest state.  The kerberos behavior is the scenario_kerb
# fixture's; the noise runs at 3000/h instead of 25k/h and the horizon is
# 3 h instead of 4 (about 9k streams, enough for gen-2 collections and a
# stream table of some 25 MB), so that paced replays can be repeated.
KERB_FLOOD = Workload(
    name="kerb-flood",
    specs=(BehaviorSpec(
        label="kerb", sources=("203.0.113.50",), targets=("10.0.2.9", "10.0.2.10"),
        service_port=88,
        signatures=sigs("BruteForce", "VulnerabilityDiscovery",
                        "PrivilegeEscalation", "ArbitraryCodeExecution"),
        ais_mix=(0.35, 0.25, 0.25, 0.15), count=300,
        start=3600.0, episodes=3, period=1800.0, gap_median=2.0, gap_sigma=0.5),),
    noise_rate=3000.0, duration=3 * 3600.0,
    seed=20250303, heldout_seed=20250304, speedup=2400.0)


# Why: 1800 s exports over a multi-day horizon make export dominate, and the
# full evidence.csv rewrite grows with the number of exports; noise streams
# leave through StreamTracker.gc at export boundaries, so admissions come in
# mid-run boundary batches, not at shutdown.  The scenario_periodic C2
# behavior (an episode every 6 h) with 30/h noise, over 1 day instead of
# 11 (4 episodes, 48 exports instead of 528), so that paced replays are
# short enough to repeat several times in a run.
PERIODIC_C2 = Workload(
    name="periodic-c2",
    specs=(BehaviorSpec(
        label="c2", sources=("10.0.5.5",), targets=("198.51.100.77",),
        service_port=443, direction="outbound",
        signatures=sigs("CommandAndControl", "DataExfiltration"),
        ais_mix=(0.8, 0.2), count=40,
        start=137.0, episodes=4, period=21600.0, gap_median=1.0, gap_sigma=0.3),),
    noise_rate=30.0, duration=86400.0,
    seed=3, heldout_seed=4, speedup=20000.0,
    config={"export_interval": "1800s"})


WORKLOADS = {w.name: w for w in (KERB_FLOOD, PERIODIC_C2)}
