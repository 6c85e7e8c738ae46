"""Generate a labeled scenario, run the full pipeline, score the result.

A brute-force behavior against one Kerberos host is buried in an hour of
background scanning noise.  The pipeline reads the alert file, synthesizes
models, and exports snapshots; the truth labels let us check how much of
the planted behavior landed in a single model.
"""

import glob
import json
import os
import tempfile

from alertsynth import run
from alertsynth.export_cli import build_config
from alertsynth.synth_harness import (STAGE_SIGNATURES, BehaviorSpec,
                                      generate_scenario, score_recovery)

BEHAVIOR = BehaviorSpec(
    label="kerb", sources=("203.0.113.50",), targets=("10.0.2.9",),
    service_port=88,
    signatures=(STAGE_SIGNATURES["BruteForce"],
                STAGE_SIGNATURES["PrivilegeEscalation"]),
    ais_mix=(0.7, 0.3), count=150,
    start=600.0, episodes=2, period=1200.0, gap_median=2.0, gap_sigma=0.5,
)


def main():
    workdir = tempfile.mkdtemp(prefix="alertsynth-demo-")
    alerts, truth = generate_scenario([BEHAVIOR], noise_rate=3000.0,
                                      duration=3600.0, seed=11,
                                      out_dir=workdir)
    out = os.path.join(workdir, "out")
    print(f"scenario written to {workdir}")
    print("running the pipeline (counters follow):\n")
    status = run(build_config({"source": f"file:{alerts}",
                               "export_dir": out}))
    assert status == 0

    result = score_recovery(truth, os.path.join(out, "assignments.csv"))
    print(f"\nbehavior recovery: purity {result['purity']:.3f}, "
          f"majority model {result['majority']['kerb']}, "
          f"fraction {result['fraction']['kerb']:.3f}")

    final = sorted(glob.glob(os.path.join(out, "models-*.json")))[-1]
    with open(final, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    print(f"\nfinal export {os.path.basename(final)}:")
    for model in payload["models"]:
        feats = model["characteristic"]
        print(f"  model {model['model_id']:3d}  evidence "
              f"{model['effective_evidence']:8.2f}  intent={feats['ais']:22s}"
              f" service={feats['service']}")


if __name__ == "__main__":
    main()
