"""SHA-256 digests of the engine's artifacts, to show that a change leaves
behaviour byte-identical.

    PYTHONPATH=src python3 tools/artifact_digests.py [ALERTS ...]
        [--set KEY=VALUE ...] [--scenarios kerb,five,periodic,small]
        [--workloads kerb-flood,periodic-c2]

Runs the end-to-end scenarios of the SCENARIOS table in tests/conftest.py
(the one its fixtures read), then the benchmark workloads of
bench/workloads.py, then each alerts file given, through
alertsynth.export_cli.run, and prints one line per run:

    <name> <export directory sha256> <counters line sha256> <admissions sha256>

The export digest is the benchmark's (bench/checks.py): every file name and
byte of models-*.json, evidence.csv and assignments.csv.  The counters
digest covers the line run() prints, newline included.  The admissions
digest covers the outcome of every ModelSet.observe call in order: model
id, action, the exact bits of h_star and the merges, so that equal digests
mean the model set took the same decisions.  Each scenario's and
workload's input is generated from its seed and run with its own config;
--set entries are config keys applied on top of that to every run, the
given alerts files included.  --scenarios '' and --workloads '' skip them.
Run it before and after a change and diff the output.
"""

import argparse
import hashlib
import io
import os
import sys
import tempfile
from contextlib import contextmanager, redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "tests"), os.path.join(ROOT, "bench")]

from checks import export_digest  # noqa: E402
from conftest import SCENARIOS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from alertsynth.export_cli import build_config, run  # noqa: E402
from alertsynth.synth_harness import generate_scenario  # noqa: E402
from alertsynth.synthesis import ModelSet  # noqa: E402


@contextmanager
def recorded_admissions(digest):
    """Within the block, feed one line per ModelSet.observe outcome into
    digest."""
    observe = ModelSet.observe

    def recording(self, agg, now):
        a = observe(self, agg, now)
        h_star = "-" if a.h_star is None else a.h_star.hex()
        digest.update(f"{a.model_id} {a.action} {h_star} {a.merges}\n"
                      .encode("utf-8"))
        return a

    ModelSet.observe = recording
    try:
        yield
    finally:
        ModelSet.observe = observe


def digests(alerts, config, out_dir):
    """(export digest, counters digest, admissions digest) of one run() over
    alerts."""
    captured, decisions = io.StringIO(), hashlib.sha256()
    with redirect_stdout(captured), recorded_admissions(decisions):
        run(build_config({**config, "source": f"file:{alerts}",
                          "export_dir": out_dir}))
    counters = captured.getvalue().encode("utf-8")
    return (export_digest(out_dir), hashlib.sha256(counters).hexdigest(),
            decisions.hexdigest())


def pick(parser, flag, value, table):
    """The names of a comma list, each checked against table."""
    names = [n for n in value.split(",") if n]
    unknown = set(names) - set(table)
    if unknown:
        parser.error(f"unknown {flag} {sorted(unknown)}")
    return names


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("alerts", nargs="*", help="alerts.jsonl files")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="config entry applied to every run")
    parser.add_argument("--scenarios", default=",".join(SCENARIOS),
                        help="comma list of fixture scenarios ('' for none)")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma list of benchmark workloads ('' for none)")
    args = parser.parse_args(argv)
    bad = [entry for entry in args.set if "=" not in entry]
    if bad:
        parser.error(f"--set needs KEY=VALUE, got {bad}")
    config = dict(entry.split("=", 1) for entry in args.set)
    scenarios = pick(parser, "scenarios", args.scenarios, SCENARIOS)
    workloads = pick(parser, "workloads", args.workloads, WORKLOADS)
    with tempfile.TemporaryDirectory() as work:
        for name in scenarios:
            base = os.path.join(work, name)
            alerts, _ = SCENARIOS[name].generate(base)
            print(name, *digests(alerts, {**SCENARIOS[name].config, **config},
                                 os.path.join(base, "out")), flush=True)
        for name in workloads:
            w, base = WORKLOADS[name], os.path.join(work, name)
            alerts, _ = generate_scenario(w.specs, w.noise_rate, w.duration,
                                          w.seed, base)
            print(name, *digests(alerts, {**w.config, **config},
                                 os.path.join(base, "out")), flush=True)
        for k, path in enumerate(args.alerts):
            print(path, *digests(path, config, os.path.join(work, f"file{k}")),
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
