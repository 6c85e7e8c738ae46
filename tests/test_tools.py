"""tools/artifact_digests.py prints one digest line per run, rejects a
malformed --set entry as a usage error, and gives the pinned digests of
`small` and `periodic-c2` under each segmenter; the session runs of the
other three fixture scenarios give the tool's pinned export and counters
digests."""

import hashlib
import importlib.util
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).parent.parent
TOOL = ROOT / "tools" / "artifact_digests.py"
_spec = importlib.util.spec_from_file_location("checks",
                                               ROOT / "bench" / "checks.py")
checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)


@pytest.fixture(scope="module")
def digests_tool():
    spec = importlib.util.spec_from_file_location("artifact_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_prints_one_line_per_scenario(digests_tool, capsys):
    assert digests_tool.main(["--scenarios", "small", "--workloads", ""]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert re.fullmatch(r"small( [0-9a-f]{64}){3}", lines[0])


def test_set_without_equals_is_a_usage_error(digests_tool, capsys):
    with pytest.raises(SystemExit) as exc:
        digests_tool.main(["--scenarios", "", "--workloads", "", "--set", "foo"])
    assert exc.value.code == 2
    assert "KEY=VALUE" in capsys.readouterr().err


def test_set_applies_to_the_fixture_scenarios(digests_tool, capsys):
    args = ["--scenarios", "small", "--workloads", ""]
    assert digests_tool.main(args) == 0
    plain = capsys.readouterr().out.split()
    assert digests_tool.main(args + ["--set", "export_interval=300s"]) == 0
    changed = capsys.readouterr().out.split()
    assert changed[0] == "small" and changed[1] != plain[1]


# The export, counters and admissions digests of a run of `small`, which
# evicts no stream, and of the workload `periodic-c2`, which does, recorded
# at commit ad32637; an unchanged line means byte-identical artifacts and
# the same model-set decisions.
PINNED = {
    "default": {
        "small": (
            "c5810714c3880b61424e7182aeba341989f14eff8a109ec4ef908d18b176282f",
            "7bb693575c5fda61c490ec8395ef0dbc178d567cd9a983fae4e555e7de2a0675",
            "2697bbadd58a60367f0f913307902c67ee032169e50a21b68e2c629c7313270a"),
        "periodic-c2": (
            "0a1883bd4222817770739dc788bb2a2dc63fe9942957082cdf0ef351b1c12647",
            "1fc4079064e3a5d84401830b4f7b5abf6f183e74ccb0f4b9f9d3e5fc3212765f",
            "23d307a12971bd9ac200103313f23a7fe48630ead9327533f37646a781528117"),
    },
    "gaussian": {
        "small": (
            "ce51a80a5f54bafaeff02b06191ba8f4231559cf03e16eed6cadc44a970dadb2",
            "7bb693575c5fda61c490ec8395ef0dbc178d567cd9a983fae4e555e7de2a0675",
            "d33ae2e5ffa7bde0f6d76bb084e6833a191090b9f373ad156487be38fa8d5d58"),
        "periodic-c2": (
            "37b282cc83207b5d81977f96d2316b641f8c002331f80f79e0e6e2fb9b8b00c4",
            "1fc4079064e3a5d84401830b4f7b5abf6f183e74ccb0f4b9f9d3e5fc3212765f",
            "340a39728b50a0aed2b8920a53603e5a4743b3813b18fdf0b080efe5045d96ec"),
    },
    "controlchart": {
        "small": (
            "ce51a80a5f54bafaeff02b06191ba8f4231559cf03e16eed6cadc44a970dadb2",
            "d50954be598d86830ff7ddaa250667b4e1f01a8e7f4c7f30d3dc6b8150ea9e28",
            "1b9df36e73feeca5c4e9b84b93de0fffd445d4daa836037a8834d8020904c7ac"),
        "periodic-c2": (
            "cec9fe956193a04290d55c7096befc6b63b4deec2ea273467e08796381dea7c0",
            "a249f74a9e55e7cde32509960e98b6d739c9634dc5121903383f96a6728823b3",
            "f722d38ef9342c1be822d8000bfb795e51d18655952fccfb70562540f4e397ad"),
    },
}


@pytest.mark.parametrize("segmenter", sorted(PINNED))
def test_admissions_digests_are_pinned(digests_tool, capsys, segmenter):
    args = ["--scenarios", "small", "--workloads", "periodic-c2"]
    if segmenter != "default":
        args += ["--set", f"segmenter={segmenter}"]
    assert digests_tool.main(args) == 0
    got = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert got == [[name, *digests] for name, digests in PINNED[segmenter].items()]


# The export and counters digests that tools/artifact_digests.py prints for
# the default runs of the other fixture scenarios, recorded at commit
# 79b3968; the session fixtures make those same runs through run_engine.
FIXTURE_PINNED = {
    "kerb": (
        "2b3b1dc8a4c885497e8f71eb6b59bab695eaf906d9feae2f85cdc6754aa83614",
        "acc9634eaf411965cb5bd928d37b68a4176889dfdd71ff3d00b03f4b2223a84d"),
    "five": (
        "d2d8f7a7995cd9ea03447d230155aa8fd2fa9ffed9385379305a0a5858ac119f",
        "9708b0dd689489243f8a4529cd603ed5fc7c73773094bc7d794fea96b3a3b6aa"),
    "periodic": (
        "67797c376fbdd2645e5731c9d0f4c44f20c5b77cc56c07b132a2a417fd71296a",
        "78e078613883b77949f82df5d6e63b5618c2da899f09a39b42f2c0162df944d4"),
}


@pytest.mark.parametrize("name", sorted(FIXTURE_PINNED))
def test_fixture_run_digests_are_pinned(request, name):
    scenario = request.getfixturevalue(f"scenario_{name}")
    # the counters line as run() prints it, newline included
    line = " ".join(f"{k}={v}" for k, v in scenario.engine.counters().items())
    assert (checks.export_digest(scenario.out_dir),
            hashlib.sha256(f"{line}\n".encode("utf-8")).hexdigest()) == \
        FIXTURE_PINNED[name]
