"""tools/artifact_digests.py prints one digest line per run and rejects a
malformed --set entry as a usage error."""

import importlib.util
import pathlib
import re

import pytest

TOOL = pathlib.Path(__file__).parent.parent / "tools" / "artifact_digests.py"


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
    assert re.fullmatch(r"small [0-9a-f]{64} [0-9a-f]{64}", lines[0])


def test_set_without_equals_is_a_usage_error(digests_tool, capsys):
    with pytest.raises(SystemExit) as exc:
        digests_tool.main(["--scenarios", "", "--workloads", "", "--set", "foo"])
    assert exc.value.code == 2
    assert "KEY=VALUE" in capsys.readouterr().err


def test_admissions_flag_appends_a_fourth_digest(digests_tool, capsys):
    args = ["--scenarios", "small", "--workloads", ""]
    assert digests_tool.main(args) == 0
    plain = capsys.readouterr().out.split()
    assert digests_tool.main(args + ["--admissions"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert re.fullmatch(r"small( [0-9a-f]{64}){3}", lines[0])
    assert lines[0].split()[:3] == plain


def test_set_applies_to_the_fixture_scenarios(digests_tool, capsys):
    args = ["--scenarios", "small", "--workloads", ""]
    assert digests_tool.main(args) == 0
    plain = capsys.readouterr().out.split()
    assert digests_tool.main(args + ["--set", "export_interval=300s"]) == 0
    changed = capsys.readouterr().out.split()
    assert changed[0] == "small" and changed[1] != plain[1]
