"""Every demo script runs to completion against the current API."""

import importlib.util
import pathlib
import tempfile

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("0*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_main_runs(path, tmp_path, monkeypatch, capsys):
    # a demo's scratch directory goes under tmp_path instead of staying behind
    monkeypatch.setattr(tempfile, "mkdtemp", lambda *a, **kw: str(tmp_path))
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    assert capsys.readouterr().out
