"""Smoke test: every script in demos/ runs to completion."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS, "no demo scripts found"


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(script, tmp_path, monkeypatch, capsys):
    # 02_dsp_front_end.py and 04_verification_metrics.py write files into
    # the working directory.
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out
