"""Smoke test: every demo script runs to completion in-process."""

import re
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("[0-9]*.py"))


def test_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()
    assert "FAIL" not in out
    if path.stem == "03_moments_and_temple":  # five realizations, five Temple checks
        lowest = re.findall(r"#\d: E1 = (\S+) >=", out)
        assert len(lowest) == len(set(lowest)) == 5
