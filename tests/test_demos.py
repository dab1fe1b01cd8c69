"""The demos run end to end and every witness they verify is one."""

from __future__ import annotations

import re
import runpy
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_and_verifies(demo, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", [str(demo)])
    runpy.run_path(str(demo), run_name="__main__")
    out = capsys.readouterr().out
    verdicts = re.findall(r"is_witness\s*=\s*(\w+)", out)
    assert verdicts, "demo printed no is_witness verdict"
    assert set(verdicts) == {"True"}
