"""The demos and the README quick start run end to end, and every
witness they verify is one."""

from __future__ import annotations

import ast
import re
import runpy
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_and_verifies(demo, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", [str(demo)])
    runpy.run_path(str(demo), run_name="__main__")
    out = capsys.readouterr().out
    verdicts = re.findall(r"is_witness\s*=\s*(\w+)", out)
    assert verdicts, "demo printed no is_witness verdict"
    assert set(verdicts) == {"True"}


def test_readme_quick_start_runs(capsys):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index("## Library quick start"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    ns: dict = {}
    exec(compile(block, "README.md", "exec"), ns)
    detected, verified, extended = capsys.readouterr().out.splitlines()
    assert float(detected) < 0
    assert verified == "True"
    dims, c = extended.rsplit(" ", 1)
    assert ast.literal_eval(dims) == (2, 2, 4)
    assert float(c) == ns["bound"].value == ns["w"].c
