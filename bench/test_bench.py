"""Tests of the benchmark itself; not part of the repository's test suite.

Run from the repository root:

    python3 -m pytest bench/test_bench.py -q

Each output check must pass on real program output and reject a
tampered copy of it. The traced run must report every per-layer metric
named in BENCHMARK.json, with call counts that repeat exactly.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from witness_forge import ComplexMatrix, DensityMatrix, write_matrix_file  # noqa: E402
from witness_forge.cli import main as cli_main  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
DIMS = (2, 2)


def _cli(capsys, *argv) -> dict:
    assert cli_main([str(a) for a in argv]) == 0
    return json.loads(capsys.readouterr().out)


@pytest.fixture
def sigma(tmp_path):
    rng = np.random.default_rng(7)
    rho = workloads.entangled_state(rng, DIMS)
    path = tmp_path / "sigma.json"
    write_matrix_file(DensityMatrix(ComplexMatrix(DIMS, rho)), path)
    return rho, path


def test_cbounds_check_rejects_shifted_value(capsys, sigma):
    rho, path = sigma
    for mode in ("min", "max"):
        rep = _cli(capsys, "cbounds", path, "--mode", mode, "--restarts", "8")
        assert checks.cbounds_report(rep, rho, DIMS, mode) == []
        assert checks.in_bracket(rep["results"]["value"], rho, DIMS, mode) == []
        rep["results"]["value"] += 1e-6
        assert checks.cbounds_report(rep, rho, DIMS, mode)
        rep["results"]["value"] += 1.0
        assert checks.in_bracket(rep["results"]["value"], rho, DIMS, mode)


def test_isotropic_bracket_is_tight():
    rho = workloads.isotropic_state(0.2)
    assert checks.bracket(rho, DIMS, "min") == pytest.approx((0.3, 0.3), abs=1e-12)


def test_oracle_check_rejects_shifted_value(capsys, sigma):
    rho, path = sigma
    rep = _cli(capsys, "cbounds", path, "--mode", "min", "--oracle", "--restarts", "1")
    value = rep["results"]["oracle"]
    assert checks.oracle_value(value, rho, DIMS, "min") == []
    assert checks.oracle_value(value - 1e-3, rho, DIMS, "min")
    assert checks.oracle_value(None, rho, DIMS, "min")


@pytest.fixture
def extended(capsys, sigma, tmp_path):
    rho, path = sigma
    c = checks.certified_c(rho, DIMS)
    w, wp, wq = (tmp_path / f"{n}.json" for n in ("w", "wp", "wq"))
    _cli(capsys, "witness-make", path, "--form", "c_minus_sigma", "--c", repr(c), "-o", w)
    _cli(capsys, "extend", w, "--method", "purify", "-o", wp, "--restarts", "1")
    _cli(capsys, "extend", w, "--method", "partial", "--selection", "3:0,2:1",
         "--ancilla-dim", "2", "-o", wq, "--restarts", "1")
    verify = _cli(capsys, "witness-verify", wp, "--restarts", "4")
    return rho, c, w, wp, wq, verify


def _rewrite(path: Path, **changes) -> None:
    raw = json.loads(path.read_text())
    raw.update(changes)
    path.write_text(json.dumps(raw))


def test_extend_checks_pass_on_program_output(extended):
    rho, c, w, wp, wq, verify = extended
    assert checks.witness_file(w, c, rho) == []
    assert checks.purified_file(wp, c, rho, DIMS) == []
    assert checks.partial_file(wq, c, rho, DIMS, 2) == []
    assert checks.verify_report(verify, c) == []


def test_extend_checks_reject_changed_c(extended):
    rho, c, w, wp, wq, verify = extended
    for path in (w, wp, wq):
        _rewrite(path, c=c + 1e-3)
    assert checks.witness_file(w, c, rho)
    assert checks.purified_file(wp, c, rho, DIMS)
    assert checks.partial_file(wq, c, rho, DIMS, 2)
    verify["results"]["witnessing_margin"] += 1e-6
    assert checks.verify_report(verify, c)


def test_extend_checks_reject_wrong_partial_trace(extended):
    rho, c, w, wp, wq, verify = extended
    # Two eigenpairs were selected: a one-pair reduced state must not match.
    assert checks.partial_file(wq, c, rho, DIMS, 1)
    # A purification of another state, written consistently, must not match.
    raw = json.loads(wp.read_text())
    sig = np.asarray(raw["sigma"])
    sig[..., 0] = np.roll(sig[..., 0], 1, axis=(0, 1))
    sig[..., 1] = np.roll(sig[..., 1], 1, axis=(0, 1))
    data = c * np.eye(sig.shape[0]) - (sig[..., 0] + 1j * sig[..., 1])
    _rewrite(wp, sigma=sig.tolist(), data=np.stack([data.real, data.imag], -1).tolist())
    errors = checks.purified_file(wp, c, rho, DIMS)
    assert any("tracing out" in e for e in errors)


@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_traced_pass_reports_every_layer_metric(workload):
    result, _ = run.run(workload, seed=0, seconds=1, trace=True)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(v["unit"] == units[k] for k, v in result["metrics"].items())


def test_call_counts_repeat_and_end_to_end_metrics_present():
    counts = []
    for _ in range(2):
        metrics = run.run("oracle-grid", seed=3, seconds=1, trace=True)[0]["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "MB")})
    assert counts[0] == counts[1]
    per_template = 3 * 257 * 256 + 17**2 * 32**2 + (33 * 32) ** 2
    assert counts[0]["oracle.grid_points"] == 2 * workloads.TEMPLATES["oracle-grid"] * per_template
    result, _ = run.run("oracle-grid", seed=3, seconds=1, trace=False)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_missing_entry_point_is_reported_absent(monkeypatch):
    _, modules = run.fresh_import()
    monkeypatch.delattr(modules["cli"], "grid_product_extremum")
    tracer = tracing.Tracer()
    tracer.install(modules)
    metrics = tracer.metrics()
    assert not any(name.startswith("oracle.") for name in metrics)
    assert "linalg.eig_small_calls" in metrics
