"""CLI subcommands: reports, exit codes, determinism, entry points."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import witness_forge
from witness_forge import cli, linalg, qstate
from witness_forge.cli import main
from witness_forge.fileio import matrix_file_text, parse_matrix_file, write_matrix_file
from witness_forge.linalg import ComplexMatrix
from witness_forge.qstate import DensityMatrix, isotropic
from witness_forge.witness import Witness, WitnessForm, make_witness


@pytest.fixture
def sq_file(tmp_path):
    path = tmp_path / "sq.json"
    write_matrix_file(isotropic(0.2), path)
    return str(path)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


def test_spectral_report(capsys, sq_file):
    code, report, err = _run(capsys, "spectral", sq_file)
    assert code == 0
    res = report["results"]
    np.testing.assert_allclose(sorted(res["eigenvalues"]), [0.2, 0.2, 0.2, 0.4], atol=1e-10)
    assert res["rank"] == 4
    assert abs(res["lambda_max"] - 0.4) <= 1e-10
    assert report["seed"] is None
    assert "ms)" in err
    assert "wall" not in json.dumps(report)  # timing stays out of stdout


def test_spectral_accepts_hermitian_kind(capsys, tmp_path):
    herm = np.diag([1.0, -1.0]).astype(complex)
    path = tmp_path / "h.json"
    write_matrix_file(ComplexMatrix((2,), herm), path)
    code, report, _ = _run(capsys, "spectral", str(path))
    assert code == 0
    assert report["results"]["eigenvalues"] == [-1.0, 1.0]


def test_eigensolver_failure_exits_three(capsys, sq_file, monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    code, report, _ = _run(capsys, "spectral", sq_file)
    assert code == 3
    assert report["error"]["type"] == "NoConvergence"


def test_cbounds_modes(capsys, sq_file):
    code, report, _ = _run(capsys, "cbounds", sq_file, "--mode", "min", "--restarts", "16")
    assert code == 0
    res = report["results"]
    assert abs(res["value"] - 0.3) <= 1e-6
    assert res["converged"] is True
    assert report["restarts"] == 16 and report["seed"] == 0
    assert abs(res["lambda_max"] - 0.4) <= 1e-10

    code, report, _ = _run(capsys, "cbounds", sq_file, "--mode", "max", "--restarts", "16")
    assert abs(report["results"]["value"] - 0.2) <= 1e-6


def test_cbounds_oracle(capsys, sq_file):
    code, report, _ = _run(
        capsys, "cbounds", sq_file, "--mode", "min", "--oracle", "--resolution", "64"
    )
    assert code == 0
    res = report["results"]
    assert abs(res["oracle"] - res["value"]) <= 1e-4


@pytest.mark.parametrize("dims", [(3, 3), (2, 2, 2)])
def test_cbounds_oracle_skips_grids_above_cap(capsys, tmp_path, dims):
    # both grids exceed the oracle's point cap at the default resolution 256
    rng = np.random.default_rng(sum(dims))
    d = int(np.prod(dims))
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    path = tmp_path / "rho.json"
    write_matrix_file(DensityMatrix(ComplexMatrix(dims, rho / np.trace(rho).real)), path)
    code, report, err = _run(
        capsys, "cbounds", str(path), "--mode", "min", "--oracle", "--restarts", "1"
    )
    assert code == 0
    assert report["results"]["oracle"] is None
    assert "oracle skipped" in err
    # a resolution below the floor is still a parameter error, not a skip
    code, report, _ = _run(
        capsys, "cbounds", str(path), "--mode", "min", "--oracle", "--restarts", "1",
        "--resolution", "16",
    )
    assert code == 2
    assert report["error"]["type"] == "ParamOutOfRange"


def test_cbounds_oracle_parameters_are_checked_before_the_seesaw(capsys, tmp_path, monkeypatch):
    # (2,2,2,2) is outside the oracle's structures, but a resolution below
    # the floor is a parameter error on every structure
    path = tmp_path / "rho.json"
    write_matrix_file(DensityMatrix(ComplexMatrix((2, 2, 2, 2), np.eye(16) / 16)), path)

    def unreachable(*args, **kwargs):
        raise AssertionError("see-saw ran before the oracle's parameter check")

    monkeypatch.setattr(cli, "max_product_expectation", unreachable)
    code, report, _ = _run(
        capsys, "cbounds", str(path), "--mode", "min", "--oracle", "--resolution", "16"
    )
    assert code == 2
    assert report["error"]["type"] == "ParamOutOfRange"


def test_witness_make_verify_eval(capsys, sq_file, tmp_path):
    wpath = str(tmp_path / "w.json")
    code, report, _ = _run(
        capsys, "witness-make", sq_file, "--form", "c_minus_sigma",
        "--c", "0.3", "-o", wpath,
    )
    assert code == 0
    assert report["results"]["output"] == wpath
    assert isinstance(parse_matrix_file(wpath), Witness)

    code, report, _ = _run(capsys, "witness-verify", wpath, "--restarts", "16")
    assert code == 0
    res = report["results"]
    assert res["is_witness"] is True
    assert abs(res["witnessing_margin"] - 0.1) <= 1e-10
    assert res["certificate_state"]  # product state present

    pi_path = str(tmp_path / "pi.json")
    write_matrix_file(isotropic(0.5), pi_path)
    code, report, _ = _run(capsys, "eval", wpath, pi_path)
    assert code == 0
    assert abs(report["results"]["value"] + 0.025) <= 1e-12


def test_witness_make_rejects_bad_offset(capsys, sq_file, tmp_path):
    code, report, err = _run(
        capsys, "witness-make", sq_file, "--form", "c_minus_sigma",
        "--c", "0.5", "-o", str(tmp_path / "w.json"),
    )
    assert code == 2
    assert report["error"]["type"] == "COutOfInterval"
    # margin 5e-11 <= TOL_NEG: refused by witness-verify's rule on both sides
    for form, c in (("c_minus_sigma", "0.39999999995"), ("sigma_minus_c", "0.20000000005")):
        out = tmp_path / f"{form}.json"
        code, report, _ = _run(capsys, "witness-make", sq_file, "--form", form, "--c", c, "-o", str(out))
        assert code == 2
        assert report["error"]["type"] == "COutOfInterval"
        assert not out.exists()


def test_witness_verify_non_witness_exits_two(capsys, tmp_path):
    flat = DensityMatrix(ComplexMatrix((2, 2), np.eye(4) / 4))
    fpath = str(tmp_path / "flat.json")
    write_matrix_file(flat, fpath)
    wpath = str(tmp_path / "wflat.json")
    code, _, _ = _run(
        capsys, "witness-make", fpath, "--form", "c_minus_sigma",
        "--c", "0.3", "--check", "none", "-o", wpath,
    )
    assert code == 0
    code, report, _ = _run(capsys, "witness-verify", wpath)
    assert code == 2
    assert report["results"]["is_witness"] is False


def test_extend_methods(capsys, sq_file, tmp_path):
    wpath = str(tmp_path / "w.json")
    _run(capsys, "witness-make", sq_file, "--form", "c_minus_sigma",
         "--c", "0.3", "-o", wpath)

    out1 = str(tmp_path / "purified.json")
    code, report, _ = _run(capsys, "extend", wpath, "--method", "purify", "-o", out1)
    assert code == 0
    assert report["results"]["dims"] == [2, 2, 4]
    assert report["results"]["verify"]["is_witness"] is True

    out2 = str(tmp_path / "partial.json")
    code, report, _ = _run(
        capsys, "extend", wpath, "--method", "partial",
        "--selection", "3:0,2:1", "--ancilla-dim", "2", "-o", out2,
    )
    assert code == 0
    assert report["results"]["dims"] == [2, 2, 2]
    w2 = parse_matrix_file(out2)
    assert w2.c == 0.3 and not w2.sigma.normalized

    out3 = str(tmp_path / "identity.json")
    code, report, _ = _run(
        capsys, "extend", wpath, "--method", "identity", "--tail-dims", "3", "-o", out3,
    )
    assert code == 0
    assert report["results"]["dims"] == [2, 2, 3]

    out4 = str(tmp_path / "mixed.json")
    code, report, _ = _run(
        capsys, "extend", wpath, "--method", "mixed", "--tails", sq_file, "-o", out4,
    )
    assert code == 0
    assert report["results"]["dims"] == [2, 2, 2, 2]

    # 4 * 257 exceeds the total-dimension cap before anything is allocated
    code, report, _ = _run(
        capsys, "extend", wpath, "--method", "identity", "--tail-dims", "257",
        "-o", str(tmp_path / "huge.json"),
    )
    assert code == 2
    assert report["error"]["type"] == "ParamOutOfRange"


def test_purify_and_verify_run_no_canonical_pass_on_the_extension(capsys, tmp_path, monkeypatch):
    # sigma' of a (4,4) purification is 256-dim; only its extremes are needed
    seen = []
    real = linalg._canonical_eig

    def record(arr):
        seen.append(len(arr))
        return real(arr)

    for mod in (linalg, qstate):
        monkeypatch.setattr(mod, "_canonical_eig", record)
    phi = np.eye(4).reshape(16) / 2
    sigma = DensityMatrix(ComplexMatrix((4, 4), 0.7 * np.outer(phi, phi) + 0.3 * np.eye(16) / 16))
    wpath = str(tmp_path / "w44.json")
    write_matrix_file(Witness(WitnessForm.C_MINUS_SIGMA, 0.2, sigma), wpath)
    out = str(tmp_path / "w44p.json")
    code, report, _ = _run(capsys, "extend", wpath, "--method", "purify", "--restarts", "2", "-o", out)
    assert code == 0 and report["results"]["dims"] == [4, 4, 16]
    code, report, _ = _run(capsys, "witness-verify", out, "--restarts", "2")
    assert code == 0 and report["results"]["is_witness"] is True
    assert seen and max(seen) <= 16


def test_extend_flag_consistency(capsys, sq_file, tmp_path):
    wpath = str(tmp_path / "w.json")
    _run(capsys, "witness-make", sq_file, "--form", "c_minus_sigma",
         "--c", "0.3", "-o", wpath)
    code, report, _ = _run(
        capsys, "extend", wpath, "--method", "purify",
        "--tail-dims", "3", "-o", str(tmp_path / "x.json"),
    )
    assert code == 1
    assert "not valid" in report["error"]["message"]
    code, report, _ = _run(
        capsys, "extend", wpath, "--method", "partial", "-o", str(tmp_path / "y.json"),
    )
    assert code == 1
    code, report, _ = _run(
        capsys, "extend", wpath, "--method", "partial",
        "--selection", "3-0", "--ancilla-dim", "2", "-o", str(tmp_path / "z.json"),
    )
    assert code == 1


def test_enumerate_report(capsys, sq_file):
    code, report, _ = _run(capsys, "enumerate", sq_file, "--ancilla-dim", "2")
    assert code == 0
    res = report["results"]
    assert res["count_enumerated"] == 8
    assert res["count_formula"] == 8
    assert res["rank"] == 4
    assert res["nondegenerate_top"] is True
    assert [[3, 0]] in res["selections"]
    assert len(res["selections"]) == 8


def test_parse_and_usage_failures_exit_one(capsys, tmp_path):
    code, report, _ = _run(capsys, "spectral", str(tmp_path / "nope.json"))
    assert code == 1
    assert report["error"]["type"] == "ParseError"
    code, report, _ = _run(capsys, "no-such-command")
    assert code == 1
    assert report["error"]["type"] == "ParseError"
    code, report, _ = _run(capsys, "cbounds")  # missing required arguments
    assert code == 1


def test_malformed_files_are_parse_errors(capsys, tmp_path):
    w = make_witness(WitnessForm.C_MINUS_SIGMA, isotropic(0.2), 0.3)
    big_data = json.loads(matrix_file_text(w))
    big_data["data"][0][0][0] = 10**400  # too large for a float
    big_c = json.loads(matrix_file_text(w))
    big_c["c"] = 10**400
    payloads = {
        "big_data.json": json.dumps(big_data).encode(),
        "big_c.json": json.dumps(big_c).encode(),
        "latin1.json": b'{"version": "1", "kind": "density\xe9"}',
        "deep.json": b"[" * 100_000 + b"]" * 100_000,
    }
    for name, payload in payloads.items():
        path = tmp_path / name
        path.write_bytes(payload)
        code, report, _ = _run(capsys, "spectral", str(path))
        assert code == 1, name
        assert report["error"]["type"] == "ParseError", name


def _density_doc(dims: list[int]) -> dict:
    """A density document with a 1x1 body, whatever its header says."""
    return {"version": "1", "kind": "density", "dims": dims, "data": [[[1.0, 0.0]]]}


def test_more_parties_than_the_axis_cap_exit_two(capsys, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_density_doc([1] * 16)))
    code, report, _ = _run(capsys, "cbounds", str(path), "--mode", "min", "--restarts", "2")
    assert code == 0
    assert report["results"]["value"] == 1.0

    # 17 parties make a tensor of 34 axes, past the 32 numpy 1.x allows
    path.write_text(json.dumps(_density_doc([1] * 17)))
    code, report, _ = _run(capsys, "cbounds", str(path), "--mode", "min")
    assert code == 2
    assert report["error"]["type"] == "DimensionMismatch"


def test_over_cap_header_is_refused_before_decoding(capsys, tmp_path):
    path = tmp_path / "doc.json"
    for dims in ([1025], [2] * 11):
        path.write_text(json.dumps(_density_doc(dims)))
        code, report, _ = _run(capsys, "spectral", str(path))
        assert code == 2, dims
        assert report["error"]["type"] == "ParamOutOfRange", dims
    path.write_text(json.dumps(_density_doc([1024])))
    code, report, _ = _run(capsys, "spectral", str(path))
    assert code == 1  # at the cap the body is read, and its shape is wrong
    assert report["error"]["type"] == "ParseError"


def test_wrong_kind_is_usage_error(capsys, sq_file, tmp_path):
    code, report, _ = _run(capsys, "witness-verify", sq_file)
    assert code == 1
    assert report["error"]["type"] == "ParseError"


def test_reports_are_deterministic(capsys, sq_file):
    code1, r1, _ = _run(capsys, "cbounds", sq_file, "--mode", "min", "--seed", "7")
    code2, r2, _ = _run(capsys, "cbounds", sq_file, "--mode", "min", "--seed", "7")
    assert code1 == code2 == 0
    assert r1 == r2


def test_env_var_seed(capsys, sq_file, monkeypatch):
    monkeypatch.setenv("WITNESS_FORGE_SEED", "11")
    _, report, _ = _run(capsys, "cbounds", sq_file, "--mode", "min", "--restarts", "4")
    assert report["seed"] == 11
    monkeypatch.setenv("WITNESS_FORGE_SEED", "eleven")
    code, report, _ = _run(capsys, "cbounds", sq_file, "--mode", "min")
    assert code == 1
    # explicit flag wins over the environment
    monkeypatch.setenv("WITNESS_FORGE_SEED", "11")
    _, report, _ = _run(capsys, "cbounds", sq_file, "--mode", "min",
                        "--seed", "3", "--restarts", "4")
    assert report["seed"] == 3


def test_module_entry_point(sq_file):
    # run from the directory that holds the package, so `-m` finds it
    # whether or not it is installed or on PYTHONPATH
    proc = subprocess.run(
        [sys.executable, "-m", "witness_forge", "spectral", sq_file],
        capture_output=True, text=True, timeout=120,
        cwd=Path(witness_forge.__file__).parents[1],
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["results"]["rank"] == 4
    assert "ms)" in proc.stderr
