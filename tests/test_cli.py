"""CLI subcommands: reports, exit codes, determinism, entry points."""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import witness_forge
from witness_forge import cli, linalg, qstate, witness
from witness_forge.cli import main
from witness_forge.errors import ParamOutOfRange
from witness_forge.fileio import (
    dumps_canonical,
    encode_matrix_obj,
    parse_matrix_file,
    write_matrix_file,
)
from witness_forge.linalg import ComplexMatrix, ComplexVector
from witness_forge.qstate import DensityMatrix, isotropic
from witness_forge.witness import (
    Witness,
    _closed_pad,
    WitnessForm,
    evaluate,
    make_witness,
    max_product_expectation,
)


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
    # the reason is the grid's size at this resolution, not the structure
    assert "resolution 256" in err
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


@pytest.mark.parametrize(
    "flag, value, message",
    [("--restarts", "0", "restarts must be >= 1"), ("--seed", "-1", "seed must be nonnegative")],
)
def test_cbounds_oracle_checks_restarts_and_seed_before_the_scan(
    capsys, sq_file, monkeypatch, flag, value, message
):
    def unreachable(*args, **kwargs):
        raise AssertionError("grid scan ran before the see-saw's parameter check")

    monkeypatch.setattr(cli, "grid_product_extremum", unreachable)
    code, report, _ = _run(capsys, "cbounds", sq_file, "--mode", "min", "--oracle", flag, value)
    assert code == 2
    assert report["error"] == {"message": message, "type": "ParamOutOfRange"}
    # the see-saw alone refuses the value with the same error
    monkeypatch.undo()
    code, alone, _ = _run(capsys, "cbounds", sq_file, "--mode", "min", flag, value)
    assert code == 2 and alone["error"] == report["error"]


@pytest.mark.parametrize(
    "flag, value, message",
    [("--restarts", "0", "restarts must be >= 1"), ("--seed", "-1", "seed must be nonnegative")],
)
def test_extend_checks_restarts_and_seed_before_the_extension(
    capsys, sq_file, tmp_path, monkeypatch, flag, value, message
):
    wpath = str(tmp_path / "w.json")
    _run(capsys, "witness-make", sq_file, "--form", "c_minus_sigma", "--c", "0.3", "-o", wpath)

    def unreachable(*args, **kwargs):
        raise AssertionError("extension built before the see-saw's parameter check")

    monkeypatch.setattr(cli, "purify_extend_n", unreachable)
    out = tmp_path / "w3.json"
    code, report, _ = _run(capsys, "extend", wpath, "--method", "purify", flag, value, "-o", str(out))
    assert code == 2
    assert report["error"] == {"message": message, "type": "ParamOutOfRange"}
    assert not out.exists()


_SEARCHING = {
    "cbounds": ("cbounds", "in.json", "--mode", "min"),
    "cbounds --oracle": ("cbounds", "in.json", "--mode", "min", "--oracle"),
    "witness-make": ("witness-make", "in.json", "--form", "c_minus_sigma", "--c", "0.3"),
    "witness-verify": ("witness-verify", "in.json"),
    "extend": ("extend", "in.json", "--method", "purify"),
}


def _unreadable(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an input file was read before the flags were checked")

    monkeypatch.setattr(cli, "parse_matrix_file", refuse)


@pytest.mark.parametrize("cmd", sorted(_SEARCHING))
@pytest.mark.parametrize(
    "flags, env, code, error",
    [
        pytest.param(("--restarts", "0"), None, 2,
                     {"message": "restarts must be >= 1", "type": "ParamOutOfRange"},
                     id="restarts-0"),
        pytest.param(("--seed", "-1"), None, 2,
                     {"message": "seed must be nonnegative", "type": "ParamOutOfRange"},
                     id="seed-negative"),
        pytest.param((), "eleven", 1,
                     {"message": "WITNESS_FORGE_SEED must be an integer, got 'eleven'",
                      "type": "ParseError"},
                     id="env-seed-not-an-integer"),
    ],
)
def test_search_flags_are_checked_before_any_file_is_read(
    capsys, tmp_path, monkeypatch, cmd, flags, env, code, error
):
    _unreadable(monkeypatch)
    if env is not None:
        monkeypatch.setenv("WITNESS_FORGE_SEED", env)
    argv = [*_SEARCHING[cmd], *flags]
    out = tmp_path / "out.json"
    if cmd in ("witness-make", "extend"):
        argv += ["-o", str(out)]
    got, report, _ = _run(capsys, *argv)
    assert (got, report["error"]) == (code, error)
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["witness-make", "extend"])
def test_an_unwritable_output_wins_over_the_search_flags(capsys, tmp_path, monkeypatch, cmd):
    _unreadable(monkeypatch)
    monkeypatch.setenv("WITNESS_FORGE_SEED", "eleven")
    out = tmp_path / "missing" / "w.json"
    code, report, _ = _run(capsys, *_SEARCHING[cmd], "--restarts", "0", "-o", str(out))
    assert code == 1
    assert report["error"]["message"].startswith(f"cannot write {out}: ")


@pytest.mark.parametrize("existing", [False, True], ids=["directory", "file"])
def test_an_output_without_write_permission_is_refused_before_any_file_is_read(
    capsys, tmp_path, monkeypatch, existing
):
    # root passes the real check, so os.access refuses the directory, or the
    # file when it exists
    out = tmp_path / "w.json"
    if existing:
        out.write_text("")
    denied = out if existing else tmp_path
    real = os.access
    monkeypatch.setattr(os, "access", lambda p, mode, **kw: Path(p) != denied and real(p, mode, **kw))
    _unreadable(monkeypatch)
    code, report, _ = _run(capsys, *_SEARCHING["witness-make"], "-o", str(out))
    assert code == 1
    assert report["error"] == {
        "message": f"cannot write {out}: permission denied", "type": "ParseError"
    }
    assert out.exists() == existing


def test_main_without_argv_reads_the_command_line(capsys, monkeypatch, sq_file):
    monkeypatch.setattr(sys, "argv", ["witness-forge", "spectral", sq_file])
    code = main()
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["command"] == ["spectral", sq_file]
    assert report["results"]["rank"] == 4


def test_extend_method_flags_are_checked_before_any_file_is_read(capsys, tmp_path, monkeypatch):
    _unreadable(monkeypatch)
    out = str(tmp_path / "out.json")
    code, report, _ = _run(capsys, *_SEARCHING["extend"], "--tail-dims", "3", "-o", out)
    assert code == 1 and "not valid" in report["error"]["message"]
    code, report, _ = _run(capsys, "extend", "in.json", "--method", "partial", "-o", out)
    assert code == 1 and "requires" in report["error"]["message"]
    assert list(tmp_path.iterdir()) == []


def test_cbounds_resolution_without_oracle_is_refused_before_any_file_is_read(capsys, monkeypatch):
    # the grid's resolution means nothing to the see-saw, so it is refused,
    # not ignored, whatever its value
    _unreadable(monkeypatch)
    for value in ("16", "256"):
        code, report, _ = _run(capsys, "cbounds", "sq.json", "--mode", "min", "--resolution", value)
        assert (code, report["error"]) == (
            1, {"message": "flag --resolution not valid without --oracle", "type": "ParseError"}
        )


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


def test_eval_of_a_pure_state_file_is_its_projector(capsys, sq_file, tmp_path):
    wpath = str(tmp_path / "w.json")
    _run(capsys, "witness-make", sq_file, "--form", "c_minus_sigma", "--c", "0.3", "-o", wpath)
    v = np.random.default_rng(5).normal(size=(4, 2)) @ [1.0, 1j]
    state = qstate.PureState(linalg.ComplexVector((2, 2), v / np.linalg.norm(v)))
    spath = tmp_path / "pure.json"
    write_matrix_file(state, spath)
    code, report, _ = _run(capsys, "eval", wpath, str(spath))
    assert code == 0
    assert report["results"]["value"] == evaluate(parse_matrix_file(wpath), qstate.projector(state))


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


@pytest.mark.parametrize("cmd", ["witness-make", "extend"])
def test_an_unwritable_output_is_a_parse_error_report(monkeypatch, capsys, sq_file, tmp_path, cmd):
    # refused before any work: the witness and the extension would raise
    wpath = str(tmp_path / "w.json")
    _run(capsys, "witness-make", sq_file, "--form", "c_minus_sigma", "--c", "0.3", "-o", wpath)

    def refuse(*args, **kwargs):
        raise AssertionError("work done before the output was checked")

    monkeypatch.setattr(cli, "make_witness", refuse)
    monkeypatch.setattr(cli, "purify_extend_n", refuse)
    monkeypatch.setattr(witness, "max_product_expectation", refuse)
    monkeypatch.setattr(witness, "min_product_expectation", refuse)
    files = sorted(tmp_path.rglob("*"))
    argv = {
        "witness-make": ("witness-make", sq_file, "--form", "c_minus_sigma", "--c", "0.3"),
        "extend": ("extend", wpath, "--method", "purify"),
    }[cmd]
    for out in (tmp_path / "missing" / "w.json", tmp_path):
        code = main([*argv, "-o", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        (line,) = captured.out.splitlines()
        report = json.loads(line)
        assert report["error"]["type"] == "ParseError"
        assert report["error"]["message"].startswith(f"cannot write {out}: ")
        assert "Traceback" not in captured.err
        assert sorted(tmp_path.rglob("*")) == files


def test_witness_verify_accepts_what_strict_make_writes_at_the_closed_end(capsys, sq_file, tmp_path):
    # the closed end itself, where the two once searched different operators
    opt = max_product_expectation(isotropic(0.2).mat, 8, 3)
    w = Witness(WitnessForm.C_MINUS_SIGMA, opt.value, isotropic(0.2))
    c = opt.value - _closed_pad(w, opt.value, opt.extremizer, float(np.trace(w.sigma.mat.mat).real))
    wpath = str(tmp_path / "w.json")
    flags = ("--restarts", "8", "--seed", "3")
    code, _, _ = _run(
        capsys, "witness-make", sq_file, "--form", "c_minus_sigma", "--c", repr(c), "-o", wpath, *flags
    )
    assert code == 0
    code, report, _ = _run(capsys, "witness-verify", wpath, *flags)
    assert code == 0
    assert report["results"]["is_witness"] is True


@pytest.mark.parametrize("form, c", [("c_minus_sigma", 0.15), ("c_minus_sigma", 0.3),
                                     ("sigma_minus_c", 0.1), ("sigma_minus_c", 0.5)])
def test_witness_make_check_none_writes_the_unchecked_witness(capsys, sq_file, tmp_path, form, c):
    # --check none writes Witness(form, c, sigma) as the library writes it
    made = _unchecked_witness(capsys, sq_file, tmp_path / "made.json", repr(c), form)
    lib = tmp_path / "lib.json"
    write_matrix_file(Witness(WitnessForm(form), c, parse_matrix_file(sq_file)), lib)
    assert Path(made).read_bytes() == lib.read_bytes()


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


@pytest.mark.parametrize(
    "method, flags, dims",
    [
        ("purify", (), (2, 2, 4)),
        ("partial", ("--selection", "3:0,2:1", "--ancilla-dim", "2"), (2, 2, 2)),
        ("identity", ("--tail-dims", "3"), (2, 2, 3)),
        ("mixed", ("--tails", "sq"), (2, 2, 2, 2)),
        ("pure-tails", ("--tails", "pure"), (2, 2, 3)),
    ],
    ids=["purify", "partial", "identity", "mixed", "pure-tails"],
)
def test_extend_solves_and_searches_nothing_the_size_of_the_extension(
    capsys, sq_file, tmp_path, monkeypatch, method, flags, dims
):
    # every eigensolve and every see-saw of extend runs on the base, a tail
    # or a party, never on sigma'
    wpath = str(tmp_path / "w.json")
    write_matrix_file(Witness(WitnessForm.C_MINUS_SIGMA, 0.3, isotropic(0.2)), wpath)
    pure = tmp_path / "pure.json"
    write_matrix_file(qstate.PureState(ComplexVector((3,), np.array([0.6, 0.0, 0.8j]))), pure)
    files = {"sq": sq_file, "pure": str(pure)}
    solved, searched = [], []
    real_lapack, real_run = linalg._lapack, witness._seesaw_run

    def lapack(solve, h):
        solved.append(h.shape[-1])
        return real_lapack(solve, h)

    def run(mt, start):
        searched.append(math.prod(mt.shape[: mt.ndim // 2]))
        return real_run(mt, start)

    for mod in (linalg, witness):
        monkeypatch.setattr(mod, "_lapack", lapack)
    monkeypatch.setattr(witness, "_seesaw_run", run)
    out = str(tmp_path / "ext.json")
    argv = ["extend", wpath, "--method", method, *(files.get(f, f) for f in flags), "-o", out]
    code, report, _ = _run(capsys, *argv)
    assert code == 0 and report["results"]["dims"] == list(dims)
    assert solved and searched
    assert max(solved + searched) < math.prod(dims)
    # the check's full-size see-saw does reach sigma'
    code, report, _ = _run(capsys, "witness-verify", out)
    assert code == 0 and max(searched) == math.prod(dims)


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
    # a non-integer index, and an empty selection, which is one empty chunk
    for selection, message in (
        ("1:a", "selection indices must be integers, got '1:a'"),
        ("", "bad selection chunk '', want 'eigIndex:ancillaSlot'"),
    ):
        code, report, _ = _run(
            capsys, "extend", wpath, "--method", "partial",
            "--selection", selection, "--ancilla-dim", "2", "-o", str(tmp_path / "s.json"),
        )
        assert (code, report["error"]) == (1, {"message": message, "type": "ParseError"})


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


def test_enumerate_refuses_a_count_that_misses_the_closed_form(capsys, sq_file, monkeypatch):
    monkeypatch.setattr(cli, "count_partial_purifications", lambda rank, d3: 7)
    code, report, _ = _run(capsys, "enumerate", sq_file, "--ancilla-dim", "2")
    assert code == 1
    assert report["error"] == {
        "message": "enumeration produced 8 selections but the closed form counts 7",
        "type": "WitnessForgeError",
    }


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
    big_data = json.loads(dumps_canonical(encode_matrix_obj(w)))
    big_data["data"][0][0][0] = 10**400  # too large for a float
    big_c = json.loads(dumps_canonical(encode_matrix_obj(w)))
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


def test_overflowing_spectra_exit_two_before_any_file_is_written(capsys, tmp_path):
    # 0.5*(A + A^H) overflows above about 9e307, so these entries, finite
    # in the file and in the trace, have no finite spectrum
    body = {"dims": [2], "data": [[[1e308, 0.0], [0.0, 0.0]], [[0.0, 0.0], [5e307, 0.0]]]}
    density = {"version": "1", "kind": "density", "normalized": False, **body}
    hermitian = {"version": "1", "kind": "hermitian", **body}
    out = tmp_path / "w.json"
    runs = {
        "spectral-density": (density, ["spectral"]),
        "spectral-hermitian": (hermitian, ["spectral"]),
        "cbounds": (density, ["cbounds", "--mode", "min", "--restarts", "2"]),
        "witness-make": (density, [
            "witness-make", "--form", "c_minus_sigma", "--c", "1.0", "--check", "none",
            "-o", str(out),
        ]),
    }
    for name, (doc, argv) in runs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        code, report, _ = _run(capsys, argv[0], str(path), *argv[1:])
        assert code == 2, name
        assert report["error"]["type"] == "ParamOutOfRange", name
    assert not out.exists()
    with pytest.raises(ParamOutOfRange):
        DensityMatrix(ComplexMatrix((2,), np.diag([1e308, 5e307])), normalized=False)


def test_overflowing_trace_exits_two_without_a_warning(tmp_path):
    # every entry is finite but the trace is not; the suite turns warnings
    # into errors, so an overflow warning would raise in place of the refusal
    with pytest.raises(ParamOutOfRange, match="trace"):
        DensityMatrix(ComplexMatrix((2,), np.diag([1e308, 1e308])), normalized=False)
    path = tmp_path / "sigma.json"
    path.write_text(json.dumps({
        "version": "1", "kind": "density", "normalized": False, "dims": [2],
        "data": [[[1e308, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e308, 0.0]]],
    }))
    # a child process, which prints warnings to stderr as a user sees them
    proc = subprocess.run(
        [sys.executable, "-m", "witness_forge", "spectral", str(path)],
        capture_output=True, text=True, timeout=120,
        cwd=Path(witness_forge.__file__).parents[1],
    )
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"]["type"] == "ParamOutOfRange"
    assert "Warning" not in proc.stderr


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


def _unchecked_witness(capsys, sq_file, path, c, form="c_minus_sigma"):
    """witness-make --check none of isotropic(0.2) at c, written to path."""
    code, _, _ = _run(
        capsys, "witness-make", sq_file, "--form", form, "--c", c, "--check", "none", "-o", str(path)
    )
    assert code == 0
    return str(path)


@pytest.mark.parametrize("method", ["purify", "partial", "identity", "mixed", "pure-tails"])
def test_extend_refuses_a_non_witness_and_writes_nothing(capsys, sq_file, tmp_path, method):
    # c = 0.15 is below every extension's product maximum 0.3: each keeps
    # c, so none is a witness, and extend refuses as witness-make does
    wpath = _unchecked_witness(capsys, sq_file, tmp_path / "w.json", "0.15")
    zero = tmp_path / "zero.json"
    write_matrix_file(qstate.PureState(ComplexVector((2,), np.array([1.0, 0.0]))), zero)
    flags = {
        "purify": (),
        "partial": ("--selection", "3:0", "--ancilla-dim", "1"),
        "identity": ("--tail-dims", "2"),
        "mixed": ("--tails", sq_file),
        "pure-tails": ("--tails", str(zero)),
    }[method]
    out = tmp_path / "ext.json"
    code = main(["extend", wpath, "--method", method, *flags, "-o", str(out)])
    (line,) = capsys.readouterr().out.splitlines()
    assert code == 2
    error = json.loads(line)["error"]
    assert error["type"] == "COutOfInterval"
    assert error["message"].startswith("c=0.15: min product expectation ")
    assert not out.exists()


def test_extend_writes_only_what_its_check_accepts(capsys, sq_file, tmp_path):
    # c = 0.45 is above lambda_max = 0.4 of sigma (x) I, but below the top
    # eigenvalue 1 of the purified projector, whose product maximum is 0.3
    wpath = _unchecked_witness(capsys, sq_file, tmp_path / "w.json", "0.45")
    out = tmp_path / "identity.json"
    code, report, _ = _run(capsys, "extend", wpath, "--method", "identity", "--tail-dims", "2",
                           "-o", str(out))
    assert (code, report["error"]["type"]) == (2, "COutOfInterval")
    assert not out.exists()
    out = tmp_path / "purified.json"
    code, report, _ = _run(capsys, "extend", wpath, "--method", "purify", "-o", str(out))
    assert code == 0 and out.exists()
    verdict = report["results"]["verify"]
    assert verdict["is_witness"] is True
    assert abs(verdict["witnessing_margin"] - 0.55) <= 1e-12
    assert abs(verdict["min_product_expectation"] - 0.15) <= 1e-8
    # the primal form at or below lambda_min = 0.2 has no negative eigenvalue
    ppath = _unchecked_witness(capsys, sq_file, tmp_path / "p.json", "0.1", form="sigma_minus_c")
    out = tmp_path / "primal.json"
    code, report, _ = _run(capsys, "extend", ppath, "--method", "identity", "--tail-dims", "2",
                           "-o", str(out))
    assert (code, report["error"]["type"]) == (2, "COutOfInterval")
    assert not out.exists()


def test_a_data_cell_read_as_infinite_is_a_parse_error(capsys, tmp_path):
    # json reads 1e400 as a float, inf, where 10**400 stays an int
    doc = json.loads(dumps_canonical(encode_matrix_obj(isotropic(0.2))))
    text = json.dumps(doc).replace(json.dumps(doc["data"][0][0]), "[1e400, 0.0]", 1)
    path = tmp_path / "inf.json"
    path.write_text(text)
    code, report, _ = _run(capsys, "spectral", str(path))
    assert code == 1
    assert report["error"] == {
        "message": "data[0][0]: entry is not a finite float64", "type": "ParseError",
    }


def test_reports_and_files_do_not_depend_on_the_hash_seed(tmp_path):
    # the same commands, by the same relative paths, in fresh processes at
    # two string-hash seeds
    rng = np.random.default_rng(23)
    v = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    rho = v @ v.conj().T
    s23 = DensityMatrix(ComplexMatrix((2, 3), rho / np.trace(rho).real))
    commands = [
        ["cbounds", "s23.json", "--mode", "min", "--oracle", "--resolution", "32", "--restarts", "4"],
        ["witness-make", "sq.json", "--form", "c_minus_sigma", "--c", "0.3", "-o", "w.json"],
        ["extend", "w.json", "--method", "purify", "-o", "wp.json"],
        ["extend", "w.json", "--method", "partial", "--selection", "3:0,2:1", "--ancilla-dim", "2",
         "-o", "wq.json"],
    ]
    package_root = str(Path(witness_forge.__file__).parents[1])
    runs = []
    for hash_seed in ("0", "1"):
        cwd = tmp_path / f"hash{hash_seed}"
        cwd.mkdir()
        write_matrix_file(isotropic(0.2), cwd / "sq.json")
        write_matrix_file(s23, cwd / "s23.json")
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": package_root}
        env.pop("WITNESS_FORGE_SEED", None)
        outputs = [
            (proc.returncode, proc.stdout)
            for proc in (
                subprocess.run([sys.executable, "-m", "witness_forge", *argv], cwd=cwd, env=env,
                               capture_output=True, timeout=120)
                for argv in commands
            )
        ]
        files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(cwd.iterdir())}
        runs.append((outputs, files))
    assert all(code == 0 for code, _ in runs[0][0])
    assert sorted(runs[0][1]) == ["s23.json", "sq.json", "w.json", "wp.json", "wq.json"]
    assert runs[0] == runs[1]
