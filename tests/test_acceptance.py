"""Acceptance suite: ten end-to-end criteria, one test per criterion,
each printing a single PASS/FAIL line (visible with pytest -s or -rA)."""

from __future__ import annotations

import json
import time

import numpy as np

from witness_forge.cli import main
from witness_forge.extend import (
    count_partial_purifications,
    enumerate_partial_purifications,
    identity_extend,
    mixed_tensor_extend,
    partial_purify_extend,
    purify_extend,
)
from witness_forge.fileio import write_matrix_file
from witness_forge.linalg import (
    ComplexMatrix,
    hermitian_eig,
    partial_trace,
    partial_transpose,
)
from witness_forge.oracle import exhaustive_witness_check, grid_product_extremum
from witness_forge.qstate import (
    DensityMatrix,
    PureState,
    PurificationSelection,
    isotropic,
    projector,
    purify,
    spectral,
)
from witness_forge.witness import (
    Witness,
    WitnessForm,
    evaluate,
    make_witness,
    max_product_expectation,
    verify_witness,
)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _random_density(rng: np.random.Generator, dims: tuple[int, ...]) -> DensityMatrix:
    d = int(np.prod(dims))
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return DensityMatrix(ComplexMatrix(dims, rho / np.trace(rho).real))


def _random_hermitian(rng: np.random.Generator, dims: tuple[int, ...]) -> ComplexMatrix:
    d = int(np.prod(dims))
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return ComplexMatrix(dims, (a + a.conj().T) / 2)


def _example_four_level() -> DensityMatrix:
    arr = np.diag([5 / 16, 3 / 16, 3 / 16, 5 / 16]).astype(complex)
    arr[1, 2] = arr[2, 1] = 1 / 8
    return DensityMatrix(ComplexMatrix((2, 2), arr))


def _run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_criterion_01_isotropic_cmin_via_cli(capsys, tmp_path):
    t0 = time.perf_counter()
    worst_closed = 0.0
    worst_oracle = 0.0
    for q in (0.1, 0.2, 0.3):
        path = tmp_path / f"sq{q}.json"
        write_matrix_file(isotropic(q), path)
        code, out = _run_cli(
            capsys, "cbounds", str(path), "--mode", "min",
            "--restarts", "32", "--oracle", "--resolution", "256",
        )
        assert code == 0
        res = json.loads(out)["results"]
        worst_closed = max(worst_closed, abs(res["value"] - (1 + q) / 4))
        worst_oracle = max(worst_oracle, abs(res["value"] - res["oracle"]))
    elapsed = time.perf_counter() - t0
    ok = worst_closed <= 1e-6 and worst_oracle <= 1e-4 and elapsed < 5.0
    _report(1, ok, (
        f"c_min vs (1+q)/4 max err {worst_closed:.2e} (<=1e-6), "
        f"vs oracle {worst_oracle:.2e} (<=1e-4), {elapsed:.2f}s (<5s)"
    ))


def test_criterion_02_isotropic_spectrum():
    worst = 0.0
    for q in (0.1, 0.2, 0.3, 0.7):
        sd = spectral(isotropic(q))
        want = [(1 - q) / 4] * 3 + [(1 + 3 * q) / 4]
        worst = max(worst, float(np.abs(np.sort(sd.eigenvalues) - np.array(want)).max()))
    ok = worst <= 1e-10
    _report(2, ok, f"spectral(sigma_q) vs closed form, max err {worst:.2e} (<=1e-10)")


def test_criterion_03_detection_grid():
    qs = np.linspace(0.05, 0.30, 5)
    ps = np.linspace(0.4, 0.95, 5)
    worst = 0.0
    all_negative = True
    for q in qs:
        w = make_witness(WitnessForm.C_MINUS_SIGMA, isotropic(q), (1 + q) / 4)
        for p in ps:
            got = evaluate(w, isotropic(p))
            worst = max(worst, abs(got - q * (1 - 3 * p) / 4))
            all_negative = all_negative and got < 0
    ok = worst <= 1e-10 and all_negative
    _report(3, ok, (
        f"evaluate vs q(1-3p)/4 on 5x5 grid, max err {worst:.2e} (<=1e-10), "
        f"strictly negative for p>1/3: {all_negative}"
    ))


def test_criterion_04_purify_extend_properties():
    w = make_witness(WitnessForm.C_MINUS_SIGMA, isotropic(0.2), 0.3)
    wp = purify_extend(w)
    dims_ok = wp.dims == (2, 2, 4)
    rep = verify_witness(wp, restarts=32, seed=0)
    min_ok = rep.min_product_expectation >= -1e-8
    lam_min = hermitian_eig(wp.matrix()).eigenvalues[0]
    lam_ok = abs(lam_min - (-0.7)) <= 1e-10
    cmin = max_product_expectation(wp.sigma.mat, restarts=32, seed=0).value
    cmin_ok = abs(cmin - 0.3) <= 1e-6
    ok = dims_ok and min_ok and lam_ok and cmin_ok
    _report(4, ok, (
        f"dims {wp.dims}, min product {rep.min_product_expectation:.2e} (>=-1e-8), "
        f"lambda_min {lam_min:.12f} (-0.7 within 1e-10), "
        f"c_min(purification) err {abs(cmin - 0.3):.2e} (<=1e-6)"
    ))


def test_criterion_05_partial_purification_witnesses():
    w = make_witness(WitnessForm.C_MINUS_SIGMA, isotropic(0.2), 0.3)
    selections = {
        "W1": ((3, 0), (2, 1)),
        "W2": ((3, 0), (1, 1)),
        "W3": ((0, 0), (3, 1)),
    }
    checks = []
    for name, pairs in selections.items():
        w_ext = partial_purify_extend(w, PurificationSelection(pairs, 2))
        rep = exhaustive_witness_check(w_ext, resolution=64)
        checks.append((name, rep.is_witness))
    ok = all(flag for _, flag in checks)
    detail = ", ".join(f"{name} is_witness={flag}" for name, flag in checks)
    _report(5, ok, detail + " (exhaustive grid, resolution 64)")


def test_criterion_06_counting_matches_enumeration():
    mismatches = []
    for rank in range(1, 6):
        lam = np.arange(1, rank + 1, dtype=float)
        lam /= lam.sum()
        d = DensityMatrix(ComplexMatrix((rank,), np.diag(lam).astype(complex)))
        sd = spectral(d)
        for d3 in range(1, rank + 1):
            got = len(enumerate_partial_purifications(sd, d3))
            want = count_partial_purifications(rank, d3)
            if got != want:
                mismatches.append((rank, d3, got, want))
    specific = len(enumerate_partial_purifications(spectral(isotropic(0.2)), 2))
    ok = not mismatches and specific == 8
    _report(6, ok, (
        f"enumeration == formula for 1<=d3<=R<=5 ({'no mismatches' if not mismatches else mismatches}); "
        f"(R=4, d3=2) -> {specific} (want 8)"
    ))


def test_criterion_07_mixed_tensor_preserves_bounds():
    w = make_witness(WitnessForm.C_MINUS_SIGMA, isotropic(0.2), 0.3)
    worst_c = 0.0
    worst_lam = 0.0
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        tail = _random_density(rng, (2,))
        wm = mixed_tensor_extend(w, [tail])
        cmin = max_product_expectation(wm.sigma.mat, restarts=32, seed=seed).value
        worst_c = max(worst_c, abs(cmin - 0.3))
        lam = hermitian_eig(wm.sigma.mat).eigenvalues[-1]
        worst_lam = max(worst_lam, abs(lam - 0.4))
    ok = worst_c <= 1e-5 and worst_lam <= 1e-10
    _report(7, ok, (
        f"10 random qubit tails: c_min err {worst_c:.2e} (<=1e-5), "
        f"lambda_max err {worst_lam:.2e} (<=1e-10)"
    ))


def test_criterion_08_four_level_example():
    sigma12 = _example_four_level()
    w12 = make_witness(WitnessForm.SIGMA_MINUS_C, sigma12, 3 / 16)
    # partial transpose of the even-Bell projector over party 2, divided
    # by 4, reproduces sigma12 - (3/16) I entrywise
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = np.sqrt(0.5)
    proj = ComplexMatrix((2, 2), np.outer(v, v.conj()))
    pt_quarter = partial_transpose(proj, 2).mat / 4
    ent_err = float(np.abs(w12.matrix().mat - pt_quarter).max())
    spec_err = float(
        np.abs(
            np.sort(spectral(sigma12).eigenvalues)
            - np.array([1 / 16, 5 / 16, 5 / 16, 5 / 16])
        ).max()
    )
    verdicts = []
    for tail in ([4], [2]):
        we = identity_extend(w12, tail)
        rep = verify_witness(we, restarts=32, seed=0)
        verdicts.append(rep.is_witness)
    ok = ent_err <= 1e-15 and spec_err <= 1e-12 and all(verdicts)
    _report(8, ok, (
        f"PT identity entrywise {ent_err:.2e} (<=1e-15), spectrum err {spec_err:.2e}, "
        f"identity tails [4],[2] is_witness={verdicts}"
    ))


def test_criterion_09_maximally_mixed_purification_is_exact():
    i2 = DensityMatrix(ComplexMatrix((2,), np.eye(2) / 2))
    w = Witness(WitnessForm.C_MINUS_SIGMA, 0.5, i2)
    wp = purify_extend(w)
    # W = (1/2) I - |psi+><psi+| with exact 1/2 entries
    expected = 0.5 * np.eye(4, dtype=complex)
    for i, j in ((1, 1), (1, 2), (2, 1), (2, 2)):
        expected[i, j] -= 0.5
    matrix_exact = bool(np.array_equal(wp.matrix().mat, expected))
    value = evaluate(wp, wp.sigma)
    value_exact = value == -0.5
    ok = matrix_exact and value_exact
    _report(9, ok, (
        f"W = I/2 - Bell projector entrywise exact: {matrix_exact}; "
        f"evaluate on |psi+> = {value!r} (== -0.5: {value_exact})"
    ))


def test_criterion_10_property_suite(capsys, tmp_path):
    # (a) oracle vs see-saw on 20 seeded two-qubit Hermitians
    worst_gap = 0.0
    for seed in range(20):
        rng = np.random.default_rng(2000 + seed)
        m = _random_hermitian(rng, (2, 2))
        grid = grid_product_extremum(m, "max", 64)
        see = max_product_expectation(m, restarts=32, seed=seed).value
        worst_gap = max(worst_gap, abs(grid - see))
    # (b) purification roundtrip on 20 seeded densities
    worst_fro = 0.0
    for seed in range(20):
        dims = (2, 2) if seed % 2 == 0 else (2, 3)
        rng = np.random.default_rng(3000 + seed)
        d = _random_density(rng, dims)
        psi = purify(d)
        red = partial_trace(projector(psi).mat, list(range(1, len(dims) + 1)))
        worst_fro = max(worst_fro, float(np.linalg.norm(red.mat - d.mat.mat)))
    # (c) identical seeds give byte-identical reports
    path = tmp_path / "sq.json"
    write_matrix_file(isotropic(0.2), path)
    runs = []
    for _ in range(2):
        code, out = _run_cli(
            capsys, "cbounds", str(path), "--mode", "min", "--seed", "5",
        )
        assert code == 0
        runs.append(out)
    deterministic = runs[0] == runs[1]
    ok = worst_gap <= 1e-4 and worst_fro <= 1e-10 and deterministic
    _report(10, ok, (
        f"oracle-seesaw gap {worst_gap:.2e} (<=1e-4), "
        f"purification roundtrip {worst_fro:.2e} (<=1e-10), "
        f"byte-identical reports: {deterministic}"
    ))
