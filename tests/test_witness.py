"""Witness construction, see-saw product optimization, verification."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from witness_forge import witness
from witness_forge.errors import (
    COutOfInterval,
    DimensionMismatch,
    NoConvergence,
    NotOrthonormal,
    ParamOutOfRange,
)
from witness_forge.linalg import ComplexMatrix, ComplexVector, hermitian_eig
from witness_forge.qstate import DensityMatrix, isotropic
from witness_forge.witness import (
    SEESAW_MAX_ITERS,
    SEESAW_TOL,
    TOL_POS,
    WitnessForm,
    evaluate,
    is_ces,
    make_witness,
    max_product_expectation,
    min_product_expectation,
    product_expectation,
    verify_witness,
    _random_product,
    _seesaw_run,
    _witness_report,
)


def _random_hermitian(rng: np.random.Generator, dims: tuple[int, ...]) -> ComplexMatrix:
    d = int(np.prod(dims))
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return ComplexMatrix(dims, (a + a.conj().T) / 2)


def _bell(parity: int = 0) -> np.ndarray:
    v = np.zeros(4, dtype=complex)
    if parity == 0:
        v[0] = v[3] = np.sqrt(0.5)
    else:
        v[1] = v[2] = np.sqrt(0.5)
    return v


def _example_four_level() -> DensityMatrix:
    arr = np.diag([5 / 16, 3 / 16, 3 / 16, 5 / 16]).astype(complex)
    arr[1, 2] = arr[2, 1] = 1 / 8
    return DensityMatrix(ComplexMatrix((2, 2), arr))


def test_isotropic_product_bounds():
    sq = isotropic(0.2)
    hi = max_product_expectation(sq.mat, restarts=16, seed=0)
    lo = min_product_expectation(sq.mat, restarts=16, seed=0)
    assert abs(hi.value - 0.3) <= 1e-9
    assert abs(lo.value - 0.2) <= 1e-9
    assert hi.converged and lo.converged
    assert hi.restarts_used == 16


def test_maximally_mixed_bounds_are_quarter():
    m = ComplexMatrix((2, 2), np.eye(4) / 4)
    assert abs(max_product_expectation(m, restarts=4, seed=1).value - 0.25) <= 1e-12
    assert abs(min_product_expectation(m, restarts=4, seed=1).value - 0.25) <= 1e-12


def test_bell_projector_max_overlap_is_half():
    proj = ComplexMatrix((2, 2), np.outer(_bell(), _bell().conj()))
    res = max_product_expectation(proj, restarts=16, seed=2)
    assert abs(res.value - 0.5) <= 1e-9


def test_example_four_level_min_is_three_sixteenths():
    res = min_product_expectation(_example_four_level().mat, restarts=16, seed=3)
    assert abs(res.value - 3 / 16) <= 1e-9


def test_extremizer_reproduces_value():
    for seed in range(5):
        rng = np.random.default_rng(300 + seed)
        m = _random_hermitian(rng, (2, 3))
        res = max_product_expectation(m, restarts=8, seed=seed)
        again = product_expectation(m, res.extremizer)
        assert abs(again - res.value) <= 1e-10


def test_bounds_inside_spectral_bracket():
    for seed in range(8):
        rng = np.random.default_rng(400 + seed)
        m = _random_hermitian(rng, (2, 2))
        vals = hermitian_eig(m).eigenvalues
        hi = max_product_expectation(m, restarts=8, seed=seed).value
        lo = min_product_expectation(m, restarts=8, seed=seed).value
        assert vals[0] - 1e-9 <= lo <= hi <= vals[-1] + 1e-9


def test_seesaw_trajectory_is_monotone():
    rng = np.random.default_rng(17)
    m = _random_hermitian(rng, (2, 3))
    mt = m.mat.reshape(m.dims + m.dims)
    start = [
        np.array([[1.0, 0.0], [0.6, 0.8j]], dtype=complex),
        np.array([[0.0, 1.0, 0.0], [0.0, 0.6, -0.8]], dtype=complex),
    ]
    _, _, _, traj = _seesaw_run(mt, start)
    assert traj.shape[0] >= 2 and traj.shape[1] == 2
    assert np.all(traj[1:] >= traj[:-1] - 1e-14)


def _operator_on(m: np.ndarray, factors: list[np.ndarray], k: int) -> np.ndarray:
    """P^dagger m P with P = f_0 (x) .. (x) I_k (x) .. (x) f_n-1, built column
    by column from Kronecker products instead of the module's GEMM."""
    cols = []
    for e in np.eye(len(factors[k])):
        v = np.ones(1)
        for j, f in enumerate(factors):
            v = np.kron(v, e if j == k else f)
        cols.append(v)
    p = np.stack(cols, axis=1)
    b = p.conj().T @ m @ p
    return 0.5 * (b + b.conj().T)


@pytest.mark.parametrize("dims", [(3,), (2, 3), (3, 2), (2, 4), (2, 3, 4), (2, 2, 2, 2)])
def test_contracted_operator_matches_kronecker_brute_force(dims):
    rng = np.random.default_rng(sum(dims))
    m = _random_hermitian(rng, dims).mat
    mt = m.reshape(dims + dims)
    batch = [np.stack(fs) for fs in zip(*(_random_product(rng, dims) for _ in range(3)))]
    tol = 1e-13 * np.linalg.norm(m, 2)
    for k in range(len(dims)):
        op = witness._party_matrix(mt, k)
        got = witness._contract_except(op, batch, k)
        assert got.shape == (3, dims[k], dims[k])
        for r in range(3):
            single = [f[r] for f in batch]
            want = _operator_on(m, single, k)
            assert np.abs(got[r] - want).max() <= tol
            one = witness._contract_except(op, single, k)
            assert one.shape == (dims[k], dims[k])
            assert np.abs(one - want).max() <= tol


def test_outer_product_blocks_stay_within_the_budget(monkeypatch):
    dims = (2, 2, 64)
    m = _random_hermitian(np.random.default_rng(37), dims)
    mt = m.mat.reshape(dims + dims)
    starts = [
        _random_product(np.random.default_rng(np.random.SeedSequence([0, r])), dims)
        for r in range(32)
    ]
    batch = [np.stack(fs) for fs in zip(*starts)]
    whole = _seesaw_run(mt, batch, max_iters=5)
    budget = 3 * 4 * 64**2  # three restarts of the widest block, that of party 0 or 1
    blocks = []
    kron = witness._kron_rows

    def record(vs, rows):
        out = kron(vs, rows)
        blocks.append(out.shape)
        return out

    monkeypatch.setattr(witness, "_BLOCK", budget)
    monkeypatch.setattr(witness, "_kron_rows", record)
    for k in range(3):
        blocks.clear()
        witness._contract_except(witness._party_matrix(mt, k), batch, k)
        assert sum(rows for rows, _ in blocks) == 32
        assert max(rows * cols for rows, cols in blocks) <= budget
        assert len(blocks) == (11 if k < 2 else 1)
    blocks.clear()
    sliced = _seesaw_run(mt, batch, max_iters=5)
    assert max(rows * cols for rows, cols in blocks) <= budget
    assert np.abs(sliced[0] - whole[0]).max() <= 1e-14
    for a, b in zip(sliced[1], whole[1]):
        assert np.abs(a - b).max() <= 1e-12


def test_seesaw_makes_no_einsum_call(monkeypatch):
    m3 = _random_hermitian(np.random.default_rng(41), (2, 2, 2))
    m2 = _random_hermitian(np.random.default_rng(43), (2, 3))
    start = [np.stack(fs) for fs in zip(*(_random_product(np.random.default_rng(r), (2, 3))
                                          for r in range(4)))]

    def fail(*args, **kwargs):
        raise AssertionError("np.einsum called on the see-saw path")

    monkeypatch.setattr(np, "einsum", fail)
    res = max_product_expectation(m3, restarts=4, seed=0)
    assert res.converged
    values, _, converged, _ = _seesaw_run(-m2.mat.reshape(2, 3, 2, 3), start)
    assert converged.all() and values.shape == (4,)


def _serial_seesaw(
    m: np.ndarray, start: list[np.ndarray], mode: str, max_iters: int
) -> tuple[float, bool]:
    """One restart at a time, as the see-saw ran before it was batched."""
    pick = -1 if mode == "max" else 0
    factors = list(start)
    mu = np.ones(1)
    for f in factors:
        mu = np.kron(mu, f)
    value = float((mu.conj() @ m @ mu).real)
    for _ in range(max_iters):
        prev = value
        for k in range(len(factors)):
            vals, vecs = np.linalg.eigh(_operator_on(m, factors, k))
            factors[k] = vecs[:, pick]
            value = float(vals[pick])
        if abs(value - prev) < SEESAW_TOL:
            return value, True
    return value, False


@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(
    dims=st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (2, 2, 2), (2, 2, 2, 2)]),
    matrix_seed=st.integers(0, 2**32 - 1),
    restarts=st.integers(1, 6),
    mode=st.sampled_from(["max", "min"]),
    max_iters=st.sampled_from([3, 12, 25, SEESAW_MAX_ITERS]),
)
def test_batched_seesaw_matches_serial_loop(dims, matrix_seed, restarts, mode, max_iters):
    m = _random_hermitian(np.random.default_rng(matrix_seed), dims)
    mt = m.mat.reshape(dims + dims)
    starts = [
        _random_product(np.random.default_rng(np.random.SeedSequence([0, r])), dims)
        for r in range(restarts)
    ]
    batch = [np.stack(fs) for fs in zip(*starts)]
    sign = 1.0 if mode == "max" else -1.0  # the batch maximises <mu|sign*m|mu>
    values, _, converged, _ = _seesaw_run(sign * mt, batch, max_iters=max_iters)
    values *= sign
    for r, start in enumerate(starts):
        want, want_converged = _serial_seesaw(m.mat, start, mode, max_iters)
        assert abs(values[r] - want) <= 1e-10
        assert converged[r] == want_converged
    if max_iters != SEESAW_MAX_ITERS:
        return
    opt = max_product_expectation if mode == "max" else min_product_expectation
    res = opt(m, restarts=restarts, seed=0)
    best = values.max() if mode == "max" else values.min()
    assert abs(res.value - best) <= 1e-10
    assert res.converged == bool(converged.all())


def test_single_party_bounds_are_extreme_eigenvalues():
    m = _random_hermitian(np.random.default_rng(23), (3,))
    vals = np.linalg.eigvalsh(m.mat)
    hi = max_product_expectation(m, restarts=4, seed=0)
    lo = min_product_expectation(m, restarts=4, seed=0)
    assert abs(hi.value - vals[-1]) <= 1e-12
    assert abs(lo.value - vals[0]) <= 1e-12
    assert hi.extremizer.dims == lo.extremizer.dims == (3,)


def test_seesaw_eigensolver_failure_is_no_convergence(monkeypatch):
    m = _random_hermitian(np.random.default_rng(31), (2, 2))

    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NoConvergence):
        max_product_expectation(m, restarts=2, seed=0)


def test_restart_chunks_do_not_change_the_result(monkeypatch):
    m = _random_hermitian(np.random.default_rng(29), (2, 3))
    whole = min_product_expectation(m, restarts=8, seed=4)
    monkeypatch.setattr(witness, "SEESAW_CHUNK", 3)
    chunked = min_product_expectation(m, restarts=8, seed=4)
    assert abs(chunked.value - whole.value) <= 1e-14
    assert chunked.converged == whole.converged
    for a, b in zip(chunked.extremizer.factors, whole.extremizer.factors):
        assert np.abs(a.vec - b.vec).max() <= 1e-12


def test_optimization_is_deterministic():
    sq = isotropic(0.25)
    a = max_product_expectation(sq.mat, restarts=8, seed=42)
    b = max_product_expectation(sq.mat, restarts=8, seed=42)
    assert a.value == b.value
    for fa, fb in zip(a.extremizer.factors, b.extremizer.factors):
        assert np.array_equal(fa.vec, fb.vec)


def test_optimization_validates_arguments():
    sq = isotropic(0.2)
    with pytest.raises(ParamOutOfRange):
        max_product_expectation(sq.mat, restarts=0, seed=0)
    with pytest.raises(ParamOutOfRange):
        max_product_expectation(sq.mat, restarts=4, seed=-1)


def test_make_witness_strict_interval():
    sq = isotropic(0.2)
    w = make_witness(WitnessForm.C_MINUS_SIGMA, sq, 0.3)
    assert w.c == 0.3 and w.dims == (2, 2)
    # within the 1e-8 pad below the boundary
    make_witness(WitnessForm.C_MINUS_SIGMA, sq, 0.3 - 5e-9)
    with pytest.raises(COutOfInterval):
        make_witness(WitnessForm.C_MINUS_SIGMA, sq, 0.25)
    with pytest.raises(COutOfInterval):
        make_witness(WitnessForm.C_MINUS_SIGMA, sq, 0.4)  # c must stay below lambda_max
    with pytest.raises(COutOfInterval):
        make_witness(WitnessForm.C_MINUS_SIGMA, sq, 0.5)
    # check="none" skips the interval test
    w2 = make_witness(WitnessForm.C_MINUS_SIGMA, sq, 0.5, check="none")
    assert w2.c == 0.5


def test_make_witness_primal_form_interval():
    s = _example_four_level()
    w = make_witness(WitnessForm.SIGMA_MINUS_C, s, 3 / 16)
    assert w.form is WitnessForm.SIGMA_MINUS_C
    make_witness(WitnessForm.SIGMA_MINUS_C, s, 0.1)
    with pytest.raises(COutOfInterval):
        make_witness(WitnessForm.SIGMA_MINUS_C, s, 1 / 16)  # not above lambda_min
    with pytest.raises(COutOfInterval):
        make_witness(WitnessForm.SIGMA_MINUS_C, s, 0.25)  # above the min bound


# One state per form with a nonempty offset interval: [0.3, 0.4) for the
# dual form on isotropic(0.2), (1/16, 3/16] for the primal form on the
# four-level example.
_FORM_STATES = [
    (WitnessForm.C_MINUS_SIGMA, lambda: isotropic(0.2)),
    (WitnessForm.SIGMA_MINUS_C, _example_four_level),
]


@pytest.mark.parametrize("form, state", _FORM_STATES, ids=[f.value for f, _ in _FORM_STATES])
def test_strict_make_witness_decides_by_the_report_rule(form, state):
    sigma = state()
    s = form.sign
    search = max_product_expectation if s > 0 else min_product_expectation
    opt = search(sigma.mat, 8, 3)
    top = sigma.lambda_max if s > 0 else -sigma.lambda_min  # lambda_max(s*sigma)
    closed = opt.value - s * TOL_POS  # min product expectation of W at -TOL_POS
    probes = {
        "open end": (s * top, False),
        "5e-11 inside": (s * (top - 5e-11), False),
        "2e-10 inside": (s * (top - 2e-10), True),
        "closed end": (closed, None),
        "closed end, inside": (opt.value + s * TOL_POS, True),
        "one ulp past the closed end": (math.nextafter(closed, -s * math.inf), None),
    }
    for name, (c, expected) in probes.items():
        w = make_witness(form, sigma, c, check="none")
        verdict = _witness_report(w, s * (c - opt.value), opt.extremizer).is_witness
        try:
            make_witness(form, sigma, c, restarts=8, seed=3)
            made = True
        except COutOfInterval:
            made = False
        assert made == verdict, name
        if expected is not None:
            assert verdict is expected, name


def test_witness_matrix_forms():
    sq = isotropic(0.2)
    w = make_witness(WitnessForm.C_MINUS_SIGMA, sq, 0.3)
    np.testing.assert_allclose(w.matrix().mat, 0.3 * np.eye(4) - sq.mat.mat, atol=0)
    s = _example_four_level()
    w2 = make_witness(WitnessForm.SIGMA_MINUS_C, s, 3 / 16)
    np.testing.assert_allclose(w2.matrix().mat, s.mat.mat - (3 / 16) * np.eye(4), atol=0)


def test_evaluate_detection_curve():
    # tr(W(sigma_q, (1+q)/4) pi_p) = q(1-3p)/4
    for q in (0.1, 0.2, 0.3):
        w = make_witness(WitnessForm.C_MINUS_SIGMA, isotropic(q), (1 + q) / 4)
        for p in (0.2, 0.5, 0.9):
            got = evaluate(w, isotropic(p))
            assert abs(got - q * (1 - 3 * p) / 4) <= 1e-12


def test_evaluate_on_own_state():
    sq = isotropic(0.2)
    w = make_witness(WitnessForm.C_MINUS_SIGMA, sq, 0.3)
    purity = float(np.trace(sq.mat.mat @ sq.mat.mat).real)
    assert abs(evaluate(w, sq) - (0.3 - purity)) <= 1e-14


def test_evaluate_is_the_trace_of_the_product():
    # complex states: tr(W rho) differs from sum(W * rho), which is tr(W rho^T)
    rng = np.random.default_rng(47)
    sigma, rho = (
        DensityMatrix(ComplexMatrix((2, 3), g @ g.conj().T / np.linalg.norm(g) ** 2))
        for g in rng.normal(size=(2, 6, 6)) + 1j * rng.normal(size=(2, 6, 6))
    )
    for form in WitnessForm:
        w = make_witness(form, sigma, 0.1, check="none")
        want = np.trace(w.matrix().mat @ rho.mat.mat).real
        assert abs(evaluate(w, rho) - want) <= 1e-15


def test_evaluate_dimension_mismatch():
    w = make_witness(WitnessForm.C_MINUS_SIGMA, isotropic(0.2), 0.3)
    bad = DensityMatrix(ComplexMatrix((4,), np.eye(4) / 4))
    with pytest.raises(DimensionMismatch):
        evaluate(w, bad)


def test_verify_weakly_optimal_witness():
    w = make_witness(WitnessForm.C_MINUS_SIGMA, isotropic(0.2), 0.3)
    rep = verify_witness(w, restarts=16, seed=0)
    assert rep.is_witness
    assert abs(rep.min_product_expectation) <= 1e-8
    assert abs(rep.witnessing_margin - 0.1) <= 1e-10
    assert abs(product_expectation(w.matrix(), rep.certificate_state)
               - rep.min_product_expectation) <= 1e-10


def test_verify_rejects_operator_without_negative_eigenvalue():
    # 0.3*I - I/4 is positive semidefinite: fine on products, but no
    # negative eigenvalue means it detects nothing.
    flat = DensityMatrix(ComplexMatrix((2, 2), np.eye(4) / 4))
    w = make_witness(WitnessForm.C_MINUS_SIGMA, flat, 0.3, check="none")
    rep = verify_witness(w, restarts=8, seed=1)
    assert not rep.is_witness
    assert rep.witnessing_margin < 0


def test_verify_rejects_operator_negative_on_products():
    # c below the product maximum goes negative on some product state
    w = make_witness(WitnessForm.C_MINUS_SIGMA, isotropic(0.2), 0.25, check="none")
    rep = verify_witness(w, restarts=8, seed=1)
    assert not rep.is_witness
    assert rep.min_product_expectation < -1e-3
    assert rep.witnessing_margin > 0


def test_example_four_level_witness_detects_its_eigenstate():
    s = _example_four_level()
    w = make_witness(WitnessForm.SIGMA_MINUS_C, s, 3 / 16)
    rep = verify_witness(w, restarts=16, seed=2)
    assert rep.is_witness
    assert abs(rep.witnessing_margin - 1 / 8) <= 1e-12
    # the bottom eigenvector is detected at -1/8
    bottom = hermitian_eig(s.mat).eigenvectors[0]
    det = DensityMatrix(ComplexMatrix((2, 2), np.outer(bottom.vec, bottom.vec.conj())))
    assert abs(evaluate(w, det) + 1 / 8) <= 1e-12


def test_is_ces_cases():
    e01 = ComplexVector((2, 2), np.array([0, 1, 0, 0], dtype=complex))
    flag, res = is_ces([e01], restarts=8, seed=0)
    assert not flag and abs(res.value - 1.0) <= 1e-9

    bell = ComplexVector((2, 2), _bell())
    flag, res = is_ces([bell], restarts=8, seed=0)
    assert flag and abs(res.value - 0.5) <= 1e-9

    odd = ComplexVector((2, 2), _bell(1))
    flag, res = is_ces([bell, odd], restarts=8, seed=0)
    assert not flag and abs(res.value - 1.0) <= 1e-9


def test_is_ces_requires_orthonormal_basis():
    v = ComplexVector((2, 2), np.array([1, 0, 0, 0], dtype=complex))
    w = ComplexVector((2, 2), np.array([0.9, 0.1, 0, 0], dtype=complex))
    with pytest.raises(NotOrthonormal):
        is_ces([v, w], restarts=4, seed=0)
