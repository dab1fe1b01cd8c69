"""Witness construction, see-saw product optimization, verification."""

from __future__ import annotations

import functools
import math
from itertools import permutations
from unittest import mock

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
from witness_forge.oracle import exhaustive_witness_check
from witness_forge.qstate import DensityMatrix, isotropic
from witness_forge.witness import (
    SEESAW_MAX_ITERS,
    SEESAW_SCREEN_TOL,
    SEESAW_TOL,
    TOL_POS,
    Witness,
    WitnessForm,
    evaluate,
    is_ces,
    make_witness,
    max_product_expectation,
    min_product_expectation,
    verify_witness,
    _random_starts,
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
        again = witness._expectation(m.mat, [f.vec for f in res.extremizer.factors])
        assert abs(again - res.value) <= 1e-10


def test_bounds_inside_spectral_bracket():
    for seed in range(8):
        rng = np.random.default_rng(400 + seed)
        m = _random_hermitian(rng, (2, 2))
        vals = hermitian_eig(m).eigenvalues
        hi = max_product_expectation(m, restarts=8, seed=seed).value
        lo = min_product_expectation(m, restarts=8, seed=seed).value
        assert vals[0] - 1e-9 <= lo <= hi <= vals[-1] + 1e-9


def test_seesaw_trajectory_is_monotone(monkeypatch):
    rng = np.random.default_rng(17)
    m = _random_hermitian(rng, (2, 3))
    mt = m.mat.reshape(m.dims + m.dims)
    start = [
        np.array([[1.0, 0.0], [0.6, 0.8j]], dtype=complex),
        np.array([[0.0, 1.0, 0.0], [0.0, 0.6, -0.8]], dtype=complex),
    ]
    calls = []  # the values of each party update, qubit and qutrit
    top, bloch = witness._extremal_factor, witness._bloch_top

    def record(h):
        vals, vecs = top(h)
        calls.append(np.array(vals))
        return vals, vecs

    def record_bloch(a, rows):
        vals = bloch(a, rows)
        calls.append(np.array(vals))
        return vals

    monkeypatch.setattr(witness, "_extremal_factor", record)
    monkeypatch.setattr(witness, "_bloch_top", record_bloch)
    values, _, converged = _seesaw_run(mt, start)
    # every restart's objective after each party update, a stopped restart
    # keeping its last value: a restart leaves the batch after the first
    # sweep that moves it by less than SEESAW_SCREEN_TOL, and then the
    # leader, if its last sweep moved it by SEESAW_TOL or more, sweeps on
    # alone until one moves it by less than SEESAW_TOL
    traj = [witness._expectation(mt, start)]
    active = np.arange(start[0].shape[0])
    last = np.full(active.shape, np.inf)  # each restart's last |change|
    tol = SEESAW_SCREEN_TOL
    parties = len(start)
    for sweep in range(0, len(calls), parties):
        if not active.size:
            lead = int(np.argmax(traj[-1]))
            assert tol == SEESAW_SCREEN_TOL and last[lead] >= SEESAW_TOL  # re-enters once
            active, tol = np.array([lead]), SEESAW_TOL
        prev = traj[-1][active]
        for vals in calls[sweep : sweep + parties]:
            assert vals.shape == active.shape
            row = traj[-1].copy()
            row[active] = vals
            traj.append(row)
        last[active] = np.abs(traj[-1][active] - prev)
        active = active[last[active] >= tol]
    traj = np.array(traj)
    assert len(calls) % parties == 0
    # this start's leader leaves the screen between SEESAW_TOL and the screen
    assert tol == SEESAW_TOL and active.size == 0 and converged.all()
    assert last[np.argmax(values)] < SEESAW_TOL
    assert np.all(traj[1:] >= traj[:-1] - 1e-14)
    np.testing.assert_array_equal(traj[-1], values)


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
    batch = _random_starts(np.random.default_rng([sum(dims), 0]), 3, dims)
    tol = 1e-13 * np.linalg.norm(m, 2)
    for k in range(len(dims)):
        op = witness._party_matrix(mt, k)
        others = [j for j in range(len(dims)) if j != k]
        got = witness._contract(op, [witness._outer(batch[j]) for j in others], 3)
        assert got.shape == (3, dims[k] ** 2)
        got = got.reshape(3, dims[k], dims[k])
        for r in range(3):
            single = [f[r] for f in batch]
            want = _operator_on(m, single, k)
            assert np.abs(got[r] - want).max() <= tol
            one = witness._contract(op, [witness._outer(batch[j][r : r + 1]) for j in others], 1)
            assert np.abs(one.reshape(dims[k], dims[k]) - want).max() <= tol


def _draws_one_at_a_time(seed: int, r: int, dims: tuple[int, ...]):
    """Restart r's start as it was drawn party by party: d real parts, then
    d imaginary parts, normalised by np.linalg.norm."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, r]))
    raw = []
    for d in dims:
        raw.append(rng.standard_normal(d) + 1j * rng.standard_normal(d))
    return raw, [v / np.linalg.norm(v) for v in raw]


# How far a qubit factor's Bloch row (1, n) may sit from a unit n, and
# (1, n) @ _BLOCH from the factor's outer product, to first order in u =
# 2**-53 with every entry of magnitude at most 1. `_unit_factors` divides
# each part by a computed norm: the sum of four squares (3u), its square
# root (1.5u + u) and numpy's complex division by a real, a reciprocal
# and a product (2u), so | ||f|| - 1 | <= 4.5u and | ||f||**2 - 1 | <= 9u.
# `_bloch_rows` reads n = (2 Re conj(f_0) f_1, 2 Im conj(f_0) f_1,
# |f_0|**2 - |f_1|**2) off the outer product: two roundings in each
# complex product and one in the sum, so at most 2u, 2u and 3u off, an
# error of norm below 4.2u, while ||n|| = ||f||**2 exactly. np.linalg.norm
# adds 2.5u, so | ||n|| - 1 | <= 9u + 4.2u + 2.5u < 16u. Row 0 is 1, not
# ||f||**2, which moves (1, n) @ _BLOCH by at most 4.5u, and n's error
# and the product's own roundings add at most 1.5u + u + 2u: 9u < 16u.
_BLOCH_ROUNDING = 16 * 2.0**-53


def _assert_unit_bloch_rows(f: np.ndarray) -> None:
    """(R, 2) unit qubit factors have rows (1, n) with n a unit vector and
    (1, n) @ _BLOCH their outer products, within _BLOCH_ROUNDING."""
    row = witness._bloch_rows(f)
    assert np.array_equal(row[:, 0], np.ones(f.shape[0]))
    assert np.abs(np.linalg.norm(row[:, 1:], axis=1) - 1).max() <= _BLOCH_ROUNDING
    assert np.abs(row @ witness._BLOCH - witness._outer(f)).max() <= _BLOCH_ROUNDING


def test_bloch_rows_stay_within_their_rounding_bound():
    # 200,000 draws: 2.3 % of them were more than 4e-16 from a unit n
    draws = np.random.default_rng([0, 0]).standard_normal((200_000, 4))
    _assert_unit_bloch_rows(witness._unit_factors(draws, (2,))[0])


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (2, 2, 2), (2, 3, 2), (2, 2, 2, 2)])
def test_bloch_operators_match_the_complex_contraction(dims):
    rng = np.random.default_rng(7 * len(dims) + sum(dims))
    m = _random_hermitian(rng, dims).mat
    mt = m.reshape(dims + dims)
    batch = witness._random_starts(np.random.default_rng([5, 0]), 4, dims)
    outs = [witness._outer(f) for f in batch]
    rows = [witness._bloch_rows(f) if d == 2 else witness._outer(f) for f, d in zip(batch, dims)]
    for f, d in zip(batch, dims):
        if d == 2:
            _assert_unit_bloch_rows(f)
    tol = 1e-14 * np.linalg.norm(m, 2)
    for k, d in enumerate(dims):
        op = witness._bloch_operator(mt, k)
        if set(dims) == {2}:
            assert op.dtype == np.float64
        want = witness._contract(witness._party_matrix(mt, k), outs[:k] + outs[k + 1 :], 4)
        got = witness._contract(op, rows[:k] + rows[k + 1 :], 4)
        if d == 2:  # the Pauli coefficients of the Hermitian part of h
            h = want.reshape(4, 2, 2)
            want = np.stack([
                (h[:, 0, 0] + h[:, 1, 1]).real / 2,
                (h[:, 1, 0] + h[:, 0, 1]).real / 2,
                (h[:, 1, 0] - h[:, 0, 1]).imag / 2,
                (h[:, 0, 0] - h[:, 1, 1]).real / 2,
            ], axis=1)
            got = got.real
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= tol


def test_outer_product_blocks_stay_within_the_budget(monkeypatch):
    dims = (2, 2, 64)
    m = _random_hermitian(np.random.default_rng(37), dims)
    monkeypatch.setattr(witness, "SEESAW_MAX_ITERS", 5)
    whole = max_product_expectation(m, restarts=32, seed=0)
    budget = 3 * (2 * 64) ** 2  # three restarts of the widest rows, those of party 0 or 1
    sizes = []
    kron, top = witness._kron_rows, witness._extremal_factor

    def record_kron(vs, batch):
        out = kron(vs, batch)
        sizes.append(out.size)
        return out

    def record_top(h):
        sizes.append(h.size)
        return top(h)

    monkeypatch.setattr(witness, "_BLOCK", budget)
    monkeypatch.setattr(witness, "_kron_rows", record_kron)
    monkeypatch.setattr(witness, "_extremal_factor", record_top)
    chunked = max_product_expectation(m, restarts=32, seed=0)
    assert max(sizes) == budget  # a full chunk of party 0's rows
    assert abs(chunked.value - whole.value) <= 1e-14
    assert chunked.converged == whole.converged
    for a, b in zip(chunked.extremizer.factors, whole.extremizer.factors):
        assert np.abs(a.vec - b.vec).max() <= 1e-12


def test_one_party_eigh_batches_stay_within_the_budget(monkeypatch):
    m = _random_hermitian(np.random.default_rng(53), (32,))
    budget = 4 * 32**2
    batches = []
    top = witness._extremal_factor

    def record(h):
        batches.append(h.size)
        return top(h)

    monkeypatch.setattr(witness, "_BLOCK", budget)
    monkeypatch.setattr(witness, "_extremal_factor", record)
    opt = max_product_expectation(m, restarts=32, seed=0)
    assert batches and max(batches) <= budget
    assert abs(opt.value - np.linalg.eigvalsh(m.mat)[-1]) <= 1e-12 * np.linalg.norm(m.mat, 2)


def test_one_party_search_runs_restart_zero_alone(monkeypatch):
    # every restart's first update solves m itself, so 32 restarts solve
    # no more matrices than one and end where it does
    solved = _count_calls(monkeypatch, np.linalg, "eigh")
    for d in (3, 16):
        m = _random_hermitian(np.random.default_rng(59 + d), (d,))
        for search in (max_product_expectation, min_product_expectation):
            runs, matrices = [], []
            for restarts in (1, 32):
                solved.clear()
                runs.append(search(m, restarts=restarts, seed=5))
                matrices.append(sum(len(args[0]) for args in solved))
            one, many = runs
            assert matrices[0] == matrices[1] > 0
            assert (one.restarts_used, many.restarts_used) == (1, 32)
            assert many.value == one.value and many.converged == one.converged
            for a, b in zip(many.extremizer.factors, one.extremizer.factors):
                np.testing.assert_array_equal(a.vec, b.vec)
            lam = np.linalg.eigvalsh(m.mat)[-1 if search is max_product_expectation else 0]
            assert abs(many.value - lam) <= 1e-12 * np.linalg.norm(m.mat, 2)


def test_seesaw_makes_no_einsum_call(monkeypatch):
    m3 = _random_hermitian(np.random.default_rng(41), (2, 2, 2))
    m2 = _random_hermitian(np.random.default_rng(43), (2, 3))
    start = _random_starts(np.random.default_rng([0, 0]), 4, (2, 3))

    def fail(*args, **kwargs):
        raise AssertionError("np.einsum called on the see-saw path")

    monkeypatch.setattr(np, "einsum", fail)
    res = max_product_expectation(m3, restarts=4, seed=0)
    assert res.converged
    values, _, converged = _seesaw_run(-m2.mat.reshape(2, 3, 2, 3), start)
    assert converged.all() and values.shape == (4,)


def _serial_seesaw(
    m: np.ndarray, start: list[np.ndarray], mode: str, tol: float, max_iters: int
) -> tuple[float, list[np.ndarray], int, float]:
    """One restart at a time, as the see-saw ran before it was batched,
    stopping at the first sweep that moves its value by less than `tol`:
    (value, factors, sweeps run, the last sweep's |change|, inf if none)."""
    pick = -1 if mode == "max" else 0
    factors = list(start)
    mu = np.ones(1)
    for f in factors:
        mu = np.kron(mu, f)
    value = float((mu.conj() @ m @ mu).real)
    delta = np.inf
    for sweep in range(1, max_iters + 1):
        prev = value
        for k in range(len(factors)):
            vals, vecs = np.linalg.eigh(_operator_on(m, factors, k))
            factors[k] = vecs[:, pick]
            value = float(vals[pick])
        delta = abs(value - prev)
        if delta < tol:
            return value, factors, sweep, delta
    return value, factors, max_iters, delta


def _serial_screened(
    m: np.ndarray, starts: list[list[np.ndarray]], mode: str, max_iters: int
) -> tuple[list[float], list[bool]]:
    """The batch's schedule one restart at a time: each stops at
    SEESAW_SCREEN_TOL, then the leader, the first at the best value,
    sweeps on to SEESAW_TOL within what is left of the cap if its last
    sweep moved it by SEESAW_TOL or more."""
    runs = [_serial_seesaw(m, s, mode, SEESAW_SCREEN_TOL, max_iters) for s in starts]
    values = [r[0] for r in runs]
    converged = [r[3] < SEESAW_SCREEN_TOL for r in runs]
    i = int(np.argmax(values) if mode == "max" else np.argmin(values))
    _, factors, sweeps, delta = runs[i]
    if delta >= SEESAW_TOL:
        value, _, _, delta = _serial_seesaw(m, factors, mode, SEESAW_TOL, max_iters - sweeps)
        values[i], converged[i] = value, delta < SEESAW_TOL
    return values, converged


@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(
    dims=st.sampled_from(
        [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 2, 2)]
    ),
    matrix_seed=st.integers(0, 2**32 - 1),
    restarts=st.integers(1, 6),
    mode=st.sampled_from(["max", "min"]),
    max_iters=st.sampled_from([3, 12, 25, SEESAW_MAX_ITERS]),
)
def test_batched_seesaw_matches_serial_loop(dims, matrix_seed, restarts, mode, max_iters):
    m = _random_hermitian(np.random.default_rng(matrix_seed), dims)
    mt = m.mat.reshape(dims + dims)
    batch = _random_starts(np.random.default_rng([0, 0]), restarts, dims)
    starts = [[f[r] for f in batch] for r in range(restarts)]
    sign = 1.0 if mode == "max" else -1.0  # the batch maximises <mu|sign*m|mu>
    with mock.patch.object(witness, "SEESAW_MAX_ITERS", max_iters):
        values, _, converged = _seesaw_run(sign * mt, batch)
    values *= sign
    want, want_converged = _serial_screened(m.mat, starts, mode, max_iters)
    np.testing.assert_allclose(values, want, rtol=0, atol=1e-10)
    np.testing.assert_array_equal(converged, want_converged)
    if max_iters != SEESAW_MAX_ITERS:
        return
    opt = max_product_expectation if mode == "max" else min_product_expectation
    res = opt(m, restarts=restarts, seed=0)
    best = values.max() if mode == "max" else values.min()
    assert abs(res.value - best) <= 1e-10
    assert res.converged == bool(converged.all())


def _ginibre(rng: np.random.Generator, d: int, rank: int) -> np.ndarray:
    g = rng.standard_normal((d, 2 * rank)).view(np.complex128)
    return g @ g.conj().T / np.linalg.norm(g) ** 2


@pytest.mark.parametrize(
    "dims", [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4), (2, 2, 2), (2, 2, 3), (2, 2, 2, 2)],
    ids=str,
)
def test_screened_search_matches_the_unscreened_one(dims):
    # rank 2 and full Ginibre states, and 0.7 of a GHZ-like state mixed
    # with a full one: stopping the losing restarts at the screen leaves
    # the search no worse than by rounding, not by the screen's 1e-6,
    # whether or not either search converged
    d = math.prod(dims)
    rng = np.random.default_rng(97 + d)
    ghz = sum(np.eye(d)[np.ravel_multi_index((i,) * len(dims), dims)] for i in range(min(dims)))
    ghz = np.outer(ghz, ghz) / min(dims)
    for rho in (_ginibre(rng, d, d), _ginibre(rng, d, 2), 0.7 * ghz + 0.3 * _ginibre(rng, d, d)):
        m = ComplexMatrix(dims, rho)
        for sign, search in ((1, max_product_expectation), (-1, min_product_expectation)):
            screened = search(m, 32, 0)
            with mock.patch.object(witness, "SEESAW_SCREEN_TOL", SEESAW_TOL):
                full = search(m, 32, 0)
            assert sign * (screened.value - full.value) >= -1e-10, search.__name__


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 4), (2, 2, 2)], ids=str)
def test_one_restart_ignores_the_screen(dims):
    # a batch of one ends where a plain SEESAW_TOL stop ends, bit for bit,
    # whatever the screen; a batch of several does read it
    m = _random_hermitian(np.random.default_rng(101 + sum(dims)), dims)
    mt = m.mat.reshape(dims + dims)
    start = _random_starts(np.random.default_rng([0, 0]), 4, dims)
    one = [f[:1] for f in start]
    runs = []
    for screen in (SEESAW_SCREEN_TOL, 1.0):
        with mock.patch.object(witness, "SEESAW_SCREEN_TOL", screen):
            runs.append((_seesaw_run(mt, one), _seesaw_run(mt, start), max_product_expectation(m, 1, 0)))
    (a, many_a, opt_a), (b, many_b, opt_b) = runs
    for x, y in zip([a[0], *a[1], a[2]], [b[0], *b[1], b[2]]):
        np.testing.assert_array_equal(x, y)
    assert opt_a.value == opt_b.value and opt_a.converged == opt_b.converged
    for f, g in zip(opt_a.extremizer.factors, opt_b.extremizer.factors):
        np.testing.assert_array_equal(f.vec, g.vec)
    assert not np.array_equal(many_a[0], many_b[0])


def test_crawl_state_search_converges():
    # 0.7|Phi_4><Phi_4| + 0.3 Ginibre on (4,4): under a per-restart stop at
    # SEESAW_TOL, 17 of 32 restarts crawled to the cap. They now stop at
    # the screen, the leader reaches SEESAW_TOL within the cap, and the
    # value is no worse than the unscreened search's
    rng = np.random.default_rng(3)
    g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    phi = np.eye(4).reshape(16) / 2
    rho = 0.7 * np.outer(phi, phi) + 0.3 * g @ g.conj().T / np.linalg.norm(g) ** 2
    m = ComplexMatrix((4, 4), (rho + rho.conj().T) / 2)
    res = max_product_expectation(m, 32, 0)
    with mock.patch.object(witness, "SEESAW_SCREEN_TOL", SEESAW_TOL):
        full = max_product_expectation(m, 32, 0)
    assert res.converged and not full.converged
    assert res.value >= full.value - 1e-10


def test_single_party_bounds_are_extreme_eigenvalues():
    m = _random_hermitian(np.random.default_rng(23), (3,))
    vals = np.linalg.eigvalsh(m.mat)
    hi = max_product_expectation(m, restarts=4, seed=0)
    lo = min_product_expectation(m, restarts=4, seed=0)
    assert abs(hi.value - vals[-1]) <= 1e-12
    assert abs(lo.value - vals[0]) <= 1e-12
    assert hi.extremizer.dims == lo.extremizer.dims == (3,)


def test_seesaw_eigensolver_failure_is_no_convergence(monkeypatch):
    # (3,3): qubit parties never reach LAPACK, qutrits do
    m = _random_hermitian(np.random.default_rng(31), (3, 3))

    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NoConvergence):
        max_product_expectation(m, restarts=2, seed=0)


def test_non_finite_qubit_operator_is_no_convergence(monkeypatch):
    m = _random_hermitian(np.random.default_rng(31), (2, 2))
    contract = witness._contract

    def poisoned(op, outs, rows):
        out = contract(op, outs, rows)
        assert out.dtype == np.float64  # the real Pauli coefficients of a qubit operator
        out[-1, 0] = np.nan
        return out

    monkeypatch.setattr(witness, "_contract", poisoned)
    with pytest.raises(NoConvergence):
        max_product_expectation(m, restarts=2, seed=0)
    for bad in (np.nan, np.inf, -np.inf):
        for entry in range(4):
            a = np.zeros((3, 4))
            a[1, entry] = bad
            with pytest.raises(NoConvergence):
                witness._bloch_top(a, np.ones((3, 4)))


def _qubit_cases() -> list[np.ndarray]:
    rng = np.random.default_rng(61)
    g = rng.standard_normal((64, 2, 2)) + 1j * rng.standard_normal((64, 2, 2))
    special = np.array(
        [
            [[1.0, 0.0], [0.0, 3.0]],  # diagonal, either order
            [[3.0, 0.0], [0.0, 1.0]],
            [[-2.0, 0.0], [0.0, -2.0]],  # scalar: r = 0
            [[0.0, 0.0], [0.0, 0.0]],
            [[1.0, 1e-9 - 1e-9j], [1e-9 + 1e-9j, 1.0]],  # near-degenerate
            [[1.0 + 1e-9, 1e-9j], [-1e-9j, 1.0]],
            [[0.0, 2.0 - 1.0j], [2.0 + 1.0j, 0.0]],  # purely off-diagonal
            [[0.0, -1.0], [-1.0, 0.0]],
            # Bloch vectors at the switch of `_bloch_factors`' branches
            # (n_z = +-1e-300), at its poles, and within an ulp of n_z = -1
            [[1e-300, 1.0], [1.0, -1e-300]],
            [[-1e-300, 1.0], [1.0, 1e-300]],
            [[1.0, 0.0], [0.0, -1.0]],
            [[-1.0, 0.0], [0.0, 1.0]],
            [[-(1 - 2.0**-53), 2.0**-26], [2.0**-26, 1 - 2.0**-53]],
        ],
        dtype=complex,
    )
    return [g + np.swapaxes(g, -1, -2).conj(), special]


@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
@pytest.mark.parametrize("case", [0, 1], ids=["random", "special"])
def test_bloch_update_matches_lapack(case, scale):
    h = _qubit_cases()[case] * scale
    eps = np.finfo(float).eps
    vals, _ = np.linalg.eigh(h)
    a = (h.reshape(-1, 4) @ witness._BLOCH.T).real  # (a0, a) of h = a0*I + a.sigma
    rows = np.ones_like(a)
    lam = witness._bloch_top(a, rows)  # pytest turns any RuntimeWarning into an error
    v = witness._bloch_factors(rows)
    norm = np.abs(vals).max(-1)  # ||H||_2; 0 only for the zero matrix
    assert np.all(np.abs(lam - vals[:, -1]) <= 8 * eps * norm)
    # residual max-norm scaled by 1/||H|| first, so it cannot underflow
    unit = np.where(norm > 0, norm, 1.0)[:, None]
    hv = (h / unit[..., None]) @ v[..., None]
    res = np.linalg.norm(hv[..., 0] - (lam[:, None] / unit) * v, axis=-1)
    assert np.all(res <= 8 * eps)
    assert np.all(np.abs(np.linalg.norm(v, axis=-1) - 1) <= 4 * eps)
    assert np.all(rows[:, 0] == 1.0)
    if case == 1:  # the scalar blocks get n = (0, 0, -1), the Bloch vector of e_1
        np.testing.assert_array_equal(rows[2:4], [[1, 0, 0, -1], [1, 0, 0, -1]])
        np.testing.assert_array_equal(v[2:4], [[0, 1], [0, 1]])


@pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2), (2, 3)])
def test_maximally_mixed_seesaw_is_exact(dims):
    # every contracted block is scalar: the value is 1/d to the bit, and
    # every factor the last basis vector, which LAPACK returns for a scalar
    d = int(np.prod(dims))
    m = ComplexMatrix(dims, np.eye(d) / d)
    mt = m.mat.reshape(dims + dims)
    for sign in (1, -1):
        start = _random_starts(np.random.default_rng([3, 0]), 8, dims)
        values, factors, converged = _seesaw_run(sign * mt, start)
        assert np.all(values == sign / d) and converged.all()
        for f, dk in zip(factors, dims):
            np.testing.assert_array_equal(f, np.tile(np.eye(dk)[-1], (8, 1)))
    for search in (max_product_expectation, min_product_expectation):
        res = search(m, restarts=8, seed=3)
        assert res.value == 1 / d and res.converged
        for f, dk in zip(res.extremizer.factors, dims):
            np.testing.assert_array_equal(f.vec, np.eye(dk)[-1])


def _count_calls(monkeypatch, module, name: str) -> list:
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_seesaw_update_cost_structure(monkeypatch):
    # a qubit update calls neither LAPACK nor `_outer`, and the see-saw
    # makes no complex product on an all-qubit structure
    lapack = _count_calls(monkeypatch, np.linalg, "eigh")
    outer = _count_calls(monkeypatch, witness, "_outer")
    qubit = _count_calls(monkeypatch, witness, "_bloch_top")
    kron = _count_calls(monkeypatch, witness, "_kron_rows")
    m = _random_hermitian(np.random.default_rng(67), (2, 2, 2))
    assert max_product_expectation(m, restarts=32, seed=0).converged
    assert lapack == [] and qubit
    assert len(outer) == 3  # the start rows, once per party
    runs = [vs for vs, _ in kron]
    assert len(runs) == len(qubit) + 2  # one per update, one for the start and one in `_winner`
    assert all(v.dtype == np.float64 for vs in runs[1:-1] for v in vs)
    # on (2,3), one LAPACK call per qutrit update: every other update
    mt = _random_hermitian(np.random.default_rng(71), (2, 3)).mat.reshape(2, 3, 2, 3)
    lapack.clear()
    qubit.clear()
    updates = _count_calls(monkeypatch, witness, "_extremal_factor")
    _seesaw_run(mt, _random_starts(np.random.default_rng([0, 0]), 32, (2, 3)))
    assert updates and len(lapack) == len(updates) == len(qubit)
    assert all(a.shape[1:] == (3, 3) for (a,) in lapack)
    # one outer product per qudit update, plus one per party to start and
    # one per qudit party if the leader re-enters
    runs = _count_calls(monkeypatch, witness, "_sweeps")
    for dims in [(2, 2, 2), (2, 3, 2, 2), (3, 2, 4)]:
        mt = _random_hermitian(np.random.default_rng(73), dims).mat.reshape(dims + dims)
        outer.clear()
        updates.clear()
        runs.clear()
        _seesaw_run(mt, _random_starts(np.random.default_rng([0, 0]), 16, dims))
        reentries = len(runs) - 1
        assert len(outer) == len(dims) + len(updates) + reentries * sum(d != 2 for d in dims)


def test_one_generator_draws_every_restart_start(monkeypatch):
    dims = (2, 3, 4)
    m = _random_hermitian(np.random.default_rng(79), dims)
    draws, starts = [], []
    unit = witness._unit_factors
    run = witness._seesaw_run

    def record_draws(d, dims_):
        draws.append(d.copy())
        return unit(d, dims_)

    def record_starts(mt, start, *args):
        starts.append([f.copy() for f in start])
        return run(mt, start, *args)

    monkeypatch.setattr(witness, "_unit_factors", record_draws)
    monkeypatch.setattr(witness, "_seesaw_run", record_starts)
    monkeypatch.setattr(witness, "_BLOCK", 64 * 12**2)  # party 0's rows are 12**2 wide
    generators = _count_calls(monkeypatch, witness.np.random, "default_rng")
    max_product_expectation(m, restarts=70, seed=5)
    assert len(generators) == 1
    assert [len(d) for d in draws] == [64, 6]  # the second chunk starts at r = 64
    rows = np.concatenate(draws)
    np.testing.assert_array_equal(rows, np.random.default_rng([5, 0]).standard_normal((70, 18)))
    # restart 0 starts where it did when every restart had its own stream
    raw, want = _draws_one_at_a_time(5, 0, dims)
    lo = 0
    for d, v, w, f in zip(dims, raw, want, starts[0]):
        np.testing.assert_array_equal(rows[0, lo : lo + d] + 1j * rows[0, lo + d : lo + 2 * d], v)
        assert np.abs(f[0] - w).max() <= 4.5e-16
        lo += 2 * d
    # a start does not depend on the restart count
    many = [np.concatenate(fs) for fs in zip(*starts)]
    starts.clear()
    max_product_expectation(m, restarts=5, seed=5)
    assert len(starts) == 1
    for f, g in zip(starts[0], many):
        np.testing.assert_array_equal(f, g[:5])


def test_restart_chunks_do_not_change_the_result(monkeypatch):
    m = _random_hermitian(np.random.default_rng(29), (2, 3))
    whole = min_product_expectation(m, restarts=8, seed=4)
    sizes = []
    run = witness._seesaw_run

    def record(mt, start):
        sizes.append(len(start[0]))
        return run(mt, start)

    monkeypatch.setattr(witness, "_BLOCK", 3 * 3**2)  # every party's rows are 3**2 wide
    monkeypatch.setattr(witness, "_seesaw_run", record)
    chunked = min_product_expectation(m, restarts=8, seed=4)
    assert sizes == [3, 3, 2]
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
        verdict = _witness_report(w, opt.value, opt.extremizer).is_witness
        try:
            make_witness(form, sigma, c, restarts=8, seed=3)
            made = True
        except COutOfInterval:
            made = False
        assert made == verdict, name
        # witness-verify accepts every witness strict make_witness accepts
        assert verify_witness(w, 8, 3).is_witness == made, name
        if expected is not None:
            assert verdict is expected, name


def test_unknown_form_is_param_out_of_range():
    sq = isotropic(0.2)
    with pytest.raises(ParamOutOfRange):
        make_witness("bogus", sq, 0.3)
    with pytest.raises(ParamOutOfRange):
        make_witness("bogus", sq, 0.3, check="none")
    with pytest.raises(ParamOutOfRange):
        Witness("bogus", 0.3, sq)
    assert Witness("sigma_minus_c", 0.1, sq).form is WitnessForm.SIGMA_MINUS_C


def test_a_plain_witness_is_its_own_one_block():
    sq = isotropic(0.2)
    w = Witness(WitnessForm.C_MINUS_SIGMA, 0.3, sq)
    assert w.blocks == (sq.mat,) and w.blocks[0] is sq.mat
    assert w.phi is None
    wins = [[np.array([1.0, 0.0]), np.array([0.0, 1.0])], [np.array([0.6, 0.8j])]]
    lifted = w.lift(wins)
    assert len(lifted) == 3 and all(f is g for f, g in zip(lifted, [*wins[0], *wins[1]]))
    # the blocks are set by construction, never passed in
    with pytest.raises(TypeError):
        Witness(WitnessForm.C_MINUS_SIGMA, 0.3, sq, blocks=(sq.mat,))
    with pytest.raises(TypeError):
        Witness(WitnessForm.C_MINUS_SIGMA, 0.3, sq, phi=None)


def test_verdicts_never_build_the_witness_matrix(monkeypatch):
    def fail(self):
        raise AssertionError("a verdict built W")

    monkeypatch.setattr(Witness, "matrix", fail)
    for form, state in _FORM_STATES:
        sigma = state()
        c = 0.3 if form is WitnessForm.C_MINUS_SIGMA else 3 / 16
        w = make_witness(form, sigma, c, restarts=8, seed=3)
        assert verify_witness(w, 8, 3).is_witness
        assert exhaustive_witness_check(w, resolution=32).is_witness


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
    at_certificate = witness._expectation(
        w.matrix().mat, [f.vec for f in rep.certificate_state.factors]
    )
    assert abs(at_certificate - rep.min_product_expectation) <= 1e-10


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


_E00 = ComplexVector((2, 2), np.eye(4)[0])


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: witness.ProductState(()), ParamOutOfRange),
        (lambda: witness.ProductState((_E00,)), ParamOutOfRange),
        (lambda: witness.ProductState((ComplexVector((2,), np.ones(2)),)), ParamOutOfRange),
        (lambda: Witness(WitnessForm.C_MINUS_SIGMA, np.inf, isotropic(0.2)), ParamOutOfRange),
        (lambda: make_witness(WitnessForm.C_MINUS_SIGMA, isotropic(0.2), 0.3, check="bogus"),
         ParamOutOfRange),
        (lambda: is_ces([]), ParamOutOfRange),
        (lambda: is_ces([_E00, ComplexVector((4,), np.eye(4)[1])]), DimensionMismatch),
    ],
    ids=[
        "no-factor", "two-party-factor", "non-unit-factor", "infinite-offset", "unknown-check",
        "empty-basis", "mixed-basis-dims",
    ],
)
def test_malformed_arguments_are_refused(build, error):
    with pytest.raises(error):
        build()


@pytest.mark.parametrize("dims", [(2, 3), (2, 4), (3, 3), (2, 2, 3), (2, 3, 4)], ids=str)
def test_seesaw_values_do_not_move_with_the_party_order(dims):
    # rank 1, 2 and full states with their parties in every order: each
    # extremum matches the unpermuted one, and the permuted extremizer,
    # its factors put back in party order, gives its value on the state
    n, d = len(dims), math.prod(dims)
    rng = np.random.default_rng(d)
    for rank in (1, 2, d):
        g = rng.standard_normal((d, 2 * rank)).view(np.complex128)
        rho = g @ g.conj().T / np.linalg.norm(g) ** 2
        for search in (max_product_expectation, min_product_expectation):
            base = search(ComplexMatrix(dims, rho), 32, 0).value
            for perm in permutations(range(n)):
                axes = [*perm, *(n + p for p in perm)]
                moved = rho.reshape(dims + dims).transpose(axes).reshape(d, d)
                opt = search(ComplexMatrix(tuple(dims[p] for p in perm), moved), 32, 0)
                assert abs(opt.value - base) <= 1e-9, (rank, search.__name__, perm)
                back = [None] * n
                for f, p in zip(opt.extremizer.factors, perm):
                    back[p] = f.vec
                assert abs(float(witness._expectation(rho, back)) - opt.value) <= 1e-12


def _haar(rng: np.random.Generator, d: int) -> np.ndarray:
    """A Haar-random d x d unitary: Q of a complex Gaussian's QR, each
    column's phase fixed by R's diagonal (Mezzadri, Notices AMS 54:592, 2007)."""
    q, r = np.linalg.qr(rng.standard_normal((d, 2 * d)).view(np.complex128))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 4), (2, 2, 2), (2, 2, 3), (2, 3, 4)], ids=str)
def test_seesaw_values_ignore_local_unitaries(dims):
    # rank 1, 2 and full states seen in a Haar frame U_1 (x) ... (x) U_n,
    # which maps product states onto product states: each extremum matches
    # the unrotated one, and the rotated extremizer, mapped back by the
    # U_k^dagger, gives its value on the state
    d = math.prod(dims)
    rng = np.random.default_rng(d)
    for rank in (1, 2, d):
        g = rng.standard_normal((d, 2 * rank)).view(np.complex128)
        rho = g @ g.conj().T / np.linalg.norm(g) ** 2
        us = [_haar(rng, k) for k in dims]
        u = functools.reduce(np.kron, us)
        rotated = u @ rho @ u.conj().T
        rotated = (rotated + rotated.conj().T) / 2
        for search in (max_product_expectation, min_product_expectation):
            base = search(ComplexMatrix(dims, rho), 32, 0).value
            opt = search(ComplexMatrix(dims, rotated), 32, 0)
            assert abs(opt.value - base) <= 1e-9, (rank, search.__name__)
            back = [uk.conj().T @ f.vec for uk, f in zip(us, opt.extremizer.factors)]
            assert abs(float(witness._expectation(rho, back)) - opt.value) <= 1e-12
