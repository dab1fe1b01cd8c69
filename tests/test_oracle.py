"""Brute-force grid oracle: known extrema, refinement, support limits."""

from __future__ import annotations

import itertools
import math
import warnings
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from witness_forge import oracle
from witness_forge.errors import ParamOutOfRange, UnsupportedDims
from witness_forge.linalg import ComplexMatrix
from witness_forge.oracle import exhaustive_witness_check, grid_product_extremum
from witness_forge.qstate import isotropic
from witness_forge.witness import (
    WitnessForm,
    make_witness,
    max_product_expectation,
    min_product_expectation,
)


def _random_hermitian(rng: np.random.Generator, dims: tuple[int, ...]) -> ComplexMatrix:
    d = int(np.prod(dims))
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return ComplexMatrix(dims, (a + a.conj().T) / 2)


def test_isotropic_grid_bounds():
    sq = isotropic(0.2)
    assert abs(grid_product_extremum(sq.mat, "max", 128) - 0.3) <= 1e-6
    assert abs(grid_product_extremum(sq.mat, "min", 128) - 0.2) <= 1e-6


def test_maximally_mixed_grid_is_flat():
    m = ComplexMatrix((2, 2), np.eye(4) / 4)
    assert abs(grid_product_extremum(m, "max", 64) - 0.25) <= 1e-12
    assert abs(grid_product_extremum(m, "min", 64) - 0.25) <= 1e-12
    # every contracted qutrit block is I/9, the closed form's p = 0 case
    m = ComplexMatrix((3, 3), np.eye(9) / 9)
    assert abs(grid_product_extremum(m, "max", 32) - 1 / 9) <= 1e-12
    assert abs(grid_product_extremum(m, "min", 32) - 1 / 9) <= 1e-12


def test_bell_projector_overlap():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = np.sqrt(0.5)
    proj = ComplexMatrix((2, 2), np.outer(bell, bell.conj()))
    assert abs(grid_product_extremum(proj, "max", 128) - 0.5) <= 1e-6


def test_ghz_overlap_three_qubits():
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = np.sqrt(0.5)
    proj = ComplexMatrix((2, 2, 2), np.outer(ghz, ghz.conj()))
    assert abs(grid_product_extremum(proj, "max", 32) - 0.5) <= 1e-6


def test_single_party_is_exact_eigenvalue():
    m = ComplexMatrix((3,), np.diag([0.1, 0.5, 0.4]).astype(complex))
    assert abs(grid_product_extremum(m, "max", 32) - 0.5) <= 1e-12
    assert abs(grid_product_extremum(m, "min", 32) - 0.1) <= 1e-12


def test_qutrit_pair_supported():
    rng = np.random.default_rng(23)
    m = _random_hermitian(rng, (3, 3))
    hi = grid_product_extremum(m, "max", 32)
    see = max_product_expectation(m, restarts=16, seed=0).value
    assert abs(hi - see) <= 1e-3


def test_refinement_never_worsens_much():
    rng = np.random.default_rng(29)
    m = _random_hermitian(rng, (2, 2))
    v32 = grid_product_extremum(m, "max", 32)
    v64 = grid_product_extremum(m, "max", 64)
    assert v64 >= v32 - 1e-12


def test_oracle_matches_seesaw_on_two_qubits():
    for seed in range(5):
        rng = np.random.default_rng(500 + seed)
        m = _random_hermitian(rng, (2, 2))
        grid = grid_product_extremum(m, "max", 64)
        see = max_product_expectation(m, restarts=16, seed=seed).value
        assert abs(grid - see) <= 1e-4


def test_unsupported_dims():
    for dims in ((5,), (2, 5), (2, 2, 3), (2, 2, 2, 2), (3, 3, 3)):
        d = int(np.prod(dims))
        m = ComplexMatrix(dims, np.eye(d) / d)
        with pytest.raises(UnsupportedDims):
            grid_product_extremum(m, "max", 32)


def test_parameter_validation():
    m = ComplexMatrix((2,), np.eye(2) / 2)
    with pytest.raises(ParamOutOfRange):
        grid_product_extremum(m, "max", 16)  # resolution below the floor
    with pytest.raises(ParamOutOfRange):
        grid_product_extremum(m, "sideways", 32)
    # parameters are checked before the structure, so an unsupported one
    # gets the same error
    m = ComplexMatrix((2, 2, 2, 2), np.eye(16) / 16)
    with pytest.raises(ParamOutOfRange):
        grid_product_extremum(m, "max", 16)
    with pytest.raises(ParamOutOfRange):
        grid_product_extremum(m, "sideways", 32)


def test_exhaustive_witness_check():
    w = make_witness(WitnessForm.C_MINUS_SIGMA, isotropic(0.2), 0.3)
    rep = exhaustive_witness_check(w, resolution=64)
    assert rep.is_witness
    assert rep.min_product_expectation >= -1e-8
    assert abs(rep.witnessing_margin - 0.1) <= 1e-10
    # the margin read from sigma's spectrum is -lambda_min of the witness
    lam_min = np.linalg.eigvalsh(w.matrix().mat)[0]
    assert abs(rep.witnessing_margin + lam_min) <= 1e-12

    flat = make_witness(
        WitnessForm.C_MINUS_SIGMA,
        isotropic(0.0),
        0.2,
        check="none",
    )
    rep2 = exhaustive_witness_check(flat, resolution=64)
    assert not rep2.is_witness


def _point_by_point(m: ComplexMatrix, x: int, mode: str, resolution: int) -> dict:
    """Extremal eigenvalue of m contracted with the gridded factors, one
    joint grid point at a time, keyed by the gridded parties' indices."""
    dims = m.dims
    sizes = [oracle._grid_size(d, resolution) for k, d in enumerate(dims) if k != x]
    values = {}
    for point in itertools.product(*map(range, sizes)):
        idx = iter(point)
        blocks = [
            np.eye(d) if k == x
            else oracle._grid_factors(d, resolution, np.array([next(idx)])).T
            for k, d in enumerate(dims)
        ]
        iso = reduce(np.kron, blocks)
        vals = np.linalg.eigvalsh(iso.conj().T @ m.mat @ iso)
        values[point] = vals[-1] if mode == "max" else vals[0]
    return values


@pytest.mark.parametrize(
    "dims, resolution",
    [((2, 2), 8), ((2, 3), 7), ((3, 2), 6), ((3, 3), 7), ((2, 4), 8), ((2, 2, 2), 6), ((1, 3), 8)],
)
def test_scan_winner_reaches_the_point_by_point_extremum(monkeypatch, dims, resolution):
    # values, not indices: some grid points give the same ray (theta = pi
    # on a qubit at every phase), so the first best index is not unique
    m = _random_hermitian(np.random.default_rng(math.prod(dims) + resolution), dims)
    x = oracle._support_check(dims, oracle.MIN_RESOLUTION)
    mt = m.mat.reshape(dims + dims)
    for mode, signed in (("max", mt), ("min", -mt)):  # a min is the max of -m
        values = _point_by_point(m, x, mode, resolution)
        best = max(values.values()) if mode == "max" else min(values.values())
        for chunk in (1 << 16, 7, 1):  # one block, ragged blocks, one point a block
            monkeypatch.setattr(oracle, "_CHUNK", chunk)
            winner = oracle._scan_grid(signed, dims, x, resolution)
            assert abs(values[tuple(winner)] - best) <= 1e-12


@pytest.mark.parametrize("dims", [(3, 3), (2, 2, 2)])
def test_scan_batches_stay_within_one_block(monkeypatch, dims):
    sizes = []
    solve = oracle._extremal_eigvals

    def record(t):
        sizes.append(math.prod(t.shape[:-2]))
        return solve(t)

    monkeypatch.setattr(oracle, "_extremal_eigvals", record)
    m = _random_hermitian(np.random.default_rng(31), dims)
    grid_product_extremum(m, "max", 32)
    assert max(sizes) <= oracle._CHUNK
    x = oracle._support_check(dims, 32)
    assert sum(sizes) == math.prod(oracle._grid_size(d, 32) for k, d in enumerate(dims) if k != x)


def _hermitian_batch(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    a = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    return (a + a.conj().transpose(0, 2, 1)) / 2


def _assert_matches_lapack(t: np.ndarray, tol: float) -> None:
    """Both ends: the top eigenvalue of t, and the bottom one as that of -t."""
    ref = np.linalg.eigvalsh(t)
    norm = np.linalg.norm(t, ord=2, axis=(-2, -1))
    for got, col in ((oracle._extremal_eigvals(t), -1), (-oracle._extremal_eigvals(-t), 0)):
        assert np.all(np.abs(got - ref[:, col]) <= tol * norm)


def test_qutrit_closed_form_matches_lapack():
    rng = np.random.default_rng(41)
    _assert_matches_lapack(_hermitian_batch(rng, 4096, 3), 1e-12)
    # real diagonal matrices
    diag = np.zeros((512, 3, 3), dtype=np.complex128)
    diag[:, range(3), range(3)] = rng.normal(size=(512, 3))
    _assert_matches_lapack(diag, 1e-12)


def test_qutrit_closed_form_on_scalar_blocks():
    scales = np.array([1 / 9, 0.0, -2.5, 1e-300, 1e300])
    t = scales[:, None, None] * np.eye(3, dtype=np.complex128)
    _assert_matches_lapack(t, 1e-12)
    # exact, where LAPACK's scaling is off by an ulp at 1e-300 and 1e300
    assert np.array_equal(oracle._extremal_eigvals(t), scales)
    assert np.array_equal(-oracle._extremal_eigvals(-t), scales)


def test_qutrit_closed_form_on_doubly_degenerate_spectra():
    # the cubic has a double root at the degenerate end, so only about half
    # the digits survive there; the simple end stays at full accuracy
    rng = np.random.default_rng(43)
    u, _ = np.linalg.qr(rng.normal(size=(256, 3, 3)) + 1j * rng.normal(size=(256, 3, 3)))
    for spectrum in ((1.0, 1.0, -2.0), (2.0, -1.0, -1.0), (0.3, 0.3, 0.0), (0.0, 0.0, 0.4)):
        t = u @ np.diag(spectrum).astype(np.complex128) @ u.conj().transpose(0, 2, 1)
        _assert_matches_lapack(t, 1e-7)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), exponent=st.floats(-9.0, 3.0))
def test_qutrit_closed_form_is_scale_free(seed, exponent):
    t = 10.0**exponent * _hermitian_batch(np.random.default_rng(seed), 64, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_matches_lapack(t, 1e-10)


def _hermitian_of_rank(rng: np.random.Generator, dims: tuple[int, ...], rank: int | None):
    """A random Hermitian matrix on `dims` of the given rank, full for None."""
    if rank is None:
        return _random_hermitian(rng, dims)
    d = math.prod(dims)
    v = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    return ComplexMatrix(dims, (v * rng.normal(size=rank)) @ v.conj().T)


@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(
    # no scan of (2,2,2,2), which is beyond the oracle; (3,3) and (2,2,2)
    # only at 32, as one scan at 64 takes seconds
    case=st.sampled_from([
        ((2, 2), 32), ((2, 2), 64), ((2, 3), 32), ((2, 3), 64), ((3, 3), 32),
        ((2, 4), 32), ((2, 4), 64), ((2, 2, 2), 32), ((2, 2, 2, 2), None),
    ]),
    rank=st.sampled_from([None, 2]),
    seed=st.integers(0, 2**32 - 1),
)
def test_min_is_minus_max_of_the_negated_matrix(case, rank, seed):
    dims, resolution = case
    m = _hermitian_of_rank(np.random.default_rng(seed), dims, rank)
    neg = ComplexMatrix(dims, -m.mat)
    lo = min_product_expectation(m, restarts=8, seed=seed)
    hi = max_product_expectation(neg, restarts=8, seed=seed)
    assert lo.value == -hi.value
    for a, b in zip(lo.extremizer.factors, hi.extremizer.factors, strict=True):
        assert np.array_equal(a.vec, b.vec)
    if resolution is not None:
        lo = grid_product_extremum(m, "min", resolution)
        assert lo == -grid_product_extremum(neg, "max", resolution)


@pytest.mark.parametrize("dims, lapack", [((2, 3), False), ((3, 3), False), ((2, 4), True)])
def test_scan_calls_lapack_only_for_a_four_level_exact_party(monkeypatch, dims, lapack):
    calls = []
    solve = np.linalg.eigvalsh

    def record(t):
        if not lapack:
            raise AssertionError(f"eigvalsh called on a {t.shape} batch")
        calls.append(t.shape)
        return solve(t)

    monkeypatch.setattr(np.linalg, "eigvalsh", record)
    m = _random_hermitian(np.random.default_rng(37), dims)
    x = oracle._support_check(dims, 32)
    mt = m.mat.reshape(dims + dims)
    for signed in (mt, -mt):
        oracle._scan_grid(signed, dims, x, 32)
    assert bool(calls) == lapack
