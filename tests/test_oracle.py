"""Brute-force grid oracle: known extrema, refinement, support limits."""

from __future__ import annotations

import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction
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
    _outer,
    _party_matrix,
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
    for dims, resolution in (
        ((5,), 32), ((2, 5), 32), ((2, 2, 3), 32), ((2, 2, 2, 2), 32), ((3, 3, 3), 32),
        # joint grids above MAX_JOINT_GRID, one step past the limits the
        # module docstring states
        ((3, 3), 104), ((2, 2, 2), 74), ((4, 4), 32),
    ):
        d = int(np.prod(dims))
        m = ComplexMatrix(dims, np.eye(d) / d)
        with pytest.raises(UnsupportedDims):
            grid_product_extremum(m, "max", resolution)
    # and the largest grids that fit, checked without a scan
    for dims, resolution in (((3, 3), 103), ((2, 2, 2), 73), ((2, 4), 256)):
        assert oracle._support_check(dims, resolution) == len(dims) - 1


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


def _point_eigvals(m: np.ndarray, dims: tuple[int, ...], x: int, resolution: int, point) -> np.ndarray:
    """Eigenvalues of the matrix m contracted with the gridded factors at
    one joint grid point, given as the gridded parties' indices."""
    idx = iter(point)
    blocks = [
        np.eye(d) if k == x
        else oracle._grid_factors(d, resolution, np.array([next(idx)])).T
        for k, d in enumerate(dims)
    ]
    iso = reduce(np.kron, blocks)
    return np.linalg.eigvalsh(iso.conj().T @ m @ iso)


def _point_by_point(m: ComplexMatrix, x: int, mode: str, resolution: int) -> dict:
    """Extremal eigenvalue of m contracted with the gridded factors, one
    joint grid point at a time, keyed by the gridded parties' indices."""
    dims = m.dims
    sizes = [oracle._grid_size(d, resolution) for k, d in enumerate(dims) if k != x]
    values = {}
    for point in itertools.product(*map(range, sizes)):
        vals = _point_eigvals(m.mat, dims, x, resolution, point)
        values[point] = vals[-1] if mode == "max" else vals[0]
    return values


@pytest.mark.parametrize(
    "dims, resolution",
    [
        ((2, 2), 8), ((2, 3), 7), ((3, 2), 6), ((3, 3), 7), ((2, 4), 8), ((2, 2, 2), 6), ((1, 3), 8),
        ((4, 2), 8), ((3, 4), 7),
    ],
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
        # one block, lead blocks sharing one last-party block (100 at
        # (2,2,2)@6), blocks of a few polar rows (100), one polar row a
        # block (7 and 1, below any row's size)
        for chunk in (1 << 16, 100, 7, 1):
            monkeypatch.setattr(oracle, "_CHUNK", chunk)
            winner = oracle._scan_grid(signed, dims, x, resolution)
            assert abs(values[tuple(winner)] - best) <= 1e-12


@pytest.mark.parametrize("dims", [(3, 3), (2, 2, 2)])
def test_scan_batches_stay_within_one_block(monkeypatch, dims):
    sizes = []
    solve = oracle._extremal_eigvals

    def record(c):  # (d*d, ...) coordinates
        sizes.append(math.prod(c.shape[1:]))
        return solve(c)

    monkeypatch.setattr(oracle, "_extremal_eigvals", record)
    m = _random_hermitian(np.random.default_rng(31), dims)
    grid_product_extremum(m, "max", 32)
    assert max(sizes) <= oracle._CHUNK
    x = oracle._support_check(dims, 32)
    assert sum(sizes) == math.prod(oracle._grid_size(d, 32) for k, d in enumerate(dims) if k != x)


@pytest.mark.parametrize("dims, x", [((2, 2, 2), 2), ((2, 4), 1), ((3, 3), 1), ((1, 4), 1)])
def test_each_gridded_party_is_tabled_once_per_scan(monkeypatch, dims, x):
    # chunk 100 makes many blocks, yet each gridded party's two tables are
    # built once, and no block gathers per-point factors
    calls = []
    build = oracle._grid_axes

    def record(d, resolution):
        calls.append(d)
        return build(d, resolution)

    def refuse(*args):
        raise AssertionError("per-point factors gathered in a scan")

    monkeypatch.setattr(oracle, "_grid_axes", record)
    monkeypatch.setattr(oracle, "_grid_factors", refuse)
    monkeypatch.setattr(oracle, "_CHUNK", 100)
    mt = _random_hermitian(np.random.default_rng(61), dims).mat.reshape(dims + dims)
    oracle._scan_grid(mt, dims, x, 32)
    assert calls == [d for k, d in enumerate(dims) if k != x]


@pytest.mark.parametrize("dims, resolution", [((3, 3), 32), ((2, 3), 256), ((2, 4), 256)])
def test_scan_peak_memory_stays_small(dims, resolution):
    # the blocks' working set, not the grid, sets the peak. Per block
    # point: the gridded party's coordinate rows (4 or 9 float64), the
    # exact party's coordinates (9 or 16), the kernels' scratch (12 for
    # the qutrit cubic, 15 for the LDL^H test) and the result, plus the
    # block before's rows and result while the next is built. These
    # three scans peak at 34, 27 and 38 float64 a point.
    mt = _random_hermitian(np.random.default_rng(67), dims).mat.reshape(dims + dims)
    x = oracle._support_check(dims, resolution)
    tracemalloc.start()
    try:
        oracle._scan_grid(mt, dims, x, resolution)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 44 * 8 * oracle._CHUNK


@pytest.mark.parametrize(
    "dims, resolution", [((2, 2, 2), 32), ((2, 3), 256), ((3, 3), 32), ((2, 4), 256)]
)
def test_scan_winners_do_not_move_with_the_scale(dims, resolution):
    # the closed forms square coordinates, which overflowed past about
    # 1e154 (a warning, so an error here); at 1e-300 the (2,4) winner moved
    m = _random_hermitian(np.random.default_rng(73), dims)
    x = oracle._support_check(dims, resolution)
    mt = m.mat.reshape(dims + dims)
    for signed in (mt, -mt):
        winner = oracle._scan_grid(signed, dims, x, resolution)
        for scale in (1e160, 1e-160, 1e300, 1e-300):
            assert oracle._scan_grid(signed * scale, dims, x, resolution) == winner, scale
    big = grid_product_extremum(ComplexMatrix(dims, m.mat * 1e160), "min", resolution)
    assert big / 1e160 == pytest.approx(grid_product_extremum(m, "min", resolution), rel=1e-9)


def _grid_factors_per_point(d: int, resolution: int, idx: np.ndarray) -> np.ndarray:
    """Reference for `oracle._grid_factors`: cos, sin and exp taken at every
    grid point instead of gathered from per-axis tables, in the same order
    of arithmetic."""
    r = resolution
    h = r // 2
    if d == 2:
        i_th, i_ph = np.divmod(idx, r)
        half = i_th * (math.pi / r) / 2.0
        out = np.empty((idx.size, 2), dtype=np.complex128)
        out[:, 0] = np.cos(half)
        out[:, 1] = np.sin(half) * np.exp(2j * math.pi * i_ph / r)
        return out
    rem = idx.copy()
    phases = []
    for _ in range(d - 1):
        rem, p = np.divmod(rem, r)
        phases.append(p)
    phases.reverse()
    polars = []
    for _ in range(d - 1):
        rem, t = np.divmod(rem, h + 1)
        polars.append(t)
    polars.reverse()
    theta = [t * (math.pi / 2) / h for t in polars]
    out = np.empty((idx.size, d), dtype=np.complex128)
    running = np.ones(idx.size)
    for k in range(d - 1):
        out[:, k] = running * np.cos(theta[k])
        running = running * np.sin(theta[k])
    out[:, d - 1] = running
    for k in range(1, d):
        out[:, k] = out[:, k] * np.exp(2j * math.pi * phases[k - 1] / r)
    return out


@pytest.mark.parametrize(
    "d, resolution, sample",
    [(2, 32, 0), (2, 33, 0), (2, 256, 0), (3, 32, 0), (3, 33, 0), (3, 103, 10**5), (4, 32, 10**5),
     (1, 32, 0), (4, 33, 10**5)],
)
def test_grid_factors_keep_the_per_point_bits(d, resolution, sample):
    # every index of the grid, or a seeded sample of the larger ones
    n = oracle._grid_size(d, resolution)
    idx = np.random.default_rng(59).integers(0, n, sample) if sample else np.arange(n)
    got = oracle._grid_factors(d, resolution, idx)
    ref = _grid_factors_per_point(d, resolution, idx)
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize(
    "d, resolution, sample",
    [(1, 32, 0), (1, 33, 0), (2, 32, 0), (2, 33, 0), (3, 32, 0), (3, 33, 0), (3, 103, 24), (4, 32, 6),
     (4, 33, 6)],
)
def test_table_rows_match_the_outer_products_of_the_factors(d, resolution, sample):
    # every entry has modulus <= 1, and the tables round differently from
    # the coordinates of conj(f) (x) f, so they agree to within 4 ulps of 1;
    # over every polar row, or the first, the last and a seeded sample of them
    mag2, phase2 = oracle._grid_tables(d, resolution)
    n_pol, n_ph = mag2.shape[1], phase2.shape[1]
    assert n_pol * n_ph == oracle._grid_size(d, resolution)
    if sample:
        picked = np.random.default_rng(71).choice(n_pol, sample, replace=False)
        spans = [(lo, lo + 1) for lo in sorted({0, n_pol - 1, *picked.tolist()})]
    else:
        step = max(1, oracle._CHUNK // n_ph)
        spans = [(lo, min(n_pol, lo + step)) for lo in range(0, n_pol, step)]
    for lo, hi in spans:
        got = oracle._grid_rows(mag2, phase2, lo, hi)
        f = oracle._grid_factors(d, resolution, np.arange(lo * n_ph, hi * n_ph))
        ref = oracle._coords(_outer(f).reshape(-1, d, d))
        assert np.all(np.abs(got - ref) <= 4 * np.finfo(float).eps), (lo, hi)


def test_grid_size_matches_the_closed_forms():
    # bench/workloads.grid_points keeps this table as a second copy
    for r in range(32, 111):
        h = r // 2
        closed = {1: 1, 2: (r + 1) * r, 3: (h + 1) ** 2 * r**2, 4: (h + 1) ** 3 * r**3}
        assert {d: oracle._grid_size(d, r) for d in closed} == closed, r


def test_a_huge_resolution_is_refused_before_any_grid_is_built():
    # sizing the grid is arithmetic: at r = 10**7 an array of the polar
    # steps alone would take 80 MB
    tracemalloc.start()
    try:
        with pytest.raises(UnsupportedDims):
            oracle._support_check((2, 2), 10**7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def _hermitian_batch(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    a = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    return (a + a.conj().transpose(0, 2, 1)) / 2


def _top(t: np.ndarray) -> np.ndarray:
    """`oracle._extremal_eigvals` of a (n, d, d) Hermitian batch, fed through
    its real coordinates."""
    return oracle._extremal_eigvals(oracle._coords(t))


def _assert_matches_lapack(t: np.ndarray, tol: float) -> None:
    """Both ends: the top eigenvalue of t, and the bottom one as that of -t."""
    ref = np.linalg.eigvalsh(t)
    norm = np.linalg.norm(t, ord=2, axis=(-2, -1))
    for got, col in ((_top(t), -1), (-_top(-t), 0)):
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
    assert np.array_equal(_top(t), scales)
    assert np.array_equal(-_top(-t), scales)


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


def _plain_top(c: np.ndarray) -> np.ndarray:
    """The closed forms of `oracle._extremal_eigvals` for d = 2 and 3 as
    plain expressions, a new array for every operation, in the order the
    scan's kernels keep."""
    if c.shape[0] == 4:
        alpha, gamma, re, im = c
        return 0.5 * (alpha + gamma) + np.sqrt((0.5 * (alpha - gamma)) ** 2 + re * re + im * im)
    a0, a1, a2, r01, r02, r12, i01, i02, i12 = c
    q = (a0 + a1 + a2) / 3.0
    e0, e1, e2 = a0 - q, a1 - q, a2 - q
    n01, n02, n12 = r01 * r01 + i01 * i01, r02 * r02 + i02 * i02, r12 * r12 + i12 * i12
    p = np.sqrt((e0 * e0 + e1 * e1 + e2 * e2 + 2.0 * (n01 + n02 + n12)) / 6.0)
    s = 1.0 / np.where(p > 0.0, p, 1.0)
    e0, e1, e2 = e0 * s, e1 * s, e2 * s
    xr, xi = r01 * s, i01 * s
    xr, xi = (xr * r12 - xi * i12) * s, (xr * i12 + xi * r12) * s
    det = e0 * e1 * e2 + 2.0 * (xr * r02 + xi * i02) * s
    s = s * s
    det = det - (e0 * n12 + e1 * n02 + e2 * n01) * s
    angle = np.arccos(np.clip(0.5 * det, -1.0, 1.0)) / 3.0
    return q + 2.0 * p * np.cos(angle)


def _pinned_batches(rng: np.random.Generator, d: int) -> list[np.ndarray]:
    """(d*d, n) coordinates of random, scalar and doubly degenerate d x d
    Hermitian batches, and of random ones scaled by powers of two."""
    random = _hermitian_batch(rng, 4096, d)
    scales = np.array([1 / 9, 0.0, -2.5, 1e-300, 1e300, 3.0, -0.0, 2.0**-1074])
    scalar = scales[:, None, None] * np.eye(d, dtype=np.complex128)
    u, _ = np.linalg.qr(rng.normal(size=(256, d, d)) + 1j * rng.normal(size=(256, d, d)))
    spectra = {
        2: ((1.0, 1.0), (0.3, 0.3), (-2.5, -2.5)),
        3: ((1.0, 1.0, -2.0), (2.0, -1.0, -1.0), (0.3, 0.3, 0.0), (0.0, 0.0, 0.4)),
    }[d]
    degenerate = [u @ np.diag(lam).astype(np.complex128) @ u.conj().transpose(0, 2, 1) for lam in spectra]
    scaled = [2.0**k * random[:512] for k in (-1000, -500, -40, 40, 500)]
    return [oracle._coords(t) for t in (random, scalar, *degenerate, *scaled)]


@pytest.mark.parametrize("d", [2, 3])
def test_closed_forms_keep_the_bits_of_the_plain_expressions(d):
    # the kernels write into a few block arrays, yet every value matches
    # the plain expressions bit for bit, on a (d*d, n) batch and on a
    # (d*d, lead, n) one laid out as the scan's GEMM leaves it
    for c in _pinned_batches(np.random.default_rng(47 + d), d):
        top = oracle._extremal_eigvals(c)
        assert np.array_equal(top, _plain_top(c))
        lead = np.stack(np.split(c, 4, axis=1)).transpose(1, 0, 2)
        assert np.array_equal(oracle._extremal_eigvals(lead), _plain_top(lead))
        assert np.array_equal(oracle._extremal_eigvals(lead).ravel(), top)


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
    # only at 32, as a (3,3) scan at 64 takes most of a second
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


def _unpruned_scan(signed: np.ndarray, dims: tuple[int, ...], x: int, resolution: int) -> list[int]:
    """`oracle._scan_grid` for a four-level exact party without the pruning:
    LAPACK on every grid point, in the same blocks of polar rows, whose
    coordinates come from the same operator, tables and GEMM; the first
    best point wins."""
    (g,) = [k for k in range(len(dims)) if k != x]
    a = oracle._coordinate_operator(signed, x)[None]
    mag2, phase2 = oracle._grid_tables(dims[g], resolution)
    rows = max(1, oracle._CHUNK // phase2.shape[1])
    best_val, best = -np.inf, -1
    for lo in range(0, mag2.shape[1], rows):
        q = oracle._grid_rows(mag2, phase2, lo, lo + rows)
        lam = np.linalg.eigvalsh(oracle._hermitian((a @ q)[0]))[:, -1]
        j = int(np.argmax(lam))
        if lam[j] > best_val:
            best_val, best = lam[j], lo * phase2.shape[1] + j
    return [best]


_KINDS = ("full", "rank-2", "rank-1", "hermitian")


def _random_input(rng: np.random.Generator, dims: tuple[int, ...], kind: str) -> np.ndarray:
    """A random density matrix of the given rank, or a general Hermitian one,
    as a (d1..dn, d1..dn) tensor."""
    if kind == "hermitian":
        return _random_hermitian(rng, dims).mat.reshape(dims + dims)
    d = math.prod(dims)
    rank = {"full": d, "rank-2": 2, "rank-1": 1}[kind]
    v = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = v @ v.conj().T
    return (rho / np.trace(rho).real).reshape(dims + dims)


@pytest.mark.parametrize(
    "dims, resolution, chunks, kinds",
    [
        ((2, 4), 32, (1 << 16, 100, 7, 1), _KINDS),
        ((2, 4), 33, (1 << 16, 100, 7), _KINDS),
        ((4, 2), 33, (1 << 16, 100, 7), _KINDS),
        ((2, 4), 64, (1 << 16, 100), _KINDS),
        ((4, 2), 64, (1 << 16, 100), _KINDS),
        ((1, 4), 32, (1 << 16, 7, 1), _KINDS),
        # the qutrit grid has 295,936 points at 32 and takes about 1 s
        # unpruned, so it runs in whole blocks on one kind
        ((3, 4), 32, (1 << 16,), ("hermitian",)),
        ((2, 4), 256, (1 << 16, 1 << 14), ("full", "hermitian")),
        ((4, 1), 32, (1 << 16, 7, 1), _KINDS),
    ],
)
def test_pruned_scan_matches_the_unpruned_scan(monkeypatch, dims, resolution, chunks, kinds):
    # chunk 100 carries the best value across many blocks of a few polar
    # rows, ragged at the end at resolution 33; chunks 7 and 1 give one
    # polar row a block, of at most 32 points, and the one-point d = 1 grid,
    # before or after the four-level party, is a block of one anchor
    rng = np.random.default_rng(math.prod(dims) * 1000 + resolution)
    x = oracle._support_check(dims, oracle.MIN_RESOLUTION)
    for kind in kinds:
        mt = _random_input(rng, dims, kind)
        for signed in (mt, -mt):
            for chunk in chunks:
                monkeypatch.setattr(oracle, "_CHUNK", chunk)
                winner = oracle._scan_grid(signed, dims, x, resolution)
                assert winner == _unpruned_scan(signed, dims, x, resolution), (kind, chunk)


def test_pruned_scan_on_tied_grid_points(monkeypatch):
    # every grid point ties, or whole families of them do, up to rounding;
    # a point that ties with the best is never skipped, so the first best
    # index is still the unpruned scan's. The rounding margin is what keeps
    # these: without it, the rank-1 cases lose their index.
    rng = np.random.default_rng(47)
    rho_a = _random_input(rng, (2,), "full").reshape(2, 2)
    rho_b = _random_input(rng, (4,), "full").reshape(4, 4)
    psi = _random_input(rng, (4,), "rank-1").reshape(4, 4)
    zero_ket, one_ket = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    for m in (
        np.eye(8) / 8, np.kron(rho_a, np.eye(4) / 4), np.kron(zero_ket, rho_b), np.zeros((8, 8)),
        np.kron(np.eye(2) / 2, psi), np.kron(one_ket, psi),
    ):
        mt = m.astype(complex).reshape(2, 4, 2, 4)
        for signed, resolution, chunk in itertools.product((mt, -mt), (32, 33), (1 << 16, 100, 7)):
            monkeypatch.setattr(oracle, "_CHUNK", chunk)
            winner = oracle._scan_grid(signed, (2, 4), 1, resolution)
            assert winner == _unpruned_scan(signed, (2, 4), 1, resolution)


def _near_ties(rng: np.random.Generator, n: int) -> np.ndarray:
    """(16, n) coordinates: n random 4x4 Hermitian rows and, at row 64,
    the best one, which rows before and after it tie with or miss by a
    few ulps of its top eigenvalue."""
    h = _hermitian_batch(rng, n, 4) * 0.5
    best = h[64] + 4 * np.eye(4)
    eye = np.eye(4) * np.spacing(np.linalg.eigvalsh(best)[-1])
    for i, k in zip((3, 30, 33, 63, 65, 66, 96, 131), (0, -1, -2, 0, 1, -1, 0, -4)):
        h[i] = best + k * eye
    h[64] = best
    h[97] = best * (1 - 2.0**-52)
    return oracle._coords(h)


def _near_scalar(rng: np.random.Generator, n: int) -> np.ndarray:
    """(16, n) coordinates: the anchors are v*I and the other rows v*I
    moved by a few ulps of v, many of them provably below v, yet with a
    LAPACK value of v or more: what the pad on LAPACK's rounding is for."""
    v = 0.5606394622302311
    ulp = np.spacing(v)
    c = np.zeros((16, n))
    c[:4] = v + rng.integers(-8, 1, (4, n)) * ulp
    c[4:] = rng.integers(-3, 4, (12, n)) * ulp * rng.uniform(0, 1, (12, n))
    c[:4, :: oracle._ANCHOR_STRIDE] = v
    c[4:, :: oracle._ANCHOR_STRIDE] = 0.0
    return c


@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
@pytest.mark.parametrize("rows", [_near_ties, _near_scalar])
def test_pruning_skips_only_points_below_the_bar(scale, rows):
    # the bar is the best anchor's value, or a floor at or near it; no row
    # at or above it is skipped, and solved rows keep LAPACK's bits
    n = 4 * oracle._ANCHOR_STRIDE + 5
    c = rows(np.random.default_rng(73), n) * scale
    full = np.linalg.eigvalsh(oracle._hermitian(c))[:, -1]
    top = full[:: oracle._ANCHOR_STRIDE].max()
    if rows is _near_scalar:
        at_or_above = full >= top
        at_or_above[:: oracle._ANCHOR_STRIDE] = False
        assert np.any(at_or_above & oracle._below(c, top))
    near = (np.nextafter(top, -np.inf), np.nextafter(top, np.inf))
    for floor in (-np.inf, top, *near, 2 * abs(top)):
        lam = oracle._pruned_top_eigvals(c, floor)
        solved = lam > -np.inf
        assert np.array_equal(lam[solved], full[solved])
        assert np.all(full[~solved] < max(floor, top))
        if rows is _near_ties:
            assert solved.sum() < n // 2  # the random rows are skipped
            if floor <= top:
                assert int(np.argmax(lam)) == int(np.argmax(full))


def _exactly_positive_definite(a: list[list[tuple[Fraction, Fraction]]]) -> bool:
    """Positive definiteness of a Hermitian matrix of (re, im) Fraction
    entries, by LDL^T of its real symmetric embedding [[Re, -Im], [Im, Re]]."""
    d = len(a)
    m = [[Fraction(0)] * (2 * d) for _ in range(2 * d)]
    for i, j in itertools.product(range(d), repeat=2):
        re, im = a[i][j]
        m[i][j] = m[d + i][d + j] = re
        m[d + i][j], m[i][d + j] = im, -im
    for j in range(2 * d):
        if m[j][j] <= 0:
            return False
        for i in range(j + 1, 2 * d):
            f = m[i][j] / m[j][j]
            for k in range(j + 1, 2 * d):
                m[i][k] -= f * m[j][k]
    return True


def _shifted_exactly(c: np.ndarray, mu: float) -> list[list[tuple[Fraction, Fraction]]]:
    """mu*I - H in exact arithmetic, H the Hermitian matrix of the
    coordinates c (`oracle._hermitian`)."""
    h = oracle._hermitian(c[:, None])[0]
    d = h.shape[0]
    shift = [[Fraction(mu) if i == j else 0 for j in range(d)] for i in range(d)]
    return [
        [(shift[i][j] - Fraction(h[i, j].real), -Fraction(h[i, j].imag)) for j in range(d)]
        for i in range(d)
    ]


def _dyadic_cases(rng: np.random.Generator) -> list[tuple[np.ndarray, float]]:
    """(coordinates, exact top eigenvalue or nan) of small Hermitian matrices
    with dyadic entries: random ones of size 2, 3 and 4, degenerate and
    scalar ones, and zero."""
    cases = []
    for d in (2, 3, 4):
        for _ in range(6):
            c = rng.integers(-(2**20), 2**20, d * d) / 2.0**18
            cases.append((c, math.nan))
    # q diag(lam) q^H with q the Hadamard matrix over 2 times phases 1, i, -1, -i:
    # dyadic entries and a known spectrum
    had = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2.0
    q = np.diag([1, 1j, -1, -1j]) @ had
    spectra = ((1.0, 1.0, 1.0, -3.0), (0.75, 0.75, 0.25, 0.0), (-0.5, 2.0, 2.0, 2.0), (3.0, -1.0, 0.5, 0.125))
    for lam in spectra:
        cases.append((oracle._coords((q * lam) @ q.conj().T), max(lam)))
    for v in (0.0, 0.375, -2.5):
        cases.append((oracle._coords(v * np.eye(4, dtype=complex)), v))
    return cases


@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
def test_below_is_confirmed_in_exact_arithmetic(scale):
    # whenever `_below` says lambda_max(H) < mu, an exact LDL^T of mu*I - H
    # confirms it; mu runs over a few ulps on either side of lambda_max,
    # where a test without its shift would say "below" wrongly
    rng = np.random.default_rng(79)
    for c, top in _dyadic_cases(rng):
        c = c * scale
        if math.isnan(top):
            top = np.linalg.eigvalsh(oracle._hermitian(c[:, None]))[0, -1]
        else:
            top *= scale
        mus = [top + k * np.spacing(top) for k in range(-4, 5)]
        mus.append(top + 1e-6 * max(abs(top), np.abs(c).max(), scale))
        below = [bool(oracle._below(c[:, None], mu)[0]) for mu in mus]
        assert below[-1], (c, top)  # clear of lambda_max, it is proven
        for mu, said in zip(mus, below):
            if said:
                assert _exactly_positive_definite(_shifted_exactly(c, mu)), (c, mu)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), exponent=st.floats(-9.0, 3.0), kind=st.sampled_from(_KINDS))
def test_pruned_scan_winner_is_scale_free(seed, exponent, kind):
    # the bound and its margins scale with the operator, so no input scale
    # prunes a point that the unpruned scan would pick
    mt = 10.0**exponent * _random_input(np.random.default_rng(seed), (2, 4), kind)
    for signed in (mt, -mt):
        assert oracle._scan_grid(signed, (2, 4), 1, 32) == _unpruned_scan(signed, (2, 4), 1, 32)


def test_pruned_scan_sends_few_grid_points_to_lapack(monkeypatch):
    rows = []
    solve = np.linalg.eigvalsh

    def record(t):
        rows.append(t.shape[0])
        return solve(t)

    monkeypatch.setattr(np.linalg, "eigvalsh", record)
    mt = _random_input(np.random.default_rng(53), (2, 4), "full")
    points = oracle._grid_size(2, 256)
    for signed in (mt, -mt):
        rows.clear()
        oracle._scan_grid(signed, (2, 4), 1, 256)
        assert sum(rows) <= 0.08 * points


def _grid_max(signed: np.ndarray, dims: tuple[int, ...], resolution: int) -> float:
    """The scan's grid maximum: the top eigenvalue of `signed` contracted
    with the winning grid factors, before any polish."""
    x = oracle._support_check(dims, resolution)
    winner = oracle._scan_grid(signed, dims, x, resolution)
    d = math.prod(dims)
    return _point_eigvals(signed.reshape(d, d), dims, x, resolution, winner)[-1]


def _local(dims: tuple[int, ...], k: int, u: np.ndarray) -> np.ndarray:
    """u on party k, the identity on the others."""
    return reduce(np.kron, [u if j == k else np.eye(d) for j, d in enumerate(dims)])


_METAMORPHIC_CASES = [((2, 2), 33), ((2, 2), 64), ((2, 3), 64), ((3, 3), 32), ((2, 2, 2), 32)]


@settings(max_examples=16, deadline=None, derandomize=True, database=None)
@given(
    case=st.sampled_from(_METAMORPHIC_CASES),
    kind=st.sampled_from(_KINDS),
    sign=st.sampled_from([1, -1]),
    seed=st.integers(0, 2**32 - 1),
)
def test_grid_maximum_ignores_a_unitary_on_the_exact_party(case, kind, sign, seed):
    # the exact party's solve is a top eigenvalue, which no unitary moves
    dims, resolution = case
    rng = np.random.default_rng(seed)
    mt = sign * _random_input(rng, dims, kind)
    x = oracle._support_check(dims, resolution)
    g = rng.normal(size=(dims[x], dims[x])) + 1j * rng.normal(size=(dims[x], dims[x]))
    u = _local(dims, x, np.linalg.qr(g)[0])
    d = math.prod(dims)
    rotated = (u @ mt.reshape(d, d) @ u.conj().T).reshape(mt.shape)
    norm = np.linalg.norm(mt.reshape(d, d), 2)
    assert abs(_grid_max(rotated, dims, resolution) - _grid_max(mt, dims, resolution)) <= 1e-12 * norm


@settings(max_examples=16, deadline=None, derandomize=True, database=None)
@given(
    case=st.sampled_from(_METAMORPHIC_CASES),
    kind=st.sampled_from(_KINDS),
    sign=st.sampled_from([1, -1]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_grid_maximum_ignores_a_phase_step_on_a_gridded_party(case, kind, sign, seed, data):
    # diag(1, e^{2 pi i k_1/r}, ...) maps every grid factor to another one,
    # so it only permutes the grid
    dims, resolution = case
    mt = sign * _random_input(np.random.default_rng(seed), dims, kind)
    x = oracle._support_check(dims, resolution)
    g = data.draw(st.sampled_from([k for k in range(len(dims)) if k != x]))
    steps = data.draw(st.lists(st.integers(0, resolution - 1), min_size=dims[g] - 1, max_size=dims[g] - 1))
    phases = np.exp(2j * math.pi * np.array([0, *steps]) / resolution)
    u = _local(dims, g, np.diag(phases))
    d = math.prod(dims)
    rotated = (u.conj().T @ mt.reshape(d, d) @ u).reshape(mt.shape)
    norm = np.linalg.norm(mt.reshape(d, d), 2)
    assert abs(_grid_max(rotated, dims, resolution) - _grid_max(mt, dims, resolution)) <= 1e-12 * norm
