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
from witness_forge.extend import identity_extend
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


def _split(dims: tuple[int, ...], x: int, resolution: int) -> tuple[int, int]:
    """The blocks `oracle._scan_grid` runs at the current `_CHUNK`: the
    cells per block, capped at the number there are, and the points per
    cell. A cell is a lead point's whole last grid with three qubits, and
    a polar row of the gridded party with two."""
    *lead, last = [k for k in range(len(dims)) if k != x]
    mag2, phase2 = oracle._grid_tables(dims[last], resolution)
    if lead:
        cells, points = oracle._grid_size(dims[lead[0]], resolution), mag2.shape[1] * phase2.shape[1]
    else:
        cells, points = mag2.shape[1], phase2.shape[1]
    return min(max(1, oracle._CHUNK // points), cells), points


# one block; blocks of a few polar rows, ragged at the end, or of two lead
# cells at (2,2,2)@6; one polar row or lead cell a block. The scan drops a
# d = 1 party, so (1, 3) runs through `grid_product_extremum`, at its floor
@pytest.mark.parametrize(
    "dims, resolution, chunks",
    [
        ((2, 2), 8, (1 << 16, 24, 7)), ((2, 3), 7, (1 << 16, 21, 7)), ((3, 2), 6, (1 << 16, 18, 7)),
        ((3, 3), 7, (1 << 16, 100, 7)), ((2, 4), 8, (1 << 16, 24, 7)), ((2, 2, 2), 6, (1 << 16, 100, 7)),
        ((1, 3), 8, (1 << 16,)), ((4, 2), 8, (1 << 16, 24, 7)), ((3, 4), 7, (1 << 16, 100, 7)),
    ],
)
def test_scan_winner_reaches_the_point_by_point_extremum(monkeypatch, dims, resolution, chunks):
    # values, not indices: some grid points give the same ray (theta = pi
    # on a qubit at every phase), so the first best index is not unique
    m = _random_hermitian(np.random.default_rng(math.prod(dims) + resolution), dims)
    if 1 in dims:  # no grid is left: the extremum is the exact party's eigenvalue
        top = np.linalg.eigvalsh(m.mat)
        for mode, best in (("max", top[-1]), ("min", top[0])):
            assert abs(grid_product_extremum(m, mode, oracle.MIN_RESOLUTION) - best) <= 1e-12
        return
    x = oracle._support_check(dims, oracle.MIN_RESOLUTION)
    mt = m.mat.reshape(dims + dims)
    splits = set()
    for mode, signed in (("max", mt), ("min", -mt)):  # a min is the max of -m
        values = _point_by_point(m, x, mode, resolution)
        best = max(values.values()) if mode == "max" else min(values.values())
        for chunk in chunks:
            monkeypatch.setattr(oracle, "_CHUNK", chunk)
            splits.add(_split(dims, x, resolution))
            winner = oracle._scan_grid(signed, dims, x, resolution)
            assert abs(values[tuple(winner)] - best) <= 1e-12
    assert len(splits) == len(chunks)  # no two chunks run the same blocks


@pytest.mark.parametrize("dims", [(3, 3), (2, 2, 2)])
def test_scan_batches_stay_within_one_block(monkeypatch, dims):
    # every grid point is either evaluated, in a block of at most _CHUNK
    # points, or lies in a cell proven below the best value (a lead
    # point's last grid with three qubits, a polar row with two parties)
    # or in a phase box of a polar row so proven, whose points are
    # skipped. Three qubits also run at _CHUNK = 100, below the last
    # qubit's grid, which stays one block: a block is then one cell
    sizes, pruned = [], []
    solve, prove = oracle._extremal_eigvals, oracle._cells_below
    *_, last = [k for k in range(len(dims)) if k != oracle._support_check(dims, 32)]
    box_points = np.bincount(oracle._phase_boxes(dims[last], 32)[2])

    def record(c):  # (d*d, ...) coordinates
        sizes.append(math.prod(c.shape[1:]))
        return solve(c)

    def record_pruned(cells, term, best, a, dx):
        proven = prove(cells, term, best, a, dx)
        # a (rows, boxes) result is a block's boxes, a flat one cells
        pruned.append(int((proven * box_points).sum()) if proven.ndim == 2 else int(proven.sum()) * points)
        return proven

    monkeypatch.setattr(oracle, "_extremal_eigvals", record)
    monkeypatch.setattr(oracle, "_cells_below", record_pruned)
    m = _random_hermitian(np.random.default_rng(31), dims)
    x = oracle._support_check(dims, 32)
    grid = math.prod(oracle._grid_size(d, 32) for k, d in enumerate(dims) if k != x)
    for chunk in (oracle._CHUNK, 100) if len(dims) == 3 else (oracle._CHUNK,):
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        sizes.clear()
        pruned.clear()
        step, points = _split(dims, x, 32)
        grid_product_extremum(m, "max", 32)
        assert max(sizes) <= step * points <= max(chunk, points)
        assert sum(sizes) + sum(pruned) == grid
        assert sum(pruned) > 0


@pytest.mark.parametrize("dims, x", [((2, 2, 2), 2), ((2, 4), 1), ((3, 3), 1), ((1, 4), 1)])
def test_each_gridded_party_is_tabled_once_per_scan(monkeypatch, dims, x):
    # chunk 100 makes many blocks, yet each gridded party's two tables are
    # built once, and no block gathers per-point factors. The scan drops a
    # d = 1 party, so (1, 4) runs through `grid_product_extremum` and
    # tables nothing
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
    m = _random_hermitian(np.random.default_rng(61), dims)
    if 1 in dims:
        grid_product_extremum(m, "max", 32)
    else:
        oracle._scan_grid(m.mat.reshape(dims + dims), dims, x, 32)
    assert calls == [d for k, d in enumerate(dims) if k != x and d > 1]


@pytest.mark.parametrize(
    "dims, resolution", [((3, 3), 32), ((2, 3), 256), ((2, 4), 256), ((2, 2, 2), 73)]
)
def test_scan_peak_memory_stays_small(dims, resolution):
    # the blocks' working set, not the grid, sets the peak. Per block
    # point: the gridded party's coordinate rows (4 or 9 float64), the
    # exact party's coordinates (9 or 16), the kernels' scratch (12 for
    # the qutrit cubic, 15 for the LDL^H test) and the result, plus the
    # block before's rows and result while the next is built. These
    # three scans peak at 34, 27 and 38 float64 a point. Three qubits at
    # their largest grid also hold the lead party's contracted operator
    # and its cells' coordinates, 32 float64 for each of 5,402 lead points;
    # that scan peaks at about 2.3 MB.
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
     (4, 33, 10**5)],
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
    [(2, 32, 0), (2, 33, 0), (3, 32, 0), (3, 33, 0), (3, 103, 24), (4, 32, 6), (4, 33, 6)],
)
def test_table_rows_match_the_outer_products_of_the_factors(d, resolution, sample):
    # every entry has modulus <= 1, and the tables round differently from
    # the coordinates of conj(f) (x) f, so they agree to within 4 ulps of 1;
    # over every polar row in blocks of them, or the first, the last and a
    # seeded sample of them gathered as one index array, as a scan's
    # unskipped rows are
    mag2, phase2 = oracle._grid_tables(d, resolution)
    n_pol, n_ph = mag2.shape[1], phase2.shape[1]
    assert n_pol * n_ph == oracle._grid_size(d, resolution)
    if sample:
        picked = np.random.default_rng(71).choice(n_pol, sample, replace=False)
        blocks = [np.array(sorted({0, n_pol - 1, *picked.tolist()}))]
    else:
        step = max(1, oracle._CHUNK // n_ph)
        blocks = [np.arange(lo, min(n_pol, lo + step)) for lo in range(0, n_pol, step)]
    for rows in blocks:
        got = oracle._grid_rows(mag2, phase2, rows if sample else slice(rows[0], rows[-1] + 1))
        f = oracle._grid_factors(d, resolution, (rows[:, None] * n_ph + np.arange(n_ph)).ravel())
        ref = oracle._coords(_outer(f).reshape(-1, d, d))
        assert np.all(np.abs(got - ref) <= 4 * np.finfo(float).eps), rows


def test_triangle_pairs_are_built_once_per_size(monkeypatch):
    # one read-only (k, l) pair per d, so no block of a scan rebuilds one
    for d in (1, 2, 3, 4):
        k, l = oracle._triu(d)
        assert oracle._triu(d)[0] is k
        assert all(map(np.array_equal, (k, l), np.triu_indices(d, 1)))
        assert not (k.flags.writeable or l.flags.writeable)

    def refuse(*args):
        raise AssertionError("np.triu_indices called in a scan")

    monkeypatch.setattr(np, "triu_indices", refuse)
    for dims, x in (((2, 2, 2), 2), ((2, 4), 1), ((3, 3), 1)):
        mt = _random_hermitian(np.random.default_rng(107), dims).mat.reshape(dims + dims)
        oracle._scan_grid(mt, dims, x, 32)


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


@pytest.mark.parametrize(
    "dims, lapack", [((2, 3), False), ((3, 3), False), ((2, 4), True), ((2, 2, 2), False)]
)
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
    """`oracle._scan_grid` for a four-level exact party without the pruning
    or the row cells: LAPACK on every grid point, in row-major blocks of
    as many polar rows as the scan's, whose coordinates come from the same
    operator, tables and GEMM; the first best point wins."""
    (g,) = [k for k in range(len(dims)) if k != x]
    a = oracle._coordinate_operator(signed, x)[None]
    mag2, phase2 = oracle._grid_tables(dims[g], resolution)
    rows = max(1, oracle._CHUNK // phase2.shape[1])
    best_val, best = -np.inf, -1
    for lo in range(0, mag2.shape[1], rows):
        q = oracle._grid_rows(mag2, phase2, slice(lo, lo + rows))
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
        ((2, 4), 32, (1 << 16, 100, 7), _KINDS),
        ((2, 4), 33, (1 << 16, 100, 7), _KINDS),
        ((4, 2), 33, (1 << 16, 100, 7), _KINDS),
        ((2, 4), 64, (1 << 16, 100), _KINDS),
        ((4, 2), 64, (1 << 16, 100), _KINDS),
        ((1, 4), 32, (1 << 16,), _KINDS),
        # the qutrit grid has 295,936 points at 32 and takes about 1 s
        # unpruned, so it runs in whole blocks on one kind
        ((3, 4), 32, (1 << 16,), ("hermitian",)),
        ((2, 4), 256, (1 << 16, 1 << 14), ("full", "hermitian")),
        ((4, 1), 32, (1 << 16,), _KINDS),
    ],
)
def test_pruned_scan_matches_the_unpruned_scan(monkeypatch, dims, resolution, chunks, kinds):
    # chunk 100 carries the best value across many blocks of a few polar
    # rows, ragged at the end at resolution 33; chunk 7 (100 at 64) gives
    # one polar row a block, of at most 32 points. The scan drops a d = 1
    # party, before or after the four-level one, so those run through
    # `grid_product_extremum`, which reaches the exact party's eigenvalue
    rng = np.random.default_rng(math.prod(dims) * 1000 + resolution)
    if 1 in dims:
        for kind in kinds:
            m = _random_input(rng, dims, kind).reshape(4, 4)
            top = np.linalg.eigvalsh(m)
            for mode, best in (("max", top[-1]), ("min", top[0])):
                value = grid_product_extremum(ComplexMatrix(dims, m), mode, resolution)
                assert abs(value - best) <= 1e-14 * np.abs(top).max(), kind
        return
    x = oracle._support_check(dims, oracle.MIN_RESOLUTION)
    splits = set()
    for kind in kinds:
        mt = _random_input(rng, dims, kind)
        for signed in (mt, -mt):
            for chunk in chunks:
                monkeypatch.setattr(oracle, "_CHUNK", chunk)
                splits.add(_split(dims, x, resolution))
                winner = oracle._scan_grid(signed, dims, x, resolution)
                assert winner == _unpruned_scan(signed, dims, x, resolution), (kind, chunk)
    assert len(splits) == len(chunks)  # no two chunks run the same blocks


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
    # at or above it is skipped, and solved rows keep LAPACK's bits. The
    # pad is the scan's, with a = max|c|
    n = 4 * oracle._ANCHOR_STRIDE + 5
    c = rows(np.random.default_rng(73), n) * scale
    a = float(np.abs(c).max())
    full = np.linalg.eigvalsh(oracle._hermitian(c))[:, -1]
    top = full[:: oracle._ANCHOR_STRIDE].max()
    if rows is _near_scalar:
        at_or_above = full >= top
        at_or_above[:: oracle._ANCHOR_STRIDE] = False
        assert np.any(at_or_above & oracle._below(c, top))
    near = (np.nextafter(top, -np.inf), np.nextafter(top, np.inf))
    for floor in (-np.inf, top, *near, 2 * abs(top)):
        lam = oracle._pruned_top_eigvals(c, floor, a)
        solved = lam > -np.inf
        assert np.array_equal(lam[solved], full[solved])
        assert np.all(full[~solved] < max(floor, top))
        if rows is _near_ties:
            assert solved.sum() < n // 2  # the random rows are skipped
            if floor <= top:
                assert int(np.argmax(lam)) == int(np.argmax(full))


def test_every_skip_of_a_two_four_scan_reads_the_scans_a(monkeypatch):
    # The point level's share of the pad (LAPACK's 544u*a) cannot be told
    # apart by values: `_below`'s own 64u*T shift is larger than LAPACK's
    # error on every input tried, |bar| << a included. So every
    # `_cells_below` call of a (2,4) scan, the point level's among them,
    # must receive the scan's a, the largest entry of the scaled operator
    # in coordinates.
    m = _random_hermitian(np.random.default_rng(11), (2, 4))
    mt = m.mat.reshape(2, 4, 2, 4)
    _, e = math.frexp(float(np.abs(mt.view(np.float64)).max()))
    scaled = np.ldexp(mt.view(np.float64), -e).view(np.complex128)
    want = float(np.abs(oracle._coordinate_operator(scaled, 1)).max())
    seen = []
    real = oracle._cells_below

    def spy(cells, term, best, a, dx):
        seen.append((np.isscalar(term), a))  # the point level's term is 0.0
        return real(cells, term, best, a, dx)

    monkeypatch.setattr(oracle, "_cells_below", spy)
    for s in (1, -1):
        oracle._scan_grid(s * mt, (2, 4), 1, 64)
    assert any(point for point, _ in seen)
    assert {a for _, a in seen} == {want}


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
    batches = {}
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
        batches.setdefault(c.size, []).extend((c, mu, said) for mu, said in zip(mus, below))
    # one call per size, every case's columns each with its own mu: the
    # answers of the calls with one mu, each proven column confirmed by an
    # exact LDL^T at its own mu
    for batch in batches.values():
        cs, mus, said = zip(*batch)
        per_column = oracle._below(np.stack(cs, axis=1), np.array(mus))
        assert per_column.tolist() == list(said)
        for c, mu, proven in zip(cs, mus, per_column):
            assert not proven or _exactly_positive_definite(_shifted_exactly(c, mu)), (c, mu)


@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
def test_nothing_is_proven_below_minus_infinity(scale):
    # before a scan has a best value, the pad is inf and mu is -inf, so a
    # window's cells, a block's boxes and its points all go on to the solve,
    # and no floating-point warning is raised on the way
    rng = np.random.default_rng(151)
    for dx in (2, 3, 4):
        cells = oracle._coords(_hermitian_batch(rng, 64, dx)) * scale
        term = np.abs(rng.normal(size=64)) * scale
        a = float(np.abs(cells).max())
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            for c, t in ((cells, term), (cells.reshape(-1, 8, 8), term.reshape(8, 8)), (cells, 0.0)):
                assert not oracle._cells_below(c, t, -np.inf, a, dx).any(), (dx, np.ndim(t))


def test_trivial_parties_are_dropped_before_the_scan(monkeypatch):
    # a party of dimension 1 has the one factor (1), so the scan drops it:
    # (2,1,2) and the like scan as (2,2), and the winner gets (1) back. A
    # witness extended by a trivial party is checked, not refused
    scanned = []
    scan = oracle._scan_grid

    def record(mt, dims, x, resolution):
        scanned.append(dims)
        return scan(mt, dims, x, resolution)

    monkeypatch.setattr(oracle, "_scan_grid", record)
    rho = _random_input(np.random.default_rng(157), (2, 2), "full").reshape(4, 4)
    for mode in ("max", "min"):
        value = grid_product_extremum(ComplexMatrix((2, 2), rho), mode, 64)
        for dims in ((2, 1, 2), (1, 2, 2), (2, 2, 1), (1, 2, 1, 2, 1)):
            scanned.clear()
            assert abs(grid_product_extremum(ComplexMatrix(dims, rho), mode, 64) - value) <= 1e-14, dims
            assert scanned == [(2, 2)], dims
    assert grid_product_extremum(ComplexMatrix((1, 1), np.array([[0.5 + 0j]])), "max", 32) == 0.5
    w = make_witness(WitnessForm.C_MINUS_SIGMA, isotropic(0.2), 0.3)
    rep = exhaustive_witness_check(w, 64)
    for tail in ([1], [1, 1]):
        ext = exhaustive_witness_check(identity_extend(w, tail), 64)
        assert ext.is_witness and abs(ext.min_product_expectation - rep.min_product_expectation) <= 1e-14
        assert [f.vec.tolist() for f in ext.certificate_state.factors[2:]] == [[1.0]] * len(tail)


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


def _fixed_order_scan(mt: np.ndarray, dims: tuple[int, ...], x: int, resolution: int) -> list[int]:
    """`oracle._scan_grid` without lead cells: every point of every lead
    point, the last party's blocks in fixed row-major order, each visited
    lead block by lead block in index order; the first best point wins.
    As in the scan, a lead party's last grid is one block, so the order is
    lead-major. The lead blocks hold up to 1 << 16 points whatever
    `_CHUNK` is: a point's value does not depend on its block, nor the
    first best point on where lead blocks split."""
    gridded = [k for k in range(len(dims)) if k != x]
    _, e = math.frexp(float(np.abs(mt.view(np.float64)).max()))
    mt = np.ldexp(mt.view(np.float64), -e).view(np.complex128)
    *lead, last = gridded
    dx = dims[x]
    n_last = dims[last] ** 2
    op = oracle._coordinate_operator(mt, x).reshape(dx * dx, -1, n_last).transpose(1, 0, 2)
    if lead:
        lead_rows = oracle._grid_rows(*oracle._grid_tables(dims[lead[0]], resolution), slice(None))
        op = (lead_rows.T @ op.reshape(lead_rows.shape[0], -1)).reshape(-1, dx * dx, n_last)
    mag2, phase2 = oracle._grid_tables(dims[last], resolution)
    n_ph = phase2.shape[1]
    rows = mag2.shape[1] if lead else max(1, oracle._CHUNK // n_ph)
    lead_step = max(1, (1 << 16) // (min(rows, mag2.shape[1]) * n_ph))
    best_val = -np.inf
    best_lead = best_last = -1
    for lo in range(0, mag2.shape[1], rows):
        q = oracle._grid_rows(mag2, phase2, slice(lo, lo + rows))
        for lead_start in range(0, op.shape[0], lead_step):
            c = (op[lead_start : lead_start + lead_step] @ q).transpose(1, 0, 2)
            lam = oracle._extremal_eigvals(c).ravel()
            j = int(np.argmax(lam))
            if lam[j] > best_val:
                best_val = lam[j]
                i_lead, i_last = divmod(j, q.shape[1])
                best_lead, best_last = lead_start + i_lead, lo * n_ph + i_last
    return ([best_lead] if lead else []) + [best_last]


def _three_qubit_ties() -> list[np.ndarray]:
    """Three-qubit inputs whose grid values tie, or whole families of them
    do, up to rounding: I/8, the GHZ projector, |0><0| (x) rho and I/2 (x)
    rho for a random two-qubit rho, and zero."""
    rho = _random_input(np.random.default_rng(89), (2, 2), "full").reshape(4, 4)
    ghz = np.zeros(8)
    ghz[[0, 7]] = math.sqrt(0.5)
    inputs = (
        np.eye(8) / 8, np.outer(ghz, ghz), np.kron(np.diag([1.0, 0.0]), rho),
        np.kron(np.eye(2) / 2, rho), np.zeros((8, 8)),
    )
    return [m.astype(complex).reshape((2,) * 6) for m in inputs]


_THREE_QUBITS = (2, 2, 2)


@pytest.mark.parametrize("resolution", [32, 33])
@pytest.mark.parametrize("kind", [*_KINDS, "ties"])
def test_lead_cells_keep_the_fixed_order_winner(monkeypatch, kind, resolution):
    # the cells are visited best bound first and some are skipped, yet the
    # winner is the fixed-order scan's, ties included. The last qubit's
    # grid is one block at every _CHUNK, which sets the lead blocks: 62
    # cells of it at 1 << 16 and resolution 32 (58 at 33), three at
    # 3 * 1,122 at both, one at 100. Nothing is skipped on most tie
    # inputs, so they run at the first and last only
    if kind == "ties":
        inputs, chunks = _three_qubit_ties(), (1 << 16, 100)
    else:
        mt = _random_input(np.random.default_rng(97 + resolution), _THREE_QUBITS, kind)
        inputs, chunks = [mt], (1 << 16, 3 * 1_122, 100)
    splits = set()
    for mt in inputs:
        for signed in (mt, -mt):
            for chunk in chunks:
                monkeypatch.setattr(oracle, "_CHUNK", chunk)
                splits.add(_split(_THREE_QUBITS, 2, resolution))
                winner = oracle._scan_grid(signed, _THREE_QUBITS, 2, resolution)
                assert winner == _fixed_order_scan(signed, _THREE_QUBITS, 2, resolution), chunk
    assert len(splits) == len(chunks)  # no two chunks run the same blocks


def test_lead_cells_read_the_hermitian_part_of_their_input():
    # K_g reads one triangle of each block and the lead rows read both, so
    # the scan first averages the operator with its conjugate transpose.
    # Tie inputs moved off Hermitian by 1e-11 in their lower triangle,
    # within the reader's tolerance, keep the fixed-order winner of that
    # average. Without it, skipped cells held values above the incumbent:
    # four of these sixteen winners were not the fixed-order scan's
    for seed in range(2):
        rng = np.random.default_rng(163 + seed)
        for tie in _three_qubit_ties()[:4]:
            low = np.tril(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)), -1) * 1e-11
            mt = tie + low.reshape((2,) * 6)
            for signed in (mt, -mt):
                average = (signed + signed.conj().transpose(3, 4, 5, 0, 1, 2)) / 2
                winner = oracle._scan_grid(signed, _THREE_QUBITS, 2, 32)
                assert winner == _fixed_order_scan(average, _THREE_QUBITS, 2, 32), seed


def _lead_cells(mt: np.ndarray, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """A three-qubit scan's lead rows `op`, (lead points, 4, 4), and the
    (16, lead points) coordinates of their two-qubit operators K_g, built
    as `oracle._scan_grid` builds them from an exactly Hermitian `mt`."""
    lead_rows = oracle._grid_rows(*oracle._grid_tables(2, resolution), slice(None))
    op = oracle._coordinate_operator(mt, 2).reshape(4, -1, 4).transpose(1, 0, 2)
    op = (lead_rows.T @ op.reshape(4, -1)).reshape(-1, 4, 4)
    return op, oracle._coordinate_operator(mt.reshape(2, 4, 2, 4), 1) @ lead_rows


def test_lead_cell_operator_contracts_to_the_lead_row():
    # K_g contracted with any last-qubit factor f gives op[g] @ rows(f)
    rng = np.random.default_rng(101)
    op, cells = _lead_cells(_random_input(rng, _THREE_QUBITS, "hermitian"), 32)
    k = oracle._hermitian(cells).reshape(-1, 2, 2, 2, 2)
    f = rng.normal(size=(k.shape[0], 2)) + 1j * rng.normal(size=(k.shape[0], 2))
    f /= np.linalg.norm(f, axis=1, keepdims=True)
    contracted = np.einsum("ga,gaibj,gb->gij", f.conj(), k, f)
    rows = oracle._coords(_outer(f).reshape(-1, 2, 2))  # (4, lead points)
    assert np.allclose(oracle._coords(contracted), np.einsum("gxl,lg->xg", op, rows), rtol=0, atol=1e-14)


@pytest.mark.parametrize("resolution", [32, 73])
def test_lead_cell_operator_is_the_dense_contraction_with_the_lead_factor(resolution):
    # K_g as the scan builds it is (f_g^H (x) I) sigma (f_g (x) I), f_g lead
    # point g's factor, within 64u a per coordinate, a the larger of
    # max|op| and K_g's operator's largest entry: 7u a for K_g's GEMM, 32u a
    # for the table rows' distance from the factors' outer products, and a
    # few u a for the dense contraction's own rounding
    ginibre = _random_input(np.random.default_rng(149), _THREE_QUBITS, "full")
    identity, ghz = _three_qubit_ties()[:2]
    for mt in (ginibre, identity, ghz):
        op, cells = _lead_cells(mt, resolution)
        f = oracle._grid_factors(2, resolution, np.arange(cells.shape[1]))
        dense = np.einsum("ga,aibj,gb->gij", f.conj(), mt.reshape(2, 4, 2, 4), f)
        a = max(np.abs(op).max(), np.abs(oracle._coordinate_operator(mt.reshape(2, 4, 2, 4), 1)).max())
        assert np.all(np.abs(cells - oracle._coords(dense)) <= 2.0**-47 * a)


def _near_scalar_cells(rng: np.random.Generator, v: float, n: int) -> np.ndarray:
    """The (16, n) coordinates of two-qubit operators K_g and the (n, 4, 4)
    lead rows `op` that contract to them: K_g is v*I moved by a few ulps
    of v, so that their grid values tie with v*I's or miss them by a few
    ulps; every eighth is moved down by 30,000 ulps, a few times the pad,
    and every eighth after the second is scaled by 3/4. K_0 is v*I."""
    ulp = np.spacing(v)
    diag = v + rng.integers(-8, 1, (n, 4)) * ulp
    diag[::8] -= 30_000 * ulp
    diag[1::8] *= 0.75
    upper = rng.integers(-3, 4, (2, n, 4, 4)) * ulp * rng.uniform(0, 1, (2, n, 4, 4))
    k = np.triu(upper[0] + 1j * upper[1], 1)
    k += k.conj().transpose(0, 2, 1)
    k[:, range(4), range(4)] = diag
    k[0] = v * np.eye(4)
    s01, s10 = k[:, :2, 2:], k[:, 2:, :2]
    columns = (k[:, :2, :2], k[:, 2:, 2:], s01 + s10, 1j * (s01 - s10))  # `_coordinate_operator`
    return oracle._coords(k), np.stack([oracle._coords(b) for b in columns], axis=-1).transpose(1, 0, 2)


@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
def test_pruned_cells_lie_below_the_incumbent(scale):
    # every grid value of a skipped cell, as the scan computes it, is
    # below the incumbent, and an exact LDL^T confirms lambda_max(K_g) below
    # it; some cells tie with the incumbent whose lambda_max(K_g) is below
    # it in exact arithmetic, which only the pad keeps
    cells, op = (t * scale for t in _near_scalar_cells(np.random.default_rng(103), 0.5606394622302311, 48))
    q = oracle._grid_rows(*oracle._grid_tables(2, 32), slice(None))
    values = oracle._extremal_eigvals((op @ q).transpose(1, 0, 2))  # (cells, points)
    best = values.max()
    a = max(float(np.abs(op).max()), float(np.abs(cells).max()))
    proven = oracle._cells_below(cells, np.zeros(op.shape[0]), best, a, 2)
    assert proven.any()
    tied_but_below = 0
    for g in range(op.shape[0]):
        exactly_below = _exactly_positive_definite(_shifted_exactly(cells[:, g], best))
        if proven[g]:
            assert values[g].max() < best, g
            assert exactly_below, g
        elif values[g].max() == best and exactly_below:
            tied_but_below += 1
    assert tied_but_below > 0 or scale != 1.0


def _two_party_inputs(rng: np.random.Generator, dims: tuple[int, int], x: int) -> dict[str, np.ndarray]:
    """Two-party inputs as (d1, d2, d1, d2) tensors: a random Hermitian, a
    full-rank and a rank-2 state, and inputs whose grid values tie, or
    whole rows of them do, up to rounding: I/d, zero, a random state of
    the gridded party times I, |0><0| on the gridded party times a random
    state, and I times P, P a projector of rank dx - 1 in a random basis
    of the exact party, whose top is doubly degenerate at dx = 3."""
    g = 1 - x
    dg, dx = dims[g], dims[x]

    def on_parties(a_g: np.ndarray, a_x: np.ndarray) -> np.ndarray:
        m = np.kron(a_g, a_x) if g == 0 else np.kron(a_x, a_g)
        return m.astype(complex).reshape(dims + dims)

    u = np.linalg.qr(rng.normal(size=(dx, dx)) + 1j * rng.normal(size=(dx, dx)))[0][:, : dx - 1]
    zero_ket = np.zeros((dg, dg))
    zero_ket[0, 0] = 1.0
    return {
        "hermitian": _random_input(rng, dims, "hermitian"),
        "full": _random_input(rng, dims, "full"),
        "rank-2": _random_input(rng, dims, "rank-2"),
        "I/d": on_parties(np.eye(dg) / dg, np.eye(dx) / dx),
        "zero": np.zeros(dims + dims, dtype=complex),
        "rho (x) I": on_parties(_random_input(rng, (dg,), "full"), np.eye(dx) / dx),
        "|0><0| (x) rho": on_parties(zero_ket, _random_input(rng, (dx,), "full")),
        "I (x) P": on_parties(np.eye(dg) / dg, u @ u.conj().T),
    }


def _unproven_scan(monkeypatch, signed: np.ndarray, dims: tuple[int, ...], x: int, resolution: int) -> list[int]:
    """`oracle._scan_grid` with `_below` patched to prove nothing, so no
    cell, no box and no point is skipped, and the cells in index order:
    the fixed-order unpruned scan."""
    with monkeypatch.context() as patched:
        patched.setattr(oracle, "_below", lambda c, mu: np.zeros(c.shape[1:], dtype=bool))
        patched.setattr(oracle, "_cell_order", lambda cells, term: np.arange(cells.shape[1]))
        return oracle._scan_grid(signed, dims, x, resolution)


_QUBIT_ROWS = [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (1, 4), (4, 1)]
# the structures with a gridded party: the scan drops a d = 1 party
_GRIDDED = [dims for dims in _QUBIT_ROWS if 1 not in dims] + [(3, 3), (3, 4)]


# a qubit's whole grid is one block, and so one window, that no cell test
# sees, up to resolution 90, so its rows run at _CHUNK = 100: three rows a
# block at 32. A qutrit's grid has 295,936 points at 32 and 4.5 M at 64,
# and the unpruned scan solves (3,4)'s with LAPACK (about 0.6 s at 33, 9 s
# at 64), so (3,4) runs at 33 on every kind and at 32 on I (x) P;
# `test_pruned_scan_matches_the_unpruned_scan` runs (3,4) at 32 on a
# random Hermitian
@pytest.mark.parametrize(
    "dims, resolution, kinds, chunk",
    [(dims, r, None, 100) for dims in _QUBIT_ROWS for r in (32, 33, 64)]
    + [((3, 3), r, None, oracle._CHUNK) for r in (32, 33, 64)]
    + [((3, 4), 33, None, oracle._CHUNK), ((3, 4), 32, ("I (x) P",), oracle._CHUNK)],
)
def test_row_cells_keep_the_fixed_order_unpruned_winner(monkeypatch, dims, resolution, kinds, chunk):
    # rows are visited best bound first, some are skipped, and so are
    # phase boxes of the rows that are not, yet the winner is the
    # fixed-order unpruned scan's, ties included. On I (x) P at a qutrit
    # exact party the cubic's values exceed their rows' bound by up to
    # 1e-8 of it, which a pad of 2**-40 does not cover: (3,3) then loses
    # its winner at 32, 33 and 64. The scan drops a d = 1 party, so (1,4)
    # and (4,1) run through `grid_product_extremum`, with and without
    # proofs, to the exact party's top eigenvalue
    monkeypatch.setattr(oracle, "_CHUNK", chunk)
    x = oracle._support_check(dims, resolution)
    inputs = _two_party_inputs(np.random.default_rng(math.prod(dims) * 100 + resolution), dims, x)
    rows, boxes = [], []
    prove = oracle._cells_below

    def record(cells, term, *rest):
        below = prove(cells, term, *rest)
        if np.ndim(term):  # a window's rows or a block's boxes, not a block's points
            (boxes if below.ndim == 2 else rows).append(int(below.sum()))
        return below

    monkeypatch.setattr(oracle, "_cells_below", record)
    for kind in kinds or inputs:
        for signed in (inputs[kind], -inputs[kind]):
            if 1 in dims:
                m = ComplexMatrix(dims, signed.reshape(4, 4))
                value = grid_product_extremum(m, "max", resolution)
                with monkeypatch.context() as patched:
                    patched.setattr(oracle, "_below", lambda c, mu: np.zeros(c.shape[1:], dtype=bool))
                    assert value == grid_product_extremum(m, "max", resolution), kind
                top = np.linalg.eigvalsh(m.mat)[-1]
                assert abs(value - top) <= 1e-14 * np.abs(signed).max(), kind
                continue
            winner = oracle._scan_grid(signed, dims, x, resolution)
            assert winner == _unproven_scan(monkeypatch, signed, dims, x, resolution), kind
    # I (x) P ties every row; a box is tested only in a row that no cell
    # test skipped
    assert (sum(rows) > 0 and sum(boxes) > 0) or 1 in dims or kinds == ("I (x) P",)


@pytest.mark.parametrize("dims", [(2, 3), (2, 4), (3, 3)])
def test_unproven_scan_evaluates_every_grid_point(monkeypatch, dims):
    # the winner-parity tests' reference skips no row, no phase box and,
    # at a four-level exact party, no point: every grid point reaches the
    # exact party's solve, once
    x = oracle._support_check(dims, 32)
    solve, sizes = oracle._extremal_eigvals, []

    def record(c):
        sizes.append(math.prod(c.shape[1:]))
        return solve(c)

    monkeypatch.setattr(oracle, "_extremal_eigvals", record)
    mt = _random_input(np.random.default_rng(139), dims, "full")
    for signed in (mt, -mt):
        sizes.clear()
        _unproven_scan(monkeypatch, signed, dims, x, 32)
        assert sum(sizes) == oracle._grid_size(dims[1 - x], 32)


def _row_values(mt: np.ndarray, dims: tuple[int, int], x: int, resolution: int, row: int) -> np.ndarray:
    """Top eigenvalues, by `eigvalsh` point by point, of `mt` contracted
    with the gridded party's factors in one polar row."""
    g = 1 - x
    n_ph = resolution ** (dims[g] - 1)
    f = oracle._grid_factors(dims[g], resolution, row * n_ph + np.arange(n_ph))
    spec = "pi,iajb,pj->pab" if g == 0 else "pi,aibj,pj->pab"
    return np.linalg.eigvalsh(np.einsum(spec, f.conj(), mt, f))[:, -1]


@pytest.mark.parametrize("dims", _GRIDDED)
def test_row_bound_holds_every_grid_value_of_its_row(dims):
    # the root box of row m, centre row (1, ..., 1, 0, ..., 0) and deviation
    # 1, has C = D_m, and lambda_max(D_m) + t is at least every grid value of
    # row m, by eigvalsh point by point, up to their rounding. The rows with
    # t_1 = 0 hold one ray, (1, 0, ...), at every phase, and their bound is
    # that value
    resolution = 8
    x = oracle._support_check(dims, 32)
    d = dims[1 - x]
    mag2, _ = oracle._grid_tables(d, resolution)
    root, dev = np.repeat([1.0, 0.0], [d, d * d - d])[:, None], np.ones((d * (d - 1) // 2, 1))
    one_ray = oracle._polar_steps(d, resolution) ** max(0, d - 2)  # rows with t_1 = 0
    for kind, mt in _two_party_inputs(np.random.default_rng(109 + math.prod(dims)), dims, x).items():
        for signed in (mt, -mt):
            op = oracle._coordinate_operator(signed, x)
            cells, term = oracle._box_cells(op, oracle._pair_norms(op, d), mag2, root, dev, np.arange(mag2.shape[1]))
            term = term[:, 0]
            bound = np.linalg.eigvalsh(oracle._hermitian(cells[..., 0]))[:, -1] + term
            tol = 1e-14 * np.abs(signed).max()
            for row in range(mag2.shape[1]):
                values = _row_values(signed, dims, x, resolution, row)
                assert values.max() <= bound[row] + tol, (kind, row)
                if row < one_ray:
                    assert term[row] == 0.0 and abs(values.max() - bound[row]) <= tol, (kind, row)


def _near_scalar_pair(rng: np.random.Generator, dims: tuple[int, int]) -> np.ndarray:
    """v*I moved by a random Hermitian of norm about 2**-36 v, a few pads:
    rows are skipped a few pads below the incumbent."""
    return 0.5606394622302311 * (np.eye(math.prod(dims)).reshape(dims + dims) + 2.0**-36 * _random_input(rng, dims, "hermitian"))


@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
def test_pruned_rows_lie_below_the_incumbent(monkeypatch, scale):
    # every grid value of a skipped row, point by point by eigvalsh and as
    # the scan computes it, is below the incumbent it was skipped against,
    # and an exact LDL^T confirms lambda_max(D_m) + t, the row's bound,
    # below it. Near-scalar inputs have rows skipped within 1e-9 of the
    # incumbent; at a qutrit exact party, whose pad covers the cubic's
    # sqrt(u) loss, only the full-rank states have skipped rows
    monkeypatch.setattr(oracle, "_CHUNK", 64)  # blocks of two qubit rows
    skipped, scans = [], []
    prove, order = oracle._cells_below, oracle._cell_order

    def record_order(cells, term):  # every row's cell and term, as the scan has them
        scans.append((cells, term))
        return order(cells, term)

    def record(cells, term, best, a, dx):
        below = prove(cells, term, best, a, dx)
        # a window's rows, sliced from the scan's; boxes, two-dimensional,
        # are `test_pruned_boxes_lie_below_the_incumbent`'s, and points,
        # with one float t, are no row's
        if np.ndim(term) == 1:
            every, terms = scans[-1]
            for c, t in zip(cells.T[below], term[below]):
                rows = np.flatnonzero(np.all(every == c[:, None], axis=0) & (terms == t))
                skipped.extend((c, t, i, best) for i in rows)
        return below

    monkeypatch.setattr(oracle, "_cell_order", record_order)
    monkeypatch.setattr(oracle, "_cells_below", record)
    rng = np.random.default_rng(107)
    closest = 1.0
    for dims in ((2, 2), (2, 3), (2, 4), (4, 2), (3, 3)):
        x = oracle._support_check(dims, 32)
        for mt in (_near_scalar_pair(rng, dims), _random_input(rng, dims, "full")):
            for signed in (mt * scale, -mt * scale):
                skipped.clear()
                oracle._scan_grid(signed, dims, x, 32)
                assert skipped or (dims[x] == 3 and mt[0, 0, 0, 0] > 0.5), dims
                _, e = math.frexp(float(np.abs(signed.view(np.float64)).max()))
                scaled = np.ldexp(signed.view(np.float64), -e).view(np.complex128)  # as the scan runs
                op = oracle._coordinate_operator(scaled, x)
                mag2, phase2 = oracle._grid_tables(dims[1 - x], 32)
                for c, t, row, best in skipped:
                    h = oracle._hermitian(op @ oracle._grid_rows(mag2, phase2, [row]))
                    computed = oracle._extremal_eigvals(oracle._coords(h))
                    assert computed.max() < best, (dims, row)
                    values = _row_values(scaled.reshape(dims + dims), dims, x, 32, row)
                    assert values.max() < best, (dims, row)
                    assert _exactly_positive_definite(_shifted_exactly(c, Fraction(best) - Fraction(t))), (dims, row)
                    closest = min(closest, (best - values.max()) / abs(best))
    assert closest < 1e-9


def _box_bounds(signed: np.ndarray, dims: tuple[int, int], x: int, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """lambda_max(C_b) + t_b, by eigvalsh, of every phase box of every polar
    row of the gridded party, (rows, boxes), and the box of each phase
    index (`oracle._phase_boxes`)."""
    d = dims[1 - x]
    op = oracle._coordinate_operator(signed, x)
    mag2, _ = oracle._grid_tables(d, resolution)
    centre2, dev, box_of = oracle._phase_boxes(d, resolution)
    cells, term = oracle._box_cells(op, oracle._pair_norms(op, d), mag2, centre2, dev, np.arange(mag2.shape[1]))
    top = np.linalg.eigvalsh(oracle._hermitian(cells.reshape(cells.shape[0], -1)))[:, -1]
    return top.reshape(term.shape) + term, box_of


def test_phase_boxes_tile_every_phase_grid():
    # boxes of _BOX phases on a qubit's axis and of 2 x 2 on a qutrit's,
    # the last on an axis shorter where the side does not divide the
    # resolution
    for d, resolution, sizes in (
        (2, 32, [4] * 8), (2, 33, [4] * 8 + [1]), (2, 103, [4] * 25 + [3]),
        (3, 32, [4] * 256), (3, 33, ([4] * 16 + [2]) * 16 + [2] * 16 + [1]),
    ):
        centre2, dev, box_of = oracle._phase_boxes(d, resolution)
        assert box_of.shape == (resolution ** (d - 1),)
        assert np.bincount(box_of).tolist() == sizes, (d, resolution)
        assert centre2.shape == (d * d, len(sizes)) and dev.shape == (d * (d - 1) // 2, len(sizes))
        assert np.all(dev >= 0) and np.all(dev < 2)


@pytest.mark.parametrize("dims", _GRIDDED)
def test_box_bound_holds_every_grid_value_of_its_box(dims):
    # lambda_max(C_b) + t_b is at least every grid value of box b, by
    # eigvalsh point by point, up to their rounding, at a resolution that
    # no box side divides: a qubit's last box holds one phase, a qutrit's
    # last boxes one or two
    resolution = 9
    x = oracle._support_check(dims, 32)
    for kind, mt in _two_party_inputs(np.random.default_rng(113 + math.prod(dims)), dims, x).items():
        for signed in (mt, -mt):
            bound, box_of = _box_bounds(signed, dims, x, resolution)
            tol = 1e-14 * np.abs(signed).max()
            for row in range(bound.shape[0]):
                values = _row_values(signed, dims, x, resolution, row)
                assert np.all(values <= bound[row, box_of] + tol), (kind, row)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4)])
def test_box_bound_holds_off_grid_phases_in_its_arc(dims, sign):
    # the bound holds on the box's whole arc, every phase of each axis
    # between the box's least and greatest grid phase on it, not only on
    # its grid phases: random phases in each box's arc, at every polar
    # row, give values below lambda_max(C_b) + t_b
    resolution = 9
    rng = np.random.default_rng(127 + math.prod(dims))
    x = oracle._support_check(dims, 32)
    g = 1 - x
    d = dims[g]
    spec = "pi,iajb,pj->pab" if g == 0 else "pi,aibj,pj->pab"
    digits = np.unravel_index(np.arange(resolution ** (d - 1)), (resolution,) * (d - 1))
    mag, _ = oracle._grid_axes(d, resolution)
    for kind in ("hermitian", "full"):
        mt = sign * _random_input(rng, dims, kind)
        bound, box_of = _box_bounds(mt, dims, x, resolution)
        tol = 1e-14 * np.abs(mt).max()
        for b in range(bound.shape[1]):
            ends = [(j[box_of == b].min(), j[box_of == b].max()) for j in digits]
            phi = np.stack([rng.uniform(lo, hi, 16) for lo, hi in ends], axis=1) * (2 * math.pi / resolution)
            phase = np.exp(1j * np.concatenate([np.zeros((16, 1)), phi], axis=1))
            f = (mag[:, None, :] * phase[None]).reshape(-1, d)
            values = np.linalg.eigvalsh(np.einsum(spec, f.conj(), mt, f))[:, -1].reshape(mag.shape[0], 16)
            assert np.all(values <= bound[:, b, None] + tol), (kind, b)


@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
def test_pruned_boxes_lie_below_the_incumbent(monkeypatch, scale):
    # every grid value of a skipped phase box, point by point by eigvalsh
    # and as the scan computes it, is below the incumbent it was skipped
    # against, and an exact LDL^T confirms lambda_max(C_b) + t_b, the box's
    # bound, below it. Near-scalar inputs have boxes skipped within 1e-9
    # of the incumbent; at a qutrit exact party, whose pad covers the
    # cubic's sqrt(u) loss, only the full-rank states have skipped boxes,
    # and (3,3) runs at resolution 8, where they number 113 and 24, not
    # the 40,000 and 57,000 of resolution 32
    monkeypatch.setattr(oracle, "_CHUNK", 64)  # blocks of two qubit rows, or one qutrit row at 8
    blocks, skipped = [], []
    make, prove = oracle._box_cells, oracle._cells_below

    def record_rows(op, w, mag2, centre2, dev, rows):
        blocks.append(rows)
        return make(op, w, mag2, centre2, dev, rows)

    def record(cells, term, best, a, dx):
        below = prove(cells, term, best, a, dx)
        if below.ndim == 2:  # a block's boxes, of the rows last given to `_box_cells`
            skipped.extend((cells[:, i, b], term[i, b], blocks[-1][i], b, best) for i, b in zip(*np.nonzero(below)))
        return below

    monkeypatch.setattr(oracle, "_box_cells", record_rows)
    monkeypatch.setattr(oracle, "_cells_below", record)
    rng = np.random.default_rng(131)
    closest = 1.0
    for dims, resolution in (((2, 2), 32), ((2, 3), 32), ((2, 4), 32), ((4, 2), 32), ((3, 3), 8)):
        x = oracle._support_check(dims, 32)
        mag2, phase2 = oracle._grid_tables(dims[1 - x], resolution)
        box_of = oracle._phase_boxes(dims[1 - x], resolution)[2]
        for mt in (_near_scalar_pair(rng, dims), _random_input(rng, dims, "full")):
            for signed in (mt * scale, -mt * scale):
                skipped.clear()
                oracle._scan_grid(signed, dims, x, resolution)
                assert skipped or (dims[x] == 3 and mt[0, 0, 0, 0] > 0.5), dims
                _, e = math.frexp(float(np.abs(signed.view(np.float64)).max()))
                scaled = np.ldexp(signed.view(np.float64), -e).view(np.complex128)  # as the scan runs
                op = oracle._coordinate_operator(scaled, x)
                values = {}
                for c, t, row, b, best in skipped:
                    phases = np.flatnonzero(box_of == b)
                    computed = oracle._extremal_eigvals(op @ (mag2[:, [row]] * phase2[:, phases]))
                    assert computed.max() < best, (dims, row, b)
                    if row not in values:
                        values[row] = _row_values(scaled, dims, x, resolution, row)
                    top = values[row][phases].max()
                    assert top < best, (dims, row, b)
                    assert _exactly_positive_definite(_shifted_exactly(c, Fraction(best) - Fraction(t))), (dims, row, b)
                    closest = min(closest, (best - top) / abs(best))
    assert closest < 1e-9


def test_boxes_send_few_points_to_the_exact_party_solve(monkeypatch):
    # at min on full-rank states, polar rows alone left 90-95 % of a
    # (2,4)@256 grid and 84-93 % of a (3,3)@32 Ginibre state's to the exact
    # party's solve (twelve states each); with phase boxes 5-26 % and
    # 6-32 % reach it, and these three states read 10, 7, 15 % and 32, 13,
    # 22 %
    for dims, resolution, share in (((2, 4), 256, 0.3), ((3, 3), 32, 0.4)):
        x = oracle._support_check(dims, resolution)
        name = "_pruned_top_eigvals" if dims[x] == 4 else "_extremal_eigvals"
        solve, points = getattr(oracle, name), []

        def record(c, *rest):
            points.append(math.prod(c.shape[1:]))
            return solve(c, *rest)

        monkeypatch.setattr(oracle, name, record)
        for seed in range(3):
            mt = _random_input(np.random.default_rng(137 + seed), dims, "full")
            points.clear()
            oracle._scan_grid(-mt, dims, x, resolution)
            assert sum(points) <= share * oracle._grid_size(dims[1 - x], resolution), (dims, seed)


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
