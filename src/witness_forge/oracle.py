"""Brute-force verification oracle for product-state extrema.

Independent of the see-saw optimizer: scans a deterministic grid of
product states and returns the extremal expectation. One party (the
largest-dimension one) is never gridded; with all other factors fixed
at grid points, the optimal remaining factor is known in closed form
as an extremal eigenvector of the contracted operator, so the scan is
exact in that coordinate and strictly dominates gridding it. The best
grid point is then polished by the see-saw, run as a batch of one.

Grids are nested under resolution doubling: qubit factors use
theta_i = i*pi/resolution (i = 0..resolution) and phi_j =
2*pi*j/resolution in (cos(theta/2), e^{i phi} sin(theta/2)); dimensions
3 and 4 use hyperspherical angles with polar steps on [0, pi/2] and the
same phase grid, first amplitude real nonnegative (a global factor
phase never changes the expectation).

Supported: one or two parties of dimension <= 4, or three qubits, where
the joint grid of the gridded parties fits MAX_JOINT_GRID (3e7 points);
`_support_check` alone decides this. (3,3) fits up to resolution 103,
three qubits up to 73, and (4,4) at no allowed resolution (1.6e8 points
at 32). The scan runs in fixed-size chunks, so memory stays bounded.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParamOutOfRange, UnsupportedDims
from .linalg import ComplexMatrix
from .witness import (
    ProductState,
    Witness,
    WitnessReport,
    _expectation,
    _extremal_factor,
    _product_state,
    _seesaw_run,
    _witness_report,
)

MIN_RESOLUTION = 32
MAX_JOINT_GRID = 30_000_000
_CHUNK = 1 << 16
_CHUNK_A = 256


def _support_check(dims: tuple[int, ...], resolution: int) -> int:
    """Reject structures, resolutions and grids the scan does not cover.
    Returns the party solved exactly: the largest one (the last of equal
    largest ones); every other party is gridded."""
    n = len(dims)
    all_qubit = all(d == 2 for d in dims)
    if not ((all_qubit and n <= 3) or (n <= 2 and all(d <= 4 for d in dims))):
        raise UnsupportedDims(
            f"oracle covers <=2 parties of dimension <=4 or 3 qubits, got {dims}"
        )
    if resolution < MIN_RESOLUTION:
        raise ParamOutOfRange(f"resolution {resolution} below {MIN_RESOLUTION}")
    exact = max(range(n), key=lambda k: (dims[k], k))
    points = math.prod(
        _grid_size(d, resolution) for k, d in enumerate(dims) if k != exact
    )
    if points > MAX_JOINT_GRID:
        raise UnsupportedDims(
            f"joint grid of {points} points exceeds the supported size at "
            f"resolution {resolution}"
        )
    return exact


def _grid_size(d: int, resolution: int) -> int:
    r = resolution
    h = r // 2
    if d == 1:
        return 1
    if d == 2:
        return (r + 1) * r
    if d == 3:
        return (h + 1) ** 2 * r**2
    if d == 4:
        return (h + 1) ** 3 * r**3
    raise UnsupportedDims(f"no grid for local dimension {d}")


def _grid_factors(d: int, resolution: int, idx: np.ndarray) -> np.ndarray:
    """Factor vectors (len(idx), d) at the given linear grid indices."""
    r = resolution
    h = r // 2
    if d == 1:
        return np.ones((idx.size, 1), dtype=np.complex128)
    if d == 2:
        i_th, i_ph = np.divmod(idx, r)
        half = i_th * (math.pi / r) / 2.0
        out = np.empty((idx.size, 2), dtype=np.complex128)
        out[:, 0] = np.cos(half)
        out[:, 1] = np.sin(half) * np.exp(2j * math.pi * i_ph / r)
        return out
    n_polar = d - 1
    rem = idx.copy()
    phases = []
    for _ in range(d - 1):
        rem, p = np.divmod(rem, r)
        phases.append(p)
    phases.reverse()
    polars = []
    for _ in range(n_polar):
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


def _extremal_eigvals(t: np.ndarray, mode: str) -> np.ndarray:
    """Extremal eigenvalue of each Hermitian matrix in a (..., d, d) batch."""
    d = t.shape[-1]
    if d == 1:
        return t[..., 0, 0].real
    if d == 2:
        alpha = t[..., 0, 0].real
        gamma = t[..., 1, 1].real
        beta = t[..., 0, 1]
        half_sum = 0.5 * (alpha + gamma)
        rad = np.sqrt((0.5 * (alpha - gamma)) ** 2 + beta.real**2 + beta.imag**2)
        return half_sum + rad if mode == "max" else half_sum - rad
    vals = np.linalg.eigvalsh(t)
    return vals[..., -1] if mode == "max" else vals[..., 0]


def _scan_two_party(
    mt: np.ndarray, dims: tuple[int, int], g: int, mode: str, resolution: int
) -> int:
    """Grid party `g`, solve the other exactly. Returns the winning grid
    index."""
    n_grid = _grid_size(dims[g], resolution)
    sign = 1.0 if mode == "max" else -1.0
    best_val = -np.inf
    best_idx = -1
    for start in range(0, n_grid, _CHUNK):
        idx = np.arange(start, min(n_grid, start + _CHUNK))
        u = _grid_factors(dims[g], resolution, idx)
        if g == 0:
            t = np.einsum("ai,ikjl,aj->akl", u.conj(), mt, u)
        else:
            t = np.einsum("ak,ikjl,al->aij", u.conj(), mt, u)
        lam = sign * _extremal_eigvals(t, mode)
        k = int(np.argmax(lam))
        if lam[k] > best_val:
            best_val = lam[k]
            best_idx = start + k
    return best_idx


def _scan_three_qubit(mt: np.ndarray, mode: str, resolution: int) -> tuple[int, int]:
    """Grid parties 1 and 2, solve party 3 exactly. Returns the winning
    grid indices of the two gridded parties."""
    n1 = _grid_size(2, resolution)
    sign = 1.0 if mode == "max" else -1.0
    u2 = _grid_factors(2, resolution, np.arange(n1))
    p2 = (u2.conj()[:, :, None] * u2[:, None, :]).reshape(n1, 4)
    best_val = -np.inf
    best_a = best_b = -1
    for start in range(0, n1, _CHUNK_A):
        idx = np.arange(start, min(n1, start + _CHUNK_A))
        ua = _grid_factors(2, resolution, idx)
        t1 = np.einsum("ai,ibcjde,aj->abcde", ua.conj(), mt, ua)
        t1 = t1.transpose(0, 2, 4, 1, 3).reshape(idx.size * 4, 4)
        s = (t1 @ p2.T).reshape(idx.size, 2, 2, n1)
        lam = sign * _extremal_eigvals(np.moveaxis(s, 3, 1), mode)
        k = int(np.argmax(lam))
        a_off, b = divmod(k, n1)
        if lam.flat[k] > best_val:
            best_val = lam.flat[k]
            best_a = start + a_off
            best_b = b
    return best_a, best_b


def _scan(
    m: ComplexMatrix, mode: str, resolution: int
) -> tuple[float, ProductState]:
    m.require_hermitian()
    if mode not in ("max", "min"):
        raise ParamOutOfRange(f"mode must be 'max' or 'min', got {mode!r}")
    resolution = int(resolution)
    dims = m.dims
    x = _support_check(dims, resolution)
    n = len(dims)
    mt = m.mat.reshape(dims + dims)
    if n == 1:
        best = []
    elif n == 2:
        best = [_scan_two_party(mt, dims, 1 - x, mode, resolution)]
    else:
        best = _scan_three_qubit(mt, mode, resolution)
    gridded = [k for k in range(n) if k != x]
    factors = [np.zeros(0)] * n
    for k, idx in zip(gridded, best):
        factors[k] = _grid_factors(dims[k], resolution, np.array([idx]))[0]

    factors[x] = np.ones(dims[x], dtype=np.complex128) / math.sqrt(dims[x])
    _, factors[x] = _extremal_factor(mt, factors, x, mode)

    _, polished, _, _ = _seesaw_run(mt, [f[None, :] for f in factors], mode)
    state = _product_state([f[0] for f in polished])
    return _expectation(mt, [f.vec for f in state.factors]), state


def grid_product_extremum(m: ComplexMatrix, mode: str, resolution: int = 256) -> float:
    """Grid-scan extremum of <mu|m|mu> over product states.

    Grid accuracy is O(1/resolution); the final see-saw polish from the
    best grid point typically reaches 1e-6 at resolution 256 on two
    qubits. Raises UnsupportedDims outside the supported shapes.
    """
    value, _ = _scan(m, mode, resolution)
    return value


def exhaustive_witness_check(w: Witness, resolution: int = 64) -> WitnessReport:
    """WitnessReport computed from the grid scan instead of see-saw."""
    value, state = _scan(w.matrix(), "min", resolution)
    return _witness_report(w, value, state)
