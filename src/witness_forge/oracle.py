"""Brute-force verification oracle for product-state extrema.

Independent of the see-saw optimizer: scans a deterministic grid of
product states and returns the extremal expectation. Like the see-saw,
the scan only maximises: `_scan` takes a sign s and runs the scan, the
exact-party solve and the polish on s*m, a minimum being -max <mu|-m|mu>.
One party (the largest-dimension one) is never gridded; with all other
factors fixed at grid points, the optimal remaining factor is known in
closed form as the top eigenvector of the contracted operator, so the
scan is exact in that coordinate and strictly dominates gridding it.
The best grid point is then polished by the see-saw, run as a batch of
one. `exhaustive_witness_check` scans sigma itself on the form's side,
as `verify_witness` searches it, and never builds the witness matrix.

Grids are nested under resolution doubling, and every party has one
layout: d-1 polar indices, most significant first, then d-1 phase
indices j with phi_j = 2*pi*j/resolution, giving the factor
(cos t_1, e^{i phi_1} sin t_1 cos t_2, ..., e^{i phi_{d-1}} sin t_1 ...
sin t_{d-1}), first amplitude real nonnegative (a global factor phase
never changes the expectation). Only the polar steps t depend on d
(`_polar_steps`, `_polar_angles`): a qubit's are the half-angles of
theta_i = i*pi/resolution (i = 0..resolution), those of dimensions 3
and 4 step on [0, pi/2] in resolution//2 steps, and d = 1 has the one
factor (1). A factor is thus a real polar magnitude row times a phase
vector (1, e^{i phi_1}, ...), and `_grid_axes` builds the two tables,
one row per combination of the polar digits and of the phase digits.
`_grid_factors` multiplies the rows of a grid index; the arithmetic is
the per-point formula's, in the same order, so they match it bit for bit.

Supported: one or two parties of dimension <= 4, or three qubits, where
the joint grid of the gridded parties fits MAX_JOINT_GRID (3e7 points);
`_support_check` alone decides this, by arithmetic, before anything is
built. (3,3) fits up to resolution 103, three qubits up to 73, and (4,4)
at no allowed resolution (1.6e8 points at 32). So the scan has at most
one lead party (three qubits) before the last gridded one. The outer
product conj(f) (x) f of a grid factor splits the same way, into
(m_i m_j) of its polar row times (conj(e_i) e_j) of its phase vector, so
each gridded party's two outer-product tables are built once per scan
and a block's rows are one broadcast product of them. A block is whole
polar rows of the last party times as many lead points as fit, at most
_CHUNK = 16,384 points in all (every supported grid has at most 10,609
phase vectors per polar row), so its working set stays a few MB. The
lead party's whole grid contracts the operator in one GEMM per scan,
and a block takes one matmul. The top eigenvalues of the contracted
blocks come in closed form when the exact party has dimension <= 3, and
from LAPACK at dimension 4, where the scan skips LAPACK wherever a Weyl
bound shows a grid point cannot win, so the winner is the one the full
solve would pick (`_pruned_top_eigvals` derives the bound and its
rounding margins).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParamOutOfRange, UnsupportedDims
from .linalg import ComplexMatrix, _lapack
from .witness import (
    ProductState,
    Witness,
    WitnessReport,
    _contract,
    _extremal_factor,
    _outer,
    _party_matrix,
    _seesaw_run,
    _winner,
    _witness_report,
)

MIN_RESOLUTION = 32
MAX_JOINT_GRID = 30_000_000
_CHUNK = 1 << 14
_ANCHOR_STRIDE = 8
# Rounding margins of the pruning bound, relative to ||a||_F (derivation
# in `_pruned_top_eigvals`): on the normalised quadratic form, and on the
# bound itself.
_FORM_PAD = 2.0**10 * np.finfo(float).eps
_BOUND_PAD = 2.0**8 * np.finfo(float).eps


def _support_check(dims: tuple[int, ...], resolution: int) -> int:
    """Reject structures, resolutions and grids the scan does not cover.
    Returns the party solved exactly: the largest one (the last of equal
    largest ones); every other party is gridded."""
    if resolution < MIN_RESOLUTION:
        raise ParamOutOfRange(f"resolution {resolution} below {MIN_RESOLUTION}")
    n = len(dims)
    all_qubit = all(d == 2 for d in dims)
    if not ((all_qubit and n <= 3) or (n <= 2 and all(d <= 4 for d in dims))):
        raise UnsupportedDims(
            f"oracle covers <=2 parties of dimension <=4 or 3 qubits, got {dims}"
        )
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


def _polar_steps(d: int, resolution: int) -> int:
    """Steps on each polar axis of a d-level factor: the r+1 half-angles
    theta/2 of a qubit, or h+1 = r//2 + 1 steps on [0, pi/2] at d >= 3.
    Arithmetic only, so sizing a grid allocates nothing."""
    return resolution + 1 if d == 2 else resolution // 2 + 1


def _polar_angles(d: int, resolution: int) -> np.ndarray:
    r = resolution
    if d == 2:
        return np.arange(_polar_steps(d, r)) * (math.pi / r) / 2.0
    h = r // 2
    return np.arange(_polar_steps(d, r)) * (math.pi / 2) / h


def _grid_size(d: int, resolution: int) -> int:
    return (_polar_steps(d, resolution) * resolution) ** (d - 1)


def _grid_axes(d: int, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """The two tables a d-level party's grid is built from: the polar
    magnitudes, (n_pol, d) real, one row per combination of the d-1 polar
    digits, and the phase vectors (1, e^{i phi_1}, ..., e^{i phi_{d-1}}),
    (n_ph, d), one per combination of the d-1 phase digits, both most
    significant digit first. Grid index i = pol*n_ph + ph is the factor
    mag[pol] * phase[ph]; d = 1 has one row (1) in each."""
    r = resolution
    theta = _polar_angles(d, r)
    n_t = theta.size
    polars = np.unravel_index(np.arange(n_t ** (d - 1)), (n_t,) * (d - 1)) if d > 1 else ()
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    mag = np.empty((n_t ** (d - 1), d))
    running = np.ones(mag.shape[0])
    for k in range(d - 1):
        mag[:, k] = running * cos_t[polars[k]]
        running = running * sin_t[polars[k]]
    mag[:, d - 1] = running
    phi = np.exp(2j * math.pi * np.arange(r) / r)
    phases = np.unravel_index(np.arange(r ** (d - 1)), (r,) * (d - 1)) if d > 1 else ()
    phase = np.ones((r ** (d - 1), d), dtype=np.complex128)
    for k in range(1, d):
        phase[:, k] = phi[phases[k - 1]]
    return mag, phase


def _grid_factors(d: int, resolution: int, idx: np.ndarray) -> np.ndarray:
    """Factor vectors (len(idx), d) at the given linear grid indices; the
    same arithmetic, in the same order, as the per-point formula."""
    mag, phase = _grid_axes(d, resolution)
    pol, ph = np.divmod(idx, phase.shape[0])
    return mag[pol] * phase[ph]


def _grid_rows(mag2: np.ndarray, phase2: np.ndarray, lo: int, hi: int | None) -> np.ndarray:
    """conj(f) (x) f, flattened, of the grid points in polar rows lo..hi-1,
    in grid order, from the outer-product tables (m_i m_j) and
    (conj(e_i) e_j) of `_grid_axes`."""
    return (mag2[lo:hi, None, :] * phase2[None]).reshape(-1, phase2.shape[1])


def _extremal_eigvals(t: np.ndarray) -> np.ndarray:
    """Top eigenvalue of each Hermitian matrix in a (..., d, d) batch.

    Closed form for d <= 3, read from the real diagonal and the upper
    off-diagonal entries only; LAPACK `eigvalsh` for d = 4. At d = 3 it is
    the trigonometric root of the characteristic cubic (O. K. Smith,
    Commun. ACM 4(4):168, 1961), accurate to a few ulps of the matrix
    norm except where the top eigenvalue is doubly degenerate, where
    the cubic's double root costs about half the digits (1e-8 relative).
    """
    d = t.shape[-1]
    if d == 2:
        # not `witness._bloch_top`: its Pauli transform and hypot calls took
        # six (2,2,2) scans at resolution 32 from 0.21 s to 0.80 s
        alpha = t[..., 0, 0].real
        gamma = t[..., 1, 1].real
        beta = t[..., 0, 1]
        half_sum = 0.5 * (alpha + gamma)
        rad = np.sqrt((0.5 * (alpha - gamma)) ** 2 + beta.real**2 + beta.imag**2)
        return half_sum + rad
    if d == 3:
        a0, a1, a2 = (t[..., k, k].real for k in range(3))
        b01, b02, b12 = t[..., 0, 1], t[..., 0, 2], t[..., 1, 2]
        q = (a0 + a1 + a2) / 3.0
        e0, e1, e2 = a0 - q, a1 - q, a2 - q
        n01, n02, n12 = (b.real**2 + b.imag**2 for b in (b01, b02, b12))
        p = np.sqrt((e0 * e0 + e1 * e1 + e2 * e2 + 2.0 * (n01 + n02 + n12)) / 6.0)
        # B = (T - qI)/p has eigenvalues 2cos(angle), with cos(3 angle) =
        # det(B)/2. Each product is divided by p as it grows, so none goes
        # past p**2; a scalar block (p = 0) keeps B = 0 and so returns q.
        s = 1.0 / np.where(p > 0.0, p, 1.0)
        e0 *= s
        e1 *= s
        e2 *= s
        x = b01 * s
        x *= b12
        x *= s
        x *= b02.conj()
        x *= s
        det = e0 * e1 * e2 + 2.0 * x.real
        s *= s
        det -= (e0 * n12 + e1 * n02 + e2 * n01) * s
        angle = np.arccos(np.clip(0.5 * det, -1.0, 1.0)) / 3.0
        return q + 2.0 * p * np.cos(angle)
    return _lapack(np.linalg.eigvalsh, t)[..., -1]


def _pruned_top_eigvals(q: np.ndarray, a: np.ndarray, floor: float) -> np.ndarray:
    """Top eigenvalue of each 4x4 block of q @ a, bit for bit as LAPACK
    gives it on the whole block, or -inf where it is provably below
    max(floor, the anchors' best).

    `q` holds a block's (n, k) outer-product rows, n > _ANCHOR_STRIDE, and
    `a` the contracted (1, k, 16) operator: a four-level exact party
    leaves one gridded party (`_support_check`). LAPACK solves the anchor
    rows 0, S, 2S, ... (S = _ANCHOR_STRIDE) and then only the rows i
    whose bound from the nearest anchor j reaches that threshold:

        lam_i <= lam_j + s*(sqrt(2)*sqrt(rho2 + _FORM_PAD) + _BOUND_PAD),

    with s = ||a||_F, u = a/s and rho2 = (q_i - q_j) u u^H (q_i - q_j)^H,
    so that s*sqrt(rho2) = ||(q_i - q_j) a||_F without building any
    (n, 4, 4) difference. Normalising by s keeps the form clear of
    overflow and underflow at any scale. With eps = 2**-52, k <= 16 and
    ||q_i|| <= 1 + 8 eps (a table row (m_i m_j)(conj(e_i) e_j) of a unit
    factor, each entry rounded three times), taking 2(m+2) eps for the
    error of an m-term complex dot:
    - GEMM: the computed T_i is q_i a up to 36 eps s in the Frobenius
      norm, so T_i - T_j is off by at most 72 eps s;
    - Weyl: LAPACK reads the Hermitian matrices H_i of the lower
      triangles, and ||H_i - H_j||_2 <= ||H_i - H_j||_F
      <= sqrt(2)||T_i - T_j||_F, so the GEMM term costs 102 eps s;
    - LAPACK: each eigenvalue is exact for H_i + E with ||E||_2 <=
      16 eps ||H_i||_2 <= 16 eps sqrt(2) s, 46 eps s for rows i and j;
    - the rounding of q_i - q_j and of the bound's own arithmetic adds
      under 15 eps s.
    That is under 170 eps s, within _BOUND_PAD = 256 eps. The computed
    rho2 sums 16-term, k-term and k-term dots of entries of modulus at
    most |q_i - q_j| and |u|, so it is off by at most 110 eps
    ||q_i - q_j||**2 <= 440 eps, within _FORM_PAD = 1024 eps.
    """
    n = q.shape[0]
    (op,) = a
    s = float(np.linalg.norm(op)) or 1.0
    u = op / s
    anchors = slice(0, n, _ANCHOR_STRIDE)
    lam = np.full(n, -np.inf)
    lam[anchors] = _extremal_eigvals((q[anchors] @ a).reshape(-1, 4, 4))
    last = (n - 1) // _ANCHOR_STRIDE * _ANCHOR_STRIDE
    near = np.minimum((np.arange(n) + _ANCHOR_STRIDE // 2) // _ANCHOR_STRIDE * _ANCHOR_STRIDE, last)
    diff = q - q[near]
    rho2 = ((diff @ (u @ u.conj().T)) * diff.conj()).sum(axis=1).real
    bound = lam[near] + s * (math.sqrt(2) * np.sqrt(np.maximum(rho2, 0.0) + _FORM_PAD) + _BOUND_PAD)
    keep = bound >= max(floor, lam[anchors].max())
    keep[anchors] = False
    rows = np.flatnonzero(keep)
    if rows.size:
        # a lone row would take numpy's gemv path, whose bits can differ
        # from the block GEMM's; two copies of it take the GEMM path
        take = rows if rows.size > 1 else np.repeat(rows, 2)
        lam[rows] = _extremal_eigvals((q[take] @ a).reshape(-1, 4, 4))[: rows.size]
    return lam


def _scan_grid(
    mt: np.ndarray, dims: tuple[int, ...], x: int, resolution: int
) -> list[int]:
    """Grid every party but `x`, solve `x` exactly. Returns the winning grid
    index of each gridded party; the first point at the largest value wins.

    Each gridded party's outer-product tables, (m_i m_j) over its polar
    rows and (conj(e_i) e_j) over its phase vectors, are built once per
    scan, and a block's rows are their broadcast product (`_grid_rows`).
    `_support_check` leaves at most one lead party before the last gridded
    one: the first of three qubits. Its whole grid (at most 5,402 points,
    at resolution 73) contracts the operator in one GEMM, and the lead
    blocks are slices of that product. A last-party block is as many whole
    polar rows as fit in _CHUNK points (one row if none fits), times as
    many lead points as keep the block within _CHUNK. The last party's
    blocks are the outer loop and the lead blocks the inner one. For a
    four-level `x`, LAPACK sees only a block's anchors and the points
    whose Weyl bound can still reach the best value so far
    (`_pruned_top_eigvals`).
    """
    gridded = [k for k in range(len(dims)) if k != x]
    if not gridded:
        return []
    *lead, last = gridded
    dx = dims[x]
    op = _party_matrix(mt, x).reshape(-1, dims[last] ** 2 * dx * dx)
    if lead:
        op = _grid_rows(*map(_outer, _grid_axes(dims[lead[0]], resolution)), 0, None) @ op
    mag2, phase2 = map(_outer, _grid_axes(dims[last], resolution))
    n_ph = phase2.shape[0]
    rows = max(1, _CHUNK // n_ph)
    lead_step = max(1, _CHUNK // (min(rows, mag2.shape[0]) * n_ph))
    best_val = -np.inf
    best_lead = best_last = -1
    # Every supported structure has one lead block (no lead party) or one
    # last block (the last of three qubits has at most 5,402 points), so
    # either loop runs once and the blocks are visited in row-major order,
    # which the first-maximum tie-break relies on.
    for lo in range(0, mag2.shape[0], rows):
        q = _grid_rows(mag2, phase2, lo, lo + rows)
        for lead_start in range(0, op.shape[0], lead_step):
            a = op[lead_start : lead_start + lead_step].reshape(-1, dims[last] ** 2, dx * dx)
            if dx == 4 and q.shape[0] > _ANCHOR_STRIDE:  # two anchors or more
                lam = _pruned_top_eigvals(q, a, best_val)
            else:
                lam = _extremal_eigvals((q @ a).reshape(-1, dx, dx))
            j = int(np.argmax(lam))
            if lam[j] > best_val:
                best_val = lam[j]
                i_lead, i_last = divmod(j, q.shape[0])
                best_lead, best_last = lead_start + i_lead, lo * n_ph + i_last
    return ([best_lead] if lead else []) + [best_last]


def _scan(m: ComplexMatrix, s: int, resolution: int) -> tuple[float, ProductState]:
    """Grid maximum of <mu|s*m|mu> for s = +1 or -1, polished; the value
    is reported as <mu|m|mu> of the winner."""
    m.require_hermitian()
    resolution = int(resolution)
    dims = m.dims
    x = _support_check(dims, resolution)
    n = len(dims)
    mt = m.mat.reshape(dims + dims)
    signed = s * mt  # exact: -mt bit for bit at s = -1
    best = _scan_grid(signed, dims, x, resolution)
    gridded = [k for k in range(n) if k != x]
    factors = [np.zeros(0)] * n  # (1, d) each: a see-saw batch of one
    for k, idx in zip(gridded, best):
        factors[k] = _grid_factors(dims[k], resolution, np.array([idx]))
    outs = [_outer(factors[k]) for k in gridded]
    h = _contract(_party_matrix(signed, x), outs, 1)
    _, factors[x] = _extremal_factor(h.reshape(1, dims[x], dims[x]))

    _, polished, _ = _seesaw_run(signed, factors)
    return _winner(mt, [f[0] for f in polished])


def grid_product_extremum(m: ComplexMatrix, mode: str, resolution: int = 256) -> float:
    """Grid-scan extremum of <mu|m|mu> over product states.

    Grid accuracy is O(1/resolution); the final see-saw polish from the
    best grid point typically reaches 1e-6 at resolution 256 on two
    qubits. Raises ParamOutOfRange for a resolution below MIN_RESOLUTION
    (32) or a mode other than "max" or "min", and UnsupportedDims outside
    the supported shapes.
    """
    if mode not in ("max", "min"):
        raise ParamOutOfRange(f"mode must be 'max' or 'min', got {mode!r}")
    value, _ = _scan(m, 1 if mode == "max" else -1, resolution)
    return value


def exhaustive_witness_check(w: Witness, resolution: int = 64) -> WitnessReport:
    """WitnessReport computed from the grid scan of sigma, on the form's
    side, instead of see-saw."""
    return _witness_report(w, *_scan(w.sigma.mat, w.form.sign, resolution))
