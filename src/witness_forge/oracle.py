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
one.

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
at 32). One scan covers every supported structure: it visits the joint
grid in row-major blocks of at most _CHUNK points, so memory stays
bounded, and contracts each block with one GEMM and one matmul. The
top eigenvalues of the contracted blocks come in closed form when
the exact party has dimension <= 3, and from LAPACK at dimension 4.

At dimension 4 the scan skips LAPACK wherever a grid point provably
cannot win. lambda_max is Lipschitz in the grid point: by Weyl's
inequality, lambda_max(T_i) <= lambda_max(T_j) + sqrt(2)*||T_i - T_j||_F,
where T_i is the contracted 4x4 operator at row i of a block and the
sqrt(2) covers LAPACK reading only the lower triangle. So LAPACK first
solves every _ANCHOR_STRIDE-th row of a block, the anchors, and then
only the rows whose bound from their nearest anchor reaches the best
value found so far. The bound carries a rounding margin for the GEMM,
LAPACK and its own arithmetic: 256 eps ||a||_F on the bound, and 1024
eps on the squared distance ||T_i - T_j||_F**2 / ||a||_F**2, with a the
block's contracted operator (`_pruned_top_eigvals` derives both).
Every skipped row is strictly below a value already found, so it is
neither the maximum nor a tie, and the winner is the one the full
solve would pick.
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
    _extremal_factor,
    _outer,
    _party_matrix,
    _seesaw_run,
    _winner,
    _witness_report,
)

MIN_RESOLUTION = 32
MAX_JOINT_GRID = 30_000_000
_CHUNK = 1 << 16
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
    return np.linalg.eigvalsh(t)[..., -1]


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
    ||q_i|| = ||f_i||**2 <= 1 + 4 eps, taking 2(m+2) eps for the error
    of an m-term complex dot:
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


def _outer_products(d: int, resolution: int, idx: np.ndarray) -> np.ndarray:
    """Rows conj(f) (x) f, flattened to d*d, of the factors at `idx`."""
    return _outer(_grid_factors(d, resolution, idx))


def _scan_grid(
    mt: np.ndarray, dims: tuple[int, ...], x: int, resolution: int
) -> list[int]:
    """Grid every party but `x`, solve `x` exactly. Returns the winning grid
    index of each gridded party; the first point at the largest value wins.

    A block is up to _CHUNK steps of the last gridded party times as many
    points of the leading ones as keep it within _CHUNK points. For a
    four-level `x`, LAPACK sees only a block's anchors and the points
    whose Weyl bound from their nearest anchor j, lambda_max(T_j) +
    sqrt(2)*||T_i - T_j||_F plus the rounding margins _FORM_PAD and
    _BOUND_PAD (relative to ||a||_F), reaches the best value so far
    (`_pruned_top_eigvals`); the others are provably below it.
    """
    n = len(dims)
    gridded = [k for k in range(n) if k != x]
    if not gridded:
        return []
    *lead, last = gridded
    lead_sizes = tuple(_grid_size(dims[k], resolution) for k in lead)
    n_lead, n_last = math.prod(lead_sizes), _grid_size(dims[last], resolution)
    dx = dims[x]
    op = _party_matrix(mt, x).reshape(-1, dims[last] ** 2 * dx * dx)
    step = min(n_last, _CHUNK)
    lead_step = max(1, _CHUNK // step)
    best_val = -np.inf
    best_lead = best_last = -1
    for lead_start in range(0, n_lead, lead_step):
        rem = np.arange(lead_start, min(n_lead, lead_start + lead_step))
        p = np.ones((rem.size, 1), dtype=np.complex128)
        for k, size in zip(reversed(lead), reversed(lead_sizes)):
            rem, i = np.divmod(rem, size)
            u = _outer_products(dims[k], resolution, i)
            p = (u[:, :, None] * p[:, None, :]).reshape(rem.size, -1)
        a = (p @ op).reshape(rem.size, dims[last] ** 2, dx * dx)
        for start in range(0, n_last, step):
            q = _outer_products(dims[last], resolution, np.arange(start, min(n_last, start + step)))
            if dx == 4 and q.shape[0] > _ANCHOR_STRIDE:  # two anchors or more
                lam = _pruned_top_eigvals(q, a, best_val)
            else:
                lam = _extremal_eigvals((q @ a).reshape(-1, dx, dx))
            j = int(np.argmax(lam))
            if lam[j] > best_val:
                best_val = lam[j]
                i_lead, i_last = divmod(j, q.shape[0])
                best_lead, best_last = lead_start + i_lead, start + i_last
    return [int(i) for i in np.unravel_index(best_lead, lead_sizes)] + [best_last]


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
    factors = [np.zeros(0)] * n
    for k, idx in zip(gridded, best):
        factors[k] = _grid_factors(dims[k], resolution, np.array([idx]))[0]

    factors[x] = np.ones(dims[x], dtype=np.complex128) / math.sqrt(dims[x])
    _, factors[x] = _extremal_factor(_party_matrix(signed, x), factors, x)

    _, polished, _, _ = _seesaw_run(signed, [f[None, :] for f in factors])
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
    """WitnessReport computed from the grid scan instead of see-saw."""
    value, state = _scan(w.matrix(), -1, resolution)
    return _witness_report(w, value, state)
