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
one lead party (three qubits) before the last gridded one.

The scan works in real Hermitian coordinates: a d x d Hermitian h is the
d*d real vector [h_kk; Re h_kl; Im h_kl], k < l (`_coords`). The outer
product conj(f) (x) f of a grid factor then splits into a real polar row
(m_k**2, m_k m_l, m_k m_l) times a real phase row (1, cos(phi_l - phi_k),
sin(phi_l - phi_k)), so each gridded party's two tables are built once
per scan (`_grid_tables`) and a block's rows are one broadcast product
of them. The operator is mapped to these coordinates once per scan,
rows and columns (`_coordinate_operator`), the lead party's whole grid
contracts it in one real GEMM, and each block is one more real GEMM
giving the coordinates of the exact party's operators. A block is whole
polar rows of the last party times as many lead points as fit, at most
_CHUNK = 8,192 points in all, so its working set stays a few MB. Only a
qutrit's polar row, r**2 phase vectors, can exceed that: from resolution
91 (8,281) up to 103 (10,609) a block is one polar row. The top
eigenvalues come in closed form from the coordinates when the exact
party has dimension 2 or 3, and from LAPACK at dimension 4, where the
scan skips every point that a batched LDL^H test proves below the best
value so far, so the winner is the one the full solve would pick
(`_pruned_top_eigvals` and `_below` give the rounding argument). The
closed forms and the LDL^H test write into a few arrays per block, not
a new one per operation.
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
_CHUNK = 1 << 13
_ANCHOR_STRIDE = 32


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


def _coords(h: np.ndarray) -> np.ndarray:
    """Real Hermitian coordinates [h_kk; Re h_kl; Im h_kl] (k < l in
    `np.triu_indices` order) of each matrix in a (..., d, d) batch, read
    from the diagonal and the upper triangle, coordinate axis first:
    (d*d, ...)."""
    d = h.shape[-1]
    k, l = np.triu_indices(d, 1)
    upper = h[..., k, l]
    diag = h[..., range(d), range(d)].real
    return np.moveaxis(np.concatenate([diag, upper.real, upper.imag], axis=-1), -1, 0)


def _hermitian(c: np.ndarray) -> np.ndarray:
    """The (..., d, d) Hermitian matrices whose coordinates (`_coords`) are
    the (d*d, ...) real array c, both triangles filled exactly from them."""
    d = math.isqrt(c.shape[0])
    k, l = np.triu_indices(d, 1)
    h = np.zeros(c.shape[1:] + (d, d), dtype=np.complex128)
    h[..., range(d), range(d)] = np.moveaxis(c[:d], 0, -1)
    h.real[..., k, l] = h.real[..., l, k] = np.moveaxis(c[d : d + k.size], 0, -1)
    h.imag[..., k, l] = np.moveaxis(c[d + k.size :], 0, -1)
    h.imag[..., l, k] = -h.imag[..., k, l]
    return h


def _coordinate_operator(mt: np.ndarray, x: int) -> np.ndarray:
    """`_party_matrix(mt, x)` in real coordinates, as a (d_x**2, prod_{j!=x}
    d_j**2) array: a gridded party's coordinate rows (`_grid_tables`)
    contract it to the coordinates of party x's operator. With s_ij the
    blocks of a party's (i, j) row pairs and z = conj(f_k) f_l,

        sum_ij conj(f_i) f_j s_ij = sum_k |f_k|**2 s_kk
            + sum_{k<l} Re z (s_kl + s_lk) + Im z i(s_kl - s_lk),

    so each gridded party's row pairs become s_kk, s_kl + s_lk and
    i(s_kl - s_lk), all Hermitian, whose coordinates are the columns."""
    dims = mt.shape[: mt.ndim // 2]
    op = _party_matrix(mt, x)
    pre = 1  # the row pairs of the parties before j
    for j, d in enumerate(dims):
        if j != x:
            v = op.reshape(pre, d, d, -1)
            k, l = np.triu_indices(d, 1)
            kl, lk = v[:, k, l], v[:, l, k]
            op = np.concatenate([v[:, range(d), range(d)], kl + lk, 1j * (kl - lk)], axis=1)
            op = op.reshape(-1, dims[x] ** 2)
            pre *= d * d
    return np.ascontiguousarray(_coords(op.reshape(-1, dims[x], dims[x])))


def _grid_tables(d: int, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """A d-level party's two real tables: (d*d, n_pol) polar rows
    (m_k**2, m_k m_l, m_k m_l) and (d*d, n_ph) phase rows (1, cos(phi_l -
    phi_k), sin(phi_l - phi_k)), k < l, of the `_grid_axes` rows. Their
    entrywise product over grid index pol*n_ph + ph is the coordinate row
    (`_coords`) of that factor's outer product, conj(f_k) f_l at (k, l)."""
    mag, phase = _grid_axes(d, resolution)
    k, l = np.triu_indices(d, 1)
    cross = mag[:, k] * mag[:, l]
    z = phase[:, k].conj() * phase[:, l]
    mag2 = np.concatenate([mag * mag, cross, cross], axis=1)
    phase2 = np.concatenate([np.ones((z.shape[0], d)), z.real, z.imag], axis=1)
    return np.ascontiguousarray(mag2.T), np.ascontiguousarray(phase2.T)


def _grid_rows(mag2: np.ndarray, phase2: np.ndarray, lo: int, hi: int | None) -> np.ndarray:
    """Coordinate rows of conj(f) (x) f of the grid points in polar rows
    lo..hi-1, in grid order, as the columns of a (d*d, n) array, from the
    tables of `_grid_tables`."""
    return (mag2[:, lo:hi, None] * phase2[:, None, :]).reshape(phase2.shape[0], -1)


def _extremal_eigvals(c: np.ndarray) -> np.ndarray:
    """Top eigenvalue of each Hermitian matrix of a (d*d, ...) array of
    real coordinates (`_coords`).

    Closed form for d = 2 and 3, read from the coordinate rows; LAPACK
    `eigvalsh` on the matrices built from the coordinates (`_hermitian`)
    otherwise. At d = 3 it is the trigonometric root of the characteristic
    cubic (O. K. Smith, Commun. ACM 4(4):168, 1961), accurate to a few
    ulps of the matrix norm except where the top eigenvalue is doubly
    degenerate, where the cubic's double root costs about half the digits
    (1e-8 relative).

    Both closed forms write each step into one of a few block arrays, not
    a new array per step, and take the steps in the order of their plain
    expressions, which tests/test_oracle.py keeps as a reference, so every
    value keeps those expressions' bits.
    """
    d = math.isqrt(c.shape[0])
    if d == 2:
        # squares, not hypot as in `witness._bloch_top`: hypot took six
        # (2,2,2) scans at resolution 32 from 0.10 s to 0.27 s
        alpha, gamma, re, im = c
        top = np.add(alpha, gamma)
        rad, t = np.empty((2,) + top.shape)
        top *= 0.5
        np.subtract(alpha, gamma, out=rad)
        rad *= 0.5
        rad *= rad
        rad += np.multiply(re, re, out=t)
        rad += np.multiply(im, im, out=t)
        top += np.sqrt(rad, out=rad)
        return top
    if d == 3:
        a0, a1, a2, r01, r02, r12, i01, i02, i12 = c
        q = np.add(a0, a1)
        e0, e1, e2, n01, n02, n12, p, s, xr, xi, t, u = np.empty((12,) + q.shape)
        q += a2
        q /= 3.0
        np.subtract(a0, q, out=e0)
        np.subtract(a1, q, out=e1)
        np.subtract(a2, q, out=e2)
        for n, r, i in ((n01, r01, i01), (n02, r02, i02), (n12, r12, i12)):
            np.multiply(r, r, out=n)
            n += np.multiply(i, i, out=t)
        np.multiply(e0, e0, out=p)
        p += np.multiply(e1, e1, out=t)
        p += np.multiply(e2, e2, out=t)
        np.add(n01, n02, out=t)
        t += n12
        t *= 2.0
        p += t
        p /= 6.0
        np.sqrt(p, out=p)
        # B = (T - qI)/p has eigenvalues 2cos(angle), with cos(3 angle) =
        # det(B)/2. Each product is divided by p as it grows, so none goes
        # past p**2; a scalar block (p = 0) keeps B = 0 and so returns q.
        s.fill(1.0)
        np.divide(1.0, p, out=s, where=p > 0.0)
        e0 *= s
        e1 *= s
        e2 *= s
        np.multiply(r01, s, out=xr)  # b01/p, times b12/p, times conj(b02)/p
        np.multiply(i01, s, out=xi)
        np.multiply(xr, i12, out=t)  # the next xi, kept apart until xr is done
        t += np.multiply(xi, r12, out=u)
        t *= s
        xr *= r12
        xr -= np.multiply(xi, i12, out=u)
        xr *= s
        xi, t = t, xi
        xr *= r02
        xr += np.multiply(xi, i02, out=u)
        xr *= 2.0
        xr *= s
        det = np.multiply(e0, e1, out=t)
        det *= e2
        det += xr
        s *= s
        np.multiply(e0, n12, out=u)
        u += np.multiply(e1, n02, out=xr)
        u += np.multiply(e2, n01, out=xr)
        u *= s
        det -= u
        det *= 0.5
        np.clip(det, -1.0, 1.0, out=det)
        np.arccos(det, out=det)
        det /= 3.0
        p *= 2.0
        p *= np.cos(det, out=det)
        q += p
        return q
    return _lapack(np.linalg.eigvalsh, _hermitian(c))[..., -1]


def _below(c: np.ndarray, mu: float) -> np.ndarray:
    """True where lambda_max(H) < mu is proven, H the Hermitian matrix of
    each column of a (d*d, n) coordinate array (`_hermitian`), d <= 4.

    The test is a floating-point LDL^H of B = A~ - tau I, with a shift in
    Rump's style (S. M. Rump, BIT 46:433, 2006): A~ is mu I - H with its
    diagonal rounded, T the computed sum of the |A~_kk|, and tau =
    2**-47 T + 2**-1060, that is 64u T with u = 2**-53. It runs on the
    real and imaginary parts of B's entries as separate real arrays: an
    entry of L is one true division of each part by the real pivot (one
    rounding each, where numpy would divide a complex by a real through
    its reciprocal, two), its product with a conjugated entry is a complex
    product in real arithmetic, within sqrt(2) gamma_2 of the exact one
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, Lemma
    3.5), and a pivot loses |B_ij|**2 / D_j. If every pivot comes out
    positive, the computed factors give L D L^H = B + dB, positive
    definite, where |dB| <= g |L||D||L^H| entrywise with g = 16u
    covering, for order <= 4, a sum of at most three updates, each a
    division and such a product (ibid., Thm 10.3). By Cauchy-Schwarz on
    the rows of L D**(1/2), ||dB||_2 <= g/(1 - g) tr(B) <= 17u T.
    Rounding A~_kk and then B_kk moves each diagonal entry by at most
    u|A~_kk|, so mu I - H = (B + dB) + (tau I - dB + E) with ||E||_2 <=
    2.1u T, and tau I - dB + E is positive semidefinite since 17u T +
    2.1u T < tau. A positive definite plus a positive semidefinite matrix
    is positive definite: lambda_max(H) < mu. The absolute 2**-1060 covers
    underflow, whose errors of at most 2**-1075 per operation stay far
    below it. A failed pivot, an overflow or a NaN reads as not proven.
    """
    d = math.isqrt(c.shape[0])
    k, l = np.triu_indices(d, 1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        piv = np.subtract(mu, c[:d])
        tau, t, u, fr, fi = np.empty((5,) + piv.shape[1:])
        np.abs(piv[0], out=tau)
        for a in piv[1:]:
            tau += np.abs(a, out=t)
        tau *= 2.0**-47
        tau += 2.0**-1060
        piv -= tau
        # B's lower entries are -conj(h_kl) at (l, k). The recurrences run
        # on h_kl as stored, with the update's sign flipped: negation and
        # conjugation are exact, so the pivots are B's bit for bit.
        low = {}
        for m, (kj, lj) in enumerate(zip(k, l)):
            re, im = c[d + m], c[d + k.size + m]
            # entries right of column 0 are updated in place, so copies
            low[lj, kj] = (re, im) if kj == 0 else (re.copy(), im.copy())
        ok = piv[0] > 0.0
        for j in range(d - 1):
            for i in range(j + 1, d):
                wr, wi = low[i, j]
                if i > j + 1:
                    np.divide(wr, piv[j], out=fr)
                    np.divide(wi, piv[j], out=fi)
                for r in range(j + 1, i):  # low[i, r] += (w / piv[j]) conj(low[r, j])
                    ar, ai = low[r, j]
                    xr, xi = low[i, r]
                    np.multiply(fr, ar, out=t)
                    t += np.multiply(fi, ai, out=u)
                    xr += t
                    np.multiply(fi, ar, out=t)
                    t -= np.multiply(fr, ai, out=u)
                    xi += t
                np.multiply(wr, wr, out=t)
                t += np.multiply(wi, wi, out=u)
                t /= piv[j]
                piv[i] -= t
            ok &= piv[j + 1] > 0.0
    return ok


def _pruned_top_eigvals(c: np.ndarray, floor: float) -> np.ndarray:
    """Top eigenvalue of each 4x4 Hermitian matrix of a (16, n) coordinate
    array, any n >= 1 (column 0 is always an anchor), bit for bit as LAPACK
    gives it on the whole batch, or -inf where that value is provably below
    the bar max(floor, the anchors' values).

    LAPACK solves the anchor columns 0, S, 2S, ... (S = _ANCHOR_STRIDE);
    every other column is skipped only if `_below` proves lambda_max(H_i)
    < mu = bar - pad, pad = 2**-47 (|bar| + s) + 2**-1060, where s = 8
    max|c| >= ||H_i||_F >= ||H_i||_2 (H_i has 4 diagonal and 12 off-diagonal
    coordinates); the other columns go to LAPACK. LAPACK reads the very
    matrix H_i that `_below` tests, built exactly from the coordinates, and
    its top eigenvalue is that of H_i + E with ||E||_2 <= 16 eps ||H_i||_2
    (eps = 2**-52, a generous constant for its backward error at n = 4),
    so at most 16 eps s above lambda_max(H_i). Rounding mu costs at most
    u|mu|, so a skipped column has LAPACK value below
    mu + 16 eps s <= bar - pad + eps (|bar| + pad) / 2 + 16 eps s < bar:
    it neither beats the best so far nor ties with an anchor, and the
    first largest value, the scan's winner, is the unpruned scan's.
    """
    n = c.shape[1]
    anchors = slice(0, n, _ANCHOR_STRIDE)
    lam = np.full(n, -np.inf)
    lam[anchors] = _extremal_eigvals(c[:, anchors])
    bar = max(floor, lam[anchors].max())
    s = 8.0 * max(c.max(), -c.min())
    keep = ~_below(c, bar - (2.0**-47 * (abs(bar) + s) + 2.0**-1060))
    keep[anchors] = False
    rows = np.flatnonzero(keep)
    if rows.size:
        lam[rows] = _extremal_eigvals(c[:, rows])
    return lam


def _scan_grid(
    mt: np.ndarray, dims: tuple[int, ...], x: int, resolution: int
) -> list[int]:
    """Grid every party but `x`, solve `x` exactly. Returns the winning grid
    index of each gridded party; the first point at the largest value wins.

    Every party is carried in real Hermitian coordinates: the operator is
    mapped once per scan (`_coordinate_operator`), each gridded party's
    two real tables are built once per scan (`_grid_tables`), and a
    block's coordinate rows are their broadcast product (`_grid_rows`).
    `_support_check` leaves at most one lead party before the last gridded
    one: the first of three qubits. Its whole grid (at most 5,402 points,
    at resolution 73) contracts the operator in one real GEMM, and the
    lead blocks are slices of that product. A last-party block is as many
    whole polar rows as fit in _CHUNK = 8,192 points (one row if none
    fits: a qutrit's r**2 phase vectors from resolution 91 on), times as
    many lead points as keep the block within _CHUNK. The last party's
    blocks are the outer loop and the lead blocks the inner one. Each
    block is one real GEMM giving the coordinates of party x's operators,
    coordinate axis first. For a four-level `x`, LAPACK sees only a
    block's anchors and the points that `_below` cannot place under the
    best value so far (`_pruned_top_eigvals`).
    """
    gridded = [k for k in range(len(dims)) if k != x]
    if not gridded:
        return []
    # The closed forms square coordinates, so the scan runs on mt scaled by
    # a power of two to a largest part in [0.5, 1), which cannot overflow.
    # Every step commutes with that scaling, so the winner does not move.
    _, e = math.frexp(float(np.abs(mt.view(np.float64)).max()))
    mt = np.ldexp(mt.view(np.float64), -e).view(np.complex128)
    *lead, last = gridded
    dx = dims[x]
    n_last = dims[last] ** 2
    op = _coordinate_operator(mt, x).reshape(dx * dx, -1, n_last).transpose(1, 0, 2)
    if lead:
        lead_rows = _grid_rows(*_grid_tables(dims[lead[0]], resolution), 0, None)
        op = (lead_rows.T @ op.reshape(lead_rows.shape[0], -1)).reshape(-1, dx * dx, n_last)
    mag2, phase2 = _grid_tables(dims[last], resolution)
    n_ph = phase2.shape[1]
    rows = max(1, _CHUNK // n_ph)
    lead_step = max(1, _CHUNK // (min(rows, mag2.shape[1]) * n_ph))
    best_val = -np.inf
    best_lead = best_last = -1
    # Every supported structure has one lead block (no lead party) or one
    # last block (the last of three qubits has at most 5,402 points), so
    # either loop runs once and the blocks are visited in row-major order,
    # which the first-maximum tie-break relies on.
    for lo in range(0, mag2.shape[1], rows):
        q = _grid_rows(mag2, phase2, lo, lo + rows)
        for lead_start in range(0, op.shape[0], lead_step):
            c = (op[lead_start : lead_start + lead_step] @ q).transpose(1, 0, 2)
            if dx == 4:
                lam = _pruned_top_eigvals(c.reshape(16, -1), best_val)
            else:
                lam = _extremal_eigvals(c).ravel()
            j = int(np.argmax(lam))
            if lam[j] > best_val:
                best_val = lam[j]
                i_lead, i_last = divmod(j, q.shape[1])
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
    signed = s * mt  # not -mt: see `witness._optimize` on signed zeros
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
