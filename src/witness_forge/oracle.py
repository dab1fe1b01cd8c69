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
at full size, and never builds the witness matrix: it does not use the
base-size `Witness.blocks` that `verify_witness` searches, so it checks
that reduction independently.

Grids are nested under resolution doubling, and every party has one
layout: d-1 polar indices, most significant first, then d-1 phase
indices j with phi_j = 2*pi*j/resolution, giving the factor
(cos t_1, e^{i phi_1} sin t_1 cos t_2, ..., e^{i phi_{d-1}} sin t_1 ...
sin t_{d-1}), first amplitude real nonnegative (a global factor phase
never changes the expectation). Only the polar steps t depend on d
(`_polar_steps`, `_polar_angles`): a qubit's are the half-angles of
theta_i = i*pi/resolution (i = 0..resolution), and those of dimensions 3
and 4 step on [0, pi/2] in resolution//2 steps. A factor is thus a real
polar magnitude row times a phase vector (1, e^{i phi_1}, ...), and
`_grid_axes` builds the two tables, one row per combination of the polar
digits and of the phase digits. `_grid_factors` multiplies the rows of a
grid index; the arithmetic is the per-point formula's, in the same order,
so they match it bit for bit.

Parties of dimension 1 are dropped before anything else, their factor
(1) put back in the winner, so a (2,1,2) input is scanned as (2,2); if
every party is trivial, one is kept. Supported, then: one or two parties
of dimension <= 4, or three qubits, where the joint grid of the gridded
parties fits MAX_JOINT_GRID (3e7 points); `_support_check` alone decides
this, by arithmetic, before anything is built. (3,3) fits up to
resolution 103, three qubits up to 73, and (4,4) at no allowed
resolution (1.6e8 points at 32). So the scan has at most one lead party
(three qubits) before the last gridded one.

The scan works in real Hermitian coordinates: a d x d Hermitian h is the
d*d real vector [h_kk; Re h_kl; Im h_kl], k < l (`_coords`). The outer
product conj(f) (x) f of a grid factor then splits into a real polar row
(m_k**2, m_k m_l, m_k m_l) times a real phase row (1, cos(phi_l - phi_k),
sin(phi_l - phi_k)), so each gridded party's two tables are built once
per scan (`_grid_tables`) and a block's rows are one entrywise product
of them: a broadcast one, or with two parties one of the two tables'
columns gathered at the points a box test leaves. The operator is mapped
to these coordinates once per scan, rows and columns
(`_coordinate_operator`), the lead party's whole grid contracts it in one
real GEMM, and each block is one more real GEMM giving the coordinates of
the exact party's operators. Without a lead party, a block is as many
whole polar rows of the last party as fit in _CHUNK = 8,192 points (the
rows that no cell test below skips, in ascending order, less their phase
boxes that a box test skips), so its working set stays a few MB; only a
qutrit's polar row, r**2 phase vectors, can exceed that: from resolution
91 (8,281) up to 103 (10,609) a block is one polar row. With three
qubits, a block is the last qubit's whole grid, at most 5,402 points at
resolution 73, times as many lead points as fit in _CHUNK. The top
eigenvalues come in closed form from the coordinates when the exact
party has dimension 2 or 3, and from LAPACK at dimension 4, where the
scan skips every point that the cells' test proves below the best value
so far (`_pruned_top_eigvals`). The closed forms and the LDL^H test
(`_below`) write into a few arrays per block, not a new one per
operation.

Every scan skips whole cells, of one kind: a set of grid points with a
bound lambda_max(C) + t on each of their values, C Hermitian and t >= 0.
With three qubits, lead point g's cell is the last qubit's whole grid at
g, C = K_g, the two-qubit operator that g leaves on the last and exact
qubits, and t = 0. With two parties, a cell is a box of a polar row m of
the gridded party (`_box_cells`): C is the operator at the box's centre
and t = sum_{k<l} m_k m_l dev_kl w_kl, w_kl from the Frobenius norms of
the operator's (k, l) pairs and dev_kl the box's largest deviation of
the pair's phase from the centre's. The polar row itself is the root
box, centred at (0, 0) with deviation 1, where C = D_m = sum_k m_k**2
S_kk comes from the operator's diagonal row pairs; the rows left are
split into phase boxes of about four grid phases (`_phase_boxes`).
Lead cells and rows are visited best bound first, by a LAPACK-free proxy
read from the trace and Frobenius norm of C plus t, in windows that are
tested once each, and a block's phase boxes are tested once per block.
Every skip is one test, `_cells_below`: a cell whose bound `_below`
proves below the best value so far less one pad is skipped, GEMM and
closed form both, and at a four-level exact party so is a point, a cell
with t = 0. The pad covers the rounding of the bounds, of the block's
GEMM and of the exact party's value, the qutrit cubic's loss of about
sqrt(u) near a doubly degenerate top included. The best value is kept
with its key, the grid index, and a later block wins a tie only with a
smaller key, so the winner is the point, and the value, that a scan
without cells picks (`_scan_grid` derives the pad and the tie rule).
"""

from __future__ import annotations

import functools
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
_WINDOW = 512  # most cells `_below` tests at once
_BOX = 4  # grid phases in a two-party scan's phase box


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
    mag[pol] * phase[ph]."""
    r = resolution
    theta = _polar_angles(d, r)
    n_t = theta.size
    polars = np.unravel_index(np.arange(n_t ** (d - 1)), (n_t,) * (d - 1))
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    mag = np.empty((n_t ** (d - 1), d))
    running = np.ones(mag.shape[0])
    for k in range(d - 1):
        mag[:, k] = running * cos_t[polars[k]]
        running = running * sin_t[polars[k]]
    mag[:, d - 1] = running
    phi = np.exp(2j * math.pi * np.arange(r) / r)
    phases = np.unravel_index(np.arange(r ** (d - 1)), (r,) * (d - 1))
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


@functools.cache
def _triu(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The (k, l) pairs, k < l, of `np.triu_indices(d, 1)`, built once per d
    and read-only, since every block's `_hermitian` and `_below` read them."""
    k, l = np.triu_indices(d, 1)
    k.flags.writeable = l.flags.writeable = False
    return k, l


def _coords(h: np.ndarray) -> np.ndarray:
    """Real Hermitian coordinates [h_kk; Re h_kl; Im h_kl] (k < l in `_triu`
    order) of each matrix in a (..., d, d) batch, read from the diagonal and
    the upper triangle, coordinate axis first: (d*d, ...)."""
    d = h.shape[-1]
    k, l = _triu(d)
    upper = h[..., k, l]
    diag = h[..., range(d), range(d)].real
    return np.moveaxis(np.concatenate([diag, upper.real, upper.imag], axis=-1), -1, 0)


def _hermitian(c: np.ndarray) -> np.ndarray:
    """The (..., d, d) Hermitian matrices whose coordinates (`_coords`) are
    the (d*d, ...) real array c, both triangles filled exactly from them."""
    d = math.isqrt(c.shape[0])
    k, l = _triu(d)
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
            k, l = _triu(d)
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
    k, l = _triu(d)
    cross = mag[:, k] * mag[:, l]
    z = phase[:, k].conj() * phase[:, l]
    mag2 = np.concatenate([mag * mag, cross, cross], axis=1)
    phase2 = np.concatenate([np.ones((z.shape[0], d)), z.real, z.imag], axis=1)
    return np.ascontiguousarray(mag2.T), np.ascontiguousarray(phase2.T)


def _grid_rows(mag2: np.ndarray, phase2: np.ndarray, rows: slice | np.ndarray) -> np.ndarray:
    """Coordinate rows of conj(f) (x) f of the grid points in the polar
    rows `rows` (a slice or an index array), row by row and each row in
    phase order, as the columns of a (d*d, n) array, from the tables of
    `_grid_tables`."""
    return (mag2[:, rows, None] * phase2[:, None, :]).reshape(phase2.shape[0], -1)


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


def _below(c: np.ndarray, mu: float | np.ndarray) -> np.ndarray:
    """True where lambda_max(H) < mu is proven, H the Hermitian matrix of
    each column of a (d*d, n) coordinate array (`_hermitian`), d <= 4, and
    mu one float or an (n,) array, a threshold per column.

    Each column is tested on its own, against its own mu: the test is a
    floating-point LDL^H of B = A~ - tau I, with a shift in
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
    below it. A failed pivot, an overflow or a NaN reads as not proven,
    and the factorization stops once every column has failed one.
    """
    d = math.isqrt(c.shape[0])
    k, l = _triu(d)
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
            if not ok.any():  # every column has failed a pivot
                break
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


def _pruned_top_eigvals(c: np.ndarray, floor: float, a: float) -> np.ndarray:
    """Top eigenvalue of each 4x4 Hermitian matrix of a (16, n) coordinate
    array, any n >= 1 (column 0 is always an anchor), bit for bit as LAPACK
    gives it on the whole batch, or -inf where that value is provably below
    the bar max(floor, the anchors' values).

    LAPACK solves the anchor columns 0, S, 2S, ... (S = _ANCHOR_STRIDE);
    every other column is a point, a cell with t = 0, that `_cells_below`
    tests against the bar with the scan's pad, and only the points it
    cannot prove below the bar go to LAPACK. a is the scan's, or any a with
    ||H_i||_F <= 17a for every column's matrix H_i, as the scan's has;
    `_scan_grid` derives why a skipped point's LAPACK value is below the
    bar, so that it neither beats the best so far nor ties with an anchor,
    and the first largest value, the scan's winner, is the unpruned scan's.
    """
    n = c.shape[1]
    anchors = slice(0, n, _ANCHOR_STRIDE)
    lam = np.full(n, -np.inf)
    lam[anchors] = _extremal_eigvals(c[:, anchors])
    keep = ~_cells_below(c, 0.0, max(floor, lam[anchors].max()), a, 4)
    keep[anchors] = False
    rows = np.flatnonzero(keep)
    if rows.size:
        lam[rows] = _extremal_eigvals(c[:, rows])
    return lam


def _frobenius2(c: np.ndarray) -> np.ndarray:
    """||H||_F**2 of the Hermitian matrix H of each column of a (d*d, n)
    coordinate array: the squares of its d diagonal coordinates plus twice
    those of its off-diagonal ones."""
    d = math.isqrt(c.shape[0])
    return np.einsum("ij,ij->j", c, c) + np.einsum("ij,ij->j", c[d:], c[d:])


def _pair_norms(op: np.ndarray, d: int) -> np.ndarray:
    """w_kl = (||A_kl||_F**2 + ||B_kl||_F**2)**(1/2) for each pair k < l of
    a d-level gridded party, A_kl = S_kl + S_lk and B_kl = i(S_kl - S_lk)
    the Hermitian matrices of the (dx*dx, d*d) coordinate operator op's
    pair columns (`_coordinate_operator`)."""
    k = d * (d - 1) // 2
    frob = _frobenius2(op)
    return np.sqrt(frob[d : d + k] + frob[d + k :])


def _phase_boxes(d: int, resolution: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The boxes a d-level party's phase grid splits into: runs of _BOX
    phases on a qubit's axis, squares of isqrt(_BOX) by isqrt(_BOX) on a
    qutrit's two, the last on an axis shorter where the side does not
    divide the resolution.

    Returns the (d*d, n_box) phase rows (`_grid_tables`) at each box's
    centre phases c, the (pairs, n_box) deviations 2 sin(delta_kl/2), with
    delta_kl the largest distance of the pair's phase difference phi_l -
    phi_k from c_l - c_k over the box's grid phases (the half-spans of
    axes k and l, 0 for the real amplitude), and the (n_ph,) box of each
    phase index. At _BOX = 4, delta_kl <= 3 pi/resolution, below pi as
    `_box_cells` needs."""
    r = resolution
    side = _BOX if d == 2 else math.isqrt(_BOX)
    lo = np.arange(0, r, side)
    hi = np.minimum(lo + side, r)
    shape = (lo.size,) * (d - 1)
    n_box = lo.size ** (d - 1)
    boxes = np.unravel_index(np.arange(n_box), shape)
    centre, reach = np.zeros((2, d, n_box))
    for k in range(1, d):
        centre[k] = (lo + hi - 1)[boxes[k - 1]] * (math.pi / r)
        reach[k] = (hi - 1 - lo)[boxes[k - 1]] * (math.pi / r)
    k, l = _triu(d)
    diff = centre[l] - centre[k]
    centre2 = np.concatenate([np.ones((d, n_box)), np.cos(diff), np.sin(diff)])
    dev = 2.0 * np.sin((reach[k] + reach[l]) / 2.0)
    digits = np.unravel_index(np.arange(r ** (d - 1)), (r,) * (d - 1))
    return centre2, dev, np.ravel_multi_index(tuple(j // side for j in digits), shape)


def _box_cells(
    op: np.ndarray, w: np.ndarray, mag2: np.ndarray, centre2: np.ndarray, dev: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The cells of a two-party scan (gridded party of dimension d, pairs
    k < l), boxes of the polar rows `rows`, from the (dx*dx, d*d)
    coordinate operator `op` (`_coordinate_operator`), its pair norms `w`
    (`_pair_norms`), the polar table `mag2` (`_grid_tables`), and each
    box's (d*d, n_box) centre row and (pairs, n_box) deviations dev_kl: a
    phase box's of `_phase_boxes`, or the root box, the whole row, with
    centre row (1, ..., 1, 0, ..., 0) and deviation 1. Returns the (dx*dx,
    rows, n_box) coordinates of C_b = D_m + sum_{k<l} m_k m_l (x_kl A_kl +
    y_kl B_kl) and the (rows, n_box) terms t_b = sum_{k<l} m_k m_l dev_kl
    w_kl, where D_m = sum_k m_k**2 S_kk, S_kk, A_kl and B_kl are the
    Hermitian matrices of op's columns, and (x_kl, y_kl) is the centre's
    (cos c_kl, sin c_kl), c_kl its phase difference, or (0, 0) at a root.

    A point of row m with phase differences Delta_kl has the operator D_m +
    sum_{k<l} m_k m_l (cos Delta_kl A_kl + sin Delta_kl B_kl), whose pairs
    (cos, sin) lie within dev_kl of the centre's: within |e^{i Delta} -
    e^{i c}| <= 2 sin(delta_kl/2) in a phase box, at exactly 1 from (0, 0)
    at the root. By Weyl's inequality and ||x A + y B||_2 <= (x**2 +
    y**2)**(1/2) w_kl (Cauchy-Schwarz on the Frobenius norm), its top
    eigenvalue is at most lambda_max(C_b) + t_b."""
    d = math.isqrt(mag2.shape[0])
    cells = (op @ _grid_rows(mag2, centre2, rows)).reshape(op.shape[0], rows.size, -1)
    return cells, (mag2[d : d + w.size, rows].T * w) @ dev


def _cell_order(cells: np.ndarray, term: np.ndarray) -> np.ndarray:
    """Cell indices, largest first, of a LAPACK-free proxy for each cell's
    bound: the top eigenvalue of the d x d Hermitian matrix C of each
    column of a (d*d, n) coordinate array, read as mean + sqrt(d - 1) sd
    of its eigenvalues from tr C and ||C||_F (an upper bound in exact
    arithmetic; Wolkowicz and Styan, Linear Algebra Appl. 29:471, 1980),
    plus the cell's term. Ties keep index order."""
    d = math.isqrt(cells.shape[0])
    mean = cells[:d].sum(axis=0) / d
    spread = np.sqrt(np.maximum(0.0, _frobenius2(cells) / d - mean * mean))
    return np.argsort(-(mean + math.sqrt(d - 1) * spread + term), kind="stable")


def _cells_below(
    cells: np.ndarray, term: np.ndarray | float, best: float, a: float, dx: int
) -> np.ndarray:
    """True where a cell is proven to hold no grid value of `best` or more:
    `_below` proves lambda_max(C) < best - pad - t, C the Hermitian matrix
    of a column of the (dx*dx, ...) coordinate array `cells` (a lead
    point's, a box's or a point's) and t its entry of `term`, an array of
    the columns' shape, or one float. a and dx, the exact party's
    dimension, are as in `_scan_grid`, which derives the pad. Against
    best = -inf, mu is -inf and nothing is proven."""
    pad = (2.0**-16 if dx == 3 else 2.0**-40) * (abs(best) + a) + 2.0**-530
    return _below(cells, best - pad - term)


def _scan_grid(
    mt: np.ndarray, dims: tuple[int, ...], x: int, resolution: int
) -> list[int]:
    """Grid every party but `x`, solve `x` exactly. Returns the winning grid
    index of each gridded party; the first point at the largest value wins.

    Every party is carried in real Hermitian coordinates: the operator is
    mapped once per scan (`_coordinate_operator`), each gridded party's
    two real tables are built once per scan (`_grid_tables`), and a
    block's coordinate rows are their entrywise product: broadcast
    (`_grid_rows`) with three qubits, and with two parties gathered at the
    points that the phase boxes below leave.
    `_support_check` leaves at most one lead party before the last gridded
    one: the first of three qubits. Its whole grid (at most 5,402 points,
    at resolution 73) contracts the operator in one real GEMM, `op`, whose
    row g maps the last qubit's coordinate rows to the exact qubit's
    coordinates. Each block is one real GEMM giving the coordinates of
    party x's operators, coordinate axis first. For a four-level `x`,
    LAPACK sees only a block's anchors and the points that the cells'
    test cannot place under the best value so far (`_pruned_top_eigvals`).

    Cells. Every scan splits its grid into cells, each with a bound
    lambda_max(C) + t on every grid value in it, C Hermitian and t >= 0:
    - with three qubits, lead point g's cell is the whole last grid at g,
      C = K_g and t = 0. K_g, the two-qubit operator on (last (x) exact)
      that op[g] contracts, is the lead party's row g contracting the
      operator on (lead, last (x) exact), `_coordinate_operator` of mt as
      two parties of 2 and 4 levels;
    - with two parties, a cell is a polar row m of the gridded party, its
      r**(d-1) phase vectors: the root box of `_box_cells`, whose C = D_m
      and t = sum_{k<l} m_k m_l w_kl.
    The cells are visited best proxy first (`_cell_order`), in windows:
    the first is one cell, and each later one three times as many cells as
    were visited before it, at least one block and at most _WINDOW = 512,
    so a scan makes a few tests, not one per block. `_cells_below` tests
    each window once, against the best value so far less the pad and each
    cell's t; a proven cell is skipped, GEMM and closed form both, and the
    survivors run in blocks of max(1, _CHUNK // points) cells, `points` a
    cell's size, each in ascending index order. A block thus holds at most
    _CHUNK = 8,192 points, or one cell that is larger alone: a qutrit's
    polar row of r**2 phase vectors from resolution 91 on. Testing every
    unvisited cell after each block instead would be quadratic in the
    cells.

    Phase boxes. With two parties, a block's rows are split once more,
    each into the phase boxes of `_phase_boxes`: runs of _BOX = 4 phases
    of a qubit, 2 x 2 of a qutrit's two phases, shorter at the end of an
    axis that the side does not divide. Box b of row m has the bound
    lambda_max(C_b) + t_b of `_box_cells`, C_b the operator at the box's
    centre phases and t_b = sum_{k<l} m_k m_l 2 sin(delta_kl/2) w_kl,
    delta_kl the largest deviation of the pair's phase difference from
    the centre's over the box. One `_cells_below` call tests all of a
    block's boxes against the best value so far less the pad and each
    box's t_b, and only the points of the boxes it cannot prove below
    that value reach the GEMM and the exact party's solve, gathered in
    index order. A block's first point at its largest value is thus its
    smallest grid index there.

    The pad. Let u = 2**-53, and a the larger of max|op| and, with three
    qubits, the largest entry of K_g's operator, after the power-of-two
    scaling; H_j is the Hermitian matrix of column j of op[g] (three
    qubits) or of op (two parties). A table entry is a product of cos,
    sin and the phase's cos and sin, each within an ulp, and two
    roundings, so a table row q^ lies within 8u, entrywise, of the
    coordinate row q of a unit vector f at the grid's float angles (tests
    pin the rows at 8u of the float factors' outer products). Each level
    bounds a computed grid value by its bound, as computed, plus a
    rounding allowance:
    - Lead cell g (three qubits). mt is made exactly Hermitian first, so
      the lead party's pair sums R_j (`_coordinate_operator`, j its four
      coordinates), which op and K_g's operator form alike, are exactly
      Hermitian on (last (x) exact). K_g's operator holds R_j's
      coordinates; before the lead grid contracts it, op's row j holds,
      for the last qubit's coordinates i, those of T_i(R_j): the blocks
      r_00 and r_11, and r_01 + r_10 and i(r_01 - r_10), one rounding
      each, so entries at most 2a (1 + u). Let K_g = sum_j q^_j R_j
      exactly, q^ the lead point's row, sum_j |q^_j| <= 1 + 1/sqrt(2) +
      32u <= 1.71. Then K_g as computed, a GEMM of 4 terms, is within
      gamma_4 1.71a <= 7u a of K_g in each coordinate, so within sqrt(28)
      7u a <= 38u a in norm; op[g] is within 1.71 (u + gamma_4) 2a (1 +
      u) <= 18u a of T_i(K_g) = sum_j q^_j T_i(R_j) in each coordinate;
      and the block's GEMM moves each of the exact qubit's four
      coordinates by at most gamma_4 1.71a <= 7u a. So the computed
      coordinates lie within 1.71 18u a + 7u a <= 38u a of sum_i q^'_i
      T_i(K_g), q^' the last point's row, and the matrix within sqrt(6)
      38u a <= 94u a in norm (||H||_2 <= sqrt(6) times its largest
      coordinate at d = 2). sum_i q^'_i T_i(K_g) is within sum_i 8u
      ||T_i(K_g)||_2 <= 4 (8u) sqrt(6) a (1 + 18u) <= 79u a of sum_i q_i
      T_i(K_g), which is K_g compressed by f (x) I, with top eigenvalue at
      most lambda_max(K_g). The d = 2 closed form on coordinates of size
      at most C = 1.72a loses at most 10u C <= 18u a: one rounding in
      (alpha + gamma)/2, five in the radicand, whose root is at most
      sqrt(3) C, one in the root and one in the sum; its squares can
      underflow by 2**-1075 each, at most 2**-536 under the root, and the
      GEMMs' underflows stay below 2**-1060. So a computed grid value in
      cell g is at most lambda_max(K_g^) + 229u a + 2**-536, K_g^ as
      computed.
    - Box b (two parties), root or phase box of a polar row m, with the
      gridded party's dimension d and the exact party's dx, both at most
      4, and m_k**2 and m_k m_l the entries of the row's polar table. Then
      ||H_j||_F <= sqrt(dx (2dx - 1)) a <= sqrt(28) a, q^ holds m_k**2
      exactly (the phase entry is 1), sum_k m_k**2 <= 1 + 16u, each pair
      (m_k m_l c^, m_k m_l s^) of q^ has c^**2 + s^**2 <= (1 + 9u)**2, and
      sum_j |q^_j| <= 1 + sqrt(2) (d - 1)/2 + 48u <= 3.2, as has the box's
      centre row times the polar table. Let (c~, s~) be that product's
      pair over m_k m_l. Then |(c^, s^) - (c~, s~)| <= dev_kl + 107u: at
      the root (c~, s~) = (0, 0) and dev_kl = 1; in a phase box (c^, s^)
      is within 8u of e^{i D^}, D^ the difference of the point's float
      phases (cos and sin within an ulp each, an exact product at k = 0 or
      a complex product of two such at k >= 1, and one rounding by m_k
      m_l), D^ is within 51u of the exact 2 pi (j_l - j_k)/r, each float
      phase below 2 pi carrying at most four roundings, that exact
      difference is within delta_kl of the exact centre difference c, the
      centre's float difference c^ is within 45u of c (three roundings of
      each centre phase, one of their difference), and (c~, s~) is within
      3u of e^{i c^}. So, by the bound of `_box_cells`, sum_j q^_j H_j,
      which is C_b (from the centre row as computed, exactly) plus the
      pairs' m_k m_l ((c^ - c~) A_kl + (s^ - s~) B_kl), has top eigenvalue
      at most lambda_max(C_b) + t_b + 107u sum m_k m_l w_kl <=
      lambda_max(C_b) + t_b + 1210u a, as sum_{k<l} m_k m_l <= 1.5 and
      w_kl <= sqrt(56) a. Further,
      - t_b <= 1.5 sqrt(56) a <= 11.3a at the root and, at resolution 32
        or more, where delta_kl <= 3 pi/32 and 2 sin(delta_kl/2) <= 0.3,
        t_b <= 3.4a in a phase box. The computed t_b^ (sums of at most 32
        nonnegative squares and a root for w_kl, a product by m_k m_l, one
        by dev_kl, exact at the root and at least (1 - 7u) times 2
        sin(delta_kl/2) in a phase box, and a sum of at most 3 nonnegative
        terms) is at least (1 - 37u) t_b, so t_b <= t_b^ + 430u a;
      - C_b's GEMM of d**2 <= 16 terms moves each coordinate by at most
        gamma_16 3.2a <= 52u a, C_b by at most sqrt(28) 52u a <= 276u a in
        norm, and the block's GEMM the point's matrix by as much. The
        computed matrix H^ has ||H^||_F <= N = 3.2 sqrt(28) a (1 + 52u) <=
        17a, or N <= 2.42 sqrt(15) a <= 9.4a at dx = 3, where d <= 3;
      - a computed top eigenvalue exceeds lambda_max(H^) by at most 10u C
        <= 33u a + 2**-536 for the d = 2 squares, with C <= 3.2a (1 +
        52u) as above; by at most 16 eps N <= 544u a from LAPACK (eps =
        2**-52, a generous constant for its backward error at order 4);
        and by at most 20 sqrt(u) N <= 2**-18 a for the qutrit cubic. Its
        angle is arccos r, r = det(B)/2, B = (H^ - qI)/p. To first order,
        q and p carry errors of a few u N, which the division by p makes
        24u N/p + 5u on each entry of B; the cofactors of B are at most
        ||B||_F**2/2 = 3 and perm|B| <= 6**(3/2), so the computed r moves
        by delta <= 324u N/p + 141u. arccos moves by at most pi
        (delta/2)**(1/2), and 2p cos(angle/3) by at most 2p/3 times that,
        (2 pi/3) (u (162 N p + 71 p**2))**(1/2) <= 19 sqrt(u) N as p <=
        N/sqrt(6); the other roundings add a few u N. This is the loss of
        about sqrt(u) at a doubly degenerate top, where r = -1: on I/3 (x)
        P, P a rank-two projector in a random basis of the exact qutrit,
        the computed values of a (3,3) grid at resolution 32 exceed their
        rows' bound, which is their exact value, by up to 8e-9 of it (four
        random bases), and a pad of 2**-40 moves the winner. Elsewhere the
        cubic is within a few ulps.
      So a computed grid value in box b is at most lambda_max(C_b^) + t_b^
      + 2192u a plus the last bullet's excess, C_b^ as computed.
    - Point, at a four-level exact party. `_pruned_top_eigvals` skips a
      point, a cell with t = 0, only where lambda_max(H^) is proven below
      the bar less the pad, H^ the matrix that LAPACK would read, and
      LAPACK's value is at most lambda_max(H^) + 544u a, as in a box.
    `_below` proves lambda_max(C) < mu, where mu is best - pad - t rounded
    twice, within 2u (|best| + pad + t) <= 2u (|best| + pad) + 23u a of
    its exact value (t = 0 at a lead cell or a point, t <= 11.3a at a
    box), best the bar at a point. With pad = 2**-40 (|best| + a) +
    2**-530, 8192u (|best| + a) covers 229u a + 2u (|best| + pad) at a
    lead cell, 2192u a + 544u a + 23u a + 2u (|best| + pad) at a box and
    544u a + 2u (|best| + pad) at a point; at a qutrit exact party, pad =
    2**-16 (|best| + a) + 2**-530 covers 2**-18 a and the rest. So every
    skipped grid value, of a cell, a box or a point, is strictly below the
    best value so far, or the point's bar, which is at least that, and the
    pad keeps its value. The pad is needed: on I/8, one grid value is
    0.5000000000000001 while lambda_max(K_g) = 0.5. Against best = -inf,
    the pad is inf, mu is -inf and `_below` proves nothing, so the scan's
    first window and first block run whole on the path every other takes.

    The winner. The best value so far is kept with its key, the grid
    index: lead index * points + last index with three qubits, polar row
    * points + phase index with two parties, the order in which a scan
    without cells visits the points. A block wins on a larger value, or
    on an equal one with a smaller key. A block's cells ascend, and its
    points within a cell too, boxes or not, so its first largest value
    has its smallest key; a skipped cell, box or point lies strictly below
    the best value, which only grows, or below its block's bar, so it
    never holds a tie. So the winner is the first largest point of the
    scan without cells, as a point's value does not depend on the block it
    runs in.
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
    if lead:  # K_g reads one triangle of each block and op both: make them agree
        mt = (mt + mt.conj().transpose(3, 4, 5, 0, 1, 2)) / 2
    dx = dims[x]
    n_last = dims[last] ** 2
    op = _coordinate_operator(mt, x).reshape(dx * dx, -1, n_last).transpose(1, 0, 2)
    mag2, phase2 = _grid_tables(dims[last], resolution)
    if lead:
        lead_rows = _grid_rows(*_grid_tables(dims[lead[0]], resolution), slice(None))
        op = (lead_rows.T @ op.reshape(lead_rows.shape[0], -1)).reshape(-1, dx * dx, n_last)
        k = _coordinate_operator(mt.reshape(2, 4, 2, 4), 1)
        cells, term = k @ lead_rows, np.zeros(op.shape[0])
        a = max(float(np.abs(op).max()), float(np.abs(k).max()))
        q = _grid_rows(mag2, phase2, slice(None))
        points = q.shape[1]

        def coordinates(block: np.ndarray, best: float) -> tuple[np.ndarray, None]:
            return (op[block] @ q).transpose(1, 0, 2), None  # lead cells x the last grid
    else:
        d = dims[last]
        w = _pair_norms(op[0], d)
        root = np.repeat([1.0, 0.0], [d, d * d - d])[:, None]  # centred at (0, 0)
        cells, term = _box_cells(op[0], w, mag2, root, np.ones((w.size, 1)), np.arange(mag2.shape[1]))
        cells, term = cells[..., 0], term[:, 0]
        a = float(np.abs(op).max())
        points = phase2.shape[1]
        centre2, dev, box_of = _phase_boxes(d, resolution)

        def coordinates(block: np.ndarray, best: float) -> tuple[np.ndarray, np.ndarray]:
            # the points of polar rows `block`, in index order, less those
            # of boxes proven below best, and their positions in the block
            box_cells, box_term = _box_cells(op[0], w, mag2, centre2, dev, block)
            at = np.flatnonzero(~_cells_below(box_cells, box_term, best, a, dx)[:, box_of])
            row, ph = np.divmod(at, points)
            # gathered into C order: a GEMM on the gathers' own layout ran
            # about twice as slow
            q = np.take(mag2, block[row], axis=1, out=np.empty((mag2.shape[0], at.size)))
            q *= np.take(phase2, ph, axis=1)
            return op[0] @ q, at
    order = _cell_order(cells, term)
    step = max(1, _CHUNK // points)
    best_val, best_key = -np.inf, order.size * points  # a key past every point
    done = 0
    while done < order.size:
        window = order[done : done + (max(step, min(3 * done, _WINDOW)) if done else 1)]
        done += window.size
        window = np.sort(window[~_cells_below(cells[:, window], term[window], best_val, a, dx)])
        for start in range(0, window.size, step):
            block = window[start : start + step]
            c, at = coordinates(block, best_val)
            if not c.size:
                continue
            if dx == 4:
                lam = _pruned_top_eigvals(c.reshape(16, -1), best_val, a)
            else:
                lam = _extremal_eigvals(c).ravel()
            j = int(lam.argmax())
            if lam[j] >= best_val:
                i_cell, i_point = divmod(j if at is None else int(at[j]), points)
                key = int(block[i_cell]) * points + i_point
                if lam[j] > best_val or key < best_key:
                    best_val, best_key = lam[j], key
    return list(divmod(best_key, points)) if lead else [best_key]


def _scan(m: ComplexMatrix, s: int, resolution: int) -> tuple[float, ProductState]:
    """Grid maximum of <mu|s*m|mu> for s = +1 or -1, polished; the value
    is reported as <mu|m|mu> of the winner."""
    m.require_hermitian()
    resolution = int(resolution)
    dims = m.dims
    n = len(dims)
    # the scan drops parties of dimension 1, whose one factor is (1)
    kept = [k for k in range(n) if dims[k] > 1] or [0]
    sub = tuple(dims[k] for k in kept)
    x_sub = _support_check(sub, resolution)
    x = kept[x_sub]
    mt = m.mat.reshape(dims + dims)
    signed = s * mt  # not -mt: see `witness._optimize` on signed zeros
    best = _scan_grid(signed.reshape(sub + sub), sub, x_sub, resolution)
    factors = [np.ones((1, 1), dtype=np.complex128)] * n  # (1, d) each: a see-saw batch of one
    for k, idx in zip([k for k in kept if k != x], best):
        factors[k] = _grid_factors(dims[k], resolution, np.array([idx]))
    outs = [_outer(factors[k]) for k in range(n) if k != x]
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
    side, instead of see-saw. sigma is scanned at full size on purpose,
    never `w.blocks`, so that the scan checks the reduction."""
    return _witness_report(w, *_scan(w.sigma.mat, w.form.sign, resolution))
