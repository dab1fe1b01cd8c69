"""Witness construction, product-state optimization, and verification.

A witness here is one of two affine forms in a fixed Hermitian state
sigma: `c*I - sigma` (dual form) or `sigma - c*I` (primal form). Both
are W = s*(c*I - sigma), s = +1 for the dual form and -1 for the primal
one (`WitnessForm.sign`), so the primal form is the dual form of -sigma
at -c and every rule is the dual-form rule on (s*sigma, s*c):

    max_mu <mu|s*sigma|mu>  <=  s*c  <  lambda_max(s*sigma)

with mu ranging over unit product states. The kernels only maximise;
the min variant negates sigma once and reads the value back from sigma
itself. The maximum is computed by see-saw coordinate ascent: with all
factors but one fixed, the optimal remaining factor is the top
eigenvector of the contracted operator on that party, so each step
solves a small eigenproblem and the objective is monotone. All restarts
run as one batch: per party per sweep, one GEMM of the other parties'
rows against sigma, transformed once per run (`_bloch_operator`),
builds the contracted operators. A qubit party is carried in Bloch
coordinates, as the real row (1, n) of its Bloch vector n, and its
operator comes out as the Pauli coefficients (a0, a) of a0*I + a.sigma,
whose top eigenpair is a0 + |a| at n = a/|a|: a qubit update is a GEMM
and a normalisation (`_bloch_top`), and on all-qubit structures every
GEMM is real. Any other party keeps its complex factors and their outer
products conj(f) (x) f, and its (R, d, d) operators go to one LAPACK
`eigh` call, read from the lower triangle. A party's rows are rebuilt
only when it is updated; stopped restarts leave the batch, and the
restarts run in chunks sized so that every batch array stays within
_BLOCK entries. Each restart of a chunk stops at a looser screen,
SEESAW_SCREEN_TOL, and only the chunk's leader sweeps on to SEESAW_TOL:
the see-saw converges linearly, and most of a restart's last sweeps
would polish a copy of the chunk's winner. One generator per search,
default_rng([seed, 0]), draws every start (`_random_starts`): restart r
takes row r of its normals, so a start depends neither on the restart
count nor on the chunking, and restart 0 keeps the first draw of
SeedSequence([seed, 0]).
With one party every restart's first update solves sigma itself, so
only restart 0 runs.
Only the winning factors get the canonical phase, and the reported value is their
expectation recomputed from sigma (`_winner`). See-saw certifies only one side (a
lower bound for the max), so every verdict reads a search of s*sigma:
strict `make_witness` is `verify_witness` plus a raise, and the grid
oracle scans sigma in the same direction. Every witness carries the
base-size `blocks` whose extrema multiply to that of sigma (sigma itself
unless `extend` built it); `verify_witness` searches them, and reads its
value from sigma at their winners lifted to one product state. One rule,
`_witness_report`, turns the sigma value v found into W's minimal
product expectation s*(c - v), which must be at least -TOL_POS, and
requires the margin -lambda_min(W) = lambda_max(s*sigma) - s*c above
TOL_NEG. W itself is built only for files and `evaluate`.

All randomness is driven by explicit integer seeds; identical inputs
and seeds reproduce results bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import reduce
from typing import Sequence

import numpy as np

from .errors import (
    COutOfInterval,
    DimensionMismatch,
    NoConvergence,
    NotOrthonormal,
    ParamOutOfRange,
)
from .linalg import PHASE_PIVOT_TOL, ComplexMatrix, ComplexVector, _lapack, _phase_fix
from .qstate import DensityMatrix

SEESAW_TOL = 1e-12
SEESAW_SCREEN_TOL = 1e-6
SEESAW_MAX_ITERS = 500
DEFAULT_RESTARTS = 32
TOL_POS = 1e-8
TOL_NEG = 1e-10
CES_GAP = 1e-6


class WitnessForm(str, Enum):
    C_MINUS_SIGMA = "c_minus_sigma"
    SIGMA_MINUS_C = "sigma_minus_c"

    @property
    def sign(self) -> int:
        """s in W = s*(c*I - sigma): +1 for c*I - sigma, -1 for sigma - c*I."""
        return 1 if self is WitnessForm.C_MINUS_SIGMA else -1


@dataclass(frozen=True, eq=False)
class ProductState:
    """One unit vector per party."""

    factors: tuple[ComplexVector, ...]

    def __post_init__(self) -> None:
        factors = tuple(self.factors)
        if not factors:
            raise ParamOutOfRange("product state needs at least one factor")
        for f in factors:
            if len(f.dims) != 1:
                raise ParamOutOfRange("each factor must live on a single party")
            if abs(f.norm() - 1.0) > 1e-12:
                raise ParamOutOfRange(f"factor norm {f.norm()!r} is not 1")
        object.__setattr__(self, "factors", factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.dims[0] for f in self.factors)


@dataclass(frozen=True, eq=False)
class OptResult:
    """Outcome of a product-state optimization.

    `value` is the best expectation found and `extremizer` the product
    state achieving it (the argmax for the max variant, the argmin for
    the min variant). `converged` reports whether, within the
    SEESAW_MAX_ITERS cap, every restart met its stopping rule: each
    chunk's leader SEESAW_TOL, and every other restart only the looser
    SEESAW_SCREEN_TOL screen.
    """

    value: float
    extremizer: ProductState
    restarts_used: int
    converged: bool


@dataclass(frozen=True, eq=False)
class Witness:
    """An affine witness candidate; interval checking happens in
    make_witness, so bare construction never optimizes. `blocks` are the
    base-size matrices whose product extrema multiply to that of sigma,
    and `phi` the (dim, ancilla) amplitudes of the first block's (partial)
    purification, or None: (sigma.mat,) and None unless `extend` sets them."""

    form: WitnessForm
    c: float
    sigma: DensityMatrix
    blocks: tuple[ComplexMatrix, ...] = field(init=False)
    phi: np.ndarray | None = field(init=False)

    def __post_init__(self) -> None:
        try:
            form = WitnessForm(self.form)
        except ValueError:
            raise ParamOutOfRange(f"unknown witness form {self.form!r}") from None
        object.__setattr__(self, "form", form)
        c = float(self.c)
        if not np.isfinite(c):
            raise ParamOutOfRange("witness offset c must be finite")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "blocks", (self.sigma.mat,))
        object.__setattr__(self, "phi", None)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.sigma.dims

    def matrix(self) -> ComplexMatrix:
        # Two spellings, not s*(c*I - sigma): multiplying by s = -1 would
        # flip the signed zeros of sigma - c*I (a 0 entry would become
        # -0), and written witness files carry them.
        eye = np.eye(self.sigma.dim)
        if self.form is WitnessForm.C_MINUS_SIGMA:
            return ComplexMatrix(self.dims, self.c * eye - self.sigma.mat.mat)
        return ComplexMatrix(self.dims, self.sigma.mat.mat - self.c * eye)

    def lift(self, wins: list[list[np.ndarray]]) -> list[np.ndarray]:
        """One product state on the parties of sigma from one winner
        per block, each a list of unit factors: the purification's
        ancilla factor is (<ab| (x) I) phi, normalised, for the first
        block's winner |ab>."""
        if self.phi is None:
            return [f for win in wins for f in win]
        anc = reduce(np.kron, wins[0]).conj() @ self.phi
        return [*wins[0], anc / np.linalg.norm(anc), *(f for win in wins[1:] for f in win)]


@dataclass(frozen=True, eq=False)
class WitnessReport:
    """Verification summary, the one verdict of strict `make_witness`,
    `verify_witness` and the grid oracle.

    `min_product_expectation` is s*(c - v) for the value v of sigma at
    `certificate_state`, the extremum of s*sigma found by the search: an
    upper bound on the true product minimum of W when produced by
    see-saw (exhaustive grid reports are grid-accurate instead). A
    see-saw certificate is the witness's blocks' winners lifted to one
    product state on its parties (`Witness.lift`).
    `witnessing_margin` is the negated smallest eigenvalue of W.
    `is_witness` holds when the first is at least -TOL_POS and the
    second above TOL_NEG.
    """

    min_product_expectation: float
    witnessing_margin: float
    is_witness: bool
    certificate_state: ProductState


# Complex entries in the largest array of one see-saw batch (16 MB).
_BLOCK = 1 << 20

# Rows vec(s^T)/2 for s = I, X, Y, Z. A qubit factor f with Bloch vector n
# has the outer-product row conj(f) (x) f = vec((f f^H)^T) = (1, n) @ _BLOCH,
# and h = a0*I + a.sigma has the Pauli coefficients (a0, a) = vec(h) @ _BLOCH.T.
_BLOCH = 0.5 * np.array(
    [[1, 0, 0, 1], [0, 1, 1, 0], [0, 1j, -1j, 0], [1, 0, 0, -1]], dtype=np.complex128
)


def _party_matrix(mt: np.ndarray, k: int) -> np.ndarray:
    """The (d1..dn, d1..dn) tensor `mt` as a (prod_{j!=k} d_j**2, d_k**2)
    matrix: the other parties' (row, col) index pairs first, in party order,
    party k's pair last."""
    n = mt.ndim // 2
    axes = [a for j in [*range(k), *range(k + 1, n), k] for a in (j, n + j)]
    return mt.transpose(axes).reshape(-1, mt.shape[k] ** 2)


def _kron_rows(vs: Sequence[np.ndarray], batch: tuple[int, ...]) -> np.ndarray:
    """Row-wise Kronecker product of (*batch, a_j) arrays, the first most
    significant: a (*batch, prod a_j) array, ones for no arrays."""
    out = vs[0] if vs else np.ones(batch + (1,))
    for v in vs[1:]:
        out = (out[..., :, None] * v[..., None, :]).reshape(batch + (-1,))
    return out


def _outer(f: np.ndarray) -> np.ndarray:
    """conj(f) (x) f, flattened: (..., d*d) for (..., d) factors."""
    return (f.conj()[..., :, None] * f[..., None, :]).reshape(f.shape[:-1] + (-1,))


def _expectation(m: np.ndarray, factors: Sequence[np.ndarray]) -> np.ndarray:
    """<mu|m|mu> for the product mu of the (..., d_j) factors, over the batch;
    `m` is the matrix or its (d1..dn, d1..dn) tensor."""
    mu = _kron_rows(factors, factors[0].shape[:-1])
    return ((mu.conj() @ m.reshape(mu.shape[-1], -1)) * mu).sum(-1).real


def _contract(op: np.ndarray, outs: Sequence[np.ndarray], rows: int) -> np.ndarray:
    """The (rows, d_k**2) operators left on party k by the other parties'
    rows `outs`, in party order: (rows, d_j**2) outer products against
    `op` = `_party_matrix(mt, k)`, or, against `_bloch_operator(mt, k)`,
    (rows, 4) Bloch rows for qubits. The rows, Kronecker multiplied,
    contract `op` in one GEMM; the caller bounds `rows`. The result is
    Hermitian, or real, only to rounding; its readers take the lower
    triangle, or the real part."""
    return _kron_rows(outs, (rows,)) @ op


def _extremal_factor(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Top eigenvalue and unit eigenvector of each (..., d, d) operator,
    read from its lower triangle, by one batched LAPACK `eigh` call:
    the see-saw's qudit updates and the oracle's exact-party start."""
    vals, vecs = _lapack(np.linalg.eigh, h)
    return vals[..., -1], vecs[..., :, -1]


def _bloch_operator(mt: np.ndarray, k: int) -> np.ndarray:
    """`_party_matrix(mt, k)` in Bloch coordinates: each other qubit's
    row pairs multiplied by _BLOCH, so that they contract with its (1, n)
    rows, and, if party k is a qubit, its columns mapped to the Pauli
    coefficients (a0, a) of its operator a0*I + a.sigma. Every other
    party keeps its outer-product rows and vec(h) columns. Real, its
    imaginary part being rounding, when every party is a qubit."""
    dims = mt.shape[: mt.ndim // 2]
    op = _party_matrix(mt, k)
    pre = 1  # the row pairs of the parties before j
    for j, d in enumerate(dims):
        if j != k:
            if d == 2:
                op = (_BLOCH @ op.reshape(pre, 4, -1)).reshape(op.shape)
            pre *= d * d
    if dims[k] == 2:
        op = op @ _BLOCH.T
    return np.ascontiguousarray(op.real) if all(d == 2 for d in dims) else op


def _bloch_rows(f: np.ndarray) -> np.ndarray:
    """The real (R, 4) rows (1, n) of unit (R, 2) qubit factors, n their
    Bloch vectors, from their outer products (_BLOCH times its conjugate
    transpose is I/2)."""
    rows = 2.0 * (_outer(f) @ _BLOCH.conj().T).real
    rows[:, 0] = 1.0
    return rows


def _bloch_top(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Top eigenvalues a0 + |a| of the qubit operators a0*I + a.sigma,
    given as (R, 4) real Pauli coefficients `a`; the Bloch vectors a/|a|
    of their top eigenvectors are written to rows[:, 1:]. hypot keeps
    |a| from overflowing. A scalar operator (a = 0) gets n = (0, 0, -1),
    the Bloch vector of e_1 = (0, 1) that LAPACK returns. A non-finite
    coefficient, which leaves a non-finite value, raises NoConvergence."""
    r = np.hypot(np.hypot(a[:, 1], a[:, 2]), a[:, 3])
    top = a[:, 0] + r
    if np.count_nonzero(np.isfinite(top)) < top.size:
        raise NoConvergence("non-finite operator in the qubit update")
    if np.count_nonzero(r) == r.size:
        np.divide(a[:, 1:], r[:, None], out=rows[:, 1:])
    else:  # r = 0 only where a = 0
        zero = r == 0.0
        np.divide(a[:, 1:], (r + zero)[:, None], out=rows[:, 1:])
        rows[zero, 1:] = (0.0, 0.0, -1.0)
    return top


def _bloch_factors(rows: np.ndarray) -> np.ndarray:
    """Unit (R, 2) qubit factors of the (R, 4) Bloch rows (1, n) of unit n:
    the top eigenvectors of (I + n.sigma)/2, in closed form. For n_z > 0
    that is (1 + n_z, n_x + i n_y), else the stable (n_x - i n_y, 1 - n_z),
    divided by the hypot of its entries; n = (0, 0, -1), the row of a
    scalar operator, gives e_1 = (0, 1), as LAPACK returns."""
    nx, ny, nz = rows[:, 1], rows[:, 2], rows[:, 3]
    up = nz > 0.0
    lead = 1.0 + np.abs(nz)  # 1 + n_z up, 1 - n_z down
    off = nx + 1j * np.where(up, ny, -ny)
    v = np.where(up[:, None], np.stack([lead, off], -1), np.stack([off, lead], -1))
    return v / np.hypot(lead, np.abs(off))[:, None]


def _sweeps(
    ops: Sequence[np.ndarray],
    dims: tuple[int, ...],
    run: list[np.ndarray],
    val: np.ndarray,
    tol: float,
    cap: int,
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray, np.ndarray]:
    """See-saw sweeps of a batch at values `val`, `run` holding each
    party's Bloch rows (qubits) or factors, against the parties'
    `_bloch_operator`s `ops`. A restart stops after its first sweep that
    changes its value by less than `tol`, or after `cap` sweeps; stopped
    restarts leave the batch, their value and rows written back only
    then. Returns (values, rows or factors per party, sweeps run, the
    last sweep's |change|, inf where none ran)."""
    outs = [f if d == 2 else _outer(f) for f, d in zip(run, dims)]  # rebuilt on update
    ends = [np.empty_like(f) for f in run]  # the stopped restarts' rows or factors
    values = np.empty_like(val)
    sweeps = np.full(val.shape, cap)
    deltas = np.full(val.shape, np.inf)
    active = np.arange(val.size)
    for sweep in range(1, cap + 1):
        prev = val
        for k, d in enumerate(dims):
            h = _contract(ops[k], outs[:k] + outs[k + 1 :], active.size)
            if d == 2:
                val = _bloch_top(h.real, run[k])  # rewrites run[k], which is outs[k]
            else:
                val, run[k] = _extremal_factor(h.reshape(-1, d, d))
                outs[k] = _outer(run[k])
        delta = np.abs(val - prev)
        deltas[active] = delta
        done = delta < tol
        if np.count_nonzero(done):
            stop, keep = active[done], ~done
            values[stop] = val[done]
            sweeps[stop] = sweep
            for e, f in zip(ends, run):
                e[stop] = f[done]
            active, val = active[keep], val[keep]
            run = [f[keep] for f in run]
            outs = [f if d == 2 else o[keep] for f, o, d in zip(run, outs, dims)]
            if not active.size:
                break
    values[active] = val
    for e, f in zip(ends, run):
        e[active] = f
    return values, ends, sweeps, deltas


def _seesaw_run(
    mt: np.ndarray, start: Sequence[np.ndarray]
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """Coordinate ascent on <mu|mt|mu> from R starts at once, `start`
    holding one (R, d_k) array per party. A sweep updates parties 0, 1, ...
    in turn, each by one GEMM against `_bloch_operator(mt, k)`. A qubit
    party is carried as its real Bloch rows (1, n), and its update is a
    normalisation (`_bloch_top`); any other party keeps its complex
    factors and their outer products, and its update is one LAPACK call
    (`_extremal_factor`). A restart leaves the batch after its first
    sweep that changes its objective by less than SEESAW_SCREEN_TOL.
    Then the leader, the first restart at the largest value, sweeps on
    alone from its rows while its last sweep changed its value by
    SEESAW_TOL or more, and stops at the first sweep that changes it by
    less; the other restarts keep their screened values and rows. Every
    restart stops after SEESAW_MAX_ITERS sweeps in all (the module's
    values when the call starts). Every sweep before the screen stops a
    restart moved it by SEESAW_SCREEN_TOL or more, so a batch of one
    runs the sweeps of a plain SEESAW_TOL stop, bit for bit. The
    returned qubit factors are the top eigenvectors of (I + n.sigma)/2
    (`_bloch_factors`).
    Returns (values (R,), factors [(R, d_k)], converged (R,)): a restart
    converged when its last sweep within the cap met its stopping rule,
    the screen for the others and SEESAW_TOL for the leader."""
    dims = mt.shape[: mt.ndim // 2]
    cap = SEESAW_MAX_ITERS
    ops = [_bloch_operator(mt, k) for k in range(len(dims))]
    run = [np.array(f, dtype=np.complex128) for f in start]  # the active restarts
    val = _expectation(mt, run)
    run = [_bloch_rows(f) if d == 2 else f for f, d in zip(run, dims)]
    values, ends, sweeps, deltas = _sweeps(ops, dims, run, val, SEESAW_SCREEN_TOL, cap)
    converged = deltas < SEESAW_SCREEN_TOL
    i = int(np.argmax(values))
    if deltas[i] >= SEESAW_TOL:
        lead = [e[[i]] for e in ends]
        v, lead, _, last = _sweeps(ops, dims, lead, values[[i]], SEESAW_TOL, cap - sweeps[i])
        values[i], converged[i] = v[0], last[0] < SEESAW_TOL
        for e, f in zip(ends, lead):
            e[i] = f[0]
    return values, [_bloch_factors(e) if d == 2 else e for e, d in zip(ends, dims)], converged


def _unit_factors(draws: np.ndarray, dims: tuple[int, ...]) -> list[np.ndarray]:
    """Unit (R, d) factors from (R, 2*sum(dims)) standard normal draws,
    taken party by party as d real parts, then d imaginary parts."""
    out = []
    lo = 0
    for d in dims:
        re, im = draws[:, lo : lo + d], draws[:, lo + d : lo + 2 * d]
        lo += 2 * d
        out.append((re + 1j * im) / np.sqrt((re * re + im * im).sum(-1, keepdims=True)))
    return out


def _random_starts(rng: np.random.Generator, rows: int, dims: tuple[int, ...]) -> list[np.ndarray]:
    """The (rows, d) start factors of the next `rows` restarts: the next
    (rows, 2*sum(dims)) normals of `rng`, one row per restart, in order.
    Normals come off the stream in sequence, so with `rng` the search's
    default_rng([seed, 0]), restart r takes row r of that one stream
    however the restarts are chunked, and restart 0 the first draw of
    SeedSequence([seed, 0])."""
    return _unit_factors(rng.standard_normal((rows, 2 * sum(dims))), dims)


def _winner(mt: np.ndarray, factors: Sequence[np.ndarray]) -> tuple[float, ProductState]:
    """The product state of the unit winning `factors`, each given the
    canonical phase (first component above 1e-12 in modulus real and
    positive), and its expectation <mu|mt|mu> read back from `mt`."""
    cols = [np.array(f, dtype=np.complex128)[:, None] for f in factors]
    for col in cols:
        _phase_fix(col)
        # the rotation leaves a complex pivot real only to rounding
        # (`_bloch_factors`' first components can be complex, LAPACK's
        # are real); make it real to the bit
        col.imag[np.argmax(np.abs(col[:, 0]) > PHASE_PIVOT_TOL)] = 0.0
    state = ProductState(tuple(ComplexVector((col.shape[0],), col[:, 0]) for col in cols))
    return float(_expectation(mt, [f.vec for f in state.factors])), state


def _search_params(restarts: int, seed: int) -> tuple[int, int]:
    """The see-saw's restart count and seed as ints; ParamOutOfRange
    unless restarts >= 1 and seed >= 0."""
    restarts = int(restarts)
    if restarts < 1:
        raise ParamOutOfRange("restarts must be >= 1")
    seed = int(seed)
    if seed < 0:
        raise ParamOutOfRange("seed must be nonnegative")
    return restarts, seed


def _optimize(m: ComplexMatrix, s: int, restarts: int, seed: int) -> OptResult:
    """See-saw maximum of <mu|s*m|mu> for s = +1 or -1; the value is
    reported as <mu|m|mu> of the winner. One generator, default_rng([seed,
    0]), gives every restart's start (`_random_starts`): restart r starts
    from row r of its stream, whatever the restart count or the chunk."""
    m.require_hermitian()
    restarts, seed = _search_params(restarts, seed)
    dims = m.dims
    mt = m.mat.reshape(dims + dims)
    # Not mt or -mt: the complex product by s resets signs of zero (the +0
    # imaginary part of a diagonal entry stays +0, where -mt makes it -0),
    # and the searches' bits follow it, so this copy stays.
    signed = s * mt
    # Each batch array, for R restarts and D = m.dim, is at most
    # R*max(D/d_k, d_k)**2 entries: the Kronecker rows R*(D/d_k)**2, the
    # operators and eigh input R*d_k**2, the product vectors R*D. The
    # chunk keeps that within _BLOCK, or runs one restart at a time.
    chunk = max(1, _BLOCK // max(max(m.dim // d, d) ** 2 for d in dims))
    # With one party the first update of every restart solves `signed`
    # itself, so every restart ends where restart 0 does.
    searched = 1 if len(dims) == 1 else restarts
    best_score = -np.inf
    best_factors: list[np.ndarray] | None = None
    all_converged = True
    rng = np.random.default_rng([seed, 0])
    for lo in range(0, searched, chunk):
        starts = _random_starts(rng, min(chunk, searched - lo), dims)
        values, factors, converged = _seesaw_run(signed, starts)
        all_converged = all_converged and bool(converged.all())
        i = int(np.argmax(values))  # the first restart at the best value
        if best_factors is None or values[i] > best_score:
            best_score = values[i]
            best_factors = [f[i] for f in factors]
    assert best_factors is not None
    return OptResult(*_winner(mt, best_factors), restarts, all_converged)


def max_product_expectation(
    m: ComplexMatrix, restarts: int = DEFAULT_RESTARTS, seed: int = 0
) -> OptResult:
    """Best found sup over unit product states of <mu|m|mu>.

    See-saw from `restarts` seeded random starts; the result is a
    certified lower bound on the true supremum.
    """
    return _optimize(m, 1, restarts, seed)


def min_product_expectation(
    m: ComplexMatrix, restarts: int = DEFAULT_RESTARTS, seed: int = 0
) -> OptResult:
    """Best found inf over unit product states; an upper bound on the
    true infimum."""
    return _optimize(m, -1, restarts, seed)


def make_witness(
    form: WitnessForm | str,
    sigma: DensityMatrix,
    c: float,
    check: str = "strict",
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
) -> Witness:
    """Build a witness, optionally checking that it is one.

    With check="strict" the witness must pass `verify_witness` at the
    same restarts and seed; a rejected offset raises COutOfInterval,
    which signals that the requested operator is not a witness.
    check="none" skips validation, for callers with an external
    guarantee. An unknown form or check mode raises ParamOutOfRange.
    """
    if check not in ("strict", "none"):
        raise ParamOutOfRange(f"unknown check mode {check!r}")
    w = Witness(form, c, sigma)
    if check == "strict":
        _require_witness(w, verify_witness(w, restarts, seed))
    return w


def evaluate(w: Witness, rho: DensityMatrix) -> float:
    """tr(W rho); real up to a <=1e-10 imaginary residue by Hermiticity."""
    if w.dims != rho.dims:
        raise DimensionMismatch(f"witness dims {w.dims} vs state dims {rho.dims}")
    return float((w.matrix().mat * rho.mat.mat.T).sum().real)


def _witness_report(w: Witness, value: float, state: ProductState) -> WitnessReport:
    """The verdict on `w` from a search of sigma on the form's side:
    `value` is <mu|sigma|mu> at the product state `state` that maximises
    s*sigma, so W's minimal product expectation is s*(c - value). The
    margin -lambda_min(W) = lambda_max(s*sigma) - s*c is read from the
    extreme eigenvalues sigma keeps."""
    s = w.form.sign
    min_value = s * (w.c - value)
    margin = (w.sigma.lambda_max if s > 0 else -w.sigma.lambda_min) - s * w.c
    is_w = (min_value >= -TOL_POS) and (margin > TOL_NEG)
    return WitnessReport(min_value, margin, is_w, state)


def _require_witness(w: Witness, rep: WitnessReport) -> None:
    if not rep.is_witness:
        raise COutOfInterval(
            f"c={w.c!r}: min product expectation {rep.min_product_expectation!r}, "
            f"margin {rep.witnessing_margin!r}; no witness of this form exists at this offset"
        )


def verify_witness(
    w: Witness, restarts: int = DEFAULT_RESTARTS, seed: int = 0
) -> WitnessReport:
    """See-saw verification: nonnegative on product states (within
    TOL_POS) and at least one negative eigenvalue (margin above TOL_NEG).

    The see-saw searches each of w's blocks on the form's side, for its
    maximum in the dual form and its minimum in the primal one; W is
    never built. `w.lift` maps the winners' factors to the certificate,
    one product state on w's parties, whose value is read back from sigma."""
    # by their public names, so that wrappers of the see-saw see the call
    search = max_product_expectation if w.form.sign > 0 else min_product_expectation
    wins = [[f.vec for f in search(b, restarts, seed).extremizer.factors] for b in w.blocks]
    return _witness_report(w, *_winner(w.sigma.mat.mat, w.lift(wins)))


def is_ces(
    basis: Sequence[ComplexVector],
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
) -> tuple[bool, OptResult]:
    """Heuristic completely-entangled-subspace check for span(basis).

    Maximizes the product overlap with the subspace projector. Because
    see-saw lower-bounds the max, True is heuristic while False
    (overlap reaching 1) is conclusive.
    """
    if not basis:
        raise ParamOutOfRange("basis must be non-empty")
    dims = basis[0].dims
    for b in basis:
        if b.dims != dims:
            raise DimensionMismatch("basis vectors live on different dims")
    cols = np.column_stack([b.vec for b in basis])
    gram = cols.conj().T @ cols
    defect = np.abs(gram - np.eye(len(basis))).max()
    if defect > 1e-10:
        raise NotOrthonormal(f"basis gram deviates from identity by {defect:.3e}")
    proj = ComplexMatrix(dims, cols @ cols.conj().T)
    opt = max_product_expectation(proj, restarts, seed)
    return opt.value < 1.0 - CES_GAP, opt
