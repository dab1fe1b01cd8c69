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
outer products against sigma builds the (R, d, d) contracted operators
and one LAPACK `eigh` call solves them; stopped restarts leave the
batch, and chunks of SEESAW_CHUNK restarts and GEMM slices of _BLOCK
entries bound memory. Only the winning factors get the canonical phase,
and the reported value is their expectation recomputed from sigma
(`_winner`). See-saw certifies only one side (a lower bound for the
max), so one rule, `_witness_report`, decides for strict
`make_witness` and `verify_witness` alike: the minimal product
expectation of W found at least -TOL_POS, and the margin
-lambda_min(W) = lambda_max(s*sigma) - s*c above TOL_NEG.

All randomness is driven by explicit integer seeds; identical inputs
and seeds reproduce results bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import (
    COutOfInterval,
    DimensionMismatch,
    NoConvergence,
    NotOrthonormal,
    ParamOutOfRange,
)
from .linalg import ComplexMatrix, ComplexVector, _phase_fix
from .qstate import DensityMatrix

SEESAW_TOL = 1e-12
SEESAW_MAX_ITERS = 500
# Restarts run together per see-saw batch; bounds the batch arrays for any --restarts.
SEESAW_CHUNK = 64
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
    the min variant). `converged` reports whether every restart
    stabilized within the iteration cap.
    """

    value: float
    extremizer: ProductState
    restarts_used: int
    converged: bool


@dataclass(frozen=True, eq=False)
class Witness:
    """An affine witness candidate; interval checking happens in
    make_witness, so bare construction never optimizes."""

    form: WitnessForm
    c: float
    sigma: DensityMatrix

    def __post_init__(self) -> None:
        object.__setattr__(self, "form", WitnessForm(self.form))
        c = float(self.c)
        if not np.isfinite(c):
            raise ParamOutOfRange("witness offset c must be finite")
        object.__setattr__(self, "c", c)

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


@dataclass(frozen=True, eq=False)
class WitnessReport:
    """Verification summary, the one verdict of strict `make_witness`,
    `verify_witness` and the grid oracle.

    `min_product_expectation` is an upper bound on the true product
    minimum of W when produced by see-saw (exhaustive grid reports are
    grid-accurate instead); `witnessing_margin` is the negated smallest
    eigenvalue of W. `is_witness` holds when the first is at least
    -TOL_POS and the second above TOL_NEG. `certificate_state` is the
    product state achieving the reported minimum.
    """

    min_product_expectation: float
    witnessing_margin: float
    is_witness: bool
    certificate_state: ProductState


# Complex entries in one outer-product block (16 MB); (2,2,256) needs slices.
_BLOCK = 1 << 20


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
    out = vs[0] if vs else np.ones(batch + (1,), dtype=np.complex128)
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


def _contract_except(op: np.ndarray, factors: Sequence[np.ndarray], k: int) -> np.ndarray:
    """The Hermitian operator left on party `k` by <f_j| . |f_j> on every other
    party j, for (..., d_j) factors; `op` is `_party_matrix(mt, k)`. The other
    parties' outer products, Kronecker multiplied, contract `op` in one GEMM
    per slice of restarts whose block stays within _BLOCK entries."""
    *batch, d = factors[k].shape
    rows = [f.reshape(-1, f.shape[-1]) for j, f in enumerate(factors) if j != k]
    r = math.prod(batch)
    out = np.empty((r, d * d), dtype=np.complex128)
    step = max(1, _BLOCK // op.shape[0])
    for lo in range(0, r, step):
        hi = min(r, lo + step)
        out[lo:hi] = _kron_rows([_outer(f[lo:hi]) for f in rows], (hi - lo,)) @ op
    out = out.reshape(*batch, d, d)
    return 0.5 * (out + np.swapaxes(out, -1, -2).conj())


def _extremal_factor(
    op: np.ndarray, factors: Sequence[np.ndarray], k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top eigenvalue and unit eigenvector of the operator left on
    party `k`, for every restart in the batch at once."""
    try:
        vals, vecs = np.linalg.eigh(_contract_except(op, factors, k))
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"LAPACK eigensolver did not converge: {exc}") from exc
    return vals[..., -1], vecs[..., :, -1]


def _seesaw_run(
    mt: np.ndarray,
    start: Sequence[np.ndarray],
    max_iters: int = SEESAW_MAX_ITERS,
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray, np.ndarray]:
    """Coordinate ascent on <mu|mt|mu> from R starts at once, `start`
    holding one (R, d_k) array per party. A sweep updates parties 0, 1, ...
    in turn. A restart stops after its first sweep that changes its
    objective by less than SEESAW_TOL, or after `max_iters` sweeps; stopped
    restarts leave the batch.
    Returns (values (R,), factors [(R, d_k)], converged (R,), trajectory);
    trajectory row u holds every restart's objective after u party
    updates, a stopped restart keeping its last value."""
    ops = [_party_matrix(mt, k) for k in range(mt.ndim // 2)]  # one GEMM per update
    run = [np.array(f, dtype=np.complex128) for f in start]  # the active restarts
    factors = [np.empty_like(f) for f in run]
    values = _expectation(mt, run)
    converged = np.zeros(values.shape, dtype=bool)
    traj = [values.copy()]
    active = np.arange(values.size)
    for _ in range(max_iters):
        prev = values[active]
        for k, f in enumerate(run):
            values[active], f[...] = _extremal_factor(ops[k], run, k)
            traj.append(values.copy())
        done = np.abs(values[active] - prev) < SEESAW_TOL
        if done.any():
            for f, g in zip(factors, run):
                f[active[done]] = g[done]
            converged[active[done]] = True
            active = active[~done]
            run = [g[~done] for g in run]
            if not active.size:
                break
    for f, g in zip(factors, run):
        f[active] = g
    return values, factors, converged, np.array(traj)


def _random_product(rng: np.random.Generator, dims: tuple[int, ...]) -> list[np.ndarray]:
    out = []
    for d in dims:
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        out.append(v / np.linalg.norm(v))
    return out


def _winner(mt: np.ndarray, factors: Sequence[np.ndarray]) -> tuple[float, ProductState]:
    """The product state of the unit winning `factors`, each given the
    canonical phase (first component above 1e-12 in modulus real and
    positive), and its expectation <mu|mt|mu> read back from `mt`."""
    cols = [np.array(f, dtype=np.complex128)[:, None] for f in factors]
    for col in cols:
        _phase_fix(col)
    state = ProductState(tuple(ComplexVector((col.shape[0],), col[:, 0]) for col in cols))
    return float(_expectation(mt, [f.vec for f in state.factors])), state


def _optimize(m: ComplexMatrix, s: int, restarts: int, seed: int) -> OptResult:
    """See-saw maximum of <mu|s*m|mu> for s = +1 or -1; the value is
    reported as <mu|m|mu> of the winner."""
    m.require_hermitian()
    restarts = int(restarts)
    if restarts < 1:
        raise ParamOutOfRange("restarts must be >= 1")
    seed = int(seed)
    if seed < 0:
        raise ParamOutOfRange("seed must be nonnegative")
    dims = m.dims
    mt = m.mat.reshape(dims + dims)
    signed = s * mt  # exact: -mt bit for bit at s = -1
    best_score = -np.inf
    best_factors: list[np.ndarray] | None = None
    all_converged = True
    for lo in range(0, restarts, SEESAW_CHUNK):
        starts = [
            _random_product(np.random.default_rng(np.random.SeedSequence([seed, r])), dims)
            for r in range(lo, min(restarts, lo + SEESAW_CHUNK))
        ]
        values, factors, converged, _ = _seesaw_run(
            signed, [np.stack(fs) for fs in zip(*starts)]
        )
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


def product_expectation(m: ComplexMatrix, state: ProductState) -> float:
    """<mu|m|mu> for an explicit product state."""
    if m.dims != state.dims:
        raise DimensionMismatch(f"dims {m.dims} vs {state.dims}")
    return float(_expectation(m.mat, [f.vec for f in state.factors]))


def make_witness(
    form: WitnessForm | str,
    sigma: DensityMatrix,
    c: float,
    check: str = "strict",
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
) -> Witness:
    """Build a witness, optionally checking that it is one.

    With check="strict" the see-saw maximum of s*sigma gives W's minimal
    product expectation s*(c - value), and `_witness_report` decides as
    it does for `verify_witness`; a rejected offset raises
    COutOfInterval, which signals that the requested operator is not a
    witness. check="none" skips validation, for callers with an
    external guarantee.
    """
    form = WitnessForm(form)
    if check not in ("strict", "none"):
        raise ParamOutOfRange(f"unknown check mode {check!r}")
    w = Witness(form, c, sigma)
    if check == "none":
        return w
    s = form.sign
    # by their public names, so that wrappers of the see-saw see the call
    search = max_product_expectation if s > 0 else min_product_expectation
    opt = search(sigma.mat, restarts, seed)
    rep = _witness_report(w, s * (w.c - opt.value), opt.extremizer)
    if not rep.is_witness:
        raise COutOfInterval(
            f"c={w.c!r}: min product expectation {rep.min_product_expectation!r}, "
            f"margin {rep.witnessing_margin!r}; no witness of this form exists at this offset"
        )
    return w


def evaluate(w: Witness, rho: DensityMatrix) -> float:
    """tr(W rho); real up to a <=1e-10 imaginary residue by Hermiticity."""
    if w.dims != rho.dims:
        raise DimensionMismatch(f"witness dims {w.dims} vs state dims {rho.dims}")
    return float((w.matrix().mat * rho.mat.mat.T).sum().real)


def _margin(w: Witness) -> float:
    """The witnessing margin -lambda_min(W) = lambda_max(s*sigma) - s*c,
    from the extreme eigenvalues sigma keeps."""
    s = w.form.sign
    top = w.sigma.lambda_max if s > 0 else -w.sigma.lambda_min  # lambda_max(s*sigma)
    return top - s * w.c


def _witness_report(w: Witness, min_value: float, state: ProductState) -> WitnessReport:
    """The verdict on `w` given its minimal product expectation found by
    a search."""
    margin = _margin(w)
    is_w = (min_value >= -TOL_POS) and (margin > TOL_NEG)
    return WitnessReport(min_value, margin, is_w, state)


def verify_witness(
    w: Witness, restarts: int = DEFAULT_RESTARTS, seed: int = 0
) -> WitnessReport:
    """See-saw verification: nonnegative on product states (within
    TOL_POS) and at least one negative eigenvalue (margin above TOL_NEG)."""
    opt = min_product_expectation(w.matrix(), restarts, seed)
    return _witness_report(w, opt.value, opt.extremizer)


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
