"""Witness construction, product-state optimization, and verification.

A witness here is one of two affine forms in a fixed Hermitian state
sigma: `c*I - sigma` (dual form) or `sigma - c*I` (primal form). The
admissible offsets c form an interval whose closed side is an extremal
product-state expectation of sigma and whose open side is a spectral
bound:

    dual:   max_mu <mu|sigma|mu>  <=  c  <  lambda_max(sigma)
    primal: lambda_min(sigma)  <  c  <=  min_mu <mu|sigma|mu>

with mu ranging over unit product states. The extremal expectations are
computed by see-saw coordinate ascent: with all factors but one fixed,
the optimal remaining factor is an extremal eigenvector of the
contracted operator on that party, so each step solves a small
eigenproblem and the objective is monotone. All restarts run as one
batch: per party per sweep, one GEMM of the other parties' outer
products against sigma builds the (R, d, d) contracted operators and
one LAPACK `eigh` call solves them; stopped restarts leave the batch,
and chunks of SEESAW_CHUNK restarts and GEMM slices of _BLOCK entries
bound memory. The inner eigensolve only picks a direction; the winning
factors alone get the canonical phase, and the reported value is their
expectation recomputed from sigma. See-saw certifies only one
side (a lower bound for the max, an upper bound for the min); interval
checks therefore widen the closed side by INTERVAL_PAD and use the
exact spectral bound for the open side.

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
INTERVAL_PAD = 1e-8
TOL_POS = 1e-8
TOL_NEG = 1e-10
CES_GAP = 1e-6


class WitnessForm(str, Enum):
    C_MINUS_SIGMA = "c_minus_sigma"
    SIGMA_MINUS_C = "sigma_minus_c"


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
        eye = np.eye(self.sigma.dim)
        if self.form is WitnessForm.C_MINUS_SIGMA:
            return ComplexMatrix(self.dims, self.c * eye - self.sigma.mat.mat)
        return ComplexMatrix(self.dims, self.sigma.mat.mat - self.c * eye)


@dataclass(frozen=True, eq=False)
class WitnessReport:
    """Verification summary.

    `min_product_expectation` is an upper bound on the true product
    minimum when produced by see-saw (exhaustive grid reports are
    grid-accurate instead); `witnessing_margin` is the negated smallest
    eigenvalue of the witness matrix. `certificate_state` is the
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
    op: np.ndarray, factors: Sequence[np.ndarray], k: int, mode: str
) -> tuple[np.ndarray, np.ndarray]:
    """Extremal eigenvalue and unit eigenvector of the operator left on
    party `k`, for every restart in the batch at once."""
    try:
        vals, vecs = np.linalg.eigh(_contract_except(op, factors, k))
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"LAPACK eigensolver did not converge: {exc}") from exc
    pick = -1 if mode == "max" else 0
    return vals[..., pick], vecs[..., :, pick]


def _seesaw_run(
    mt: np.ndarray,
    start: Sequence[np.ndarray],
    mode: str,
    max_iters: int = SEESAW_MAX_ITERS,
    tol: float = SEESAW_TOL,
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray, np.ndarray]:
    """Coordinate ascent from R starts at once, `start` holding one (R, d_k)
    array per party. A sweep updates parties 0, 1, ... in turn. A restart
    stops after its first sweep that changes its objective by less than
    `tol`, or after `max_iters` sweeps; stopped restarts leave the batch.
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
            values[active], f[...] = _extremal_factor(ops[k], run, k, mode)
            traj.append(values.copy())
        done = np.abs(values[active] - prev) < tol
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


def _product_state(factors: Sequence[np.ndarray]) -> ProductState:
    """The product state of unit `factors`, each given the canonical
    phase: first component above 1e-12 in modulus real and positive."""
    cols = [np.array(f, dtype=np.complex128)[:, None] for f in factors]
    for col in cols:
        _phase_fix(col)
    return ProductState(tuple(ComplexVector((col.shape[0],), col[:, 0]) for col in cols))


def _optimize(
    m: ComplexMatrix, mode: str, restarts: int, seed: int
) -> OptResult:
    m.require_hermitian()
    restarts = int(restarts)
    if restarts < 1:
        raise ParamOutOfRange("restarts must be >= 1")
    seed = int(seed)
    if seed < 0:
        raise ParamOutOfRange("seed must be nonnegative")
    dims = m.dims
    mt = m.mat.reshape(dims + dims)
    sign = 1.0 if mode == "max" else -1.0
    best_score = -np.inf
    best_factors: list[np.ndarray] | None = None
    all_converged = True
    for lo in range(0, restarts, SEESAW_CHUNK):
        starts = [
            _random_product(np.random.default_rng(np.random.SeedSequence([seed, r])), dims)
            for r in range(lo, min(restarts, lo + SEESAW_CHUNK))
        ]
        values, factors, converged, _ = _seesaw_run(
            mt, [np.stack(fs) for fs in zip(*starts)], mode
        )
        all_converged = all_converged and bool(converged.all())
        i = int(np.argmax(sign * values))  # the first restart at the best value
        if best_factors is None or sign * values[i] > best_score:
            best_score = sign * values[i]
            best_factors = [f[i] for f in factors]
    assert best_factors is not None
    state = _product_state(best_factors)
    final = float(_expectation(mt, [f.vec for f in state.factors]))
    return OptResult(final, state, restarts, all_converged)


def max_product_expectation(
    m: ComplexMatrix, restarts: int = DEFAULT_RESTARTS, seed: int = 0
) -> OptResult:
    """Best found sup over unit product states of <mu|m|mu>.

    See-saw from `restarts` seeded random starts; the result is a
    certified lower bound on the true supremum.
    """
    return _optimize(m, "max", restarts, seed)


def min_product_expectation(
    m: ComplexMatrix, restarts: int = DEFAULT_RESTARTS, seed: int = 0
) -> OptResult:
    """Best found inf over unit product states; an upper bound on the
    true infimum."""
    return _optimize(m, "min", restarts, seed)


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
    """Build a witness, optionally enforcing the admissible c-interval.

    With check="strict" the closed interval side is the optimized
    extremal product expectation widened by INTERVAL_PAD (see-saw is
    one-sided) and the open side is the exact spectral eigenvalue;
    violations raise COutOfInterval, which signals that the requested
    operator is not a witness. check="none" skips validation, for
    callers with an external guarantee.
    """
    form = WitnessForm(form)
    if check not in ("strict", "none"):
        raise ParamOutOfRange(f"unknown check mode {check!r}")
    w = Witness(form, c, sigma)
    if check == "none":
        return w
    if form is WitnessForm.C_MINUS_SIGMA:
        bound = max_product_expectation(sigma.mat, restarts, seed).value
        if not (bound - INTERVAL_PAD <= w.c < sigma.lambda_max):
            raise COutOfInterval(
                f"c={w.c!r} outside [{bound!r} - {INTERVAL_PAD}, {sigma.lambda_max!r}): "
                "no witness of this form exists at this offset"
            )
    else:
        bound = min_product_expectation(sigma.mat, restarts, seed).value
        if not (sigma.lambda_min < w.c <= bound + INTERVAL_PAD):
            raise COutOfInterval(
                f"c={w.c!r} outside ({sigma.lambda_min!r}, {bound!r} + {INTERVAL_PAD}]: "
                "no witness of this form exists at this offset"
            )
    return w


def evaluate(w: Witness, rho: DensityMatrix) -> float:
    """tr(W rho); real up to a <=1e-10 imaginary residue by Hermiticity."""
    if w.dims != rho.dims:
        raise DimensionMismatch(f"witness dims {w.dims} vs state dims {rho.dims}")
    val = np.einsum("ij,ji->", w.matrix().mat, rho.mat.mat)
    return float(val.real)


def _witness_report(w: Witness, min_value: float, state: ProductState) -> WitnessReport:
    """The verdict on `w` given its minimal product expectation found by
    a search. The margin -lambda_min(W) comes from sigma's extreme
    eigenvalues: lambda_max(sigma) - c for c*I - sigma, c - lambda_min(sigma)
    for sigma - c*I."""
    if w.form is WitnessForm.C_MINUS_SIGMA:
        margin = w.sigma.lambda_max - w.c
    else:
        margin = w.c - w.sigma.lambda_min
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
