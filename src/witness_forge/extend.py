"""Offset-preserving witness extensions to more parties.

Every operation here maps a valid witness to a valid witness on an
enlarged party list while leaving the offset c untouched (except for
the explicit relaxed-offset variant of the partial purification). The
dual form `c*I - sigma` extends by purification, partial purification,
and tensoring with scaled mixed or pure states; the primal form
`sigma - c*I` survives only identity tails, so the other operations
reject it with FormNotSupported.

Extension projectors are materialized from the spectral data as
sum_ij sqrt(l_i l_j) |e_i a_i><e_j a_j| rather than as an outer product
of the amplitude vector: the two agree to one ulp, but the gram route
keeps entries exact when eigenvalues are exactly representable (for
example I/2, whose purified projector then has entries exactly 1/2).
"""

from __future__ import annotations

import math
from itertools import combinations, permutations
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    COutOfInterval,
    CountTooLarge,
    CPrimeOutOfInterval,
    DimensionMismatch,
    FormNotSupported,
    MaxEigenvalueNotSelected,
    ParamOutOfRange,
    UnnormalizedTail,
    ZeroMaxEigenvalue,
)
from .linalg import MAX_TOTAL_DIM, ComplexMatrix
from .qstate import (
    NORM_TOL,
    DensityMatrix,
    PureState,
    PurificationSelection,
    SpectralDecomposition,
    _has_top,
    _nonzero_indices,
    _purification_columns,
    _purifying_selection,
    _selected_nonzero,
)
from .witness import TOL_NEG, Witness, WitnessForm, _margin, evaluate

ENUMERATION_CAP = 64


def _require_dual_form(w: Witness, op: str) -> None:
    if w.form is not WitnessForm.C_MINUS_SIGMA:
        raise FormNotSupported(
            f"{op} applies only to the c*I - sigma form; "
            "the dual form does not survive this extension"
        )


def _wrap_density(dims: tuple[int, ...], arr: np.ndarray) -> DensityMatrix:
    m = ComplexMatrix(dims, arr)
    normalized = abs(m.trace().real - 1.0) <= NORM_TOL
    return DensityMatrix(m, normalized=normalized)


def _kron_tails(
    base: DensityMatrix, tail_dims: Sequence[tuple[int, ...]], arrays: Iterable[np.ndarray]
) -> tuple[tuple[int, ...], np.ndarray]:
    """(dims, array) of base (x) f_1 (x) f_2 ... with f_k of dims tail_dims[k]. The
    size is checked before `arrays` is read, so the factors may be built lazily."""
    dims = base.dims + sum(tail_dims, ())
    if math.prod(dims) > MAX_TOTAL_DIM:
        raise ParamOutOfRange(f"product dimension {math.prod(dims)} > {MAX_TOTAL_DIM}")
    arr = base.mat.mat
    for f in arrays:
        arr = np.kron(arr, f)
    return dims, arr


def purify_extend(w: Witness) -> Witness:
    """Replace sigma by the projector onto its minimal purification.

    The new party has dimension rank(sigma) and c is unchanged; the
    smallest eigenvalue of the extended witness is c - 1.
    """
    _require_dual_form(w, "purify_extend")
    if not w.sigma.normalized:
        raise ParamOutOfRange("can only purify a normalized sigma")
    return partial_purify_extend(w, _purifying_selection(w.sigma.spectrum.eigenvalues))


def pure_tails_extend(w: Witness, tails: Sequence[PureState]) -> Witness:
    """Tensor sigma with projectors onto normalized pure tails.

    A pure tail has top eigenvalue 1, so this is the mixed-tensor
    extension without any rescaling.
    """
    _require_dual_form(w, "pure_tails_extend")
    if any(not t.normalized for t in tails):
        raise UnnormalizedTail("pure tails must be normalized")
    if not tails:
        return w
    projectors = (np.outer(t.vec.vec, t.vec.vec.conj()) for t in tails)
    sigma2 = _wrap_density(*_kron_tails(w.sigma, [t.dims for t in tails], projectors))
    return Witness(w.form, w.c, sigma2)


def purify_extend_n(w: Witness, pure_tails: Sequence[PureState]) -> Witness:
    """Purify sigma, then tensor with pure tails; with no tails this is
    exactly purify_extend."""
    return pure_tails_extend(purify_extend(w), pure_tails)


def partial_purify_extend(
    w: Witness,
    sel: PurificationSelection,
    c_prime: float | None = None,
) -> Witness:
    """Replace sigma by an unnormalized partial-purification projector.

    The selection must include a top eigenpair, otherwise the extended
    operator stops being a witness (MaxEigenvalueNotSelected). The
    optional relaxed offset must satisfy c <= c_prime < sum of selected
    eigenvalues (the squared norm of the partial purification).
    """
    _require_dual_form(w, "partial_purify_extend")
    vals = w.sigma.spectrum.eigenvalues
    lams = _selected_nonzero(vals, sel.pairs)
    if not _has_top(vals, lams):
        raise MaxEigenvalueNotSelected(
            "selection omits the top eigenvalue, so the extended operator "
            "would go negative on a product state"
        )
    total = float(sum(lams))
    c_out = w.c
    if c_prime is not None:
        c_out = float(c_prime)
        if not (w.c <= c_out < total):
            raise CPrimeOutOfInterval(
                f"c_prime={c_out!r} outside [{w.c!r}, {total!r})"
            )
    purified = w.sigma.dim * sel.ancilla_dim
    if purified > MAX_TOTAL_DIM:
        raise ParamOutOfRange(f"purified dimension {purified} > {MAX_TOTAL_DIM}")
    wmat = _purification_columns(w.sigma.spectrum.vectors, sel.pairs, sel.ancilla_dim)
    proj = (wmat @ np.sqrt(np.outer(lams, lams))) @ wmat.conj().T
    sigma2 = _wrap_density(w.sigma.dims + (sel.ancilla_dim,), proj)
    return Witness(w.form, c_out, sigma2)


def count_partial_purifications(rank: int, d3: int) -> int:
    """Closed-form count of distinct partial purifications with the top
    eigenpair selected, over an ancilla of dimension d3:

        sum_{i=1}^{min(d3, rank)} C(rank-1, i-1) * d3!/(d3-i)!
    """
    rank = int(rank)
    d3 = int(d3)
    if rank < 1 or d3 < 1:
        raise ParamOutOfRange("rank and ancilla dimension must be >= 1")
    total = 0
    for i in range(1, min(d3, rank) + 1):
        total += math.comb(rank - 1, i - 1) * math.perm(d3, i)
    return total


def enumerate_partial_purifications(
    sd: SpectralDecomposition, d3: int
) -> list[PurificationSelection]:
    """All selections over a d3-dimensional ancilla that include the top
    eigen-index (for a degenerate top eigenvalue: its highest-index
    representative, so the count formula stays exact), lexicographically
    sorted by their pair lists."""
    d3 = int(d3)
    if d3 < 1:
        raise ParamOutOfRange("ancilla dimension must be >= 1")
    nz = _nonzero_indices(sd.eigenvalues)
    rank = len(nz)
    if rank == 0:
        return []
    if rank * d3 > ENUMERATION_CAP:
        raise CountTooLarge(
            f"rank*d3 = {rank * d3} exceeds the enumeration cap "
            f"{ENUMERATION_CAP}; the closed-form count is "
            f"{count_partial_purifications(rank, d3)}"
        )
    top = nz[-1]
    rest = nz[:-1]
    out: list[PurificationSelection] = []
    for size in range(1, min(d3, rank) + 1):
        for combo in combinations(rest, size - 1):
            eigs = sorted(combo + (top,))
            for slots in permutations(range(d3), size):
                pairs = tuple(zip(eigs, slots))
                out.append(PurificationSelection(pairs, d3))
    out.sort(key=lambda s: s.pairs)
    return out


def mixed_tensor_extend(w: Witness, tails: Sequence[DensityMatrix]) -> Witness:
    """Tensor sigma with each tail scaled by its top eigenvalue,
    sigma (x) tail_i / lambda_max(tail_i), keeping c valid unchanged."""
    _require_dual_form(w, "mixed_tensor_extend")
    factors = []
    for t in tails:
        if not t.normalized:
            raise UnnormalizedTail("tensor tails must be normalized")
        if t.lambda_max <= 1e-12:
            raise ZeroMaxEigenvalue("tail state has vanishing top eigenvalue")
        factors.append(t.mat.mat / t.lambda_max)
    if not tails:
        return w
    sigma2 = _wrap_density(*_kron_tails(w.sigma, [t.dims for t in tails], factors))
    return Witness(w.form, w.c, sigma2)


def identity_extend(w: Witness, tail_dims: Sequence[int]) -> Witness:
    """Tensor sigma with identity factors; valid for both forms.

    The spectrum of sigma (x) I is the spectrum of sigma with higher
    multiplicity, so the open interval side is revalidated against the
    extended spectrum as a numerics guard, by the margin test of
    `witness._witness_report`.
    """
    sizes = [int(d) for d in tail_dims]
    for d in sizes:
        if d < 1:
            raise ParamOutOfRange(f"tail dimension {d} must be >= 1")
    if not sizes:
        return w
    sigma2 = _wrap_density(*_kron_tails(w.sigma, [(d,) for d in sizes], map(np.eye, sizes)))
    w2 = Witness(w.form, w.c, sigma2)
    margin = _margin(w2)
    if not margin > TOL_NEG:
        raise COutOfInterval(f"c={w.c!r} leaves margin {margin!r} on the extended spectrum")
    return w2


def detect_product_extension(
    w_ext: Witness, rho12: DensityMatrix, tails: Sequence[DensityMatrix]
) -> float:
    """Expectation of the extended witness on rho12 (x) tails.

    For identity-tail witnesses with normalized tails this equals the
    base witness expectation on rho12, so a state detected before
    extension stays detected after it.
    """
    dims, arr = _kron_tails(rho12, [t.dims for t in tails], [t.mat.mat for t in tails])
    if dims != w_ext.dims:
        raise DimensionMismatch(
            f"extended witness dims {w_ext.dims} vs product state dims {dims}"
        )
    return evaluate(w_ext, _wrap_density(dims, arr))
