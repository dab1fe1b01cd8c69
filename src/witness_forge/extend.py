"""Offset-preserving witness extensions to more parties.

Every operation here maps a valid witness to a valid witness on an
enlarged party list while leaving the offset c untouched (except for
the explicit relaxed-offset variant of the partial purification). Each
checks its own preconditions, in the order form, selection, size cap,
top eigenpair, c' interval, but not the verdict, which the caller
applies. The dual form `c*I - sigma` extends by purification, partial
purification, and tensoring with scaled mixed or pure states; the
primal form `sigma - c*I` survives only identity tails, so the other
operations reject it with FormNotSupported.

`_tensor` builds the sigma' of every tail extension. (Partial)
purification builds its projector by the gram route, sum_ij sqrt(l_i l_j)
|e_i a_i><e_j a_j|, not as an outer product of the amplitude vector:
the two agree to one ulp, but the gram route keeps entries exact when
eigenvalues are exactly representable (for example I/2, whose purified
projector then has entries exactly 1/2). `_rank_one` then symmetrises
that projector once, as it does a pure tail's, so every rank-one sigma'
is Hermitian to the bit: a written file repeats the magnitudes of its
mirrored entries, and the trace and extremes do not move. A normalized
tail needs no zero-lambda_max check: its trace is at least 1 - NORM_TOL,
so its top eigenvalue is at least (1 - NORM_TOL)/dim >= 9.7e-4 for dim <= MAX_TOTAL_DIM.

Nothing here solves or searches a matrix the size of sigma'. Its
extreme eigenvalues follow from the base: the (partial) purification
|phi><phi| has the eigenvalues ||phi||^2, the sum of the selected
eigenvalues, and 0, and the spectrum of A (x) B holds every product
a_i*b_j, so the extremes of a Kronecker product are products of its
factors' extremes. Its product-state extremum is a base-size problem
too, which each extension carries as its `Witness.blocks` and `phi`
(`_extension`), where `verify_witness` searches it. Product
states factor and every factor is PSD, so the extremum of sigma' is the
product of its factors' extrema. The slots of a selection S are
distinct, so Tr_C |phi><phi| = sigma_S = sum_{i in S} lambda_i
|e_i><e_i|, and a product state |ab>|x> reaches at most
||(<ab| (x) I) phi||^2 = <ab|sigma_S|ab>, with equality at x along
(<ab| (x) I) phi. So c(sigma') = c(sigma_S) * prod_k c(F_k) for the
tail factors F_k; a selection of every nonzero eigenpair searches sigma
itself, which differs from sigma_S only by eigenvalues at most RANK_TOL.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    CountTooLarge,
    CPrimeOutOfInterval,
    DimensionMismatch,
    FormNotSupported,
    MaxEigenvalueNotSelected,
    ParamOutOfRange,
    UnnormalizedTail,
)
from .linalg import TIE_TOL, ComplexMatrix, _require_within_cap
from .qstate import (
    DensityMatrix,
    PureState,
    PurificationSelection,
    SpectralDecomposition,
    _nonzero_indices,
    _purification,
    _purifying_selection,
    _with_extremes,
)
from .witness import Witness, WitnessForm, evaluate

ENUMERATION_CAP = 64


def _require_dual_form(w: Witness, op: str) -> None:
    if w.form is not WitnessForm.C_MINUS_SIGMA:
        raise FormNotSupported(
            f"{op} applies only to the dual form c*I - sigma; "
            "the primal form sigma - c*I does not survive this extension"
        )


def _rank_one(dims: tuple[int, ...], arr: np.ndarray, norm2: float) -> DensityMatrix:
    """The projector `arr` = |v><v| on `dims`, norm2 = ||v||^2: eigenvalues
    norm2 and, in any dimension above 1, 0.

    `arr` is symmetrised once, (arr + arr^+)/2, so the result is Hermitian
    to the bit with an exactly real diagonal: a product leaves mirrored
    entries up to a rounding apart, and a written file then repeats each
    off-diagonal magnitude instead of carrying two. The real diagonal is
    kept exactly, so the trace and the extremes do not move, and an
    exact entry (1/2 in the purified projector of I/2) stays exact."""
    arr = 0.5 * (arr + arr.conj().T)
    return _with_extremes(dims, arr, 0.0 if len(arr) > 1 else norm2, norm2)


def _pure_factors(tails: Sequence[PureState]) -> Iterator[DensityMatrix]:
    """The projector onto each pure tail, built when it is read."""
    for t in tails:
        v = t.vec.vec
        yield _rank_one(t.dims, np.outer(v, v.conj()), float(np.vdot(v, v).real))


def _mixed_factors(tails: Sequence[DensityMatrix]) -> Iterator[DensityMatrix]:
    """Each tail scaled by its top eigenvalue, built when it is read."""
    for t in tails:
        yield _with_extremes(t.dims, t.mat.mat / t.lambda_max, t.lambda_min / t.lambda_max, 1.0)


def _identity_factors(sizes: Sequence[int]) -> Iterator[DensityMatrix]:
    """One identity per size, built when it is read."""
    for d in sizes:
        yield _with_extremes((d,), np.eye(d), 1.0, 1.0)


def _tensor(base: DensityMatrix, factors: Sequence[DensityMatrix]) -> DensityMatrix:
    """base (x) f_1 (x) f_2 ...; the caller checks its size before it
    builds the factors."""
    dims, arr = base.dims, base.mat.mat
    lo, hi = base.lambda_min, base.lambda_max
    for f in factors:
        dims, arr = dims + f.dims, np.kron(arr, f.mat.mat)
        ends = (lo * f.lambda_min, lo * f.lambda_max, hi * f.lambda_min, hi * f.lambda_max)
        lo, hi = min(ends), max(ends)
    return _with_extremes(dims, arr, lo, hi)


def _extension(w: Witness, c: float, sigma: DensityMatrix, blocks: tuple, phi) -> Witness:
    """The witness of w's form at offset c on sigma, carrying the `blocks`
    and `phi` (`Witness`) that the caller knows from how sigma was built."""
    ext = Witness(w.form, c, sigma)
    object.__setattr__(ext, "blocks", blocks)
    object.__setattr__(ext, "phi", phi)
    return ext


def _tensor_extend(
    w: Witness, tail_dims: Sequence[tuple[int, ...]], factors: Iterable[DensityMatrix]
) -> Witness:
    """w with sigma replaced by `_tensor(sigma, factors)` and the factors
    appended to its blocks; w itself with no tails. The size is checked
    before `factors` is read, so the factors may be built lazily."""
    if not tail_dims:
        return w
    _require_within_cap(math.prod(w.dims + sum(tail_dims, ())), "product dimension")
    factors = list(factors)
    blocks = (*w.blocks, *(f.mat for f in factors))
    return _extension(w, w.c, _tensor(w.sigma, factors), blocks, w.phi)


def purify_extend(w: Witness) -> Witness:
    """Replace sigma by the projector onto its minimal purification.

    The new party has dimension rank(sigma) and c is unchanged; the
    smallest eigenvalue of the extended witness is c - 1.
    """
    _require_dual_form(w, "purify_extend")
    return partial_purify_extend(w, _purifying_selection(w.sigma))


def pure_tails_extend(w: Witness, tails: Sequence[PureState]) -> Witness:
    """Tensor sigma with projectors onto normalized pure tails.

    A pure tail has top eigenvalue 1, so this is the mixed-tensor
    extension without any rescaling.
    """
    _require_dual_form(w, "pure_tails_extend")
    if any(not t.normalized for t in tails):
        raise UnnormalizedTail("pure tails must be normalized")
    return _tensor_extend(w, [t.dims for t in tails], _pure_factors(tails))


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

    The selection must include a top eigenpair (MaxEigenvalueNotSelected),
    which keeps the margin, the sum of the selected eigenvalues minus c,
    at least lambda_max(sigma) - c. The rule is sufficient, not necessary:
    Tr_C sigma' = sigma_S <= sigma, so no selection goes negative on a
    product state. The optional relaxed offset must satisfy c <= c_prime <
    sum of selected eigenvalues (the squared norm of the partial purification).
    """
    _require_dual_form(w, "partial_purify_extend")
    lams, wmat = _purification(w.sigma, sel)
    if max(lams) < w.sigma.spectrum.eigenvalues[-1] - TIE_TOL:
        raise MaxEigenvalueNotSelected(
            "selection omits the top eigenvalue; a selection must keep a top "
            "eigenpair, so that the margin, the sum of the selected eigenvalues "
            "minus c, is at least lambda_max(sigma) - c"
        )
    total = float(sum(lams))
    c_out = w.c
    if c_prime is not None:
        c_out = float(c_prime)
        if not (w.c <= c_out < total):
            raise CPrimeOutOfInterval(
                f"c_prime={c_out!r} outside [{w.c!r}, {total!r})"
            )
    proj = (wmat @ np.sqrt(np.outer(lams, lams))) @ wmat.conj().T
    phi = (wmat @ np.sqrt(lams)).reshape(w.sigma.dim, sel.ancilla_dim)
    block = w.sigma.mat
    if len(sel.pairs) < w.sigma.spectrum.rank():
        block = ComplexMatrix(w.dims, phi @ phi.conj().T)
    sigma = _rank_one(w.sigma.dims + (sel.ancilla_dim,), proj, total)
    return _extension(w, c_out, sigma, (block,), phi)


def count_partial_purifications(rank: int, d3: int) -> int:
    """Closed-form count of distinct partial purifications with the top
    eigenpair selected, over an ancilla of dimension d3:

        sum_{i=1}^{min(d3, rank)} C(rank-1, i-1) * d3!/(d3-i)!
    """
    rank = int(rank)
    d3 = int(d3)
    if rank < 1 or d3 < 1:
        raise ParamOutOfRange("rank and ancilla dimension must be >= 1")
    return sum(math.comb(rank - 1, i - 1) * math.perm(d3, i) for i in range(1, min(d3, rank) + 1))


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
        count = count_partial_purifications(rank, d3)  # str() refuses ints over 4300 digits
        size = count if count < 10**100 else f"a {count.bit_length()}-bit integer"
        raise CountTooLarge(
            f"rank*d3 = {rank * d3} exceeds the enumeration cap "
            f"{ENUMERATION_CAP}; the closed-form count is {size}"
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
    if any(not t.normalized for t in tails):
        raise UnnormalizedTail("tensor tails must be normalized")
    return _tensor_extend(w, [t.dims for t in tails], _mixed_factors(tails))


def identity_extend(w: Witness, tail_dims: Sequence[int]) -> Witness:
    """Tensor sigma with identity factors; valid for both forms.

    The spectrum of sigma (x) I is the spectrum of sigma with higher
    multiplicity. Only the tail dimensions are checked, not the verdict.
    """
    sizes = [int(d) for d in tail_dims]
    for d in sizes:
        if d < 1:
            raise ParamOutOfRange(f"tail dimension {d} must be >= 1")
    return _tensor_extend(w, [(d,) for d in sizes], _identity_factors(sizes))


def detect_product_extension(
    w_ext: Witness, rho12: DensityMatrix, tails: Sequence[DensityMatrix]
) -> float:
    """Expectation of the extended witness on rho12 (x) tails.

    For identity-tail witnesses with normalized tails this equals the
    base witness expectation on rho12, so a state detected before
    extension stays detected after it.
    """
    dims = rho12.dims + sum((t.dims for t in tails), ())
    _require_within_cap(math.prod(dims), "product dimension")
    rho = _tensor(rho12, tails)
    if rho.dims != w_ext.dims:
        raise DimensionMismatch(
            f"extended witness dims {w_ext.dims} vs product state dims {rho.dims}"
        )
    return evaluate(w_ext, rho)
