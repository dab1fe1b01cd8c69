"""Multipartite complex linear algebra on explicitly dimensioned operators.

Matrices and vectors carry the tuple of local dimensions (d1, ..., dn) of
the parties they act on, so tensor bookkeeping (partial trace, partial
transpose) never guesses shapes. The Hermitian eigensolver is
LAPACK's `eigh` followed by one canonicalization pass, so its output
depends only on the matrix, not on the basis LAPACK picks:

* eigenvalues ascending; eigenvalues within 1e-12 of the first member
  of their run form a cluster;
* a cluster's basis is the Gram-Schmidt orthonormalization of its
  projector's columns P e_0, P e_1, ... in index order, so it depends
  only on the eigenspace;
* each eigenvector's first component with modulus above 1e-12 is made
  real and positive;
* within a cluster, eigenvectors are ordered lexicographically by their
  (real, imag) entry pairs, parts of modulus <= 1e-12 counting as 0;
* each eigenvalue is the Rayleigh quotient v^dagger A v / v^dagger v of
  a final eigenvector, summed in `np.clongdouble` and rounded to
  float64 once. The quotient's error is quadratic in the vector's, so
  dyadic eigenvalues such as 1/16 come out exact; that relies on
  `longdouble` being the 80-bit x87 format (x86-64 Linux). Where it is
  plain float64 the values are correct only to rounding;
* the quotients of a cluster, which can differ in their last bits, are
  sorted ascending among themselves, so the whole list ascends; they
  then need not pair with the eigenvectors in their lexicographic order.

The convention makes spectral output reproducible bit for bit across
runs, which downstream code relies on for deterministic reports.
`_extreme_eigvals` runs the same LAPACK call and Rayleigh step on the
two extremal columns alone, for callers that need nothing else. Every
LAPACK eigensolve in the package goes through `_lapack`, which turns
LAPACK's failure into NoConvergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BadPartyIndex,
    DimensionMismatch,
    NoConvergence,
    NotHermitian,
    ParamOutOfRange,
)

HERMITICITY_TOL = 1e-10
RANK_TOL = 1e-10
TIE_TOL = 1e-12
PHASE_PIVOT_TOL = 1e-12
GS_SKIP_TOL = 1e-8
# Largest total dimension the tool reads or builds; checked before any dense allocation.
MAX_TOTAL_DIM = 1024
# Operators are reshaped to tensors of two axes per party, and numpy 1.x
# arrays have at most 32 axes.
MAX_PARTIES = 16


def _as_dims(dims: Iterable[int]) -> tuple[int, ...]:
    out = tuple(int(d) for d in dims)
    if not out or any(d < 1 for d in out):
        raise DimensionMismatch(f"local dimensions must be positive, got {out}")
    if len(out) > MAX_PARTIES:
        raise DimensionMismatch(f"{len(out)} parties exceed the supported {MAX_PARTIES}")
    return out


def _require_within_cap(dim: int, what: str) -> None:
    """ParamOutOfRange, naming the `what` of size `dim`, above
    MAX_TOTAL_DIM: the one size check before any dense allocation."""
    if dim > MAX_TOTAL_DIM:
        raise ParamOutOfRange(f"{what} {dim} > {MAX_TOTAL_DIM}")


def _freeze(obj, field: str, what: str, ndim: int) -> None:
    """Validate a vector (ndim 1) or square matrix (ndim 2) dataclass in
    place: its dims, and its `field` as a read-only complex128 copy of
    side prod(dims) with finite entries."""
    dims = _as_dims(obj.dims)
    arr = np.array(getattr(obj, field), dtype=np.complex128)
    if arr.shape != (math.prod(dims),) * ndim:
        raise DimensionMismatch(f"{what} of shape {arr.shape} does not match dims {dims}")
    if not np.all(np.isfinite(arr)):
        raise ParamOutOfRange(f"{what} entries must be finite")
    arr.setflags(write=False)
    object.__setattr__(obj, "dims", dims)
    object.__setattr__(obj, field, arr)


@dataclass(frozen=True, eq=False)
class ComplexVector:
    """A vector on parties with local dimensions `dims`, length prod(dims)."""

    dims: tuple[int, ...]
    vec: np.ndarray

    def __post_init__(self) -> None:
        _freeze(self, "vec", "vector", 1)

    def norm(self) -> float:
        return float(np.linalg.norm(self.vec))


@dataclass(frozen=True, eq=False)
class ComplexMatrix:
    """A square matrix on parties with local dimensions `dims`."""

    dims: tuple[int, ...]
    mat: np.ndarray

    def __post_init__(self) -> None:
        _freeze(self, "mat", "matrix", 2)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def trace(self) -> complex:
        return complex(np.trace(self.mat))

    def hermiticity_defect(self) -> float:
        """Largest entrywise deviation from Hermitian symmetry."""
        return float(np.abs(self.mat - self.mat.conj().T).max())

    def require_hermitian(self) -> None:
        defect = self.hermiticity_defect()
        if defect > HERMITICITY_TOL:
            raise NotHermitian(
                f"hermiticity defect {defect:.3e} exceeds tolerance {HERMITICITY_TOL:.1e}"
            )


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues (ascending, canonical ties) with the eigenvectors as the
    columns of `vectors`, an array the instance owns and makes read-only."""

    eigenvalues: tuple[float, ...]
    vectors: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        self.vectors.setflags(write=False)
        object.__setattr__(self, "eigenvalues", tuple(map(float, self.eigenvalues)))

    @cached_property
    def eigenvectors(self) -> tuple[ComplexVector, ...]:
        """The columns of `vectors` as ComplexVectors, built on first read."""
        return tuple(ComplexVector(self.dims, col) for col in self.vectors.T)

    def rank(self) -> int:
        """Number of eigenvalues strictly above RANK_TOL."""
        return sum(1 for v in self.eigenvalues if v > RANK_TOL)


def _check_parties(n: int, parties: Sequence[int]) -> tuple[int, ...]:
    if len(parties) == 0:
        raise BadPartyIndex("party subset must be non-empty")
    out = []
    seen = set()
    for k in parties:
        k = int(k)
        if not 1 <= k <= n:
            raise BadPartyIndex(f"party index {k} outside 1..{n}")
        if k in seen:
            raise BadPartyIndex(f"party index {k} repeated")
        seen.add(k)
        out.append(k)
    return tuple(sorted(out))



def partial_trace(m: ComplexMatrix, keep: Sequence[int]) -> ComplexMatrix:
    """Trace out every party not in `keep` (1-based, original order kept)."""
    n = len(m.dims)
    kept = _check_parties(n, keep)
    order = [k - 1 for k in kept] + [k for k in range(n) if k + 1 not in kept]
    new_dims = tuple(m.dims[k - 1] for k in kept)
    d = math.prod(new_dims)
    t = m.mat.reshape(m.dims + m.dims).transpose(order + [n + k for k in order])
    reduced = np.trace(t.reshape(d, m.dim // d, d, m.dim // d), axis1=1, axis2=3)
    return ComplexMatrix(new_dims, reduced)


def partial_transpose(m: ComplexMatrix, party: int) -> ComplexMatrix:
    """Transpose the indices of one party (1-based)."""
    n = len(m.dims)
    (k,) = _check_parties(n, [party])
    t = m.mat.reshape(m.dims + m.dims)
    t = np.swapaxes(t, k - 1, n + k - 1)
    return ComplexMatrix(m.dims, t.reshape(m.dim, m.dim).copy())


def _phase_fix(vecs: np.ndarray) -> None:
    """Rotate each column so its first large component is real positive."""
    big = np.abs(vecs) > PHASE_PIVOT_TOL
    piv = vecs[big.argmax(axis=0), np.arange(vecs.shape[1])]
    piv = np.where(big.any(axis=0), piv, 1.0)
    vecs *= piv.conj() / np.abs(piv)


def _cluster_basis(v: np.ndarray) -> np.ndarray:
    """Orthonormal basis of span(v) that depends only on the span.

    Gram-Schmidt over the projector's columns P e_0, P e_1, ... in index
    order, done in the coordinates V^dagger e_i of the given orthonormal
    columns so every output vector lies in span(v) to rounding. Each
    residual is orthogonalized twice; residuals of norm <= 1e-8 are
    skipped; the pass stops after k = v.shape[1] vectors.
    """
    k = v.shape[1]
    basis = np.zeros((k, k), dtype=np.complex128)
    m = 0
    for row in v.conj():
        r = row.copy()
        for _ in range(2):
            r -= basis[:, :m] @ (basis[:, :m].conj().T @ r)
        nrm = float(np.linalg.norm(r))
        if nrm > GS_SKIP_TOL:
            basis[:, m] = r / nrm
            m += 1
            if m == k:
                break
    return v @ basis


def _lapack(solve, h: np.ndarray):
    """`solve(h)` for `solve` = `np.linalg.eigh` or `eigvalsh`, the one place
    a LAPACK LinAlgError becomes NoConvergence. Callers pass the numpy
    function when they call, so a patched `np.linalg` attribute runs."""
    try:
        return solve(h)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"LAPACK eigensolver did not converge: {exc}") from exc


def _hermitian_eigh(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(symmetrized arr, eigenvalues, eigenvectors) from LAPACK `eigh`.
    Entries so large that the symmetrization or the spectrum overflows
    (above about 9e307) raise ParamOutOfRange."""
    work = np.array(arr, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        work = 0.5 * (work + work.conj().T)
    if np.isfinite(work).all():
        vals, vecs = _lapack(np.linalg.eigh, work)
        if np.isfinite(vals).all():
            return work, vals, vecs
    raise ParamOutOfRange("matrix entries too large for a finite spectrum")


def _rayleigh(work: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Rayleigh quotients of the columns of `vecs`, summed in longdouble along
    each column's own contiguous row of `wide`, so a column's quotient does
    not depend on how many columns come with it."""
    wide = vecs.T.astype(np.clongdouble, order="C")
    num = ((wide.conj() @ work.astype(np.clongdouble)) * wide).sum(-1)
    return (num.real / (wide.conj() * wide).sum(-1).real).astype(np.float64)


def _extreme_eigvals(arr: np.ndarray) -> tuple[float, float]:
    """(smallest, largest) eigenvalue: `_canonical_eig`'s, bit for bit where it
    is simple, else to rounding."""
    work, _, vecs = _hermitian_eigh(arr)
    ends = vecs[:, [0, -1]]
    _phase_fix(ends)
    return tuple(_rayleigh(work, ends).tolist())


def _canonical_eig(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigensolve a Hermitian ndarray, canonical order and phases.

    Returns (eigenvalues ascending, eigenvector columns). The input is
    symmetrized but not validated; callers own the Hermiticity check.
    """
    work, vals, vecs = _hermitian_eigh(arr)
    _phase_fix(vecs)  # final for singletons; clusters get a new basis below
    n = vals.size
    clusters = []
    i = 0
    while i < n:
        j = i + 1
        while j < n and vals[j] - vals[i] <= TIE_TOL:
            j += 1
        if j - i > 1:
            block = _cluster_basis(vecs[:, i:j])
            _phase_fix(block)
            # lexicographic by (re, im) of entry 0, then entry 1, ...; parts
            # at or below the pivot tolerance count as 0, because the
            # staircase zeros of the Gram-Schmidt basis carry only noise
            keys = np.stack([block.real, block.imag], axis=1).reshape(-1, j - i)
            keys[np.abs(keys) <= PHASE_PIVOT_TOL] = 0.0
            vecs[:, i:j] = block[:, np.lexsort(keys[::-1])]
            clusters.append((i, j))
        i = j
    out = _rayleigh(work, vecs)
    for i, j in clusters:
        out[i:j].sort()
    return out, vecs


def hermitian_eig(m: ComplexMatrix) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian matrix.

    Validates Hermiticity to the 1e-10 entrywise tolerance, then runs
    `_canonical_eig` (LAPACK plus the canonical conventions documented at
    module level). LAPACK failure raises NoConvergence, and entries too
    large for a finite spectrum raise ParamOutOfRange.
    """
    m.require_hermitian()
    return SpectralDecomposition(*_canonical_eig(m.mat), m.dims)
