"""Multipartite complex linear algebra on explicitly dimensioned operators.

Matrices and vectors carry the tuple of local dimensions (d1, ..., dn) of
the parties they act on, so tensor bookkeeping (kron, partial trace,
partial transpose) never guesses shapes. The Hermitian eigensolver is a
cyclic Jacobi iteration with a fixed canonical output convention:

* eigenvalues ascending;
* eigenvalues closer than 1e-12 form a cluster whose eigenvectors are
  ordered lexicographically by their (real, imag) entry pairs after
  phase fixing;
* each eigenvector's first component with modulus above 1e-12 is made
  real and positive.

The convention makes spectral output reproducible bit for bit across
runs, which downstream code relies on for deterministic reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
TIE_TOL = 1e-12
PHASE_PIVOT_TOL = 1e-12
JACOBI_SWEEPS = 100


def _as_dims(dims: Iterable[int]) -> tuple[int, ...]:
    out = tuple(int(d) for d in dims)
    if not out or any(d < 1 for d in out):
        raise DimensionMismatch(f"local dimensions must be positive, got {out}")
    return out


@dataclass(frozen=True, eq=False)
class ComplexVector:
    """A vector on parties with local dimensions `dims`, length prod(dims)."""

    dims: tuple[int, ...]
    vec: np.ndarray

    def __post_init__(self) -> None:
        dims = _as_dims(self.dims)
        arr = np.array(self.vec, dtype=np.complex128)
        if arr.shape != (math.prod(dims),):
            raise DimensionMismatch(
                f"vector of shape {arr.shape} does not match dims {dims}"
            )
        if not np.all(np.isfinite(arr)):
            raise ParamOutOfRange("vector entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "vec", arr)

    @property
    def dim(self) -> int:
        return self.vec.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.vec))


@dataclass(frozen=True, eq=False)
class ComplexMatrix:
    """A square matrix on parties with local dimensions `dims`."""

    dims: tuple[int, ...]
    mat: np.ndarray

    def __post_init__(self) -> None:
        dims = _as_dims(self.dims)
        arr = np.array(self.mat, dtype=np.complex128)
        d = math.prod(dims)
        if arr.shape != (d, d):
            raise DimensionMismatch(
                f"matrix of shape {arr.shape} does not match dims {dims}"
            )
        if not np.all(np.isfinite(arr)):
            raise ParamOutOfRange("matrix entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "mat", arr)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def trace(self) -> complex:
        return complex(np.trace(self.mat))

    def hermiticity_defect(self) -> float:
        """Largest entrywise deviation from Hermitian symmetry."""
        return float(np.abs(self.mat - self.mat.conj().T).max())

    def require_hermitian(self, tol: float = HERMITICITY_TOL) -> None:
        defect = self.hermiticity_defect()
        if defect > tol:
            raise NotHermitian(
                f"hermiticity defect {defect:.3e} exceeds tolerance {tol:.1e}"
            )


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues (ascending, canonical ties) with matching eigenvectors."""

    eigenvalues: tuple[float, ...]
    eigenvectors: tuple[ComplexVector, ...]
    dims: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    def rank(self, tol: float = 1e-10) -> int:
        """Number of eigenvalues strictly above `tol`."""
        return sum(1 for v in self.eigenvalues if v > tol)

    def vectors_matrix(self) -> np.ndarray:
        """Eigenvectors as the columns of a (dim, dim) array."""
        return np.column_stack([v.vec for v in self.eigenvectors])

    def reconstruct(self) -> ComplexMatrix:
        """Sum of eigenvalue-weighted projectors."""
        u = self.vectors_matrix()
        m = (u * np.asarray(self.eigenvalues)) @ u.conj().T
        return ComplexMatrix(self.dims, m)


def identity(dims: Iterable[int]) -> ComplexMatrix:
    dims = _as_dims(dims)
    return ComplexMatrix(dims, np.eye(math.prod(dims), dtype=np.complex128))


def kron(a: ComplexMatrix, b: ComplexMatrix) -> ComplexMatrix:
    """Tensor product; party list of the result is a's parties then b's."""
    return ComplexMatrix(a.dims + b.dims, np.kron(a.mat, b.mat))


def kron_vec(a: ComplexVector, b: ComplexVector) -> ComplexVector:
    return ComplexVector(a.dims + b.dims, np.kron(a.vec, b.vec))


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


_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def partial_trace(m: ComplexMatrix, keep: Sequence[int]) -> ComplexMatrix:
    """Trace out every party not in `keep` (1-based, original order kept)."""
    n = len(m.dims)
    kept = _check_parties(n, keep)
    t = m.mat.reshape(m.dims + m.dims)
    pool = iter(_LETTERS)
    row, col = [], []
    for k in range(1, n + 1):
        row.append(next(pool))
        # a traced party shares its row letter with its column
        col.append(next(pool) if k in kept else row[-1])
    out = "".join(row[k - 1] for k in kept) + "".join(col[k - 1] for k in kept)
    sub = "".join(row) + "".join(col) + "->" + out
    new_dims = tuple(m.dims[k - 1] for k in kept)
    d = math.prod(new_dims)
    reduced = np.einsum(sub, t).reshape(d, d)
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
    for k in range(vecs.shape[1]):
        col = vecs[:, k]
        big = np.flatnonzero(np.abs(col) > PHASE_PIVOT_TOL)
        if big.size:
            piv = col[big[0]]
            vecs[:, k] = col * (piv.conjugate() / abs(piv))


def _lex_key(col: np.ndarray) -> tuple[float, ...]:
    out: list[float] = []
    for z in col:
        out.append(float(z.real))
        out.append(float(z.imag))
    return tuple(out)


def _canonical_order(vals: np.ndarray, vecs: np.ndarray) -> list[int]:
    n = vals.size
    prelim = sorted(range(n), key=lambda k: vals[k])
    out: list[int] = []
    i = 0
    while i < n:
        j = i
        anchor = vals[prelim[i]]
        while j < n and vals[prelim[j]] - anchor <= TIE_TOL:
            j += 1
        cluster = prelim[i:j]
        if len(cluster) > 1:
            cluster.sort(key=lambda k: _lex_key(vecs[:, k]))
        out.extend(cluster)
        i = j
    return out


def _jacobi(a: np.ndarray, max_sweeps: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Diagonalize a Hermitian array in place by cyclic Jacobi rotations.

    Returns (eigenvalues, eigenvector columns, sweeps used). Raises
    NoConvergence when the off-diagonal mass is not driven below
    1e-13 * ||a||_F within the sweep budget.
    """
    n = a.shape[0]
    v = np.eye(n, dtype=np.complex128)
    if n == 1:
        return a.real.diagonal().copy(), v, 0
    fro = float(np.linalg.norm(a))
    tol = 1e-13 * fro
    for sweep in range(max_sweeps + 1):
        off = float(np.linalg.norm(a - np.diag(np.diagonal(a))))
        if off <= tol:
            return a.real.diagonal().copy(), v, sweep
        if sweep == max_sweeps:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                absb = abs(apq)
                if absb == 0.0:
                    continue
                app = a[p, p].real
                aqq = a[q, q].real
                if absb <= 1e-300 or absb <= 1e-18 * (abs(app) + abs(aqq)):
                    continue
                ph = apq / absb
                tau = (aqq - app) / (2.0 * absb)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.hypot(tau, 1.0))
                else:
                    t = -1.0 / (-tau + math.hypot(tau, 1.0))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                sph = s * ph.conjugate()
                cph = c * ph.conjugate()
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - sph * col_q
                a[:, q] = s * col_p + cph * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - sph.conjugate() * row_q
                a[q, :] = s * row_p + cph.conjugate() * row_q
                a[p, p] = app - t * absb
                a[q, q] = aqq + t * absb
                a[p, q] = 0.0
                a[q, p] = 0.0
                col_p = v[:, p].copy()
                col_q = v[:, q].copy()
                v[:, p] = c * col_p - sph * col_q
                v[:, q] = s * col_p + cph * col_q
    raise NoConvergence(
        f"Jacobi eigensolver: off-diagonal norm {off:.3e} above {tol:.3e} "
        f"after {max_sweeps} sweeps"
    )


def _canonical_eig(arr: np.ndarray, max_sweeps: int = JACOBI_SWEEPS) -> tuple[np.ndarray, np.ndarray]:
    """Eigensolve a Hermitian ndarray, canonical order and phases.

    Returns (eigenvalues ascending, eigenvector columns). The input is
    symmetrized but not validated; callers own the Hermiticity check.
    """
    work = np.array(arr, dtype=np.complex128)
    work = 0.5 * (work + work.conj().T)
    vals, vecs, _ = _jacobi(work, max_sweeps)
    _phase_fix(vecs)
    order = _canonical_order(vals, vecs)
    return vals[order], vecs[:, order]


def hermitian_eig(m: ComplexMatrix, max_sweeps: int = JACOBI_SWEEPS) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian matrix.

    Validates Hermiticity to the 1e-10 entrywise tolerance, then runs the
    cyclic Jacobi iteration and applies the canonical ordering and phase
    conventions documented at module level.
    """
    m.require_hermitian()
    return _decomposition(m.dims, *_canonical_eig(m.mat, max_sweeps))


def _decomposition(
    dims: tuple[int, ...], vals: np.ndarray, vecs: np.ndarray
) -> SpectralDecomposition:
    """Wrap canonical (eigenvalues, eigenvector columns) from `_canonical_eig`."""
    vectors = tuple(ComplexVector(dims, vecs[:, k]) for k in range(vecs.shape[1]))
    return SpectralDecomposition(tuple(float(v) for v in vals), vectors, dims)
