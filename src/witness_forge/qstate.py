"""Validated quantum-state types and purification constructors.

Density matrices are checked for Hermiticity, positive semidefiniteness
to PSD_TOL times their trace and (when flagged normalized) unit trace
at construction time, which keeps the extreme eigenvalues `lambda_min`
and `lambda_max`; the canonical decomposition `spectrum` is built on
first read. Every public constructor, file parsing included, finds the
extremes by one eigensolve. `_with_extremes` is the one route that
takes them from the caller instead, for an extension whose spectrum
follows from its base; it reads the normalized flag from the trace and
runs every other check.
Purifications follow the spectrum's order, pairing the i-th nonzero
eigenvector with ancilla basis vector |i>; `_purification` checks a
selection and gives its eigenvalues and columns |e_i>|slot_i>.

Partial purifications are deliberately kept unnormalized: their squared
norm is the sum of the selected eigenvalues, which downstream witness
extensions rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ParamOutOfRange, SelectionOutOfRange
from .linalg import (
    RANK_TOL,
    ComplexMatrix,
    ComplexVector,
    SpectralDecomposition,
    _canonical_eig,
    _extreme_eigvals,
    _require_within_cap,
)

NORM_TOL = 1e-10  # a trace (density matrix) or norm (pure state) this close to 1 is 1
PSD_TOL = 1e-10  # a lambda_min down to -PSD_TOL * trace is semidefinite to rounding


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A PSD Hermitian operator; trace 1 when `normalized` is set.

    Its computed lambda_min may be as low as -PSD_TOL * trace, so that
    s * rho passes for every s > 0 exactly when rho does."""

    mat: ComplexMatrix
    normalized: bool = True
    lambda_min: float = field(init=False)
    lambda_max: float = field(init=False)

    def __post_init__(self, extremes: tuple[float, float] | None = None) -> None:
        self.mat.require_hermitian()
        with np.errstate(over="ignore"):  # finite entries can sum past 1.8e308
            tr = self.mat.trace().real
        if not np.isfinite(tr):
            raise ParamOutOfRange(f"density matrix trace {tr!r} is not finite")
        if self.normalized:
            if abs(tr - 1.0) > NORM_TOL:
                raise ParamOutOfRange(
                    f"normalized density matrix has trace {tr!r}, expected 1"
                )
        elif tr <= 0.0:
            raise ParamOutOfRange(f"density matrix trace {tr!r} must be positive")
        lo, hi = _extreme_eigvals(self.mat.mat) if extremes is None else extremes
        if lo < -PSD_TOL * tr:
            raise ParamOutOfRange(
                f"density matrix has eigenvalue {lo:.3e} below -{PSD_TOL:g} * trace {tr:.3e}"
            )
        object.__setattr__(self, "lambda_min", lo)
        object.__setattr__(self, "lambda_max", hi)

    @cached_property
    def spectrum(self) -> SpectralDecomposition:
        """Canonical spectral decomposition (`linalg._canonical_eig`)."""
        return SpectralDecomposition(*_canonical_eig(self.mat.mat), self.dims)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.mat.dims

    @property
    def dim(self) -> int:
        return self.mat.dim


def _with_extremes(dims: tuple[int, ...], arr: np.ndarray, lo: float, hi: float) -> DensityMatrix:
    """The DensityMatrix `arr` on `dims`, whose extreme eigenvalues `lo` and
    `hi` the caller knows exactly from how `arr` was built, so no eigensolve
    runs; normalized when its trace is 1 within NORM_TOL. Every other check
    of `DensityMatrix.__post_init__` runs, the -PSD_TOL * trace floor on `lo`
    included."""
    mat = ComplexMatrix(dims, arr)
    d = object.__new__(DensityMatrix)
    object.__setattr__(d, "mat", mat)
    object.__setattr__(d, "normalized", abs(mat.trace().real - 1.0) <= NORM_TOL)
    d.__post_init__((lo, hi))
    return d


@dataclass(frozen=True, eq=False)
class PureState:
    """A state vector; unit norm when `normalized` is set.

    Partial purifications carry normalized=False and a squared norm
    equal to the sum of their selected eigenvalues.
    """

    vec: ComplexVector
    normalized: bool = True

    def __post_init__(self) -> None:
        nrm = self.vec.norm()
        if self.normalized:
            if abs(nrm - 1.0) > NORM_TOL:
                raise ParamOutOfRange(
                    f"normalized pure state has norm {nrm!r}, expected 1"
                )
        elif nrm <= 0.0:
            raise ParamOutOfRange("pure state must be nonzero")

    @property
    def dims(self) -> tuple[int, ...]:
        return self.vec.dims


@dataclass(frozen=True, eq=False)
class PurificationSelection:
    """Which eigenpairs go to which ancilla basis slots.

    `pairs` holds (eigen-index, ancilla-slot) entries; eigen-indices
    refer to the ascending canonical spectral order. Stored sorted by
    eigen-index. Slots must be distinct and below `ancilla_dim`.
    """

    pairs: tuple[tuple[int, int], ...]
    ancilla_dim: int

    def __post_init__(self) -> None:
        if int(self.ancilla_dim) < 1:
            raise SelectionOutOfRange("ancilla dimension must be >= 1")
        object.__setattr__(self, "ancilla_dim", int(self.ancilla_dim))
        try:
            pairs = tuple((int(i), int(s)) for i, s in self.pairs)
        except (TypeError, ValueError) as exc:
            raise SelectionOutOfRange(f"malformed selection pairs: {exc}") from exc
        if not pairs:
            raise SelectionOutOfRange("selection must contain at least one pair")
        if len(pairs) > self.ancilla_dim:
            raise SelectionOutOfRange(
                f"{len(pairs)} pairs exceed ancilla dimension {self.ancilla_dim}"
            )
        eig_indices = [i for i, _ in pairs]
        slots = [s for _, s in pairs]
        if len(set(eig_indices)) != len(eig_indices):
            raise SelectionOutOfRange("eigen-indices must be distinct")
        if len(set(slots)) != len(slots):
            raise SelectionOutOfRange("ancilla slots must be distinct")
        if any(i < 0 for i in eig_indices):
            raise SelectionOutOfRange("eigen-indices must be nonnegative")
        if any(not 0 <= s < self.ancilla_dim for s in slots):
            raise SelectionOutOfRange(
                f"ancilla slots must lie in 0..{self.ancilla_dim - 1}"
            )
        object.__setattr__(self, "pairs", tuple(sorted(pairs)))


def spectral(d: DensityMatrix) -> SpectralDecomposition:
    """Canonical spectral decomposition: `d.spectrum`, built once."""
    return d.spectrum


def _nonzero_indices(vals: Sequence[float]) -> list[int]:
    return [i for i, v in enumerate(vals) if v > RANK_TOL]


def _purifying_selection(d: DensityMatrix) -> PurificationSelection:
    """The i-th nonzero eigenpair of the normalized `d` to ancilla slot i,
    over rank(d) slots; an unnormalized `d` raises ParamOutOfRange."""
    if not d.normalized:
        raise ParamOutOfRange("can only purify a normalized density matrix")
    nz = _nonzero_indices(d.spectrum.eigenvalues)
    return PurificationSelection([(idx, slot) for slot, idx in enumerate(nz)], len(nz))


def _purification(d: DensityMatrix, sel: PurificationSelection) -> tuple[list[float], np.ndarray]:
    """The eigenvalue of each selected pair of `d`, in pair order, and the
    columns |e_i>|slot> (eigenvector i, ancilla basis vector) of the pairs.
    An eigen-index outside the spectrum, then the first pair that selects a
    zero eigenvalue, raises SelectionOutOfRange; then a purified dimension
    above MAX_TOTAL_DIM raises ParamOutOfRange, before any column is built."""
    vals = d.spectrum.eigenvalues
    for idx, _ in sel.pairs:
        if idx >= len(vals):
            raise SelectionOutOfRange(f"eigen-index {idx} outside spectrum of size {len(vals)}")
    lams = [vals[idx] for idx, _ in sel.pairs]
    for (idx, _), lam in zip(sel.pairs, lams):
        if lam <= RANK_TOL:
            raise SelectionOutOfRange(f"eigen-index {idx} selects a zero eigenvalue ({lam:.3e})")
    purified = d.dim * sel.ancilla_dim
    _require_within_cap(purified, "purified dimension")
    idx, slots = np.array(sel.pairs).T
    cols = np.zeros((d.dim, sel.ancilla_dim, len(sel.pairs)), dtype=np.complex128)
    cols[:, slots, np.arange(len(sel.pairs))] = d.spectrum.vectors[:, idx]
    return lams, cols.reshape(purified, len(sel.pairs))


def purify(d: DensityMatrix) -> PureState:
    """Minimal purification: |psi> = sum_i sqrt(p_i) |e_i>|i>.

    The ancilla dimension is rank(d). Eigenpairs enter in canonical
    ascending order, the i-th nonzero one paired with ancilla slot i; a
    larger ancilla, padded with zero amplitudes, is `partial_purify` with
    those pairs over more slots.
    """
    phi = partial_purify(d, _purifying_selection(d))
    return PureState(phi.vec, normalized=True)


def partial_purify(d: DensityMatrix, sel: PurificationSelection) -> PureState:
    """Unnormalized |phi> = sum over selected pairs of sqrt(lambda_i) |e_i>|slot_i>.

    Squared norm equals the sum of the selected eigenvalues. Selecting
    an index outside the spectrum or one whose eigenvalue is numerically
    zero raises SelectionOutOfRange.
    """
    lams, cols = _purification(d, sel)
    vec = ComplexVector(d.dims + (sel.ancilla_dim,), cols @ np.sqrt(lams))
    return PureState(vec, normalized=False)


def isotropic(q: float) -> DensityMatrix:
    """Two-qubit family q|psi+><psi+| + (1-q) I/4.

    Diagonal ((1+q)/4, (1-q)/4, (1-q)/4, (1+q)/4) with corner couplings
    q/2. Separable below q = 1/3, entangled above.
    """
    q = float(q)
    if not 0.0 <= q <= 1.0:
        raise ParamOutOfRange(f"mixing parameter {q!r} outside [0, 1]")
    hi = (1.0 + q) / 4.0
    lo = (1.0 - q) / 4.0
    m = np.zeros((4, 4), dtype=np.complex128)
    m[0, 0] = hi
    m[1, 1] = lo
    m[2, 2] = lo
    m[3, 3] = hi
    m[0, 3] = q / 2.0
    m[3, 0] = q / 2.0
    return DensityMatrix(ComplexMatrix((2, 2), m), normalized=True)


def projector(p: PureState) -> DensityMatrix:
    """|p><p| as a density matrix; inherits the normalized flag."""
    outer = np.outer(p.vec.vec, p.vec.vec.conj())
    return DensityMatrix(ComplexMatrix(p.dims, outer), normalized=p.normalized)
