"""Validated quantum-state types and purification constructors.

Density matrices are checked for Hermiticity, positive semidefiniteness
and (when flagged normalized) unit trace at construction time, which
keeps the extreme eigenvalues `lambda_min` and `lambda_max`; the
canonical decomposition `spectrum` is built on first read. Purifications
follow its order, pairing the i-th nonzero eigenvector with ancilla
basis vector |i>.

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
    TIE_TOL,
    ComplexMatrix,
    ComplexVector,
    SpectralDecomposition,
    _canonical_eig,
    _extreme_eigvals,
)

NORM_TOL = 1e-10  # a trace (density matrix) or norm (pure state) this close to 1 is 1


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A PSD Hermitian operator; trace 1 when `normalized` is set."""

    mat: ComplexMatrix
    normalized: bool = True
    lambda_min: float = field(init=False)
    lambda_max: float = field(init=False)

    def __post_init__(self) -> None:
        self.mat.require_hermitian()
        tr = self.mat.trace().real
        if self.normalized:
            if abs(tr - 1.0) > NORM_TOL:
                raise ParamOutOfRange(
                    f"normalized density matrix has trace {tr!r}, expected 1"
                )
        elif tr <= 0.0:
            raise ParamOutOfRange(f"density matrix trace {tr!r} must be positive")
        lo, hi = _extreme_eigvals(self.mat.mat)
        if lo < -1e-10:
            raise ParamOutOfRange(
                f"density matrix has eigenvalue {lo:.3e} below -1e-10"
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

    @property
    def dim(self) -> int:
        return self.vec.dim


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


def _purifying_selection(
    vals: Sequence[float], ancilla_dim: int | None = None
) -> PurificationSelection:
    """The i-th nonzero eigenpair to ancilla slot i, over `ancilla_dim`
    slots (default: the rank)."""
    nz = _nonzero_indices(vals)
    anc = len(nz) if ancilla_dim is None else int(ancilla_dim)
    if anc < len(nz):
        raise ParamOutOfRange(f"ancilla dimension {anc} below rank {len(nz)}")
    return PurificationSelection([(idx, slot) for slot, idx in enumerate(nz)], anc)


def _selected(vals: Sequence[float], pairs: Sequence[tuple[int, int]]) -> list[float]:
    """The eigenvalue of each selected pair, in pair order; an index
    outside the spectrum raises SelectionOutOfRange."""
    for idx, _ in pairs:
        if idx >= len(vals):
            raise SelectionOutOfRange(f"eigen-index {idx} outside spectrum of size {len(vals)}")
    return [vals[idx] for idx, _ in pairs]


def _selected_nonzero(vals: Sequence[float], pairs: Sequence[tuple[int, int]]) -> list[float]:
    """`_selected`, then the first pair that selects a zero eigenvalue
    raises SelectionOutOfRange."""
    lams = _selected(vals, pairs)
    for (idx, _), lam in zip(pairs, lams):
        if lam <= RANK_TOL:
            raise SelectionOutOfRange(f"eigen-index {idx} selects a zero eigenvalue ({lam:.3e})")
    return lams


def _has_top(vals: Sequence[float], lams: Sequence[float]) -> bool:
    return any(lam >= vals[-1] - TIE_TOL for lam in lams)


def _purification_columns(
    vecs: np.ndarray, pairs: Sequence[tuple[int, int]], ancilla_dim: int
) -> np.ndarray:
    """The columns |e_i>|slot> (eigenvector i, ancilla basis vector) of
    the selected (eigen-index, slot) pairs, in pair order."""
    cols = []
    for idx, slot in pairs:
        unit = np.zeros(ancilla_dim, dtype=np.complex128)
        unit[slot] = 1.0
        cols.append(np.kron(vecs[:, idx], unit))
    return np.column_stack(cols)


def purify(d: DensityMatrix, ancilla_dim: int | None = None) -> PureState:
    """Minimal purification: |psi> = sum_i sqrt(p_i) |e_i>|i>.

    The ancilla dimension defaults to rank(d); a larger explicit value
    pads with zero amplitudes. Eigenpairs enter in canonical ascending
    order, the i-th nonzero one paired with ancilla slot i.
    """
    if not d.normalized:
        raise ParamOutOfRange("can only purify a normalized density matrix")
    phi = partial_purify(d, _purifying_selection(d.spectrum.eigenvalues, ancilla_dim))
    return PureState(phi.vec, normalized=True)


def partial_purify(d: DensityMatrix, sel: PurificationSelection) -> PureState:
    """Unnormalized |phi> = sum over selected pairs of sqrt(lambda_i) |e_i>|slot_i>.

    Squared norm equals the sum of the selected eigenvalues. Selecting
    an index outside the spectrum or one whose eigenvalue is numerically
    zero raises SelectionOutOfRange.
    """
    lams = _selected_nonzero(d.spectrum.eigenvalues, sel.pairs)
    cols = _purification_columns(d.spectrum.vectors, sel.pairs, sel.ancilla_dim)
    out = np.zeros(cols.shape[0], dtype=np.complex128)
    for k, lam in enumerate(lams):
        out += np.sqrt(lam) * cols[:, k]
    return PureState(
        ComplexVector(d.dims + (sel.ancilla_dim,), out), normalized=False
    )


def has_max_eigenvalue(sel: PurificationSelection, sd: SpectralDecomposition) -> bool:
    """True iff some selected eigen-index attains the top eigenvalue
    (within 1e-12, so every member of a degenerate top eigenspace counts)."""
    return _has_top(sd.eigenvalues, _selected(sd.eigenvalues, sel.pairs))


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
