"""Density-matrix types, purification, and selection bookkeeping."""

from __future__ import annotations

import numpy as np
import pytest

from witness_forge.errors import (
    NotHermitian,
    ParamOutOfRange,
    SelectionOutOfRange,
)
from witness_forge import linalg, qstate
from witness_forge.linalg import ComplexMatrix, ComplexVector, partial_trace
from witness_forge.qstate import (
    DensityMatrix,
    PureState,
    PurificationSelection,
    isotropic,
    partial_purify,
    projector,
    purify,
    spectral,
)


def _random_density(rng: np.random.Generator, dims: tuple[int, ...]) -> DensityMatrix:
    d = int(np.prod(dims))
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return DensityMatrix(ComplexMatrix(dims, rho / np.trace(rho).real))


def _maximally_mixed_qubit() -> DensityMatrix:
    return DensityMatrix(ComplexMatrix((2,), np.eye(2) / 2))


def test_density_matrix_validation():
    with pytest.raises(NotHermitian):
        DensityMatrix(ComplexMatrix((2,), np.array([[0.5, 1.0], [0.0, 0.5]])))
    with pytest.raises(ParamOutOfRange):
        DensityMatrix(ComplexMatrix((2,), np.eye(2)))  # trace 2, normalized
    with pytest.raises(ParamOutOfRange):
        DensityMatrix(ComplexMatrix((2,), np.diag([1.5, -0.5])))  # not PSD
    # unnormalized positive operators are allowed when flagged
    d = DensityMatrix(ComplexMatrix((2,), np.diag([0.4, 0.2])), normalized=False)
    assert not d.normalized
    with pytest.raises(ParamOutOfRange):
        DensityMatrix(ComplexMatrix((2,), np.zeros((2, 2))), normalized=False)


@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e6])
def test_the_psd_floor_scales_with_the_trace(scale):
    # lambda_min down to -1e-10 * trace passes, at every scale alike: a
    # qutrit of spectrum (0.7, 0.3 + x, -x) in a random basis, times scale
    u = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 6)).view(np.complex128))[0]
    for x, passes in ((5e-11, True), (2e-10, False)):
        m = scale * (u * [0.7, 0.3 + x, -x]) @ u.conj().T
        build = lambda: DensityMatrix(ComplexMatrix((3,), (m + m.conj().T) / 2), normalized=False)
        if passes:
            assert build().lambda_min == pytest.approx(-x * scale, rel=1e-4)
        else:
            with pytest.raises(ParamOutOfRange):
                build()


def test_pure_state_validation():
    with pytest.raises(ParamOutOfRange):
        PureState(ComplexVector((2,), np.array([1.0, 1.0])))
    p = PureState(ComplexVector((2,), np.array([0.6, 0.8j])))
    assert p.dims == (2,)
    q = PureState(ComplexVector((2,), np.array([0.3, 0.4])), normalized=False)
    assert not q.normalized


def test_isotropic_entries_are_exact():
    for q in (0.0, 0.2, 1 / 3, 1.0):
        s = isotropic(q)
        m = s.mat.mat
        assert m[0, 0] == (1 + q) / 4 and m[3, 3] == (1 + q) / 4
        assert m[1, 1] == (1 - q) / 4 and m[2, 2] == (1 - q) / 4
        assert m[0, 3] == q / 2 and m[3, 0] == q / 2
        assert m[0, 1] == 0 and m[1, 2] == 0
    with pytest.raises(ParamOutOfRange):
        isotropic(-0.1)
    with pytest.raises(ParamOutOfRange):
        isotropic(1.0000001)


def test_isotropic_spectrum_via_spectral():
    sq = isotropic(0.2)
    sd = spectral(sq)
    np.testing.assert_allclose(
        sorted(sd.eigenvalues), [0.2, 0.2, 0.2, 0.4], atol=1e-10, rtol=0
    )
    assert sd.rank() == 4
    assert spectral(sq) is sd


def test_extremes_match_the_canonical_spectrum():
    # bit for bit where the extremal eigenvalue is simple; inside a
    # degenerate cluster LAPACK's column and the canonical one differ,
    # and so can the last bits of their Rayleigh quotients
    arr = np.diag([5 / 16, 3 / 16, 3 / 16, 5 / 16]).astype(complex)
    arr[1, 2] = arr[2, 1] = 1 / 8
    four_level = DensityMatrix(ComplexMatrix((2, 2), arr))
    assert four_level.lambda_min == 1 / 16
    cases = [  # (state, lambda_min simple, lambda_max simple)
        (four_level, True, False),
        (DensityMatrix(ComplexMatrix((2, 2), np.eye(4) / 4)), False, False),
        (isotropic(0.2), False, True),
        (projector(purify(isotropic(0.2))), False, True),
    ]
    for seed in range(8):
        for dims in ((2, 2), (2, 3), (2, 2, 2), (3, 4)):
            cases.append((_random_density(np.random.default_rng(seed), dims), True, True))
    # above d = 90 einsum sums a 2-column Rayleigh numerator in another
    # order than a d-column one; only a per-column sum keeps the bits
    for seed in range(4):
        for dims in ((10, 10), (2, 64)):
            cases.append((_random_density(np.random.default_rng(seed), dims), True, True))
    for d, simple_min, simple_max in cases:
        vals = spectral(d).eigenvalues
        for lam, want, simple in ((d.lambda_min, vals[0], simple_min), (d.lambda_max, vals[-1], simple_max)):
            if simple:
                assert lam == want
            else:
                assert abs(lam - want) <= 1e-15


def test_construction_runs_no_canonical_pass(monkeypatch):
    def refuse(arr):
        raise AssertionError("canonical eigensolve while constructing a state")

    monkeypatch.setattr(qstate, "_canonical_eig", refuse)
    monkeypatch.setattr(linalg, "_canonical_eig", refuse)
    d = DensityMatrix(ComplexMatrix((2,) * 10, np.eye(1024) / 1024))
    assert d.lambda_min == d.lambda_max == 1 / 1024


def test_purify_maximally_mixed_qubit_gives_bell_state():
    psi = purify(_maximally_mixed_qubit())
    assert psi.dims == (2, 2)
    want = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
    np.testing.assert_allclose(psi.vec.vec, want, atol=1e-12)


def test_purification_reduces_back_to_the_state():
    for seed, dims in [(0, (2, 2)), (1, (2, 2)), (2, (2, 3)), (3, (2, 3))]:
        rng = np.random.default_rng(seed)
        d = _random_density(rng, dims)
        psi = purify(d)
        keep = list(range(1, len(dims) + 1))
        red = partial_trace(projector(psi).mat, keep)
        assert np.linalg.norm(red.mat - d.mat.mat) <= 1e-10


def _rank_pairs(d: DensityMatrix) -> tuple[tuple[int, int], ...]:
    """The i-th nonzero eigenpair of d to ancilla slot i."""
    nz = [i for i, v in enumerate(d.spectrum.eigenvalues) if v > 1e-10]
    return tuple((idx, slot) for slot, idx in enumerate(nz))


def test_purify_is_at_the_rank():
    rank2 = DensityMatrix(ComplexMatrix((2, 2), np.diag([0.5, 0.0, 0.5, 0.0])))
    for d, rank in ((isotropic(0.2), 4), (rank2, 2), (_maximally_mixed_qubit(), 2)):
        psi = purify(d)
        assert psi.dims == d.dims + (rank,)
        assert psi.normalized
        assert abs(np.linalg.norm(psi.vec.vec) - 1.0) <= 1e-12
    unnorm = DensityMatrix(ComplexMatrix((2,), np.diag([0.4, 0.2])), normalized=False)
    with pytest.raises(ParamOutOfRange):
        purify(unnorm)


def test_a_padded_purification_is_the_minimal_one_with_zeros():
    # partial_purify over the rank's pairs, pair i to slot i, for ancillas
    # from the rank up to the cap: purify's vector, then zero amplitudes
    rng = np.random.default_rng(23)
    rank2 = DensityMatrix(ComplexMatrix((2, 2), np.diag([0.5, 0.0, 0.5, 0.0])))
    for d in (isotropic(0.2), rank2, _random_density(rng, (2, 3))):
        pairs = _rank_pairs(d)
        psi = purify(d).vec.vec.reshape(d.dim, len(pairs))
        for anc in sorted({len(pairs), len(pairs) + 1, 6, 1024 // d.dim}):
            phi = partial_purify(d, PurificationSelection(pairs, anc))
            assert phi.dims == d.dims + (anc,)
            amps = phi.vec.vec.reshape(d.dim, anc)
            assert np.array_equal(amps[:, : len(pairs)], psi)
            assert not amps[:, len(pairs):].any()


def test_purifications_above_the_dimension_cap_are_refused():
    # 4 * 300 = 1200 > MAX_TOTAL_DIM: a file of it would not read back
    sq = isotropic(0.2)
    with pytest.raises(ParamOutOfRange, match="purified dimension 1200 > 1024"):
        partial_purify(sq, PurificationSelection(_rank_pairs(sq), 300))
    with pytest.raises(ParamOutOfRange, match="purified dimension 1200 > 1024"):
        partial_purify(sq, PurificationSelection(((3, 0),), 300))
    assert partial_purify(sq, PurificationSelection(_rank_pairs(sq), 256)).dims == (2, 2, 256)


def test_partial_purify_known_amplitudes():
    sq = isotropic(0.2)
    sd = spectral(sq)
    sel = PurificationSelection(((2, 1), (3, 0)), 2)
    phi = partial_purify(sq, sel)
    assert phi.dims == (2, 2, 2)
    assert not phi.normalized
    want = np.zeros(8, dtype=complex)
    e0 = np.array([1, 0])
    e1 = np.array([0, 1])
    want += np.sqrt(sd.eigenvalues[3]) * np.kron(sd.eigenvectors[3].vec, e0)
    want += np.sqrt(sd.eigenvalues[2]) * np.kron(sd.eigenvectors[2].vec, e1)
    np.testing.assert_allclose(phi.vec.vec, want, atol=1e-12)
    # squared norm is the sum of the selected eigenvalues
    norm2 = float(np.vdot(phi.vec.vec, phi.vec.vec).real)
    assert abs(norm2 - (sd.eigenvalues[2] + sd.eigenvalues[3])) <= 1e-12


def test_partial_purify_with_all_pairs_matches_purify():
    sq = isotropic(0.2)
    sel = PurificationSelection(tuple((i, i) for i in range(4)), 4)
    phi = partial_purify(sq, sel)
    psi = purify(sq)
    np.testing.assert_allclose(phi.vec.vec, psi.vec.vec, atol=1e-12)


def test_selection_validation():
    with pytest.raises(SelectionOutOfRange):
        PurificationSelection((), 2)
    with pytest.raises(SelectionOutOfRange):
        PurificationSelection(((0, 0), (0, 1)), 2)  # duplicate eigen-index
    with pytest.raises(SelectionOutOfRange):
        PurificationSelection(((0, 0), (1, 0)), 2)  # duplicate slot
    with pytest.raises(SelectionOutOfRange):
        PurificationSelection(((0, 2),), 2)  # slot beyond ancilla
    with pytest.raises(SelectionOutOfRange):
        PurificationSelection(((0, 0), (1, 1), (2, 0)), 2)  # too many pairs
    sel = PurificationSelection(((3, 0), (1, 1)), 2)
    assert sel.pairs == ((1, 1), (3, 0))  # stored sorted by eigen-index


def test_partial_purify_rejects_bad_indices():
    sq = isotropic(0.2)
    with pytest.raises(SelectionOutOfRange):
        partial_purify(sq, PurificationSelection(((4, 0),), 1))
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = np.sqrt(0.5)
    pure = DensityMatrix(ComplexMatrix((2, 2), np.outer(bell, bell.conj())))
    with pytest.raises(SelectionOutOfRange):
        partial_purify(pure, PurificationSelection(((0, 0),), 1))  # zero eigenvalue
    # every index is checked against the spectrum before any eigenvalue is:
    # the first pair selects a zero eigenvalue, the second lies outside
    with pytest.raises(SelectionOutOfRange, match="eigen-index 4 outside spectrum of size 4"):
        partial_purify(pure, PurificationSelection(((0, 0), (4, 1)), 2))


def test_projector_of_pure_state():
    p = PureState(ComplexVector((2,), np.array([0.6, 0.8])))
    d = projector(p)
    assert d.normalized
    np.testing.assert_allclose(d.mat.mat, [[0.36, 0.48], [0.48, 0.64]], atol=1e-15)


def test_a_zero_unnormalized_pure_state_is_refused():
    with pytest.raises(ParamOutOfRange, match="pure state must be nonzero"):
        PureState(ComplexVector((2,), np.zeros(2)), normalized=False)


@pytest.mark.parametrize(
    "pairs, ancilla_dim",
    [(((0, 0),), 0), (((0,),), 2), (((-1, 0),), 2)],
    ids=["no-ancilla", "one-element-pair", "negative-index"],
)
def test_selection_refuses_malformed_input(pairs, ancilla_dim):
    with pytest.raises(SelectionOutOfRange):
        PurificationSelection(pairs, ancilla_dim)
