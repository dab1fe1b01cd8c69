"""Eigensolver and tensor-algebra checks against numpy oracles."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from witness_forge.errors import BadPartyIndex, DimensionMismatch, NoConvergence, NotHermitian
from witness_forge.linalg import (
    ComplexMatrix,
    _canonical_eig,
    _phase_fix,
    hermitian_eig,
    partial_trace,
    partial_transpose,
)


def _random_hermitian(rng: np.random.Generator, dims: tuple[int, ...]) -> ComplexMatrix:
    d = int(np.prod(dims))
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return ComplexMatrix(dims, (a + a.conj().T) / 2)


def _random_density_arr(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _isotropic_arr(q: float) -> np.ndarray:
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = np.sqrt(0.5)
    return q * np.outer(bell, bell.conj()) + (1 - q) * np.eye(4) / 4


def test_eigenvalues_match_numpy_on_seeded_hermitians():
    for dims in ((2, 2), (2, 3), (6,)):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            m = _random_hermitian(rng, dims)
            sd = hermitian_eig(m)
            ref = np.linalg.eigvalsh(m.mat)
            scale = max(1.0, float(np.abs(ref).max()))
            np.testing.assert_allclose(
                np.sort(sd.eigenvalues), ref, atol=1e-12 * scale, rtol=0
            )


def test_eigenvector_reconstruction_and_orthonormality():
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        m = _random_hermitian(rng, (2, 3))
        sd = hermitian_eig(m)
        v = sd.vectors
        fro = np.linalg.norm(m.mat)
        rebuilt = (v * np.asarray(sd.eigenvalues)) @ v.conj().T
        assert np.abs(rebuilt - m.mat).max() <= 1e-9 * max(fro, 1.0)
        gram = v.conj().T @ v
        assert np.abs(gram - np.eye(m.dim)).max() <= 1e-9


def test_eigenvalues_ascending_within_tie_tolerance():
    for seed in range(10):
        rng = np.random.default_rng(200 + seed)
        sd = hermitian_eig(_random_hermitian(rng, (2, 2)))
        vals = sd.eigenvalues
        for a, b in zip(vals, vals[1:]):
            assert b >= a - 1e-12


def test_isotropic_spectrum():
    sd = hermitian_eig(ComplexMatrix((2, 2), _isotropic_arr(0.2)))
    np.testing.assert_allclose(
        np.sort(sd.eigenvalues), [0.2, 0.2, 0.2, 0.4], atol=1e-10, rtol=0
    )


def test_isotropic_canonical_eigenvectors():
    # ascending order: |10>, |01>, (|00>-|11>)/sqrt2, (|00>+|11>)/sqrt2,
    # each phase-fixed so its first sizable component is real positive.
    sd = hermitian_eig(ComplexMatrix((2, 2), _isotropic_arr(0.2)))
    r = np.sqrt(0.5)
    expected = [
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [r, 0, 0, -r],
        [r, 0, 0, r],
    ]
    for vec, want in zip(sd.eigenvectors, expected):
        np.testing.assert_allclose(vec.vec, want, atol=1e-12, rtol=0)


def test_bell_partial_transpose_spectrum():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = np.sqrt(0.5)
    proj = ComplexMatrix((2, 2), np.outer(bell, bell.conj()))
    pt = partial_transpose(proj, 2)
    sd = hermitian_eig(pt)
    np.testing.assert_allclose(
        np.sort(sd.eigenvalues), [-0.5, 0.5, 0.5, 0.5], atol=1e-12, rtol=0
    )


def test_example_four_level_spectrum_is_exact():
    arr = np.diag([5 / 16, 3 / 16, 3 / 16, 5 / 16]).astype(complex)
    arr[1, 2] = arr[2, 1] = 1 / 8
    sd = hermitian_eig(ComplexMatrix((2, 2), arr))
    assert sorted(sd.eigenvalues) == [1 / 16, 5 / 16, 5 / 16, 5 / 16]


def test_phase_fix_makes_pivot_real_positive():
    m = ComplexMatrix((2,), np.array([[1.0, -1j], [1j, 1.0]]))
    sd = hermitian_eig(m)
    for vec in sd.eigenvectors:
        pivot = next(z for z in vec.vec if abs(z) > 1e-12)
        assert abs(pivot.imag) <= 1e-14
        assert pivot.real > 0
    # the vectorized rotation against the per-column loop it replaced,
    # with leading zeros, tiny entries and an all-zero column
    rng = np.random.default_rng(3)
    vecs = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    vecs[:3, :3] = 0.0
    vecs[0, 3] = 1e-13
    vecs[:, 5] = 0.0
    want = vecs.copy()
    for k in range(want.shape[1]):
        big = np.flatnonzero(np.abs(want[:, k]) > 1e-12)
        if big.size:
            piv = want[big[0], k]
            want[:, k] *= piv.conjugate() / abs(piv)
    _phase_fix(vecs)
    np.testing.assert_allclose(vecs, want, atol=1e-15, rtol=0)


def test_degenerate_identity_has_orthonormal_vectors():
    sd = hermitian_eig(ComplexMatrix((2, 2), np.eye(4)))
    assert sd.eigenvalues == (1.0, 1.0, 1.0, 1.0)
    v = sd.vectors
    np.testing.assert_allclose(v.conj().T @ v, np.eye(4), atol=1e-14)
    assert not v.flags.writeable
    assert [e.vec.tolist() for e in sd.eigenvectors] == v.T.tolist()


def test_not_hermitian_rejected():
    m = ComplexMatrix((2,), np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotHermitian):
        hermitian_eig(m)


def test_no_convergence_when_lapack_fails(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    rng = np.random.default_rng(5)
    m = _random_hermitian(rng, (2, 2))
    with pytest.raises(NoConvergence):
        hermitian_eig(m)


def _random_unitary(rng: np.random.Generator, k: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
    return q


def test_canonical_output_ignores_the_cluster_basis_lapack_returns(monkeypatch):
    # spectrum 0.1 (x3), 0.5 (x2), 0.9 on a random frame: the canonical
    # output must not depend on which basis of each eigenspace eigh hands back
    rng = np.random.default_rng(17)
    u = _random_unitary(rng, 6)
    arr = (u * [0.1, 0.1, 0.1, 0.5, 0.5, 0.9]) @ u.conj().T
    clusters = (slice(0, 3), slice(3, 5))
    want_vals, want_vecs = _canonical_eig(arr)
    lapack = np.linalg.eigh

    def rotated(a):
        vals, vecs = lapack(a)
        for c in clusters:
            vecs[:, c] = vecs[:, c] @ _random_unitary(rng, c.stop - c.start)
        return vals, vecs

    monkeypatch.setattr(np.linalg, "eigh", rotated)
    for _ in range(5):
        vals, vecs = _canonical_eig(arr)
        np.testing.assert_allclose(vals, want_vals, atol=1e-12, rtol=0)
        np.testing.assert_allclose(vecs, want_vecs, atol=1e-12, rtol=0)


@pytest.mark.parametrize("seed", range(6))
def test_eigenvalues_ascend_exactly_on_degenerate_spectra(seed):
    # a cluster's Rayleigh quotients can differ in the last bit; sorted
    # within the cluster, the whole list ascends without any tolerance
    vals, _ = _canonical_eig(_isotropic_arr(0.2))
    assert np.all(np.diff(vals) >= 0)
    rng = np.random.default_rng(300 + seed)
    for spectrum in ([0.1, 0.1, 0.1, 0.5, 0.5, 0.9], [0.25] * 4, [0.0, 0.0, 0.3, 0.3, 0.4]):
        u = _random_unitary(rng, len(spectrum))
        vals, vecs = _canonical_eig((u * spectrum) @ u.conj().T)
        assert np.all(np.diff(vals) >= 0)
        np.testing.assert_allclose(vals, spectrum, atol=1e-14, rtol=0)


def test_spectral_decomposition_reconstruct():
    rng = np.random.default_rng(7)
    m = _random_hermitian(rng, (2, 2))
    sd = hermitian_eig(m)
    # rank counts eigenvalues above 1e-10 (the density-matrix convention)
    assert sd.rank() == sum(1 for v in sd.eigenvalues if v > 1e-10)
    assert hermitian_eig(ComplexMatrix((2,), np.diag([0.75, 0.25]))).rank() == 2
    assert hermitian_eig(ComplexMatrix((2,), np.diag([1.0, 0.0]))).rank() == 1


def test_kron_and_partial_trace_inverse():
    rng = np.random.default_rng(11)
    a = ComplexMatrix((2,), _random_density_arr(rng, 2))
    b = ComplexMatrix((3,), _random_density_arr(rng, 3))
    ab = ComplexMatrix((2, 3), np.kron(a.mat, b.mat))
    np.testing.assert_allclose(partial_trace(ab, [1]).mat, a.mat, atol=1e-14)
    np.testing.assert_allclose(partial_trace(ab, [2]).mat, b.mat, atol=1e-14)


def test_partial_trace_of_isotropic_is_maximally_mixed():
    m = ComplexMatrix((2, 2), _isotropic_arr(0.3))
    for party in ([1], [2]):
        red = partial_trace(m, party)
        np.testing.assert_allclose(red.mat, np.eye(2) / 2, atol=1e-15)


def test_partial_trace_keeps_multiple_parties():
    rng = np.random.default_rng(13)
    a = ComplexMatrix((2,), _random_density_arr(rng, 2))
    b = ComplexMatrix((2,), _random_density_arr(rng, 2))
    c = ComplexMatrix((3,), _random_density_arr(rng, 3))
    abc = ComplexMatrix((2, 2, 3), np.kron(np.kron(a.mat, b.mat), c.mat))
    red = partial_trace(abc, [1, 3])
    np.testing.assert_allclose(red.mat, np.kron(a.mat, c.mat), atol=1e-13)


def _einsum_partial_trace(m: ComplexMatrix, kept: tuple[int, ...]) -> np.ndarray:
    """Reference: one einsum, a traced party's column sharing its row letter."""
    letters = iter("abcdefghijklmnopqrstuvwxyz")
    row = [next(letters) for _ in m.dims]
    col = [next(letters) if k + 1 in kept else row[k] for k in range(len(m.dims))]
    out = "".join(row[k - 1] for k in kept) + "".join(col[k - 1] for k in kept)
    d = math.prod(m.dims[k - 1] for k in kept)
    t = m.mat.reshape(m.dims + m.dims)
    return np.einsum("".join(row) + "".join(col) + "->" + out, t).reshape(d, d)


@pytest.mark.parametrize("n", range(1, 9))
def test_partial_trace_matches_einsum_on_every_kept_subset(n):
    dims = (2, 3, 1, 2, 2, 2, 2, 2)[:n]
    rng = np.random.default_rng(n)
    d = math.prod(dims)
    m = ComplexMatrix(dims, rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    for size in range(1, n + 1):
        for kept in itertools.combinations(range(1, n + 1), size):
            red = partial_trace(m, kept)
            assert red.dims == tuple(dims[k - 1] for k in kept)
            want = _einsum_partial_trace(m, kept)
            assert np.abs(red.mat - want).max() <= 1e-15 * d


def test_partial_trace_bad_party_indices():
    m = ComplexMatrix((2, 2), np.eye(4))
    for keep in ([], [0], [3], [1, 1]):
        with pytest.raises(BadPartyIndex):
            partial_trace(m, keep)


def test_partial_transpose_involution_and_product_rule():
    rng = np.random.default_rng(17)
    m = _random_hermitian(rng, (2, 3))
    np.testing.assert_allclose(
        partial_transpose(partial_transpose(m, 2), 2).mat, m.mat, atol=0
    )
    a = ComplexMatrix((2,), _random_density_arr(rng, 2))
    b = ComplexMatrix((3,), _random_density_arr(rng, 3))
    np.testing.assert_allclose(
        partial_transpose(ComplexMatrix((2, 3), np.kron(a.mat, b.mat)), 2).mat,
        np.kron(a.mat, b.mat.T),
        atol=1e-15,
    )


def test_matrix_validation():
    with pytest.raises(Exception):
        ComplexMatrix((2,), np.zeros((3, 3)))
    with pytest.raises(Exception):
        ComplexMatrix((2,), np.array([[np.inf, 0], [0, 0]]))
    m = ComplexMatrix((2,), np.array([[1.0, 2.0], [2.0, 1.0]]))
    m.require_hermitian()  # raises NotHermitian otherwise
    assert m.hermiticity_defect() == 0.0


def test_a_zero_local_dimension_is_refused():
    with pytest.raises(DimensionMismatch, match="local dimensions must be positive"):
        ComplexMatrix((0,), np.zeros((0, 0)))
