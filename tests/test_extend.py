"""Offset-preserving extensions: purification, partial purification,
tensor and identity tails, plus the selection counting combinatorics."""

from __future__ import annotations

import numpy as np
import pytest

from witness_forge.errors import (
    CountTooLarge,
    COutOfInterval,
    CPrimeOutOfInterval,
    DimensionMismatch,
    FormNotSupported,
    MaxEigenvalueNotSelected,
    ParamOutOfRange,
    SelectionOutOfRange,
    UnnormalizedTail,
)
from witness_forge.extend import (
    count_partial_purifications,
    detect_product_extension,
    enumerate_partial_purifications,
    identity_extend,
    mixed_tensor_extend,
    partial_purify_extend,
    pure_tails_extend,
    purify_extend,
    purify_extend_n,
)
from witness_forge.linalg import (
    ComplexMatrix,
    ComplexVector,
    hermitian_eig,
    partial_trace,
)
from witness_forge.qstate import (
    DensityMatrix,
    PureState,
    PurificationSelection,
    isotropic,
    partial_purify,
    projector,
    spectral,
)
from witness_forge.witness import (
    WitnessForm,
    evaluate,
    make_witness,
    max_product_expectation,
    verify_witness,
)


def _random_density(rng: np.random.Generator, dims: tuple[int, ...]) -> DensityMatrix:
    d = int(np.prod(dims))
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return DensityMatrix(ComplexMatrix(dims, rho / np.trace(rho).real))


def _isotropic_witness(q: float = 0.2, c: float = 0.3):
    return make_witness(WitnessForm.C_MINUS_SIGMA, isotropic(q), c)


def _example_four_level_witness():
    arr = np.diag([5 / 16, 3 / 16, 3 / 16, 5 / 16]).astype(complex)
    arr[1, 2] = arr[2, 1] = 1 / 8
    s = DensityMatrix(ComplexMatrix((2, 2), arr))
    return make_witness(WitnessForm.SIGMA_MINUS_C, s, 3 / 16)


def test_purify_extend_shape_and_spectrum():
    w = _isotropic_witness()
    wp = purify_extend(w)
    assert wp.dims == (2, 2, 4)
    assert wp.c == 0.3
    vals = hermitian_eig(wp.matrix()).eigenvalues
    assert abs(vals[0] - (0.3 - 1.0)) <= 1e-10
    # sigma' is the projector onto a purification: rank 1, reduces back
    assert spectral(wp.sigma).rank() == 1
    red = partial_trace(wp.sigma.mat, [1, 2])
    np.testing.assert_allclose(red.mat, w.sigma.mat.mat, atol=1e-10)


def test_purify_extend_preserves_product_bound():
    w = _isotropic_witness()
    wp = purify_extend(w)
    res = max_product_expectation(wp.sigma.mat, restarts=16, seed=0)
    assert abs(res.value - 0.3) <= 1e-6
    rep = verify_witness(wp, restarts=16, seed=0)
    assert rep.is_witness
    assert rep.min_product_expectation >= -1e-8


def test_purify_extend_rejects_primal_form():
    with pytest.raises(FormNotSupported):
        purify_extend(_example_four_level_witness())


def test_purify_extend_requires_normalized_sigma():
    s = DensityMatrix(ComplexMatrix((2,), np.diag([0.4, 0.2])), normalized=False)
    w = make_witness(WitnessForm.C_MINUS_SIGMA, s, 0.3, check="none")
    with pytest.raises(ParamOutOfRange):
        purify_extend(w)


def test_rank_one_sigma_purifies_with_trivial_ancilla():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = np.sqrt(0.5)
    sigma = DensityMatrix(ComplexMatrix((2, 2), np.outer(v, v.conj())))
    w = make_witness(WitnessForm.C_MINUS_SIGMA, sigma, 0.5)
    wp = purify_extend(w)
    assert wp.dims == (2, 2, 1)
    np.testing.assert_allclose(
        wp.sigma.mat.mat, sigma.mat.mat, atol=1e-12
    )


def test_purify_extend_n_with_pure_tails():
    w = _isotropic_witness()
    plus = PureState(ComplexVector((2,), np.array([1, 1], dtype=complex) / np.sqrt(2)))
    zero = PureState(ComplexVector((2,), np.array([1, 0], dtype=complex)))
    wn = purify_extend_n(w, [zero, plus])
    assert wn.dims == (2, 2, 4, 2, 2)
    assert wn.c == 0.3
    vals = hermitian_eig(wn.matrix()).eigenvalues
    assert abs(vals[0] - (0.3 - 1.0)) <= 1e-10
    rep = verify_witness(wn, restarts=8, seed=4)
    assert rep.is_witness
    # no tails at all degenerates to plain purification
    np.testing.assert_allclose(
        purify_extend_n(w, []).matrix().mat, purify_extend(w).matrix().mat, atol=0
    )


def test_pure_tails_reject_unnormalized():
    w = _isotropic_witness()
    t = PureState(ComplexVector((2,), np.array([0.5, 0.5], dtype=complex)), normalized=False)
    with pytest.raises(UnnormalizedTail):
        pure_tails_extend(w, [t])


def test_pure_tails_match_mixed_tensor_with_projectors():
    w = _isotropic_witness()
    plus = PureState(ComplexVector((2,), np.array([1, 1j], dtype=complex) / np.sqrt(2)))
    a = pure_tails_extend(w, [plus])
    b = mixed_tensor_extend(w, [projector(plus)])
    np.testing.assert_allclose(a.matrix().mat, b.matrix().mat, atol=1e-15)


def test_partial_purify_extend_known_selection():
    w = _isotropic_witness()
    sel = PurificationSelection(((3, 0), (2, 1)), 2)
    w1 = partial_purify_extend(w, sel)
    assert w1.dims == (2, 2, 2)
    assert w1.c == 0.3
    assert not w1.sigma.normalized
    # sigma' is the projector onto the unnormalized partial purification
    phi = partial_purify(w.sigma, sel)
    np.testing.assert_allclose(
        w1.sigma.mat.mat, np.outer(phi.vec.vec, phi.vec.vec.conj()), atol=1e-15
    )
    # trace = sum of selected eigenvalues = 0.4 + 0.2
    assert abs(w1.sigma.mat.trace().real - 0.6) <= 1e-12
    rep = verify_witness(w1, restarts=16, seed=0)
    assert rep.is_witness


def test_partial_purify_extend_reduces_to_truncated_sigma():
    w = _isotropic_witness()
    sd = spectral(w.sigma)
    sel = PurificationSelection(((3, 0), (1, 1)), 2)
    w1 = partial_purify_extend(w, sel)
    red = partial_trace(w1.sigma.mat, [1, 2])
    want = sum(
        sd.eigenvalues[i] * np.outer(sd.eigenvectors[i].vec, sd.eigenvectors[i].vec.conj())
        for i, _ in sel.pairs
    )
    np.testing.assert_allclose(red.mat, want, atol=1e-12)


def test_partial_purify_extend_needs_top_eigenpair():
    w = _isotropic_witness()
    with pytest.raises(MaxEigenvalueNotSelected):
        partial_purify_extend(w, PurificationSelection(((0, 0), (1, 1)), 2))


def test_partial_purify_extend_rejects_bad_selection():
    w = _isotropic_witness()
    with pytest.raises(SelectionOutOfRange):
        partial_purify_extend(w, PurificationSelection(((7, 0),), 1))
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = np.sqrt(0.5)
    pure_sigma = DensityMatrix(ComplexMatrix((2, 2), np.outer(v, v.conj())))
    wp = make_witness(WitnessForm.C_MINUS_SIGMA, pure_sigma, 0.5)
    with pytest.raises(SelectionOutOfRange):
        partial_purify_extend(wp, PurificationSelection(((0, 0), (3, 1)), 2))


def test_partial_purify_extend_relaxed_offset():
    w = _isotropic_witness()
    sel = PurificationSelection(((3, 0), (2, 1)), 2)
    w2 = partial_purify_extend(w, sel, c_prime=0.45)
    assert w2.c == 0.45
    rep = verify_witness(w2, restarts=16, seed=1)
    assert rep.is_witness
    with pytest.raises(CPrimeOutOfInterval):
        partial_purify_extend(w, sel, c_prime=0.25)  # below c
    with pytest.raises(CPrimeOutOfInterval):
        partial_purify_extend(w, sel, c_prime=0.7)  # at least the norm


def test_counting_formula_values():
    assert count_partial_purifications(4, 2) == 8
    assert count_partial_purifications(2, 2) == 4
    assert count_partial_purifications(4, 1) == 1
    assert count_partial_purifications(5, 3) == 63
    assert count_partial_purifications(1, 5) == 5
    with pytest.raises(ParamOutOfRange):
        count_partial_purifications(0, 2)
    with pytest.raises(ParamOutOfRange):
        count_partial_purifications(3, 0)


def test_enumeration_matches_formula_up_to_rank_five():
    for rank in range(1, 6):
        lam = np.arange(1, rank + 1, dtype=float)
        lam /= lam.sum()
        d = DensityMatrix(ComplexMatrix((rank,), np.diag(lam).astype(complex)))
        sd = spectral(d)
        for d3 in range(1, rank + 1):
            sels = enumerate_partial_purifications(sd, d3)
            assert len(sels) == count_partial_purifications(rank, d3)
            assert len({s.pairs for s in sels}) == len(sels)
            top = rank - 1
            assert all(any(i == top for i, _ in s.pairs) for s in sels)
            assert [s.pairs for s in sels] == sorted(s.pairs for s in sels)


def test_enumeration_isotropic_example():
    sels = enumerate_partial_purifications(spectral(isotropic(0.2)), 2)
    assert len(sels) == 8


def test_enumeration_cap():
    with pytest.raises(CountTooLarge):
        enumerate_partial_purifications(spectral(isotropic(0.2)), 17)


def test_mixed_tensor_extend_preserves_bound_and_top_eigenvalue():
    w = _isotropic_witness()
    rng = np.random.default_rng(31)
    tail = _random_density(rng, (2,))
    wm = mixed_tensor_extend(w, [tail])
    assert wm.dims == (2, 2, 2)
    assert wm.c == 0.3
    # lambda_max(sigma (x) tail/lambda_max(tail)) = lambda_max(sigma)
    vals = hermitian_eig(wm.sigma.mat).eigenvalues
    assert abs(vals[-1] - 0.4) <= 1e-10
    res = max_product_expectation(wm.sigma.mat, restarts=16, seed=0)
    assert abs(res.value - 0.3) <= 1e-5
    rep = verify_witness(wm, restarts=16, seed=0)
    assert rep.is_witness
    with pytest.raises(FormNotSupported):
        mixed_tensor_extend(_example_four_level_witness(), [tail])
    with pytest.raises(UnnormalizedTail):
        mixed_tensor_extend(
            w, [DensityMatrix(ComplexMatrix((2,), np.diag([0.3, 0.3])), normalized=False)]
        )


def test_mixed_tensor_extend_two_tails():
    w = _isotropic_witness()
    rng = np.random.default_rng(37)
    tails = [_random_density(rng, (2,)), _random_density(rng, (3,))]
    wm = mixed_tensor_extend(w, tails)
    assert wm.dims == (2, 2, 2, 3)
    assert not wm.sigma.normalized
    rep = verify_witness(wm, restarts=16, seed=2)
    assert rep.is_witness


def test_identity_extend_example_four_level():
    w12 = _example_four_level_witness()
    for tail, dims in (([4], (2, 2, 4)), ([2], (2, 2, 2))):
        we = identity_extend(w12, tail)
        assert we.dims == dims
        assert we.c == 3 / 16
        rep = verify_witness(we, restarts=16, seed=3)
        assert rep.is_witness
        assert abs(rep.witnessing_margin - 1 / 8) <= 1e-12


def test_identity_extend_matrix_structure():
    w = _isotropic_witness()
    we = identity_extend(w, [3])
    np.testing.assert_allclose(
        we.sigma.mat.mat, np.kron(w.sigma.mat.mat, np.eye(3)), atol=0
    )
    # a dimension-1 tail only relabels
    w1 = identity_extend(w, [1])
    assert w1.dims == (2, 2, 1)
    np.testing.assert_allclose(w1.matrix().mat, w.matrix().mat, atol=0)
    with pytest.raises(ParamOutOfRange):
        identity_extend(w, [0])


def test_identity_extend_revalidates_interval():
    # c above lambda_max survives construction with check="none" but the
    # extension refuses to propagate it
    w = make_witness(WitnessForm.C_MINUS_SIGMA, isotropic(0.2), 0.5, check="none")
    with pytest.raises(COutOfInterval):
        identity_extend(w, [2])
    w2 = make_witness(
        WitnessForm.SIGMA_MINUS_C, isotropic(0.2), 0.1, check="none"
    )  # at or below lambda_min = 0.2
    with pytest.raises(COutOfInterval):
        identity_extend(w2, [2])
    # margin 5e-11 <= TOL_NEG on both sides: not a witness by the report rule
    for form, c in (("c_minus_sigma", 0.39999999995), ("sigma_minus_c", 0.20000000005)):
        w3 = make_witness(form, isotropic(0.2), c, check="none")
        assert not verify_witness(w3, restarts=2, seed=0).is_witness
        with pytest.raises(COutOfInterval):
            identity_extend(w3, [2])


def test_extensions_refuse_a_total_dimension_above_the_cap():
    # 4 * 257 > MAX_TOTAL_DIM: refused before the product or projector is built
    w = _isotropic_witness()
    with pytest.raises(ParamOutOfRange):
        identity_extend(w, [257])
    with pytest.raises(ParamOutOfRange):
        pure_tails_extend(w, [PureState(ComplexVector((257,), np.eye(257)[0]))])
    with pytest.raises(ParamOutOfRange):
        partial_purify_extend(w, PurificationSelection(((3, 0),), 257))


def test_detect_product_extension_values():
    w = identity_extend(_isotropic_witness(), [2])
    mixed_tail = DensityMatrix(ComplexMatrix((2,), np.eye(2) / 2))
    got = detect_product_extension(w, isotropic(0.5), [mixed_tail])
    assert abs(got - 0.2 * (1 - 3 * 0.5) / 4) <= 1e-12
    sep = detect_product_extension(w, isotropic(0.25), [mixed_tail])
    assert sep >= -1e-8
    with pytest.raises(DimensionMismatch):
        detect_product_extension(
            w, isotropic(0.5), [DensityMatrix(ComplexMatrix((3,), np.eye(3) / 3))]
        )


def test_detect_product_extension_four_level_example():
    w12 = _example_four_level_witness()
    we = identity_extend(w12, [2])
    bottom = hermitian_eig(w12.sigma.mat).eigenvectors[0]
    det = DensityMatrix(
        ComplexMatrix((2, 2), np.outer(bottom.vec, bottom.vec.conj()))
    )
    tail = DensityMatrix(ComplexMatrix((2,), np.eye(2) / 2))
    got = detect_product_extension(we, det, [tail])
    assert abs(got + 1 / 8) <= 1e-12


_SELECTION = PurificationSelection(((2, 1), (3, 0)), 2)


@pytest.mark.parametrize(
    "build",
    [
        lambda: purify_extend(_isotropic_witness()),
        lambda: purify_extend(make_witness(
            WitnessForm.C_MINUS_SIGMA,
            _random_density(np.random.default_rng(31), (2, 3)),
            0.3,
            check="none",
        )),
        lambda: partial_purify_extend(_isotropic_witness(), _SELECTION),
        lambda: partial_purify_extend(_isotropic_witness(), _SELECTION, c_prime=0.35),
        lambda: identity_extend(_isotropic_witness(), [3]),
        lambda: mixed_tensor_extend(_isotropic_witness(), [isotropic(0.6)]),
        _example_four_level_witness,
        lambda: identity_extend(_example_four_level_witness(), [2]),
    ],
    ids=[
        "purify", "purify-random", "partial", "partial-c-prime",
        "identity", "mixed", "sigma-minus-c", "sigma-minus-c-identity",
    ],
)
def test_margin_is_negated_bottom_eigenvalue_of_witness(build):
    w = build()
    rep = verify_witness(w, restarts=2, seed=0)
    lam_min = np.linalg.eigvalsh(w.matrix().mat)[0]
    assert abs(rep.witnessing_margin + lam_min) <= 1e-12


def test_extension_chain_stays_witness():
    # purify, add a pure tail, then an identity tail
    w = _isotropic_witness()
    zero = PureState(ComplexVector((2,), np.array([1, 0], dtype=complex)))
    chained = identity_extend(pure_tails_extend(purify_extend(w), [zero]), [2])
    assert chained.dims == (2, 2, 4, 2, 2)
    assert chained.c == 0.3
    rep = verify_witness(chained, restarts=8, seed=5)
    assert rep.is_witness


def test_random_witness_extensions_stay_witnesses():
    for seed, dims in [(0, (2, 2)), (1, (2, 2)), (2, (2, 3))]:
        rng = np.random.default_rng(900 + seed)
        sigma = _random_density(rng, dims)
        bound = max_product_expectation(sigma.mat, restarts=16, seed=seed)
        lam_max = hermitian_eig(sigma.mat).eigenvalues[-1]
        if lam_max - bound.value < 1e-6:
            continue  # no strict interval to pick c from
        c = 0.5 * (bound.value + lam_max)
        w = make_witness(WitnessForm.C_MINUS_SIGMA, sigma, c, restarts=16, seed=seed)
        for w2 in (purify_extend(w), mixed_tensor_extend(w, [_random_density(rng, (2,))])):
            rep = verify_witness(w2, restarts=16, seed=seed)
            assert rep.is_witness
            assert rep.min_product_expectation >= -1e-8
