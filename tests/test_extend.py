"""Offset-preserving extensions: purification, partial purification,
tensor and identity tails, plus the selection counting combinatorics."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from witness_forge import cli, linalg, qstate, witness
from witness_forge.cli import main

from witness_forge.errors import (
    CountTooLarge,
    CPrimeOutOfInterval,
    DimensionMismatch,
    FormNotSupported,
    MaxEigenvalueNotSelected,
    ParamOutOfRange,
    SelectionOutOfRange,
    UnnormalizedTail,
)
from witness_forge.extend import (
    _tensor,
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
from witness_forge.fileio import parse_matrix_file, write_matrix_file
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
    TOL_NEG,
    WitnessForm,
    evaluate,
    Witness,
    make_witness,
    max_product_expectation,
    min_product_expectation,
    verify_witness,
    _witness_report,
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
    message = (
        "purify_extend applies only to the dual form c*I - sigma; "
        "the primal form sigma - c*I does not survive this extension"
    )
    with pytest.raises(FormNotSupported) as info:
        purify_extend(_example_four_level_witness())
    assert str(info.value) == message


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
    # sigma_S <= sigma, so no selection goes negative on a product state;
    # the refusal states the margin rule it applies
    w = _isotropic_witness()
    with pytest.raises(MaxEigenvalueNotSelected, match="must keep a top eigenpair") as exc:
        partial_purify_extend(w, PurificationSelection(((0, 0), (1, 1)), 2))
    assert "lambda_max(sigma) - c" in str(exc.value)
    assert "negative" not in str(exc.value)


def test_partial_purify_extend_accepts_only_a_selection_with_a_top_eigenpair():
    w = _isotropic_witness()
    for pairs, ancilla_dim in ((((3, 0),), 1), (((0, 0), (3, 1)), 2)):
        assert partial_purify_extend(w, PurificationSelection(pairs, ancilla_dim)).c == 0.3
    with pytest.raises(MaxEigenvalueNotSelected):
        partial_purify_extend(w, PurificationSelection(((0, 0), (1, 1)), 2))
    # every eigen-index is checked, not only those before the first top hit
    with pytest.raises(SelectionOutOfRange):
        partial_purify_extend(w, PurificationSelection(((3, 0), (7, 1)), 2))
    # degenerate top eigenvalue 5/16 (indices 1, 2, 3): any index inside the
    # top cluster counts
    arr = np.diag([5 / 16, 3 / 16, 3 / 16, 5 / 16]).astype(complex)
    arr[1, 2] = arr[2, 1] = 1 / 8
    sigma = DensityMatrix(ComplexMatrix((2, 2), arr))
    w4 = make_witness(WitnessForm.C_MINUS_SIGMA, sigma, 0.3, check="none")
    assert partial_purify_extend(w4, PurificationSelection(((1, 0),), 1)).dims == (2, 2, 1)


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


def test_enumeration_cap(capsys, tmp_path):
    cases = [
        # rank 4: 4 * 17 pairs exceed the cap
        (isotropic(0.2), 17, str(count_partial_purifications(4, 17))),
        # rank 256: a count of about 4,600 digits, past what str() converts
        (DensityMatrix(ComplexMatrix((16, 16), np.eye(256) / 256)), 10**18, "a 15308-bit integer"),
    ]
    for sigma, d3, count_text in cases:
        with pytest.raises(CountTooLarge):
            enumerate_partial_purifications(spectral(sigma), d3)
        path = tmp_path / "sigma.json"
        write_matrix_file(sigma, path)
        code = main(["enumerate", str(path), "--ancilla-dim", str(d3)])
        report = json.loads(capsys.readouterr().out)
        assert code == 2
        assert report["error"]["type"] == "CountTooLarge"
        assert report["error"]["message"].endswith(f"the closed-form count is {count_text}")


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


def test_identity_extend_leaves_the_interval_to_the_verdict():
    # c above lambda_max (dual) or at most lambda_min (primal), and margin
    # 5e-11 <= TOL_NEG on both sides: the extension is built, and the verdict,
    # from the same extreme eigenvalues, says it is not a witness
    for form, c in (
        ("c_minus_sigma", 0.5), ("sigma_minus_c", 0.1),
        ("c_minus_sigma", 0.39999999995), ("sigma_minus_c", 0.20000000005),
    ):
        w = make_witness(form, isotropic(0.2), c, check="none")
        w2 = identity_extend(w, [2])
        assert (w2.form, w2.c, w2.dims) == (w.form, c, (2, 2, 2))
        assert np.array_equal(w2.sigma.mat.mat, np.kron(w.sigma.mat.mat, np.eye(2)))
        rep = verify_witness(w2, restarts=2, seed=0)
        assert not rep.is_witness
        assert rep.witnessing_margin <= TOL_NEG


def test_extensions_refuse_a_total_dimension_above_the_cap():
    # 4 * 257 > MAX_TOTAL_DIM: refused before the product or projector is built
    w = _isotropic_witness()
    with pytest.raises(ParamOutOfRange):
        identity_extend(w, [257])
    with pytest.raises(ParamOutOfRange):
        pure_tails_extend(w, [PureState(ComplexVector((257,), np.eye(257)[0]))])
    with pytest.raises(ParamOutOfRange):
        partial_purify_extend(w, PurificationSelection(((3, 0),), 257))
    big_mixed = DensityMatrix(ComplexMatrix((257,), np.eye(257) / 257))
    with pytest.raises(ParamOutOfRange):
        mixed_tensor_extend(w, [big_mixed])
    with pytest.raises(ParamOutOfRange):
        detect_product_extension(identity_extend(w, [2]), isotropic(0.2), [big_mixed])


def test_an_oversized_partial_purification_is_refused_for_its_size_first(capsys, tmp_path):
    # 4 * 257 > MAX_TOTAL_DIM, and the selection also leaves out the top
    # eigenpair, or has c' out of range: the size is what is refused
    w = _isotropic_witness()
    with pytest.raises(ParamOutOfRange, match="purified dimension 1028 > 1024"):
        partial_purify_extend(w, PurificationSelection(((1, 0),), 257))
    with pytest.raises(ParamOutOfRange, match="purified dimension 1028 > 1024"):
        partial_purify_extend(w, PurificationSelection(((3, 0),), 257), c_prime=5.0)
    wpath = _file(tmp_path, "w.json", w)
    code = main(["extend", wpath, "--method", "partial", "--selection", "1:0",
                 "--ancilla-dim", "257", "-o", str(tmp_path / "x.json")])
    assert (code, json.loads(capsys.readouterr().out)["error"]["type"]) == (2, "ParamOutOfRange")


@pytest.mark.parametrize("extend", [pure_tails_extend, mixed_tensor_extend, identity_extend])
def test_no_tails_returns_the_witness_itself(extend):
    w = _isotropic_witness()
    assert extend(w, []) is w


def _random_pure(rng: np.random.Generator, *dims: int) -> PureState:
    d = int(np.prod(dims))
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return PureState(ComplexVector(dims, v / np.linalg.norm(v)))


_TENSOR_EXTENSIONS = {
    "pure": lambda w, rng, dims: pure_tails_extend(w, [_random_pure(rng, d) for d in dims]),
    "mixed": lambda w, rng, dims: mixed_tensor_extend(
        w, [_random_density(rng, (d,)) for d in dims]
    ),
    "identity": lambda w, rng, dims: identity_extend(w, dims),
}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    base_dims=st.sampled_from([(2, 2), (2, 3)]),
    tail_dims=st.lists(st.integers(2, 3), min_size=1, max_size=2),
    kind=st.sampled_from(sorted(_TENSOR_EXTENSIONS)),
)
def test_tensor_extensions_never_raise_the_base_bound(seed, base_dims, tail_dims, kind):
    # sigma (x) f with lambda_max(f) = 1 keeps lambda_max and the product bound of sigma
    rng = np.random.default_rng(seed)
    sigma = _random_density(rng, base_dims)
    bound = max_product_expectation(sigma.mat, restarts=8, seed=0).value
    gap = sigma.lambda_max - bound
    assume(gap > 1e-3)
    w = make_witness(WitnessForm.C_MINUS_SIGMA, sigma, bound + 0.5 * gap, check="none")
    w2 = _TENSOR_EXTENSIONS[kind](w, rng, tail_dims)
    assert w2.dims == base_dims + tuple(tail_dims)
    assert abs(w2.sigma.lambda_max - sigma.lambda_max) <= 1e-12 * sigma.lambda_max
    before = verify_witness(w, restarts=8, seed=0).is_witness
    after = verify_witness(w2, restarts=8, seed=0).is_witness
    assert (before, after) == (True, True)


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
    # purify, add a pure tail, then an identity tail: sigma's block, then
    # one block per tail, whatever the order of the calls, and the
    # purification's amplitudes throughout
    w = _isotropic_witness()
    zero = PureState(ComplexVector((2,), np.array([1, 0], dtype=complex)))
    purified = purify_extend(w)
    chained = identity_extend(pure_tails_extend(purified, [zero]), [2])
    assert chained.dims == (2, 2, 4, 2, 2)
    assert chained.c == 0.3
    rep = verify_witness(chained, restarts=8, seed=5)
    assert rep.is_witness
    assert [b.dims for b in chained.blocks] == [(2, 2), (2,), (2,)]
    assert chained.blocks[0] is w.sigma.mat  # isotropic(0.2) has full rank
    assert np.array_equal(chained.blocks[1].mat, np.diag([1.0, 0.0]))
    assert np.array_equal(chained.blocks[2].mat, np.eye(2))
    assert chained.phi is purified.phi and chained.phi.shape == (4, 4)
    phi = chained.phi
    assert np.abs(phi @ phi.conj().T - w.sigma.mat.mat).max() <= 1e-14
    full = max_product_expectation(chained.sigma.mat, 64, 0).value
    assert abs(rep.min_product_expectation - (chained.c - full)) <= 1e-9


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


def test_enumeration_refuses_a_zero_ancilla(capsys, tmp_path):
    with pytest.raises(ParamOutOfRange):
        enumerate_partial_purifications(spectral(isotropic(0.2)), 0)
    path = tmp_path / "sq.json"
    write_matrix_file(isotropic(0.2), path)
    code = main(["enumerate", str(path), "--ancilla-dim", "0"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["error"]["type"] == "ParamOutOfRange"


def test_enumeration_of_a_rank_zero_spectrum_is_empty():
    zero = hermitian_eig(ComplexMatrix((2,), np.zeros((2, 2))))
    assert enumerate_partial_purifications(zero, 2) == []


def _file(tmp_path, name: str, obj) -> str:
    path = tmp_path / name
    write_matrix_file(obj, path)
    return str(path)


def _top_selection(w: Witness, c_prime=None) -> tuple[tuple[str, ...], object]:
    """The top eigenpair and the third from the top, in two slots: sigma_S
    leaves out nonzero eigenpairs."""
    top = w.sigma.dim - 1
    flags = ("--method", "partial", "--selection", f"{top}:0,{top - 2}:1", "--ancilla-dim", "2")
    sel = PurificationSelection(((top, 0), (top - 2, 1)), 2)
    if c_prime is not None:
        flags += ("--c-prime", repr(c_prime))
    return flags, lambda v: partial_purify_extend(v, sel, c_prime)


def _relaxed(w: Witness) -> tuple[tuple[str, ...], object]:
    vals = spectral(w.sigma).eigenvalues
    total = vals[-1] + vals[-3]
    return _top_selection(w, w.c + 0.5 * (total - w.c))


def _with_tails(tmp, method: str, extension, *tails) -> tuple[tuple[str, ...], object]:
    """extend's flags for `method` with `tails` written to files, and the
    library's `extension` of a witness by the tails read back."""
    paths = [_file(tmp, f"t{i}.json", t) for i, t in enumerate(tails, 1)]
    return ("--method", method, "--tails", *paths), lambda v: extension(
        v, [parse_matrix_file(p) for p in paths]
    )


_DUAL, _PRIMAL = WitnessForm.C_MINUS_SIGMA, WitnessForm.SIGMA_MINUS_C
# per case: the base's form, and for a base witness w the extend flags and
# the library function that builds the same extension of a witness; purify
# with tails is a chain, purify_extend_n
_REDUCED_CASES = {
    "purify": (_DUAL, lambda rng, tmp, w: (("--method", "purify"), purify_extend)),
    "purify-one-party-pure-tail": (_DUAL, lambda rng, tmp, w: _with_tails(
        tmp, "purify", purify_extend_n, _random_pure(rng, 3))),
    "purify-two-party-pure-tail": (_DUAL, lambda rng, tmp, w: _with_tails(
        tmp, "purify", purify_extend_n, _random_pure(rng, 2, 2))),
    "partial": (_DUAL, lambda rng, tmp, w: _top_selection(w)),
    "partial-c-prime": (_DUAL, lambda rng, tmp, w: _relaxed(w)),
    "identity-dual": (_DUAL, lambda rng, tmp, w: (
        ("--method", "identity", "--tail-dims", "2", "3"), lambda v: identity_extend(v, [2, 3]))),
    "identity-primal": (_PRIMAL, lambda rng, tmp, w: (
        ("--method", "identity", "--tail-dims", "3"), lambda v: identity_extend(v, [3]))),
    "mixed-one-party": (_DUAL, lambda rng, tmp, w: _with_tails(
        tmp, "mixed", mixed_tensor_extend, _random_density(rng, (3,)))),
    "mixed-two-party": (_DUAL, lambda rng, tmp, w: _with_tails(
        tmp, "mixed", mixed_tensor_extend, _random_density(rng, (2, 2)))),
    "pure-tails": (_DUAL, lambda rng, tmp, w: _with_tails(
        tmp, "pure-tails", pure_tails_extend, _random_pure(rng, 2, 2), _random_pure(rng, 3))),
}


def _reduced_case(tmp_path, case: str, base_dims: tuple[int, ...]):
    """A random sigma at the midpoint of its interval on the form's side,
    written to w.json: the witness, its path, and the case's extend flags
    and library extension."""
    rng = np.random.default_rng(sorted(_REDUCED_CASES).index(case) + 10 * len(base_dims))
    form, build = _REDUCED_CASES[case]
    sigma = _random_density(rng, base_dims)
    if form is _DUAL:
        c = 0.5 * (max_product_expectation(sigma.mat, 32, 0).value + sigma.lambda_max)
    else:
        c = 0.5 * (min_product_expectation(sigma.mat, 32, 0).value + sigma.lambda_min)
    w = Witness(form, c, sigma)
    wpath = _file(tmp_path, "w.json", w)
    return (w, wpath, *build(rng, tmp_path, w))


_BASE_DIMS = pytest.mark.parametrize("base_dims", [(2, 2), (2, 3)], ids=["2x2", "2x3"])
_CASES = pytest.mark.parametrize("case", sorted(_REDUCED_CASES))


@_BASE_DIMS
@_CASES
def test_extend_decides_at_base_size_what_a_full_size_search_finds(
    capsys, tmp_path, monkeypatch, case, base_dims
):
    w, wpath, flags, _ = _reduced_case(tmp_path, case, base_dims)
    form = w.form
    argv = ["extend", wpath, *flags, "--seed", "3", "-o", str(tmp_path / "x.json")]
    seen = []
    real = cli.verify_witness

    def spy(*args, **kwargs):
        seen.append((args[0], real(*args, **kwargs)))
        return seen[-1][1]

    monkeypatch.setattr(cli, "verify_witness", spy)
    code = main(argv)
    report = json.loads(capsys.readouterr().out)
    (w2, rep), = seen
    assert code == 0 and rep.is_witness
    assert report["results"]["verify"] == {
        "is_witness": True,
        "min_product_expectation": rep.min_product_expectation,
        "witnessing_margin": rep.witnessing_margin,
    }
    s = form.sign
    search = max_product_expectation if s > 0 else min_product_expectation
    full = search(w2.sigma.mat, 64, 0).value
    assert abs(rep.min_product_expectation - s * (w2.c - full)) <= 1e-9
    at_certificate = witness._expectation(
        w2.sigma.mat.mat, [f.vec for f in rep.certificate_state.factors]
    )
    assert abs(s * (w2.c - at_certificate) - rep.min_product_expectation) <= 1e-12
    lo, hi = linalg._extreme_eigvals(w2.sigma.mat.mat)
    tol = 1e-12 * max(1.0, hi)
    assert abs(w2.sigma.lambda_min - lo) <= tol
    assert abs(w2.sigma.lambda_max - hi) <= tol


@pytest.mark.parametrize(
    "flags",
    [
        ("--method", "purify"),
        ("--method", "partial", "--selection", "3:0,2:1", "--ancilla-dim", "2"),
    ],
    ids=["purify", "partial"],
)
def test_extend_builds_the_purification_columns_once(tmp_path, monkeypatch, flags):
    real = qstate._purification
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr("witness_forge.extend._purification", counted)
    monkeypatch.setattr(qstate, "_purification", counted)
    wpath = _file(tmp_path, "w.json", _isotropic_witness())
    assert main(["extend", wpath, *flags, "-o", str(tmp_path / "x.json")]) == 0
    assert len(calls) == 1


@_BASE_DIMS
@_CASES
def test_verify_witness_on_an_extension_is_the_extend_verdict(capsys, tmp_path, case, base_dims):
    _, wpath, flags, extension = _reduced_case(tmp_path, case, base_dims)
    code = main(["extend", wpath, *flags, "-o", str(tmp_path / "x.json")])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    rep = verify_witness(extension(parse_matrix_file(wpath)), 32, 0)
    assert report["results"]["verify"] == {
        "is_witness": rep.is_witness,
        "min_product_expectation": rep.min_product_expectation,
        "witnessing_margin": rep.witnessing_margin,
    }


@_BASE_DIMS
@_CASES
def test_verify_witness_searches_an_extension_at_base_size(
    tmp_path, monkeypatch, case, base_dims
):
    # the case's extension, and that extension chained with an identity tail
    w, _, _, extension = _reduced_case(tmp_path, case, base_dims)
    searched = []
    real = witness._optimize

    def spy(m, *args):
        searched.append(m)
        return real(m, *args)

    monkeypatch.setattr(witness, "_optimize", spy)
    ext = extension(w)
    for ext in (ext, identity_extend(ext, [2])):
        searched.clear()
        assert verify_witness(ext, 4, 0).is_witness
        assert [m.dims for m in searched] == [b.dims for b in ext.blocks]
        assert all(m is b for m, b in zip(searched, ext.blocks))


@_BASE_DIMS
@_CASES
def test_verify_witness_is_the_report_of_the_lifted_block_winners(tmp_path, case, base_dims):
    # the case's base witness, a plain one of either form, and its extension
    w, _, _, extension = _reduced_case(tmp_path, case, base_dims)
    for v in (w, extension(w)):
        search = max_product_expectation if v.form.sign > 0 else min_product_expectation
        wins = [[f.vec for f in search(b, 4, 1).extremizer.factors] for b in v.blocks]
        want = _witness_report(v, *witness._winner(v.sigma.mat.mat, v.lift(wins)))
        got = verify_witness(v, 4, 1)
        assert (got.min_product_expectation, got.witnessing_margin, got.is_witness) == (
            want.min_product_expectation, want.witnessing_margin, want.is_witness
        )
        pairs = zip(got.certificate_state.factors, want.certificate_state.factors, strict=True)
        assert all(np.array_equal(f.vec, g.vec) for f, g in pairs)


def _hermitian_density(rng: np.random.Generator, dims: tuple[int, ...]) -> DensityMatrix:
    """A random full-rank state whose matrix equals its conjugate transpose bit for bit."""
    rho = _random_density(rng, dims).mat.mat
    return DensityMatrix(ComplexMatrix(dims, 0.5 * (rho + rho.conj().T)))


def _with_product_sigma(method: str, w: Witness, rng) -> tuple[Witness, DensityMatrix]:
    """`method`'s extension of w, and its sigma' as the products build it,
    before `_rank_one` symmetrises them."""
    if method == "pure-tails":
        tails = [_random_pure(rng, 3), _random_pure(rng, 2, 2)]
        factors = []
        for t in tails:
            v = t.vec.vec
            norm2 = float(np.vdot(v, v).real)
            factors.append(qstate._with_extremes(t.dims, np.outer(v, v.conj()), 0.0, norm2))
        return pure_tails_extend(w, tails), _tensor(w.sigma, factors)
    if method == "purify":
        sel = qstate._purifying_selection(w.sigma)
        ext = purify_extend(w)
    else:
        sel = PurificationSelection(((8, 1), (6, 0), (1, 2)), 3)
        ext = partial_purify_extend(w, sel)
    lams, wmat = qstate._purification(w.sigma, sel)
    proj = (wmat @ np.sqrt(np.outer(lams, lams))) @ wmat.conj().T
    return ext, qstate._with_extremes(ext.dims, proj, 0.0, float(sum(lams)))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("method", ["purify", "partial", "pure-tails"])
def test_rank_one_extensions_are_hermitian_to_the_bit(method, seed):
    # the purifications of a base built by a product, not symmetrised; pure
    # tails of an exactly Hermitian base
    rng = np.random.default_rng(seed)
    base = (_hermitian_density if method == "pure-tails" else _random_density)(rng, (3, 3))
    w = Witness(WitnessForm.C_MINUS_SIGMA, 0.5, base)
    ext, before = _with_product_sigma(method, w, rng)
    s = ext.sigma.mat.mat
    assert np.array_equal(s, s.conj().T)
    assert not np.diagonal(s).imag.any()
    # the trace and extremes of the product it replaces, and its entries to 1e-15
    assert ext.sigma.mat.trace().real == before.mat.trace().real
    assert (ext.sigma.normalized, ext.sigma.lambda_min, ext.sigma.lambda_max) == (
        before.normalized, before.lambda_min, before.lambda_max
    )
    assert np.abs(s - before.mat.mat).max() <= 1e-15


@pytest.mark.parametrize("seed", range(4))
def test_tensor_tails_of_a_hermitian_base_stay_hermitian_to_the_bit(seed):
    rng = np.random.default_rng(seed)
    w = Witness(WitnessForm.C_MINUS_SIGMA, 0.5, _hermitian_density(rng, (2, 3)))
    for ext in (
        mixed_tensor_extend(w, [_hermitian_density(rng, (2,)), _hermitian_density(rng, (3,))]),
        identity_extend(w, [2, 3]),
    ):
        s = ext.sigma.mat.mat
        assert np.array_equal(s, s.conj().T)


def test_a_purified_witness_file_repeats_the_magnitudes_of_mirrored_entries(tmp_path):
    # sigma' on (4,4,16), D = 256, is Hermitian to the bit: D(D-1) off-diagonal
    # magnitudes shared by sigma and data = c*I - sigma, D diagonal entries
    # in each, and 0; the unsymmetrised product carried about 89,500
    rng = np.random.default_rng(0)
    w = Witness(WitnessForm.C_MINUS_SIGMA, 0.3, _random_density(rng, (4, 4)))
    path = tmp_path / "wp.json"
    write_matrix_file(purify_extend(w), path)
    doc = json.loads(path.read_text())
    parts = np.abs(np.array([doc["data"], doc["sigma"]], dtype=float))
    n = 4 * 4 * 16
    assert parts.shape == (2, n, n, 2)
    assert np.unique(parts).size <= n * n + n + 1
