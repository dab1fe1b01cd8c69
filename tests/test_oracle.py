"""Brute-force grid oracle: known extrema, refinement, support limits."""

from __future__ import annotations

import numpy as np
import pytest

from witness_forge.errors import ParamOutOfRange, UnsupportedDims
from witness_forge.linalg import ComplexMatrix
from witness_forge.oracle import exhaustive_witness_check, grid_product_extremum
from witness_forge.qstate import isotropic
from witness_forge.witness import (
    WitnessForm,
    make_witness,
    max_product_expectation,
)


def _random_hermitian(rng: np.random.Generator, dims: tuple[int, ...]) -> ComplexMatrix:
    d = int(np.prod(dims))
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return ComplexMatrix(dims, (a + a.conj().T) / 2)


def test_isotropic_grid_bounds():
    sq = isotropic(0.2)
    assert abs(grid_product_extremum(sq.mat, "max", 128) - 0.3) <= 1e-6
    assert abs(grid_product_extremum(sq.mat, "min", 128) - 0.2) <= 1e-6


def test_maximally_mixed_grid_is_flat():
    m = ComplexMatrix((2, 2), np.eye(4) / 4)
    assert abs(grid_product_extremum(m, "max", 64) - 0.25) <= 1e-12
    assert abs(grid_product_extremum(m, "min", 64) - 0.25) <= 1e-12


def test_bell_projector_overlap():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = np.sqrt(0.5)
    proj = ComplexMatrix((2, 2), np.outer(bell, bell.conj()))
    assert abs(grid_product_extremum(proj, "max", 128) - 0.5) <= 1e-6


def test_ghz_overlap_three_qubits():
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = np.sqrt(0.5)
    proj = ComplexMatrix((2, 2, 2), np.outer(ghz, ghz.conj()))
    assert abs(grid_product_extremum(proj, "max", 32) - 0.5) <= 1e-6


def test_single_party_is_exact_eigenvalue():
    m = ComplexMatrix((3,), np.diag([0.1, 0.5, 0.4]).astype(complex))
    assert abs(grid_product_extremum(m, "max", 32) - 0.5) <= 1e-12
    assert abs(grid_product_extremum(m, "min", 32) - 0.1) <= 1e-12


def test_qutrit_pair_supported():
    rng = np.random.default_rng(23)
    m = _random_hermitian(rng, (3, 3))
    hi = grid_product_extremum(m, "max", 32)
    see = max_product_expectation(m, restarts=16, seed=0).value
    assert abs(hi - see) <= 1e-3


def test_refinement_never_worsens_much():
    rng = np.random.default_rng(29)
    m = _random_hermitian(rng, (2, 2))
    v32 = grid_product_extremum(m, "max", 32)
    v64 = grid_product_extremum(m, "max", 64)
    assert v64 >= v32 - 1e-12


def test_oracle_matches_seesaw_on_two_qubits():
    for seed in range(5):
        rng = np.random.default_rng(500 + seed)
        m = _random_hermitian(rng, (2, 2))
        grid = grid_product_extremum(m, "max", 64)
        see = max_product_expectation(m, restarts=16, seed=seed).value
        assert abs(grid - see) <= 1e-4


def test_unsupported_dims():
    for dims in ((5,), (2, 5), (2, 2, 3), (2, 2, 2, 2), (3, 3, 3)):
        d = int(np.prod(dims))
        m = ComplexMatrix(dims, np.eye(d) / d)
        with pytest.raises(UnsupportedDims):
            grid_product_extremum(m, "max", 32)


def test_parameter_validation():
    m = ComplexMatrix((2,), np.eye(2) / 2)
    with pytest.raises(ParamOutOfRange):
        grid_product_extremum(m, "max", 16)  # resolution below the floor
    with pytest.raises(ParamOutOfRange):
        grid_product_extremum(m, "sideways", 32)


def test_exhaustive_witness_check():
    w = make_witness(WitnessForm.C_MINUS_SIGMA, isotropic(0.2), 0.3)
    rep = exhaustive_witness_check(w, resolution=64)
    assert rep.is_witness
    assert rep.min_product_expectation >= -1e-8
    assert abs(rep.witnessing_margin - 0.1) <= 1e-10
    # the margin read from sigma's spectrum is -lambda_min of the witness
    lam_min = np.linalg.eigvalsh(w.matrix().mat)[0]
    assert abs(rep.witnessing_margin + lam_min) <= 1e-12

    flat = make_witness(
        WitnessForm.C_MINUS_SIGMA,
        isotropic(0.0),
        0.2,
        check="none",
    )
    rep2 = exhaustive_witness_check(flat, resolution=64)
    assert not rep2.is_witness
