"""Known answers: the product-state extrema of states whose values are
known in closed form, searched by the see-saw at 32 restarts, seed 0.

Each value must lie within 1e-12 of its closed form and never beyond it
(above a maximum, below a minimum) by more than 1e-15, since the see-saw
only ever reaches a value a product state attains.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
import pytest

from witness_forge.linalg import ComplexMatrix
from witness_forge.witness import max_product_expectation, min_product_expectation

RESTARTS, SEED = 32, 0
CLOSE, BEYOND = 1e-12, 1e-15


def _ghz(n: int) -> np.ndarray:
    v = np.zeros(2**n, dtype=complex)
    v[0] = v[-1] = 1 / np.sqrt(2)
    return v


def _dicke(n: int, k: int) -> np.ndarray:
    """The equal superposition of the n-qubit basis states with k ones."""
    v = np.zeros(2**n, dtype=complex)
    for ones in combinations(range(n), k):
        v[sum(1 << (n - 1 - i) for i in ones)] = 1
    return v / np.linalg.norm(v)


def _max_entangled(d: int) -> np.ndarray:
    v = np.zeros(d * d, dtype=complex)
    v[[i * d + i for i in range(d)]] = 1 / np.sqrt(d)
    return v


def _antisymmetric(d: int) -> np.ndarray:
    """(I - SWAP)/2 on (d, d), the unnormalised antisymmetric projector."""
    swap = np.eye(d * d)[[j * d + i for i in range(d) for j in range(d)]]
    return (np.eye(d * d) - swap).astype(complex) / 2


def _dicke_max(n: int, k: int) -> float:
    # Wei & Goldbart, PRA 68, 042307 (2003)
    return math.comb(n, k) * (k / n) ** k * ((n - k) / n) ** (n - k)


_PURE = {
    **{f"ghz{n}": ((2,) * n, _ghz(n), 0.5) for n in (3, 4, 5)},
    **{f"dicke{n}{k}": ((2,) * n, _dicke(n, k), _dicke_max(n, k))
       for n, k in ((3, 1), (4, 1), (4, 2), (5, 2), (6, 3))},
    **{f"phi{d}": ((d, d), _max_entangled(d), 1 / d) for d in (2, 3, 4)},
}
_MAXIMA = {
    **{name: (dims, np.outer(v, v.conj()), value) for name, (dims, v, value) in _PURE.items()},
    **{f"antisymmetric{d}": ((d, d), _antisymmetric(d), 0.5) for d in (2, 3, 4)},
}


@pytest.mark.parametrize("name", sorted(_MAXIMA))
def test_max_product_expectation_reaches_the_closed_form(name):
    dims, m, value = _MAXIMA[name]
    got = max_product_expectation(ComplexMatrix(dims, m), RESTARTS, SEED).value
    assert abs(got - value) <= CLOSE
    assert got <= value + BEYOND


@pytest.mark.parametrize("name", sorted(_PURE))
def test_a_pure_state_on_two_or_more_parties_has_product_minimum_zero(name):
    # a product state orthogonal to the vector always exists
    dims, v, _ = _PURE[name]
    got = min_product_expectation(ComplexMatrix(dims, np.outer(v, v.conj())), RESTARTS, SEED).value
    assert abs(got) <= CLOSE
    assert got >= -BEYOND
