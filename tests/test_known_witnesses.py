"""Known answers: the product-state extrema of states whose values are
known in closed form, searched by the see-saw at 32 restarts, seed 0.

Each value must lie within 1e-12 of its closed form and never beyond it
(above a maximum, below a minimum) by more than 1e-15, since the see-saw
only ever reaches a value a product state attains. The Tiles UPB state
has no closed form, so it pins a bracket, and its grid scan's winner.
"""

from __future__ import annotations

import math
from itertools import combinations, product

import numpy as np
import pytest

from witness_forge import oracle
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


def _choi_sigma() -> np.ndarray:
    """sigma = (2I - W)/12 of the Choi witness W, the Choi matrix of the map
    Phi[2,0,1](X) = diag(2x_00 + x_22, x_00 + 2x_11, x_11 + 2x_22) - X on a
    qutrit (Choi, Linear Algebra Appl. 12, 95, 1975; Cho, Kye & Lee, Linear
    Algebra Appl. 171, 213, 1992). W has spectrum {-1, 0 (x3), 1 (x3),
    2 (x2)} and is nonnegative on product states, with minimum 0, so the
    product maximum of sigma is c = 2/12 = 1/6."""
    w = np.zeros((9, 9))
    for i, j in product(range(3), repeat=2):
        e = np.zeros((3, 3))
        e[i, j] = 1.0
        x = np.diag(e)
        w += np.kron(e, np.diag([2 * x[0] + x[2], x[0] + 2 * x[1], x[1] + 2 * x[2]]) - e)
    return ((2 * np.eye(9) - w) / 12).astype(complex)


def _tiles_upb() -> np.ndarray:
    """(I - P)/4 on (3, 3), P the projector onto the five Tiles UPB vectors
    (Bennett et al., PRL 82, 5385, 1999): a bound entangled state with
    spectrum {0 (x5), 1/4 (x4)}. No product state is orthogonal to P's
    range, so its product maximum lies strictly below lambda_max = 1/4."""
    e = np.eye(3)
    minus = [(e[0] - e[1]) / math.sqrt(2), (e[1] - e[2]) / math.sqrt(2)]
    plus = e.sum(axis=0) / math.sqrt(3)
    vectors = [np.kron(e[0], minus[0]), np.kron(minus[0], e[2]), np.kron(e[2], minus[1]),
               np.kron(minus[1], e[0]), np.kron(plus, plus)]
    return ((np.eye(9) - sum(np.outer(v, v) for v in vectors)) / 4).astype(complex)


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
    "choi": ((3, 3), _choi_sigma(), 1 / 6),
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


def test_tiles_upb_max_lies_in_its_bracket():
    # the 32-restart see-saw reads 0.2428959...; no product state reaches 1/4
    got = max_product_expectation(ComplexMatrix((3, 3), _tiles_upb()), RESTARTS, SEED).value
    assert 0.2428 <= got < 0.25


def test_tiles_upb_grid_winner_is_the_fixed_order_unpruned_scans(monkeypatch):
    # the UPB state's degenerate spectrum, at a qutrit exact party, stresses
    # the scan's pad: its (3,3)@32 winner, with polar rows, phase boxes and
    # points skipped when proven below the best value, is the winner of the
    # scan that skips nothing and visits the rows in index order
    mt = _tiles_upb().reshape(3, 3, 3, 3)
    x = oracle._support_check((3, 3), 32)
    for signed in (mt, -mt):
        winner = oracle._scan_grid(signed, (3, 3), x, 32)
        with monkeypatch.context() as patched:
            patched.setattr(oracle, "_below", lambda c, mu: np.zeros(c.shape[1:], dtype=bool))
            patched.setattr(oracle, "_cell_order", lambda cells, term: np.arange(cells.shape[1]))
            assert oracle._scan_grid(signed, (3, 3), x, 32) == winner
