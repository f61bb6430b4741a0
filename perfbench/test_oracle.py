"""Self-tests of the benchmark's reference oracles against analytic answers.

Run with ``python3 -m pytest perfbench``; no ctcbox import is needed.
"""

from fractions import Fraction

import numpy as np
import pytest

from loop_oracle import (reference_fixed_point, spectral_gap, superoperator,
                         trace_distance)
from parity_oracle import expected_scan, paradox_rows


def permutation_unitary(perm):
    u = np.zeros((len(perm), len(perm)), dtype=complex)
    for source, target in enumerate(perm):
        u[target, source] = 1
    return u


SWAP = permutation_unitary([0, 2, 1, 3])
FLIP = np.array([[0, 1], [1, 0]], dtype=complex)
OSCILLATING = permutation_unitary([2, 5, 0, 8, 11, 1, 3, 6, 9, 4, 7, 10])


def test_swap_copies_rho():
    rho = np.diag([0.75, 0.25]).astype(complex)
    sigma = reference_fixed_point(SWAP, rho, 2)
    assert trace_distance(sigma, rho) < 1e-12


def test_swap_copies_a_mixed_coherent_rho():
    rho = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])
    sigma = reference_fixed_point(SWAP, rho, 2)
    assert trace_distance(sigma, rho) < 1e-12


def test_grandfather_gives_even_mixture():
    u = np.kron(np.eye(2), FLIP)
    sigma = reference_fixed_point(u, np.diag([1, 0]).astype(complex), 2)
    assert trace_distance(sigma, np.eye(2) / 2) < 1e-12


def test_oscillating_gives_cesaro_limit():
    rho = np.diag([0.5, 0.5, 0, 0]).astype(complex)
    sigma = reference_fixed_point(OSCILLATING, rho, 3)
    assert trace_distance(sigma, np.diag([0.25, 0.25, 0.5])) < 1e-12


def test_reference_is_a_fixed_point_of_a_weak_coupling():
    w, v = np.linalg.eigh(SWAP)
    u = (v * np.exp(-0.05j * w)) @ v.conj().T
    rho = np.diag([1, 0]).astype(complex)
    sigma = reference_fixed_point(u, rho, 2)
    stepped = np.trace((u @ np.kron(rho, sigma) @ u.conj().T)
                       .reshape(2, 2, 2, 2), axis1=0, axis2=2)
    assert trace_distance(stepped, sigma) < 1e-13
    assert abs(np.trace(sigma) - 1) < 1e-13
    assert 0 < spectral_gap(superoperator(u, rho, 2)) < 0.01


def test_pr_box_with_bob_looped_signals_from_bob_only():
    # a ^ b = x.y with b = y leaves a = x.y ^ y: Alice's output follows
    # Bob's input exactly when x = 0
    scan = expected_scan(2, [(Fraction(1), [[0, 1]])], 1)
    assert scan == [
        (0, (1,), [(False, Fraction(1, 2))] * 2),
        (1, (0,), [(True, Fraction(1)), (False, Fraction(1, 2))]),
    ]


def test_mixture_weights_enter_the_success_exactly():
    w = Fraction(1, 3)
    scan = expected_scan(2, [(w, [[0, 1]]), (1 - w, [])], 1)
    # component x.y as above; component 0 gives a = y at both settings,
    # so at x = 1 only the second component carries Bob's bit
    assert scan[1][2] == [(True, Fraction(1)),
                          (True, Fraction(1, 2) + (1 - w) / 2)]


@pytest.mark.parametrize("monomials, expected",
                         [([[0, 1]], 3), ([], 2), ([[0], [1]], 0)])
def test_paradox_rows_of_two_party_loops(monomials, expected):
    assert paradox_rows(2, monomials) == expected
