"""Outflow ghost values: backward-difference extrapolation of order k."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from advstab import boundary


def test_first_order_ghosts_copy_last_value() -> None:
    ghosts = boundary.fill_right_ghosts([2.0, 5.0], p=4, k=1)
    assert ghosts == [5.0, 5.0, 5.0, 5.0]


def test_second_order_ghosts_extrapolate_linearly() -> None:
    # u_{J+mu} = (mu+1) u_J - mu u_{J-1}
    u_jm1, u_j = 1.0, 3.0
    ghosts = boundary.fill_right_ghosts([u_jm1, u_j], p=3, k=2)
    assert ghosts == [(m + 1) * u_j - m * u_jm1 for m in (1, 2, 3)]


def test_ghosts_continue_polynomials_exactly() -> None:
    # order k reproduces every polynomial of degree <= k-1
    rng = np.random.default_rng(11)
    for k in range(1, 6):
        coeffs = rng.standard_normal(k)
        tail = [float(np.polyval(coeffs, j)) for j in range(k)]
        ghosts = boundary.fill_right_ghosts(tail, p=5, k=k)
        expected = [float(np.polyval(coeffs, k - 1 + m)) for m in range(1, 6)]
        assert np.allclose(ghosts, expected, rtol=0.0, atol=1e-8)


def test_ghosts_have_vanishing_kth_backward_differences() -> None:
    rng = np.random.default_rng(3)
    for k in (1, 2, 3, 4):
        tail = list(rng.standard_normal(k))
        ghosts = boundary.fill_right_ghosts(tail, p=6, k=k)
        seq = tail + ghosts
        for m in range(len(tail), len(seq)):
            assert abs(np.diff(seq[m - k:m + 1], n=k)[0]) < 1e-9


def test_ghost_recursion_exact_on_fractions() -> None:
    tail = [Fraction(1, 3), Fraction(2, 7)]
    ghosts = boundary.fill_right_ghosts(tail, p=3, k=2)
    assert all(isinstance(g, Fraction) for g in ghosts)
    assert ghosts[0] == 2 * Fraction(2, 7) - Fraction(1, 3)


def test_fill_right_ghosts_validation() -> None:
    with pytest.raises(ValueError):
        boundary.fill_right_ghosts([1.0], p=2, k=2)
    with pytest.raises(ValueError):
        boundary.fill_right_ghosts([1.0], p=-1, k=1)
    with pytest.raises(ValueError):
        boundary.fill_right_ghosts([1.0], p=1, k=0)
    assert boundary.fill_right_ghosts([1.0, 2.0], p=0, k=2) == []
