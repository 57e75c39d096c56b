"""Outflow ghost weights: backward-difference extrapolation of order k."""

from __future__ import annotations

import random

import pytest

from advstab import boundary

ORDERS = range(1, boundary.MAX_EXTRAPOLATION_ORDER + 1)


def _ghosts(tail: list[int], p: int, k: int) -> list[int]:
    return [sum(w * t for w, t in zip(row, tail)) for row in boundary.ghost_weights(p, k)]


def test_first_order_ghosts_copy_last_value() -> None:
    assert boundary.ghost_weights(4, 1) == ((1,),) * 4
    assert _ghosts([5], 4, 1) == [5, 5, 5, 5]


def test_second_order_ghosts_extrapolate_linearly() -> None:
    # u_{J+mu} = (mu+1) u_J - mu u_{J-1}; the tail is (u_{J-1}, u_J)
    assert boundary.ghost_weights(3, 2) == tuple((-mu, mu + 1) for mu in (1, 2, 3))


def test_ghosts_continue_polynomials_exactly() -> None:
    # order k reproduces every polynomial of degree <= k-1, in Python ints
    rng = random.Random(11)
    for k in ORDERS:
        weights = boundary.ghost_weights(5, k)
        assert all(type(w) is int for row in weights for w in row)
        coeffs = [rng.randint(-9, 9) for _ in range(k)]
        poly = lambda j: sum(c * j**e for e, c in enumerate(coeffs))
        tail = [poly(j) for j in range(k)]
        assert _ghosts(tail, 5, k) == [poly(k - 1 + mu) for mu in range(1, 6)]


def test_ghosts_have_vanishing_kth_backward_differences() -> None:
    rng = random.Random(3)
    for k in ORDERS:
        tail = [rng.randint(-1000, 1000) for _ in range(k)]
        seq = tail + _ghosts(tail, 6, k)
        for m in range(k, len(seq)):
            diff = seq[m - k:m + 1]
            for _ in range(k):
                diff = [b - a for a, b in zip(diff, diff[1:])]
            assert diff == [0]


def test_ghost_weights_are_cached_immutable_tuples() -> None:
    weights = boundary.ghost_weights(7, 3)
    assert weights is boundary.ghost_weights(7, 3)
    assert isinstance(weights, tuple) and all(isinstance(row, tuple) for row in weights)
    assert boundary.ghost_weights(0, 2) == ()


def test_ghost_weights_validation() -> None:
    for p, k in [(-1, 1), (1, 0), (1, -2), (1, boundary.MAX_EXTRAPOLATION_ORDER + 1)]:
        with pytest.raises(ValueError):
            boundary.ghost_weights(p, k)
