"""Outflow ghost-cell closure: backward-difference extrapolation of order k.

The outflow closure of order k asks that the k-th backward difference of the
solution vanish at every ghost index, which resolves the ghost values one at
a time, left to right, each from the k values before it.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = [
    "MAX_EXTRAPOLATION_ORDER",
    "backward_difference",
    "fill_right_ghosts",
]

# binomials stay exact in int64-free Python integers; extrapolation orders
# beyond this are rejected as unrealistic rather than risked
MAX_EXTRAPOLATION_ORDER = 30


def backward_difference(values: Sequence[float], k: int) -> float:
    """k-th backward difference at the last entry of values.

    values[-1] is position j, values[-1-i] is position j-i. Requires at
    least k+1 entries.
    """
    if k < 0:
        raise ValueError("difference order must be nonnegative")
    if k > MAX_EXTRAPOLATION_ORDER:
        raise ValueError(f"difference order {k} exceeds {MAX_EXTRAPOLATION_ORDER}")
    if len(values) < k + 1:
        raise ValueError(f"need at least {k + 1} values for order {k}, got {len(values)}")
    total = values[-1] * 0  # zero of the element type (works for Fraction too)
    for i in range(k + 1):
        term = math.comb(k, i) * values[-1 - i]
        total = total + term if i % 2 == 0 else total - term
    return total


def fill_right_ghosts(interior_tail: Sequence[float], p: int, k: int) -> list[float]:
    """Ghost values u_{J+1}, ..., u_{J+p} with vanishing k-th backward differences.

    interior_tail supplies at least the last k interior values
    u_{J+1-k}, ..., u_J. Each ghost satisfies

        u_{J+mu} = -sum_{i=1}^{k} (-1)^i binom(k, i) u_{J+mu-i},

    computed for mu = 1, ..., p in increasing order so that later ghosts can
    draw on earlier ones (the system is lower triangular). For k = 1 every
    ghost equals u_J; for k = 2, u_{J+mu} = (mu+1) u_J - mu u_{J-1}.
    """
    if p < 0:
        raise ValueError("ghost count p must be nonnegative")
    if k < 1:
        raise ValueError("extrapolation order k must be >= 1")
    if k > MAX_EXTRAPOLATION_ORDER:
        raise ValueError(f"extrapolation order {k} exceeds {MAX_EXTRAPOLATION_ORDER}")
    if len(interior_tail) < k:
        raise ValueError(
            f"need the last {k} interior values for order {k}, got {len(interior_tail)}"
        )
    window = list(interior_tail[-k:])
    ghosts: list[float] = []
    for _ in range(p):
        g = window[-1] * 0
        for i in range(1, k + 1):
            term = math.comb(k, i) * window[-i]
            g = g + term if i % 2 == 1 else g - term
        ghosts.append(g)
        window.append(g)
    return ghosts
