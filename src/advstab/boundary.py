"""Outflow ghost-cell closure: polynomial extrapolation of order k.

The outflow closure of order k puts each ghost value on the polynomial of
degree k - 1 through the k values before it, which resolves the ghost values
one at a time, left to right.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = [
    "MAX_EXTRAPOLATION_ORDER",
    "fill_right_ghosts",
]

# binomials stay exact in int64-free Python integers; extrapolation orders
# beyond this are rejected as unrealistic rather than risked
MAX_EXTRAPOLATION_ORDER = 30


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
