"""Outflow ghost-cell closure: polynomial extrapolation of order k.

The outflow closure of order k puts each ghost value on the polynomial of
degree k - 1 through the k values before it. Every ghost is therefore a
fixed integer combination of the last k interior values; ghost_weights
returns those combinations, and every outflow closure in the package (the
interval operator's ghost fold and the outflow half-line step) applies them.
"""

from __future__ import annotations

import math
from functools import lru_cache

__all__ = [
    "MAX_EXTRAPOLATION_ORDER",
    "ghost_weights",
]

# binomials stay exact in int64-free Python integers; extrapolation orders
# beyond this are rejected as unrealistic rather than risked
MAX_EXTRAPOLATION_ORDER = 30


@lru_cache(maxsize=None)
def ghost_weights(p: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Exact p x k weights: ghost u_{J+mu} = sum_i W[mu-1][i] u_{J+1-k+i}.

    The ghosts have vanishing k-th backward differences,

        u_{J+mu} = -sum_{i=1}^{k} (-1)^i binom(k, i) u_{J+mu-i},

    resolved for mu = 1, ..., p in increasing order so that later ghosts draw
    on earlier ones (the system is lower triangular). The recursion runs once
    per (p, k) on the k unit tails in Python integers, so the weights are
    exact. For k = 1 every row is (1,); for k = 2 row mu is (-mu, mu + 1).
    """
    if p < 0:
        raise ValueError("ghost count p must be nonnegative")
    if not 1 <= k <= MAX_EXTRAPOLATION_ORDER:
        raise ValueError(
            f"extrapolation order k = {k} must lie in [1, {MAX_EXTRAPOLATION_ORDER}]"
        )
    rule = [(-1) ** (i + 1) * math.comb(k, i) for i in range(1, k + 1)]
    rows = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    for _ in range(p):
        rows.append(tuple(
            sum(c * row[j] for c, row in zip(rule, rows[:-k - 1:-1])) for j in range(k)
        ))
    return tuple(rows[k:])
