"""The band of a plain square array, read off its nonzero diagonals: a test oracle.

The library reads every band from IntervalOperator.band. The tests read a
plain array's here, to check that band against its dense entries and to
feed generic matrices to the band kernels.
"""

from __future__ import annotations

import numpy as np


def band_of(entries: np.ndarray) -> tuple[int, int, np.ndarray]:
    """(kl, ku, rows): a square array's band, in IntervalOperator.band's layout.

    The band reaches the outermost diagonals that hold a nonzero, and its
    rows keep the array's dtype.
    """
    n = entries.shape[0]
    held = [d for d in range(1 - n, n) if np.diagonal(entries, d).any()] + [0]
    kl, ku = -min(held), max(held)
    rows = np.zeros((n + kl + ku, kl + ku + 1), dtype=entries.dtype)
    for d in range(-kl, ku + 1):
        start = ku + max(0, -d)
        rows[start:start + n - abs(d), kl + d] = np.diagonal(entries, d)
    return kl, ku, rows
