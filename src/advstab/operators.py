"""Interval and half-line one-step operators plus matrix assembly.

The interval operator folds the Dirichlet inflow and extrapolation outflow
closures into one object, the interval iteration matrix. Its one stepping
kernel, advance, runs the stencil over a ring of padded states that lives
for one call; step_interval, the single step, is a copy of its first
state. Each ring row holds r Dirichlet zeros, the state, the p outflow
ghosts and zero padding up to whole blocks. A step views a row as
overlapping windows of a block Toeplitz product with a small fixed block
of the coefficients and writes the next state straight into the next row,
then writes that row's ghosts with the p x k ghost fold and clears what
the product wrote past them. The fold is the exact boundary.ghost_weights
as floats, cached once per (p, k) by _float_ghost_weights, which explains
its order. The iteration matrix exists once, as the operator's band,
built on first read: the Toeplitz diagonals straight from the
coefficients, then steps of only the last k unit vectors, the columns the
outflow ghost fold touches. Its dense (J+1) x (J+1) entries are that band
written out, and the spectral engines read the band itself. The
half-line steppers act on exact finite-support sequences, growing their
windows with the finite propagation speed of the stencil so no artificial
second boundary ever contaminates a half-line experiment. The outflow one
is one interval step of its window led by zeros, so the fold is applied in
one place, advance. The inflow one steps a batch, rows on one shared
window, with one correlation, each row bit for bit as alone. This module
writes no file; experiments writes the matrix dump.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .boundary import ghost_weights
from .stencil import Scheme

__all__ = [
    "Grid",
    "IntervalOperator",
    "MAX_DENSE_DIMENSION",
    "SupportedSequence",
    "assemble_matrix",
    "step_halfline_inflow",
    "step_halfline_outflow",
    "step_interval",
]

# dense guard: every reader of the dense matrix is an O(n^3) LAPACK call or
# a dump of it; the headline interval sizes fit with margin
MAX_DENSE_DIMENSION = 2500

# output points per row of the blocked Toeplitz step; the block is at most
# (16 + r + p) x 16, small enough to build per operator
_BLOCK = 16

# states per ring of advance: enough to batch the run loop's norms, few
# enough to stay cache-resident; _RING_BYTES caps the ring at very large J
_RING_STATES = 64
_RING_BYTES = 512 * 1024


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [0, L] with J+1 interior points x_j = j dx.

    dx = L/(J+1) and dt = lam*dx, so x_0 = 0 and x_{J+1} = L.
    """

    J: int
    L: float = 1.0
    lam: float = 1.0

    def __post_init__(self) -> None:
        if self.J < 1:
            raise ValueError("J must be >= 1")
        if not (math.isfinite(self.L) and math.isfinite(self.lam)):
            raise ValueError("L and lam must be finite")
        if self.L <= 0 or self.lam <= 0:
            raise ValueError("L and lam must be positive")

    @property
    def dx(self) -> float:
        return self.L / (self.J + 1)

    @property
    def dt(self) -> float:
        return self.lam * self.dx

    @property
    def xs(self) -> np.ndarray:
        """Interior nodes x_0, ..., x_J."""
        return np.arange(self.J + 1) * self.dx


def _check_dense(n: int) -> None:
    """ValueError unless an n x n dense matrix is within MAX_DENSE_DIMENSION."""
    if n > MAX_DENSE_DIMENSION:
        raise ValueError(f"J + 1 = {n} exceeds dense guard {MAX_DENSE_DIMENSION}")


@lru_cache(maxsize=None)
def _float_ghost_weights(p: int, k: int) -> np.ndarray:
    """boundary.ghost_weights(p, k) as a read-only Fortran-ordered p x k float64 array.

    This is the package's one float ghost fold: every interval operator with
    this (p, k) holds this object, and only advance applies it. The
    product keeps its p rows and Fortran order because the OpenBLAS gemv
    kernel sums rows in groups of four plus a remainder with different
    rounding: padding the fold with zero rows, or a C-ordered copy of it,
    moves the ghosts by an ulp for most p when k >= 2.
    """
    weights = np.array(ghost_weights(p, k), dtype=np.float64).reshape(p, k)
    fold = np.empty((k, p), dtype=np.float64).T  # Fortran order: a k x p array transposed
    fold[...] = weights
    fold.setflags(write=False)
    return fold


@dataclass(frozen=True)
class IntervalOperator:
    """The interval one-step operator for (scheme, k, J), closures folded once.

    The Dirichlet inflow contributes r zero ghosts. The order-k outflow
    ghosts are linear in the last k interior values: ghost_fold is the
    cached _float_ghost_weights(p, k), the exact p x k ghost_weights as
    float64; advance is the one place any stepper applies it, the outflow
    half-line included. The stencil itself is kept as toeplitz_block, the
    (b + r + p) x b block with column q holding a_{-r}, ..., a_p from row q
    on, so that one window of b + r + p padded values times the block gives
    b consecutive outputs.
    All size and order checks happen here, at construction, and never per
    step. advance is the one stepping kernel; its ring of padded states
    belongs to the call, never to the operator. The matrix is the band
    attribute, and the dense entries attribute is that band written out;
    each is built on first read, and stepping builds neither. All four
    arrays are read-only, so the operator holds no mutable state.
    """

    scheme: Scheme
    k: int
    J: int
    ghost_fold: np.ndarray = field(init=False, repr=False, compare=False)
    toeplitz_block: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        r, p, k, n = self.scheme.r, self.scheme.p, self.k, self.n
        # n points must hold the k ghost sources and the stencil; ghost_weights
        # checks the range of k
        if n < k:
            raise ValueError(f"grid with {n} points cannot support extrapolation order k = {k}")
        if n < r + p:
            raise ValueError(
                f"grid with {n} points is narrower than the stencil (r + p = {r + p})")
        object.__setattr__(self, "ghost_fold", _float_ghost_weights(p, k))
        block = np.zeros((_BLOCK + r + p, _BLOCK), dtype=np.float64)
        cols = np.arange(_BLOCK)
        block[np.arange(r + p + 1)[:, None] + cols, cols] = self.scheme.coeffs_float[:, None]
        block.setflags(write=False)
        object.__setattr__(self, "toeplitz_block", block)

    @property
    def n(self) -> int:
        return self.J + 1

    def advance(self, u: np.ndarray, n_steps: int) -> Iterator[np.ndarray]:
        """Yield the states after steps 1..n_steps of u in read-only (m, n) blocks.

        u must have shape (n,), checked once per call; any other shape is a
        ValueError, not a broadcast. A block holds up to _RING_STATES
        consecutive states (fewer under the _RING_BYTES cap and at the end)
        and stays valid until the next iteration. The call makes a ring of
        m + 1 padded rows and every view into it once; row i + 1 is the step
        of row i, and the last row is copied to row 0 before the next block.
        A step is three numpy calls:

        - the window view reads row i as ceil(n/b) overlapping rows of
          b + r + p values at stride b; window row q times toeplitz_block
          gives out[q*b:(q+1)*b] with out[j] = sum_l a_l ext[r+j+l],
          written straight into row i + 1 after its r Dirichlet zeros;
        - ghost_fold times the last k values of the new state writes its p
          ghosts over the first p outputs past the state;
        - the rest of those outputs, up to the next whole block, are set
          back to zero, so no value past the ghosts can grow from step to
          step and reach the state through a zero of the block as 0 * inf
          (the fold is not padded to clear them in the same call; see
          _float_ghost_weights).
        """
        if n_steps < 0:
            raise ValueError("n_steps must be >= 0")
        r, p, k, n = self.scheme.r, self.scheme.p, self.k, self.n
        if np.shape(u) != (n,):
            raise ValueError(f"state has shape {np.shape(u)}, expected ({n},)")
        rows, width = -(-n // _BLOCK), self.toeplitz_block.shape[0]
        length = (rows - 1) * _BLOCK + width
        m = max(1, min(_RING_STATES, n_steps, _RING_BYTES // (8 * length)))
        ring = np.zeros((m + 1, length), dtype=np.float64)
        # per-row views, built once: the windows are a strided view over the
        # ring (numpy checks it stays inside), cheaper than stride_tricks
        windows = list(np.ndarray(
            (m + 1, rows, width), dtype=np.float64, buffer=ring,
            strides=(ring.strides[0], _BLOCK * ring.itemsize, ring.itemsize),
        ))
        core = list(ring[:, r:r + rows * _BLOCK].reshape(m + 1, rows, _BLOCK))
        tail = list(ring[:, r + n - k:r + n])
        ghosts = list(ring[:, r + n:r + n + p])
        spill = list(ring[:, r + n + p:r + rows * _BLOCK])
        states = ring[1:, r:r + n]
        states.flags.writeable = False
        ring[0, r:r + n] = u
        matmul, block, fold = np.matmul, self.toeplitz_block, self.ghost_fold
        matmul(fold, tail[0], out=ghosts[0])
        done = 0
        while done < n_steps:
            if done:
                ring[0] = ring[m]
            size = min(m, n_steps - done)
            for i in range(1, size + 1):
                matmul(windows[i - 1], block, out=core[i])
                matmul(fold, tail[i], out=ghosts[i])
                spill[i].fill(0.0)
            done += size
            yield states[:size]

    @cached_property
    def band(self) -> tuple[int, int, np.ndarray]:
        """(kl, ku, rows): the iteration matrix in band storage, read-only.

        kl and ku are the widths below and above the diagonal, from the
        structure and at most n - 1: ku = p, and kl = r, or k - 1 if the
        outflow fold reaches further down (it reaches row n - 1 from column
        n - k), which it does only for p > 0. rows has n + kl + ku rows: ku
        zero rows, then rows[ku + i, kl + d] = A[i, i + d], then kl zero
        rows, so rows[ku - d:ku - d + n, kl + d] is diagonal d read by
        column.
        Away from the outflow ghosts column j is the stencil read downwards,
        A[j - l, j] = a_l, so each diagonal is written straight from the
        coefficients and those entries are exact. Only the last k columns
        feel the ghost fold; each is one step of its unit vector, written
        over its band rows, so the stepper stays the source of truth there.
        A fold whose entries overflow float range is a ValueError naming the
        scheme and k, raised here and unwarned, so every band and every
        dense matrix of an operator is finite. The band is O(n (kl + ku))
        and has no dense guard.
        """
        r, p, k, n = self.scheme.r, self.scheme.p, self.k, self.n
        kl, ku = min(max(r, k - 1) if p else r, n - 1), min(p, n - 1)
        rows = np.zeros((n + kl + ku, kl + ku + 1), dtype=np.float64)
        for ell, a in zip(self.scheme.ells.tolist(), self.scheme.coeffs_float):
            rows[ku + max(0, -ell):ku + n - max(0, ell), kl + ell] = a
        e = np.zeros(n, dtype=np.float64)
        # an overflow reaches the band as inf or NaN, checked once below
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(n - k, n):
                e[j] = 1.0
                (states,) = self.advance(e, 1)
                i = np.arange(max(0, j - ku), min(n, j + kl + 1))
                rows[ku + i, kl + j - i] = states[0, i]
                e[j] = 0.0
        if not np.isfinite(rows).all():
            raise ValueError(f"the iteration matrix of scheme {self.scheme.name!r} at "
                             f"k = {k} overflows float range in its outflow ghost fold")
        rows.setflags(write=False)
        return kl, ku, rows

    @cached_property
    def entries(self) -> np.ndarray:
        """The dense iteration matrix, read-only: the band written out.

        Matrices displayed entry by entry stay independent test oracles of
        it, and so of the band and the stepper.
        """
        n = self.n
        _check_dense(n)
        kl, ku, rows = self.band
        A = np.zeros((n, n), dtype=np.float64)
        idx = np.arange(n)
        for d in range(-kl, ku + 1):
            i = idx[max(0, -d):n - max(0, d)]
            A[i, i + d] = rows[ku + i, kl + d]
        A.setflags(write=False)
        return A


def step_interval(scheme: Scheme, k: int, u: np.ndarray) -> np.ndarray:
    """One interval step of u; builds the IntervalOperator for u.size points.

    The step is a copy of the first state of advance(u, 1), so a single step
    and a long run round alike. Loops should build the operator once and
    call its advance instead: the operator and ring setup make a single
    step costlier than a step inside a run.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 1:
        raise ValueError("state must be one-dimensional")
    (states,) = IntervalOperator(scheme, k, u.size - 1).advance(u, 1)
    return states[0].copy()


def assemble_matrix(scheme: Scheme, k: int, J: int) -> IntervalOperator:
    """The interval operator with its dense (J+1) x (J+1) entries built now.

    Building here, not on first read, makes the dense guard's ValueError an
    assembly error.
    """
    op = IntervalOperator(scheme, k, J)
    op.entries
    return op


# ---------------------------------------------------------------------------
# exact finite-support sequences


@dataclass(frozen=True)
class SupportedSequence:
    """A finitely supported sequence, or a batch of them on one shared window.

    values[..., i] sits at index offset + i. values is 1-D for one sequence
    or (rows, width) for a batch, which step_halfline_inflow steps: each row
    is one sequence, and every row has the same window
    offset..offset + width - 1, zero where a row's own support is narrower.
    """

    values: np.ndarray
    offset: int

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim not in (1, 2):
            raise ValueError("values must be one-dimensional, or (rows, width) for a batch")
        object.__setattr__(self, "values", v)

    @property
    def support(self) -> tuple[int, int]:
        """Smallest and largest index of the stored window (inclusive)."""
        return self.offset, self.offset + self.values.shape[-1] - 1

    def norm(self) -> float | np.ndarray:
        """The l2 norm; for a batch, the row norms over the shared window.

        A row norm is the same ddot over the same values as the norm of that
        row alone, so it is bit for bit the 1-D norm of the row.
        """
        v = self.values
        norms = np.sqrt(np.matmul(v[..., None, :], v[..., :, None])[..., 0, 0])
        return float(norms) if v.ndim == 1 else norms


def step_halfline_inflow(scheme: Scheme, u: SupportedSequence) -> SupportedSequence:
    """Half-line step on j >= 0 with zero Dirichlet ghosts at j < 0.

    The stored window is grown on the right by r each step (finite
    propagation speed), so the update is exact: no second boundary exists.
    A row's padded window from j = -r holds the Dirichlet ghosts, the zeros
    below the support, the values and r + p zeros for the growth. A batch's
    windows lie end to end with r + p zeros after the last, and one
    correlation steps them all, each output the same dot as in a one-row
    step, so each row bit for bit as alone; the outputs that straddle two
    rows are dropped.
    """
    if u.offset < 0:
        raise ValueError("inflow half-line state must be supported on j >= 0")
    w, v, start = scheme.r + scheme.p, u.values, scheme.r + u.offset
    n = start + v.shape[-1]
    shape = (*v.shape[:-1], n + w)
    size = math.prod(shape)
    flat = np.zeros(size + w)
    flat[:size].reshape(shape)[..., start:n] = v
    out = np.correlate(flat, scheme.coeffs_float, "valid").reshape(shape)[..., :n]
    return SupportedSequence(out, 0)


def step_halfline_outflow(
    scheme: Scheme, k: int, u: SupportedSequence, J: int
) -> SupportedSequence:
    """Half-line step on j <= J with order-k extrapolation ghosts above J.

    The stored window m..J always reaches J and grows left by p each step.
    The step is one interval step of the width = J + 1 - m window values at
    the right end of n >= width + p zero-led points: the support grows left
    by only p, so the Dirichlet ghosts read only zeros and the step is
    exact, and the ghosts are the interval's own fold of the last k values,
    zeros included. One sequence per call: a batch is a ValueError.
    """
    if u.values.ndim != 1:
        raise ValueError("the outflow half-line stepper steps one sequence, not a batch")
    m, M = u.support
    if M > J:
        raise ValueError("outflow half-line state must be supported on j <= J")
    p, width = scheme.p, J + 1 - m
    n = max(width + p, k, scheme.r + p)
    x = np.zeros(n)
    x[n - width:n - width + u.values.size] = u.values
    (states,) = IntervalOperator(scheme, k, n - 1).advance(x, 1)
    return SupportedSequence(states[0, n - width - p:].copy(), m - p)
