"""Interval and half-line one-step operators plus matrix assembly.

The interval operator folds the Dirichlet inflow and extrapolation outflow
closures into one object, the interval iteration matrix. Its one stepping
kernel, advance, runs the stencil over a ring of padded states that lives
for one call. Each ring row holds r Dirichlet zeros, the state, the p
outflow ghosts and zero padding up to whole blocks. A step views a row as
overlapping windows of a block Toeplitz product with a small fixed block
of the coefficients and writes the next state straight into the next row,
then writes that row's ghosts with the p x k ghost fold (the exact
boundary.ghost_weights as floats) and clears what the product wrote past
them. The fold product keeps exactly p rows in Fortran order: OpenBLAS
picks its gemv kernel, and so its rounding, from the shape and the order,
so a fold padded to clear the spill in the same call, or a C-ordered copy,
would move the ghosts. Its dense (J+1) x (J+1)
entries are built on first read: the Toeplitz diagonals straight from the
coefficients, then steps of only the last k unit vectors, the columns the
outflow ghost fold touches. The half-line steppers act on exact
finite-support sequences, growing their windows with the finite
propagation speed of the stencil so no artificial second boundary ever
contaminates a half-line experiment; the outflow one applies the same
ghost weights.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .boundary import ghost_weights
from .stencil import Scheme

__all__ = [
    "Grid",
    "IntervalOperator",
    "MAX_DENSE_DIMENSION",
    "SupportedSequence",
    "assemble_matrix",
    "save_matrix",
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

# save_matrix adds a CSV copy for matrices of at most this dimension
_CSV_LIMIT = 64


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


def _check_interval(k: int, n: int, width: int) -> None:
    """ValueError unless n points hold the k ghost sources and a stencil of r + p = width.

    ghost_weights checks the range of k.
    """
    if n < k:
        raise ValueError(f"grid with {n} points cannot support extrapolation order k = {k}")
    if n < width:
        raise ValueError(
            f"grid with {n} points is narrower than the stencil (r + p = {width})"
        )


@dataclass(frozen=True)
class IntervalOperator:
    """The interval one-step operator for (scheme, k, J), closures folded once.

    The Dirichlet inflow contributes r zero ghosts. The order-k outflow
    ghosts are linear in the last k interior values: ghost_fold is the exact
    p x k ghost_weights as float64, in Fortran order (see advance for why
    the order matters). The stencil itself is kept as toeplitz_block, the
    (b + r + p) x b block with column q holding a_{-r}, ..., a_p from row q
    on, so that one window of b + r + p padded values times the block gives
    b consecutive outputs. All size and order checks happen here, at
    construction, and never per step. advance is the one stepping kernel;
    its ring of padded states belongs to the call, never to the operator.
    The dense matrix is the entries attribute, built on first read; stepping
    never builds it. All three arrays are read-only, so the operator holds
    no mutable state.
    """

    scheme: Scheme
    k: int
    J: int
    ghost_fold: np.ndarray = field(init=False, repr=False, compare=False)
    toeplitz_block: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        r, p = self.scheme.r, self.scheme.p
        _check_interval(self.k, self.n, r + p)
        # a Fortran-ordered p x k array, laid out as the transpose of a k x p one
        fold = np.empty((self.k, p), dtype=np.float64).T
        fold[...] = np.array(ghost_weights(p, self.k), dtype=np.float64).reshape(p, self.k)
        fold.setflags(write=False)
        object.__setattr__(self, "ghost_fold", fold)
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

        A block holds up to _RING_STATES consecutive states (fewer under the
        _RING_BYTES cap and at the end) and stays valid until the next
        iteration. The call makes a ring of m + 1 padded rows and every view
        into it once; row i + 1 is the step of row i, and the last row is
        copied to row 0 before the next block. A step is three numpy calls:

        - the window view reads row i as ceil(n/b) overlapping rows of
          b + r + p values at stride b; window row q times toeplitz_block
          gives out[q*b:(q+1)*b] with out[j] = sum_l a_l ext[r+j+l],
          written straight into row i + 1 after its r Dirichlet zeros;
        - ghost_fold times the last k values of the new state writes its p
          ghosts over the first p outputs past the state;
        - the rest of those outputs, up to the next whole block, are set
          back to zero, so no value past the ghosts can grow from step to
          step and reach the state through a zero of the block as 0 * inf.

        The ghost product keeps ghost_fold's p rows and Fortran order. The
        OpenBLAS gemv kernel sums rows in groups of four plus a remainder
        with different rounding, so padding the fold with zero rows to
        clear the spill in the same call, or a C-ordered copy of it, moves
        the ghosts by an ulp for most p when k >= 2.
        """
        if n_steps < 0:
            raise ValueError("n_steps must be >= 0")
        r, p, k, n = self.scheme.r, self.scheme.p, self.k, self.n
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

    def step(self, u: np.ndarray) -> np.ndarray:
        """One interval step of the state u_0..u_J, copied out of a two-row ring.

        This is advance for one step, so a single step and a long run round
        alike; the ring setup makes it costlier than a step inside a run.
        """
        (states,) = self.advance(u, 1)
        return states[0].copy()

    @cached_property
    def entries(self) -> np.ndarray:
        """The dense iteration matrix, read-only: diagonals, then ghost columns.

        Away from the outflow ghosts column j is the stencil read downwards,
        A[j - l, j] = a_l, so each diagonal is written straight from the
        coefficients and those entries are exact. Only the last k columns
        feel the ghost fold; each is one step of its unit vector, so the
        stepper stays the source of truth there and displayed matrices stay
        available as independent test oracles.
        """
        n = self.n
        _check_dense(n)
        A = np.zeros((n, n), dtype=np.float64)
        idx = np.arange(n)
        for ell, a in zip(self.scheme.ells.tolist(), self.scheme.coeffs_float):
            rows = idx[max(0, -ell):n - max(0, ell)]
            A[rows, rows + ell] = a
        e = np.zeros(n, dtype=np.float64)
        for j in range(n - self.k, n):
            e[j] = 1.0
            A[:, j] = self.step(e)
            e[j] = 0.0
        A.setflags(write=False)
        return A


def step_interval(scheme: Scheme, k: int, u: np.ndarray) -> np.ndarray:
    """One interval step of u; builds the IntervalOperator for u.size points.

    Loops should build the operator once and call its advance instead.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 1:
        raise ValueError("state must be one-dimensional")
    return IntervalOperator(scheme, k, u.size - 1).step(u)


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
    """A finitely supported sequence: values[i] sits at index offset + i."""

    values: np.ndarray
    offset: int

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1:
            raise ValueError("values must be one-dimensional")
        object.__setattr__(self, "values", v)

    @property
    def support(self) -> tuple[int, int]:
        """Smallest and largest index of the stored window (inclusive)."""
        return self.offset, self.offset + self.values.size - 1

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def value_at(self, j: int) -> float:
        i = j - self.offset
        if 0 <= i < self.values.size:
            return float(self.values[i])
        return 0.0


def step_halfline_inflow(scheme: Scheme, u: SupportedSequence) -> SupportedSequence:
    """Half-line step on j >= 0 with zero Dirichlet ghosts at j < 0.

    The stored window is grown on the right by r each step (finite
    propagation speed), so the update is exact: no second boundary exists.
    """
    if u.offset < 0:
        raise ValueError("inflow half-line state must be supported on j >= 0")
    r, size = scheme.r, u.values.size
    # one window from j = -r: the Dirichlet ghosts, the zeros below the
    # support, the values, and p + r zeros for the window's growth
    ext = np.zeros(2 * r + u.offset + size + scheme.p)
    ext[r + u.offset:r + u.offset + size] = u.values
    out = np.correlate(ext, scheme.coeffs_float, mode="valid")
    return SupportedSequence(values=out, offset=0)


def step_halfline_outflow(
    scheme: Scheme, k: int, u: SupportedSequence, J: int
) -> SupportedSequence:
    """Half-line step on j <= J with order-k extrapolation ghosts above J.

    The stored window always reaches J (zeros are kept there since the
    extrapolation tail is anchored at the boundary) and grows on the left by
    p each step. The ghosts are ghost_weights applied to the last k values
    at or below J, zeros included where the window is narrower than k.
    """
    m, M = u.support
    if M > J:
        raise ValueError("outflow half-line state must be supported on j <= J")
    w, p = scheme.r + scheme.p, scheme.p
    weights = np.array(ghost_weights(p, k), dtype=np.float64).reshape(p, k)
    # one window from j = m - lead: zeros, the values extended by zeros up
    # to the boundary index J, then the p ghosts; at least k values end at J
    n = u.values.size + J - M
    lead = max(w, k - n)
    ext = np.zeros(lead + n + p)
    ext[lead:lead + u.values.size] = u.values
    ext[lead + n:] = weights @ ext[lead + n - k:lead + n]
    out = np.correlate(ext[lead - w:], scheme.coeffs_float, mode="valid")
    return SupportedSequence(values=out, offset=m - p)


# ---------------------------------------------------------------------------
# matrix export


def _atomic_write_bytes(path: str, chunks: Iterable[bytes]) -> None:
    """Write the chunks to a temporary file beside path, then rename it over path."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_matrix(A: IntervalOperator, path: str) -> list[str]:
    """Write column-major float64 binary plus a JSON sidecar; CSV for small n.

    Returns the list of files written. The sidecar at path + '.json' holds
    n, scheme, k and J; a CSV copy at path + '.csv' is added when
    n <= _CSV_LIMIT.
    """
    _atomic_write_bytes(path, [A.entries.tobytes(order="F")])
    sidecar = {"n": A.n, "scheme": A.scheme.name, "k": A.k, "J": A.J}
    _atomic_write_bytes(path + ".json", [(json.dumps(sidecar, indent=2) + "\n").encode()])
    written = [path, path + ".json"]
    if A.n <= _CSV_LIMIT:
        _atomic_write_bytes(path + ".csv", (
            (",".join(repr(float(x)) for x in row) + "\n").encode() for row in A.entries
        ))
        written.append(path + ".csv")
    return written
