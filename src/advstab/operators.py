"""Interval, lattice and half-line one-step operators plus matrix assembly.

The interval operator folds the Dirichlet inflow and extrapolation outflow
closures into one object, the interval iteration matrix. Its step runs the
stencil as one matrix product per step: the zero-padded state is viewed as
overlapping rows of a block Toeplitz product with a small fixed block of
the coefficients. Its dense (J+1) x (J+1) entries are built on first read:
the Toeplitz diagonals straight from the coefficients, then steps of only
the last k unit vectors, the columns the outflow ghost fold touches. The
lattice and half-line steppers act on exact finite-support sequences,
growing their windows with the finite propagation speed of the stencil so
no artificial second boundary ever contaminates a half-line experiment.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .boundary import MAX_EXTRAPOLATION_ORDER, fill_right_ghosts
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
    "step_lattice",
]

# dense storage guard; the spectral study needs dense eigensolves anyway
MAX_DENSE_DIMENSION = 20000

# output points per row of the blocked Toeplitz step; the block is at most
# (16 + r + p) x 16, small enough to build per operator
_BLOCK = 16

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


def _check_interval(k: int, n: int, width: int) -> None:
    """ValueError unless n points carry order-k ghosts and a stencil of r + p = width."""
    if not 1 <= k <= MAX_EXTRAPOLATION_ORDER:
        raise ValueError(
            f"extrapolation order k = {k} must lie in [1, {MAX_EXTRAPOLATION_ORDER}]"
        )
    # the ghost recursion reads k interior values, so the grid must hold them
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
    ghosts are linear in the last k interior values, so the recursion of
    fill_right_ghosts is run once on the k unit tails and kept as the p x k
    matrix ghost_fold. The stencil itself is kept as toeplitz_block, the
    (b + r + p) x b block with column q holding a_{-r}, ..., a_p from row q
    on, so that one window of b + r + p padded values times the block gives
    b consecutive outputs. All size and order checks happen here, at
    construction, and never per step. The dense matrix is the entries
    attribute, built on first read; stepping never builds it. All three
    arrays are read-only, so the operator holds no mutable state.
    """

    scheme: Scheme
    k: int
    J: int
    ghost_fold: np.ndarray = field(init=False, repr=False, compare=False)
    toeplitz_block: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        r, p = self.scheme.r, self.scheme.p
        _check_interval(self.k, self.n, r + p)
        fold = np.array(
            [fill_right_ghosts(e, p, self.k) for e in np.eye(self.k)], dtype=np.float64
        ).T
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

    def step(self, u: np.ndarray) -> np.ndarray:
        """One interval step of the state u_0..u_J.

        The padded state ext (r Dirichlet zeros, u, the p outflow ghosts,
        then zeros up to whole blocks) is read as ceil(n/b) overlapping rows
        of b + r + p values at stride b; row i times toeplitz_block gives
        out[i*b:(i+1)*b], with out[j] = sum_l a_l ext[r+j+l].
        """
        r, n = self.scheme.r, self.n
        rows, width = -(-n // _BLOCK), self.toeplitz_block.shape[0]
        ext = np.zeros((rows - 1) * _BLOCK + width, dtype=np.float64)
        ext[r:r + n] = u
        ext[r + n:r + n + self.scheme.p] = self.ghost_fold @ u[-self.k:]
        # a strided view over ext (numpy checks it stays inside the buffer);
        # cheaper to build per step than stride_tricks.as_strided
        windows = np.ndarray(
            (rows, width), dtype=np.float64, buffer=ext,
            strides=(_BLOCK * ext.itemsize, ext.itemsize),
        )
        return (windows @ self.toeplitz_block).ravel()[:n]

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
        if n > MAX_DENSE_DIMENSION:
            raise ValueError(f"J + 1 = {n} exceeds dense guard {MAX_DENSE_DIMENSION}")
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

    Loops should build the operator once and call its step instead.
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


def step_lattice(scheme: Scheme, u: SupportedSequence) -> SupportedSequence:
    """Whole-lattice convolution step; support widens to [m - p, M + r]."""
    w, size = scheme.r + scheme.p, u.values.size
    ext = np.zeros(size + 2 * w)
    ext[w:w + size] = u.values
    out = np.correlate(ext, scheme.coeffs_float, mode="valid")
    return SupportedSequence(values=out, offset=u.offset - scheme.p)


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
    p each step.
    """
    m, M = u.support
    if M > J:
        raise ValueError("outflow half-line state must be supported on j <= J")
    w, p = scheme.r + scheme.p, scheme.p
    # one window from j = m - w: zeros, the values extended by zeros up to
    # the boundary index J, then the p ghosts
    n = u.values.size + J - M
    ext = np.zeros(w + n + p)
    ext[w:w + u.values.size] = u.values
    ext[w + n:] = fill_right_ghosts(ext[w:w + n], p, k)
    out = np.correlate(ext, scheme.coeffs_float, mode="valid")
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
