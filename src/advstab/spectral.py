"""Spectral radius, operator norms and power-boundedness probes.

Spectral radii come from the eigenvalues of one dense LAPACK eigensolve,
without eigenvectors, limited to matrices of dimension at most
operators.MAX_DENSE_DIMENSION. The dominant eigenvalue z is certified by
banded inverse iteration: one LU with partial pivoting of A - zI, copied
from the operator's band, gives its eigen-residual and, through one
adjoint solve, an estimate of its condition number. Plain one-vector
power iteration would stall on a dominant complex conjugate pair, the
signature of an oscillatory boundary instability, and is deliberately not
offered for eigenvalues; the power-bound probe iterates only on the
symmetric B^T B, and keeps a norm only under a Kato-Temple certificate.

operator_norm is the dense SVD of one operator. The lemma1 sweep instead
streams its interval operators, by increasing J, into the private
_gram_norms, which bisects for the largest eigenvalue of each Gram matrix
A^T A with banded LDL^T factorizations, batched over a chunk of operators
and a few shifts at once. It forms each Gram band from the operator's own
band and builds no dense matrix. Each norm is the same bits whatever the
order of the stream, so a caller may order it to suit the chunks.

Both band factorizations are one kernel, _band_elimination, in two modes:
it eliminates a band in place over trailing batch axes, by LU with
partial pivoting for _BandLU (a batch of one shift) or by LDL^T without
pivoting for the Gram bisection (a batch of shifts x operators). It is
numpy only; importing scipy for LAPACK's gbtrf would cost more time and
memory than the solves it replaces.

An interval operator's spectrum is a pure function of (scheme, k, J), all
frozen, so spectral_radius solves each one once per process. Its private
memo, keyed by that triple and never by the operator, keeps the
read-only eigenvalues by decreasing modulus and the certificate of the
first, for the _SOLVED_SIZE most recently used operators; a hit returns
the same certificate. It holds no operator and no dense matrix.

spectral_radius, operator_norm and power_bound_probe take an
IntervalOperator and nothing else. The private kernels take any matrix:
_solve, _certify and _BandLU with its band, and _power_bounds, the probe's
loop, a real square finite one.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .operators import IntervalOperator, _check_dense
from .stencil import Scheme

__all__ = [
    "PowerBoundOverflow",
    "PowerBoundResult",
    "ScanRow",
    "SpectralReport",
    "operator_norm",
    "power_bound_probe",
    "rho_vs_J_scan",
    "spectral_radius",
]

# power steps per scaled power before the probe falls back to the dense SVD
_CERTIFY_ITERATIONS = 4
_EPS = float(np.finfo(float).eps)
_LN2 = math.log(2.0)
# the band solves rescale their vector by 2^-256 once an entry passes 2^256
_SOLVE_RESCALE = 2.0**256
# spectral_radius's interval spectra, (scheme, k, J) -> _solve's triple,
# least recently used first; an entry at n = 2501 holds 40 KB
_SOLVED: OrderedDict[tuple[Scheme, int, int], tuple] = OrderedDict()
_SOLVED_SIZE = 16
# _gram_norms: operators bisected together, shifts tested per pass, and rows
# eliminated per work block. A wider chunk runs fewer numpy calls per
# operator, but its bands and its work block stay resident: 192 is as fast
# as 256 on the lemma1 sweep. At b = 2 the chunk's upper bands and the work
# block hold 0.97 MB each; a block of 8, 4 or 2 rows runs more passes and
# is slower.
_GRAM_CHUNK = 192
_GRAM_SHIFTS = 7
_GRAM_ROWS = 16
# a bisection bracket [lo, hi] is closed once hi - lo <= _GRAM_CLOSED * hi
_GRAM_CLOSED = 4.0 * _EPS


class PowerBoundOverflow(RuntimeError):
    """Norm growth overflowed float range; carries the partial series."""

    def __init__(self, message: str, n_reached: int, series: list[float]):
        super().__init__(message)
        self.n_reached = n_reached
        self.series = series


@dataclass(frozen=True)
class SpectralReport:
    """Spectral radius with the leading eigenvalues and solve diagnostics.

    residual is the eigen-residual ||A x - z x|| / ||x|| of the dominant
    eigenvalue z. eigen_condition estimates its condition number kappa_1 as
    1/|y^H x| for unit right and left vectors from inverse iteration; it is
    an estimate, not a bound. modulus_ratio is |lambda_2| / |lambda_1|.
    """

    rho: float
    leading_eigenvalues: tuple[complex, ...]
    method: str
    residual: float
    eigen_condition: float
    modulus_ratio: float


@dataclass(frozen=True)
class PowerBoundResult:
    """Probe of sup_n ||A^n||: the sup, where it occurred, and the series.

    n_svd counts the computed powers whose norm came from the dense SVD
    rather than from the certified power step. Zeros the probe proved
    rather than computed (see power_bound_probe) add nothing to it.
    """

    sup_norm: float
    argmax_n: int
    series: tuple[float, ...]
    n_svd: int


@dataclass(frozen=True)
class ScanRow:
    """One rho_vs_J_scan row; normalized_excess is J (rho - 1).

    This is not the spectrum report's normalized_excess, which is the
    growth rate (rho - 1)/dx = (J + 1)(rho - 1)/L.
    """

    J: int
    rho: float
    normalized_excess: float


def _band_elimination(rows: np.ndarray, kl: int, floor: float | None = None):
    """(blocks, eliminate): the one band elimination, in place, over any trailing batch axes.

    rows is (m, width, *batch) in _BandLU's row layout: row i holds the
    matrix's row i from its column i - kl on. blocks[j], column j's block
    of rows j..j+kl over the width - kl columns from j, is one strided view
    of rows, and the views each column reads are built once, here, as
    IntervalOperator.advance builds its own. eliminate(stop) eliminates
    columns 0..stop-1 of every batch element in one of two modes:

    - with a floor, LU with partial pivoting (see _BandLU), per batch
      element: a pivot search, a row swap, the floor for an exact zero
      pivot, lower /= pivot and rest -= lower (x) row. It returns the
      (stop, *batch) pivots: q at [j, s] swapped row j + q into row j.
    - without one, LDL^T without pivoting of a symmetric band, width
      2 kl + 1: the pivot row is also the column below the pivot, so the
      update is rest -= row (x) (row / pivot), and the lower triangle is
      written but never read. It returns each batch element's lowest
      pivot, NaN once a pivot was NaN.
    """
    (m, width), (down, across), batch = rows.shape[:2], rows.strides[:2], rows.shape[2:]
    blocks = np.ndarray(
        (m - kl, kl + 1, width - kl) + batch, dtype=rows.dtype, buffer=rows,
        offset=kl * across, strides=(down, down - across, across) + rows.strides[2:])
    # the column that multiplies the pivot row: the one below the pivot, or the row's own
    multiplier = blocks[:, 1:, :1] if floor is not None else blocks[:, 0, 1:, None]
    columns = list(zip(
        blocks[:, :, 0], blocks[:, 0, 0], multiplier, blocks[:, 0, 1:], blocks[:, 1:, 1:]))
    magnitude = np.empty((kl + 1,) + batch)
    scaled, product = np.empty_like(blocks[0, 0, 1:]), np.empty_like(blocks[0, 1:, 1:])
    # numpy fuses a complex product (an FMA) in its SIMD loops but not in the
    # scalar loop it takes for a single one, so where a pivoted update is one
    # product per batch element, each is formed alone, as in a batch of one
    alone = [(..., *s) for s in np.ndindex(batch)] if kl * (width - kl - 1) == 1 else []

    def eliminate(stop: int | None = None) -> np.ndarray:
        low, found = np.full(batch, np.inf), []
        for j, (candidates, pivot, column, row, rest) in enumerate(columns[:stop]):
            if floor is None:
                np.minimum(low, pivot, out=low)
                np.multiply(column, np.divide(row, pivot, out=scaled), out=product)
            else:
                q = np.abs(candidates, out=magnitude).argmax(axis=0)
                found.append(q)
                if np.count_nonzero(q):
                    for s in zip(*q.nonzero()):
                        block, k = blocks[(j, ..., *s)], q[s]
                        block[0], block[k] = block[k], block[0].copy()
                if np.count_nonzero(pivot) < pivot.size:
                    pivot[pivot == 0] = floor
                np.divide(column, pivot, out=column)
                for s in alone:
                    np.multiply(column[s], row[s], out=product[s])
                if not alone:
                    np.multiply(column, row, out=product)
            np.subtract(rest, product, out=rest)
        return low if floor is None else np.array(found)

    return blocks, eliminate


class _BandLU:
    """LU with partial pivoting of A - zI for a band (kl, ku, rows) of A.

    The band is laid out as IntervalOperator.band; a generic matrix's band
    in that layout, as the tests give, takes the same path. Row i
    of A - zI is kept as row i of a complex buffer, (A - zI)[i, i - kl + c]
    in column c, which is row ku + i of the band, over the width
    2 kl + ku + 1 that row interchanges can fill; kl zero rows below keep
    every block inside the buffer. _band_elimination factors it as a batch
    of one shift: column j's elimination works on the (kl + 1) x
    (kl + ku + 1) block (A - zI)[j:j+kl+1, j:j+kl+ku+1], a pivot search
    over its kl + 1 rows, a swap, a scale and a rank-1 update. The
    interchanges are kept in LAPACK's gbtrf form: a later swap leaves the
    multipliers of earlier columns where they are, so
    A - zI = P_0 L_0 P_1 L_1 ... P_{n-1} L_{n-1} U. An exact zero pivot,
    which a diagonal A gives at any of its eigenvalues, is replaced by
    floor = eps ||A||_1 (1 for A = 0); partial pivoting has then left
    zeros under it, so its multipliers stay zero.
    """

    def __init__(self, band: tuple[int, int, np.ndarray], z: complex):
        kl, ku, A = band
        n = A.shape[0] - kl - ku
        rows = np.zeros((n + kl, 2 * kl + ku + 1, 1), dtype=np.complex128)
        rows[:n, :kl + ku + 1, 0] = A[ku:ku + n]
        rows[:n, kl] -= z
        # ||A||_1 from the column sums, diagonal d read by column
        column_sums = sum(np.abs(A[ku - d:ku - d + n, kl + d]) for d in range(-kl, ku + 1))
        self.floor = _EPS * float(column_sums.max()) or 1.0
        blocks, eliminate = _band_elimination(rows, kl, self.floor)
        self.pivots = eliminate()[:, 0].tolist()
        self.n, self.kl, self.ku = n, kl, ku
        # the multipliers of column j, rows j+1..j+kl, and U[j, j..j+kl+ku]
        self.lower, self.upper = blocks[:, 1:, 0, 0], blocks[:, 0, :, 0]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """A multiple of (A - zI)^-1 b.

        The back substitution rescales its vector by a power of two when an
        entry passes _SOLVE_RESCALE, so repeated floor pivots (a Jordan
        block) cannot overflow.
        """
        n, kl, ku = self.n, self.kl, self.ku
        x = np.concatenate([b, np.zeros(kl + ku, dtype=np.complex128)])
        for j, (q, lower) in enumerate(zip(self.pivots, self.lower)):
            if q:
                x[j], x[j + q] = x[j + q], x[j]
            x[j + 1:j + kl + 1] -= lower * x[j]
        x[n:] = 0.0
        upper = self.upper
        for j in range(n - 1, -1, -1):
            xj = (x[j] - upper[j, 1:] @ x[j + 1:j + kl + ku + 1]) / upper[j, 0]
            x[j] = xj
            if abs(xj) > _SOLVE_RESCALE:
                x *= 1.0 / _SOLVE_RESCALE
        return x[:n]

    def solve_adjoint(self, c: np.ndarray) -> np.ndarray:
        """A multiple of (A - zI)^-H c: U^H first, then each L_j^H P_j from the last.

        Its forward substitution rescales as solve's back substitution does.
        """
        n, kl, ku = self.n, self.kl, self.ku
        y = np.concatenate([c, np.zeros(kl + ku, dtype=np.complex128)])
        for j, u in enumerate(self.upper):
            yj = y[j] / u[0].conj()
            y[j] = yj
            y[j + 1:j + kl + ku + 1] -= u[1:].conj() * yj
            if abs(yj) > _SOLVE_RESCALE:
                y *= 1.0 / _SOLVE_RESCALE
        y[n:] = 0.0
        for j in range(n - 1, -1, -1):
            y[j] -= np.vdot(self.lower[j], y[j + 1:j + kl + 1])
            q = self.pivots[j]
            if q:
                y[j], y[j + q] = y[j + q], y[j]
        return y[:n]


def _eigen_residual(A: np.ndarray, z: complex, v: np.ndarray) -> float:
    """||A v - z v|| / ||v||, with A kept real: no complex copy of A is made."""
    Av = A @ v.real + 1j * (A @ v.imag)
    return float(np.linalg.norm(Av - z * v) / np.linalg.norm(v))


def _certify(A: np.ndarray, band: tuple, z: complex) -> tuple[float, float]:
    """(eigen-residual, condition estimate) of the eigenvalue z of A, by inverse iteration.

    Two solves with the one band LU of A - zI, from A's band, run from a
    fixed start vector, and the smaller residual is kept: on a very
    non-normal A the second step can be worse (Lax-Wendroff 0.5, k=1,
    J=200 gives 8.9e-16, then 1.6e-3). One adjoint solve from the same start gives the left
    vector y, and 1/|y^H x| for unit x and y estimates the eigenvalue's
    condition number kappa_1 (inf when y^H x is 0).
    """
    n = A.shape[0]
    lu = _BandLU(band, z)
    start = np.full(n, 1.0 / math.sqrt(n), dtype=np.complex128)
    steps = []
    x = start
    for _ in range(2):
        x = lu.solve(x)
        x /= np.linalg.norm(x)
        steps.append((_eigen_residual(A, z, x), x))
    residual, x = min(steps, key=lambda step: step[0])
    y = lu.solve_adjoint(start)
    overlap = abs(np.vdot(y, x)) / np.linalg.norm(y)
    return residual, float(1.0 / overlap) if overlap > 0.0 else math.inf


def _solve(entries: np.ndarray, band: tuple) -> tuple[np.ndarray, float, float]:
    """(read-only eigenvalues by decreasing modulus, residual, condition) of A.

    entries and band are A's: an interval operator's, or any matrix's.
    """
    w = np.linalg.eigvals(entries)
    w = w[np.argsort(-np.abs(w))]
    w.setflags(write=False)
    return (w, *_certify(entries, band, complex(w[0])))


def spectral_radius(
    A: IntervalOperator,
    method: str = "dense",
    n_leading: int = 10,
) -> SpectralReport:
    """An interval operator's spectral radius, certified by banded inverse iteration.

    np.linalg.eigvals gives every eigenvalue of A.entries and no
    eigenvectors. The dominant one, z, is certified by _certify: its
    eigen-residual from inverse iteration with a band LU of A - zI, copied
    from A.band, and an estimate of its condition number from one adjoint
    solve. modulus_ratio is |lambda_2| / |lambda_1| of the sorted
    eigenvalues: 1 for a dominant complex-conjugate pair or a zero
    spectrum, 0 for a nonzero 1 x 1 matrix. An A that is not an
    IntervalOperator raises TypeError first. 'dense' is the only method; a
    matrix of dimension above MAX_DENSE_DIMENSION or an n_leading that is
    not a non-negative integer raises ValueError; each is checked before
    any solve or lookup.

    The eigenvalues and certificate are memoized by (scheme, k, J) for the
    _SOLVED_SIZE most recently used triples, so an equal operator built
    again is not solved again and gets the same certificate; each call
    still builds its own report with its own n_leading.
    """
    if not isinstance(A, IntervalOperator):
        raise TypeError(f"spectral_radius takes an IntervalOperator, not {type(A).__name__}")
    if method != "dense":
        raise ValueError(f"unknown method {method!r}")
    if isinstance(n_leading, bool) or not isinstance(n_leading, int | np.integer) or n_leading < 0:
        raise ValueError(f"n_leading must be a non-negative integer, not {n_leading!r}")
    _check_dense(A.n)
    key = (A.scheme, A.k, A.J)
    solved = _SOLVED.pop(key, None)
    if solved is None:
        solved = _solve(A.entries, A.band)
    _SOLVED[key] = solved
    if len(_SOLVED) > _SOLVED_SIZE:
        _SOLVED.popitem(last=False)
    w, residual, condition = solved
    rho = float(abs(w[0]))
    second = float(abs(w[1])) if w.size > 1 else 0.0
    leading = tuple(complex(z) for z in w[:n_leading])
    return SpectralReport(
        rho=rho, leading_eigenvalues=leading, method=method,
        residual=residual, eigen_condition=condition,
        modulus_ratio=second / rho if rho > 0.0 else 1.0,
    )


def operator_norm(A: IntervalOperator) -> float:
    """An interval operator's l2-induced norm (largest singular value), by dense SVD.

    An A that is not an IntervalOperator raises TypeError.
    """
    if not isinstance(A, IntervalOperator):
        raise TypeError(f"operator_norm takes an IntervalOperator, not {type(A).__name__}")
    return float(np.linalg.norm(A.entries, 2))


def _gram_band(band: tuple[int, int, np.ndarray]) -> np.ndarray:
    """The upper band of M = A^T A as a (b + 1) x n array G[e, i] = M[i, i + e], b = kl + ku.

    band is A's (kl, ku, rows), IntervalOperator.band. Row l of A holds
    A[l, l + d] for d = -kl..ku, and each product of two of those
    diagonals adds to one diagonal of M, so the band costs O(n b^2) and no
    dense product is formed. G[e, i] is 0 where i + e >= n.
    """
    kl, ku, rows = band
    n = rows.shape[0] - kl - ku
    G = np.zeros((kl + ku + 1, n))
    for d in range(-kl, ku + 1):
        # column c of A meets diagonal d in row c - d: M[c, c + e] gains A[c-d, c] A[c-d, c+e]
        window = rows[ku - d:ku - d + n]
        for e in range(ku - d + 1):
            G[e] += window[:, kl + d] * window[:, kl + d + e]
    return G


def _gram_bisect(chunk: list[tuple[np.ndarray, float, float]]) -> np.ndarray:
    """sqrt(lambda_max(M)) for each (band, lo, hi) of _gram_norms, bisecting from [lo, hi].

    The bands are laid side by side in the chunk's order, negated, as
    upper[i, e, c] = -M_c[i, i + e], padded to the widest and the longest
    band with zeros: a shorter matrix goes on as M = 0 rows, whose pivot
    t > 0 never fails. Each pass tests _GRAM_SHIFTS shifts evenly spaced
    inside every open bracket, which becomes the gap between the smallest
    shift that passed and the one below it. A pass factors every t I - M
    through one work block of _GRAM_ROWS + b rows by 2 b + 1 columns by
    (shifts, chunk), in _BandLU's row layout, with the symmetric mode of one
    _band_elimination: it writes the next _GRAM_ROWS rows of t I - M below
    the b rows carried over, eliminates the first _GRAM_ROWS and carries
    the last b to the top. The chunk is emptied, so that its bands are
    freed once upper holds them.
    """
    bands, lo, hi = zip(*chunk)
    lo, hi = np.array(lo), np.array(hi)
    chunk.clear()
    b, n = max(G.shape[0] for G in bands) - 1, max(G.shape[1] for G in bands)
    upper = np.zeros((-(-n // _GRAM_ROWS) * _GRAM_ROWS + b, b + 1, len(bands)))
    for c, G in enumerate(bands):
        np.negative(G.T, out=upper[:G.shape[1], :G.shape[0], c])
    del bands
    work = np.zeros((_GRAM_ROWS + b, 2 * b + 1, _GRAM_SHIFTS, lo.size))
    eliminate = _band_elimination(work, b)[1]
    fractions = np.arange(1, _GRAM_SHIFTS + 1)[:, None] / (_GRAM_SHIFTS + 1)
    columns = np.arange(lo.size)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while (open_ := hi - lo > _GRAM_CLOSED * hi).any():
            t = lo + (hi - lo) * fractions
            low = np.full(t.shape, np.inf)
            for start in range(0, n, _GRAM_ROWS):
                top = b if start else 0  # the rows above top were carried over
                work[top:, b:] = upper[start + top:start + b + _GRAM_ROWS, :, None]
                work[top:, b] += t
                np.minimum(low, eliminate(min(_GRAM_ROWS, n - start)), out=low)
                work[:b] = work[_GRAM_ROWS:]  # the rows still to be eliminated
            # the smallest shift that passed, or hi, and the shift below it, or lo
            first = np.vstack([low > 0.0, np.ones((1, lo.size), bool)]).argmax(axis=0)
            shifts = np.vstack([lo[None], t, hi[None]])
            hi = np.where(open_, shifts[first + 1, columns], hi)
            lo = np.where(open_, shifts[first, columns], lo)
    return np.sqrt(hi)


def _gram_norms(ops: Iterable[IntervalOperator]) -> np.ndarray:
    """||A||_2 of each interval operator, in input order, by bisection on its banded Gram matrix.

    ||A||^2 is the largest eigenvalue of M = A^T A, and t I - M is positive
    definite exactly when t > lambda_max(M), which is when its LDL^T
    without pivoting has only positive pivots. So each norm comes from a
    bisection on t, bracketed by lo = max_i M[i, i] <= lambda_max (a
    diagonal entry of a symmetric matrix) and hi = the largest Gershgorin
    row sum of |M| >= lambda_max. The bisection stops once
    hi - lo <= 4 eps hi and returns sqrt(hi): the smallest shift whose
    factorization succeeded, or the Gershgorin bound if none did. LDL^T is
    backward stable, so a success at t shows that t I - M + E is positive
    definite for an E of the order of b eps ||M||; hi is thus an upper
    bound on lambda_max up to that rounding and the rounding of M. That is
    the conservative end for a check of ||A|| <= 1 + tol. A NaN or
    non-positive pivot fails the test. A bracket that is closed from the
    start, such as the identity's lo = hi = 1, is settled as sqrt(hi)
    without a factorization.

    The factorizations are the symmetric mode of _band_elimination, the
    kernel whose pivoted mode is _BandLU, batched over shifts x operators.
    Each Gram band is formed in O(n b^2) from the operator's own band, the
    one _BandLU reads, and no dense matrix is built. The operators are
    streamed, and only the bands of one chunk of _GRAM_CHUNK open brackets
    are held at a time. A chunk pads its bands to its longest, but no norm
    depends on the other operators of its chunk, so a permuted stream gives
    the permuted norms bit for bit; operators of about one size in a row
    pad least.
    """
    norms: list[float] = []
    chunk: list[tuple[np.ndarray, float, float]] = []
    slots: list[int] = []  # where the chunk's norms go

    def bisect() -> None:
        for i, norm in zip(slots, _gram_bisect(chunk)):  # empties chunk
            norms[i] = norm
        slots.clear()

    for A in ops:
        G = _gram_band(A.band)
        magnitudes = np.abs(G)
        row_sums = magnitudes.sum(axis=0)
        for e in range(1, G.shape[0]):
            row_sums[e:] += magnitudes[e, :-e]
        lo, hi = float(G[0].max()), float(row_sums.max())
        norms.append(math.sqrt(hi))  # a closed bracket's norm, as _gram_bisect returns it
        if hi - lo > _GRAM_CLOSED * hi:
            chunk.append((G, lo, hi))
            slots.append(len(norms) - 1)
            if len(chunk) == _GRAM_CHUNK:
                bisect()
    if chunk:
        bisect()
    return np.array(norms)


def _certified_norm2(B: np.ndarray, v: np.ndarray) -> tuple[float, np.ndarray, bool]:
    """||B||_2 by power steps on B^T B from the unit vector v, else by SVD.

    For a unit v with theta = ||Bv||^2 and r = B^T B v - theta v, the top
    eigenvalue of B^T B is at least theta, so the second is at most
    ||B||_F^2 - theta. When the gap 2 theta - ||B||_F^2 (less a rounding
    allowance) is positive, Kato-Temple bounds sigma_1^2 within
    [theta, theta + ||r||^2 / gap]; sqrt(theta) is accepted only when that
    bracket is within 4 eps relative. The steps stop early once the gap is
    not positive and theta grew by at most 4 eps theta over the last step:
    from there power steps cannot raise theta past rounding, so no later
    step can certify. A ||Bv||^2 or ||B||_F^2 that overflows certifies
    nothing, and neither warns nor leaves a non-finite iterate. Returns the
    norm, the last iterate (the next power's start vector, always finite)
    and whether the dense SVD supplied the norm.
    """
    frob2 = float(np.vdot(B, B))  # BLAS: an overflow reads inf, unwarned
    allowance = 4.0 * B.shape[0] * _EPS * frob2
    last = -math.inf
    # a huge B overflows ||Bv||^2, B^T B v or its square; each is caught below
    with np.errstate(over="ignore"):
        for _ in range(_CERTIFY_ITERATIONS):
            w = B @ v
            theta = float(w @ w)
            if not theta + frob2 < math.inf:
                break  # ||Bv||^2 or ||B||_F^2 overflowed: no certificate
            gap = 2.0 * theta - frob2 - allowance
            if gap <= 0.0 and theta - last <= 4.0 * _EPS * theta:
                break  # stalled below the gap
            g = B.T @ w
            r = g - theta * v
            if gap > 0.0 and float(r @ r) <= 4.0 * _EPS * theta * gap:
                return math.sqrt(theta), v, False
            g_norm = math.sqrt(float(g @ g))
            if not 0.0 < g_norm < math.inf:
                break  # Bv = 0 or B^T B v overflowed: no direction to iterate on
            v = g / g_norm
            last = theta
    return float(np.linalg.norm(B, 2)), v, True


def power_bound_probe(A: IntervalOperator, n_max: int) -> PowerBoundResult:
    """Compute ||A^n|| for n = 1..n_max with renormalized products.

    Powers are accumulated with per-step renormalization by a power of two
    and a base-2 exponent ledger, so the rescaling is exact and the probe
    survives growth and decay far beyond float range; only the reported
    norms themselves can overflow, which raises PowerBoundOverflow carrying
    the partial series. Each norm comes from a few power steps warm-started
    from the previous power's vector and is kept only under a Kato-Temple
    certificate; otherwise the dense SVD supplies it.

    The probe stops computing once the rest of the series is provably 0.0
    and fills it with zeros: when a power is exactly zero (A is nilpotent),
    or when the certified ||A|| is below 1 by more than the chain's rounding
    and the exponent ledger has fallen to 2^-1075. Those zeros are proven,
    not computed, so n_svd counts only the powers computed before them.

    An A that is not an IntervalOperator raises TypeError first, and an
    n_max below 1 raises ValueError. The loop is _power_bounds on A.entries,
    which the operator's band keeps real, square and finite.
    """
    if not isinstance(A, IntervalOperator):
        raise TypeError(f"power_bound_probe takes an IntervalOperator, not {type(A).__name__}")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return _power_bounds(A.entries, n_max)


def _power_bounds(entries: np.ndarray, n_max: int) -> PowerBoundResult:
    """power_bound_probe's loop over the powers of a real square finite matrix."""
    size = entries.shape[0]
    B = np.eye(size)
    v = np.full(size, 1.0 / math.sqrt(size))
    n_svd = 0
    exponent = 0  # A^n = 2**exponent * B
    series: list[float] = []
    sup = 0.0
    argmax_n = 1
    for n in range(1, n_max + 1):
        B = entries @ B
        s, v, from_svd = _certified_norm2(B, v)
        n_svd += from_svd
        if n == 1:
            # A certified norm is within a factor 1 + 4 size eps of the true
            # norm of the matrix it was taken from (the 4 eps Kato-Temple
            # bracket plus the rounding of theta and of the unit start
            # vector, or LAPACK's backward error), and a product adds
            # ||fl(AB) - AB|| <= size^2 eps ||A|| ||B|| (gemm) plus, once
            # entries underflow, at most size^2 2^-1074. Every scaled B has
            # a certified norm below 1, so each later certified norm is at
            # most s_1 (1 + 4 size eps)^3 (1 + size^2 eps) + size^2 2^-1074,
            # to first order s_1 (1 + 13 size^2 eps) + size^2 2^-1074, and so
            # below 1 when s_1 < 1 - 16 size^2 eps. Then frexp gives e <= 0 from
            # here on and the exponent ledger never rises. A decaying
            # non-normal A with ||A|| > 1 can grow again (Trefethen and
            # Embree 2005), so observed decay alone never ends the probe.
            contracting = s < 1.0 - 16.0 * size * size * _EPS
        if s > 0.0 and exponent * _LN2 + math.log(s) > 700.0:
            # n_reached counts the norms actually recorded, n - 1 of them
            raise PowerBoundOverflow(
                f"||A^{n}|| overflows float range (gross instability)",
                n_reached=n - 1, series=series,
            )
        value = math.ldexp(s, exponent)
        series.append(value)
        if value > sup:
            sup = value
            argmax_n = n
        # scale B into [0.5, 1) in norm by a power of two: exact, no rounding
        e = math.frexp(s)[1]
        B = np.ldexp(B, -e)
        exponent += e
        # A zero B stays zero. Under a contraction, every later norm is
        # ldexp(s, E) with s < 1 and E <= exponent, below 2^-1075 once the
        # ledger is: it rounds to 0.0, as this power's value already has.
        if s == 0.0 or contracting and exponent <= -1075:
            series.extend([0.0] * (n_max - n))
            break
    return PowerBoundResult(
        sup_norm=sup, argmax_n=argmax_n, series=tuple(series), n_svd=n_svd
    )


def rho_vs_J_scan(scheme: Scheme, k: int, J_list: list[int]) -> list[ScanRow]:
    """Spectral radius versus J with the normalized excess J*(rho - 1).

    Each row is a bare IntervalOperator through spectral_radius, so a
    (scheme, k, J) already solved in this process is not solved again and
    its dense entries are never built. No monotonicity is implied:
    the excess is typically violently sensitive to J, flipping between
    stable and unstable as J varies by 1.
    """
    rows = []
    for J in J_list:
        rep = spectral_radius(IntervalOperator(scheme, k, J))
        rows.append(ScanRow(J=J, rho=rep.rho, normalized_excess=J * (rep.rho - 1.0)))
    return rows
