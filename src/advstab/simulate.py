"""Time-stepping experiments, growth-slope regression, energy identity check.

A run records the weighted l2 norm (dx * sum u_j^2)^(1/2) at every step and
optional strided snapshots. Slopes of ln-norm versus time are extracted by
ordinary least squares over an explicit, always-reported window.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .operators import Grid, IntervalOperator, step_interval
from .stencil import Scheme, builtin

__all__ = [
    "InitialCondition",
    "RegressionResult",
    "SimulationRecord",
    "build_initial",
    "default_window",
    "exact_solution",
    "growth_slope",
    "lemma1_identity_residual",
    "run",
]

# growth_slope fits no window with fewer finite samples
_MIN_FIT_SAMPLES = 10
# cells per quad_vec call in build_initial: a Gauss-Kronrod pass holds 21
# vectors of this many floats, under 1 MB, where one call over a large grid
# would hold them grid-sized
_CELL_BLOCK = 4096


@dataclass(frozen=True)
class InitialCondition:
    """Initial data builder description.

    kind 'gaussian' is exp(-width_param*(x - center)^2); kind 'wavepacket'
    modulates that envelope by cos(theta*(s - center/dx)), s = x/dx, so the
    grid frequency theta is resolved exactly at the nodes s = j. sampling
    is 'point' (default) or 'cell_average' (see build_initial).
    """

    kind: str
    center: float = 0.5
    width_param: float = 50.0
    packet_theta: float | None = None
    sampling: str = "point"

    def __post_init__(self) -> None:
        if self.kind not in ("gaussian", "wavepacket"):
            raise ValueError(f"unknown initial condition kind {self.kind!r}")
        if self.kind == "wavepacket" and self.packet_theta is None:
            raise ValueError("wavepacket initial condition requires packet_theta")
        if self.sampling not in ("point", "cell_average"):
            raise ValueError(f"unknown sampling {self.sampling!r}")
        theta = 0.0 if self.packet_theta is None else self.packet_theta
        if not all(map(math.isfinite, (self.center, self.width_param, theta))):
            raise ValueError("center, width_param and packet_theta must be finite")
        if self.width_param < 0:
            raise ValueError("width_param must be a finite number >= 0")

    def describe(self) -> dict:
        d = {
            "kind": self.kind,
            "center": self.center,
            "width_param": self.width_param,
            "sampling": self.sampling,
        }
        if self.kind == "wavepacket":
            d["packet_theta"] = self.packet_theta
        return d


@dataclass(frozen=True)
class SimulationRecord:
    """Norms, snapshots, run parameters; t_n = n dt for the norm l2_norms[n]."""

    l2_norms: np.ndarray
    snapshots: tuple[tuple[int, np.ndarray], ...]
    params: dict

    @property
    def truncated(self) -> bool:
        """Whether the last norm is non-finite; run stops at its first non-finite one."""
        return not math.isfinite(self.l2_norms[-1])


@dataclass(frozen=True)
class RegressionResult:
    """Least-squares slope of ln-norm versus time over a window."""

    slope: float
    intercept: float
    window: tuple[float, float]
    r_squared: float | None


def _envelope(d: np.ndarray, w: float) -> np.ndarray:
    """exp(-w d^2) for w >= 0 at the offsets d, also where d^2 leaves float range.

    Ordinary offsets take exactly that formula. Where d^2 overflows the
    exponent is -(sqrt(w) d)^2 instead, exact for a tiny w; w = 0 gives 1
    everywhere, where the formula would read 0 * inf = NaN.
    """
    if w == 0.0:
        return np.ones_like(d)
    with np.errstate(over="ignore"):
        square = d ** 2
        exponent = -w * square
        far = np.isinf(square)
        exponent[far] = -np.square(math.sqrt(w) * d[far])
    return np.exp(exponent)


def _profile(ic: InitialCondition, dx: float, s: np.ndarray) -> np.ndarray:
    """The initial condition at x = s dx, for grid coordinates s (an array)."""
    envelope = _envelope(s * dx - ic.center, ic.width_param)
    if ic.kind == "gaussian":
        return envelope
    # carrier phase formed from grid coordinates: theta*(s - center/dx) avoids
    # the precision loss of evaluating cos((theta/dx)*(x - center))
    carrier = np.cos(float(ic.packet_theta) * (s - ic.center / dx))
    return carrier * envelope


def build_initial(ic: InitialCondition, grid: Grid) -> np.ndarray:
    """Sample the initial condition on x_0..x_J (point or cell average).

    A point sample is the profile at s = j; a cell average is its integral
    over s in [j, j + 1], by one vector quadrature per _CELL_BLOCK cells.
    It refines until its error estimate is below the larger of 1e-14 and
    1e-10 times the block's largest average; a smooth profile meets that on the first
    Gauss-Kronrod pass, whose error is near rounding.
    """
    dx, n = grid.dx, grid.J + 1
    if ic.sampling == "point":
        return _profile(ic, dx, np.arange(n, dtype=np.float64))
    from scipy.integrate import quad_vec  # the library's only scipy use
    out = np.empty(n)
    for lo in range(0, n, _CELL_BLOCK):
        cells = np.arange(lo, min(lo + _CELL_BLOCK, n), dtype=np.float64)
        out[lo:lo + cells.size] = quad_vec(lambda t: _profile(ic, dx, cells + t), 0.0, 1.0,
                                           epsabs=1e-14, epsrel=1e-10, norm="max")[0]
    return out


def run(
    scheme: Scheme,
    k: int,
    grid: Grid,
    ic: InitialCondition,
    n_steps: int,
    snapshot_stride: int = 0,
) -> SimulationRecord:
    """Advance n_steps from the initial condition, recording norms each step.

    Deterministic: identical inputs produce bit-identical records. The run
    stops at the first non-finite norm, which it keeps, so the record
    ends there and reads as truncated. The grid's lam must be the scheme's,
    so that dt is the scheme's time step.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if grid.lam != scheme.lam_float:
        raise ValueError(f"grid lam = {grid.lam} is not the scheme's lambda = {scheme.lam}")
    if snapshot_stride < 0:
        raise ValueError("snapshot_stride must be >= 0")
    op = IntervalOperator(scheme, k, grid.J)
    u = build_initial(ic, grid)
    dx = grid.dx
    dt = grid.dt
    sqnorms = np.empty(n_steps + 1)  # dx * sum u_j^2, then the norms
    sqnorms[0] = dx * np.dot(u, u)
    snapshots: list[tuple[int, np.ndarray]] = []
    if snapshot_stride:
        snapshots.append((0, u.copy()))
    n_done = 0
    # a block runs on past an overflow (inf - inf is NaN there), and dx > 1
    # can overflow the product alone; the stop below catches both, so numpy
    # must not report them
    with np.errstate(over="ignore", invalid="ignore"):
        for states in op.advance(u, n_steps):
            m = states.shape[0]
            sq = sqnorms[n_done + 1:n_done + 1 + m]
            # one batched row-by-row dot: the same ddot, bit for bit, as np.dot
            np.matmul(states[:, None, :], states[:, :, None], out=sq[:, None, None])
            sq *= dx
            bad = np.flatnonzero(~np.isfinite(sq))
            kept = int(bad[0]) + 1 if bad.size else m
            if snapshot_stride:
                first = n_done + snapshot_stride - n_done % snapshot_stride
                for n in range(first, n_done + kept + 1, snapshot_stride):
                    snapshots.append((n, states[n - n_done - 1].copy()))
            n_done += kept
            if bad.size:
                break
    # a truncated run keeps a copy of its own rows only; sqrt runs in place
    l2 = sqnorms if n_done == n_steps else sqnorms[:n_done + 1].copy()
    np.sqrt(l2, out=l2)
    params = {
        "scheme": scheme.name,
        "r": scheme.r,
        "p": scheme.p,
        "coefficients": [str(c) for c in scheme.coefficients],
        "lambda": str(scheme.lam),
        "a": str(scheme.velocity),
        "k": k,
        "J": grid.J,
        "L": grid.L,
        "dx": dx,
        "dt": dt,
        "ic": ic.describe(),
        "n_steps": n_steps,
        "snapshot_stride": snapshot_stride,
    }
    return SimulationRecord(
        l2_norms=l2,
        snapshots=tuple(snapshots),
        params=params,
    )


def default_window(record: SimulationRecord) -> tuple[float, float]:
    """(max(t_end / 2, 2 L), t_end): the last half of the run, from t = 2 L on.

    t_end = (size - 1) dt is the last recorded time, the product the record
    CSV writes in its last t cell. A domain traversal takes L / |a|, so
    t = 2 L is two of them only at |a| = 1; Lax-Wendroff at a = 0.5 would
    need 4 L.
    """
    t_end = (record.l2_norms.size - 1) * record.params["dt"]
    L = float(record.params.get("L", 1.0))
    return (max(t_end / 2.0, 2.0 * L), t_end)


def _window_samples(
    record: SimulationRecord, t0: float, t1: float
) -> tuple[np.ndarray, np.ndarray]:
    """Fresh arrays (t, ln l2) of the samples with t0 <= t_n <= t1 and a finite ln.

    t_n = n dt is monotone in n, so two bisections over those products
    find the index range lo..hi that the comparisons select, also
    for NaN or infinite bounds and reversed windows. ln is finite exactly
    where 0 < l2 < inf. Only that slice of the record is read, and every
    array made is window-sized.
    """
    size, dt = record.l2_norms.size, record.params["dt"]
    lo = bisect.bisect_left(range(size), True, key=lambda n: n * dt >= t0)
    hi = bisect.bisect_left(range(size), True, key=lambda n: not n * dt <= t1)
    l2 = record.l2_norms[lo:hi]
    keep = (l2 > 0.0) & (l2 < math.inf)
    count = int(np.count_nonzero(keep))
    if count < _MIN_FIT_SAMPLES:
        raise ValueError(f"window [{t0}, {t1}] holds {count} finite samples; "
                         f"need >= {_MIN_FIT_SAMPLES}")
    t = np.arange(lo, lo + l2.size, dtype=np.float64)
    if count < l2.size:
        t, y = t[keep], l2[keep]
    else:
        y = l2.copy()
    t *= dt
    return t, np.log(y, out=y)


def growth_slope(
    record: SimulationRecord, window: tuple[float, float] | None = None
) -> RegressionResult:
    """Least-squares line through (t_n, ln l2_n) on the window (default: default_window).

    The samples are those with t0 <= t_n <= t1 and a finite ln, that is a
    norm in (0, inf); fewer than _MIN_FIT_SAMPLES raise ValueError. The fit
    is centered: slope = Sxy / Sxx over t and ln centered on their means,
    intercept = mean(ln) - slope mean(t), and ss_res from the residual.
    r_squared is None when the ln variance is at rounding scale. Memory:
    the record is only sliced; the fit holds two window-sized float arrays,
    centered and reduced in place.
    """
    if window is None:
        window = default_window(record)
    t0, t1 = float(window[0]), float(window[1])
    t, y = _window_samples(record, t0, t1)
    tm, ym = float(t.mean()), float(y.mean())
    scale = float(np.dot(y, y))
    t -= tm
    y -= ym
    ss_tot = float(np.dot(y, y))
    slope = float(np.dot(t, y)) / float(np.dot(t, t))
    t *= slope
    y -= t  # the residual
    ss_res = float(np.dot(y, y))
    # variance at rounding scale (eps^2 * sum y^2) is noise, not signal
    r2 = None if ss_tot <= 1e-28 * max(scale, 1e-300) else 1.0 - ss_res / ss_tot
    return RegressionResult(
        slope=slope, intercept=ym - slope * tm, window=(t0, t1), r_squared=r2
    )


def exact_solution(
    f: Callable[[float], float], a: float, t: float, grid: Grid
) -> np.ndarray:
    """Point samples of f(x_j - a t) with f extended by zero left of 0."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    out = np.empty(grid.J + 1)
    dx = grid.dx
    for j in range(grid.J + 1):
        arg = j * dx - a * t
        out[j] = float(f(arg)) if arg >= 0.0 else 0.0
    return out


def lemma1_identity_residual(u: np.ndarray, lam_a: float, nu: float) -> float:
    """Residual of the summed energy balance for one three-point step.

    v is one interval step of the three-point scheme with k = 1, the shipped
    step_interval, so its ghost values are u_{-1} = 0 and u_{J+1} = u_J.
    The decrease sum(v^2) - sum(u^2) equals a weighted combination of first
    and second difference energies of u extended by those ghosts, plus two
    boundary terms. The balance is algebraic, holding for every real
    (lam_a, nu), not only in the stable parameter box; the returned value
    is |lhs - rhs|.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 1 or u.size < 2:
        raise ValueError("state must be one-dimensional with at least 2 entries")
    la = float(lam_a)
    nu = float(nu)
    v = step_interval(builtin("three-point", lam_a=la, nu=nu), 1, u)
    ue = np.concatenate([[0.0], u, [u[-1]]])
    d_minus = ue[1:-1] - ue[:-2]
    d_plus = ue[2:] - ue[1:-1]
    d2 = ue[2:] - 2.0 * ue[1:-1] + ue[:-2]
    lhs = float(np.sum(v * v) - np.sum(u * u))
    rhs = (
        -(nu - la * la) / 2.0 * float(np.sum(d_minus**2) + np.sum(d_plus**2))
        + (nu * nu - la * la) / 4.0 * float(np.sum(d2**2))
        - la * float(u[-1] ** 2)
        - nu * (1.0 - la) / 2.0 * float(u[0] ** 2)
    )
    return abs(lhs - rhs)
