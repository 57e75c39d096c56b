"""Time-stepping experiments, growth-slope regression, energy identity check.

A run records the weighted l2 norm (dx * sum u_j^2)^(1/2) at every step and
optional strided snapshots. Slopes of ln-norm versus time are extracted by
ordinary least squares over an explicit, always-reported window.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .operators import Grid, IntervalOperator, _atomic_write_bytes, step_interval
from .stencil import Scheme, builtin

__all__ = [
    "InitialCondition",
    "OVERFLOW_RATIO",
    "RegressionResult",
    "SimulationRecord",
    "build_initial",
    "default_window",
    "exact_solution",
    "growth_slope",
    "lemma1_identity_residual",
    "run",
    "save_record_csv",
    "save_sidecar_json",
    "save_snapshots_csv",
]

# a run is truncated once the norm exceeds this multiple of the initial norm
OVERFLOW_RATIO = 1e300


@dataclass(frozen=True)
class InitialCondition:
    """Initial data builder description.

    kind 'gaussian' is exp(-width_param*(x - center)^2); kind 'wavepacket'
    modulates that envelope by cos(theta*(j - center/dx)) so the grid
    frequency theta is resolved exactly at the nodes. sampling is 'point'
    (default) or 'cell_average'.
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
    """Norms (times and ln-norms derive from them), snapshots, run parameters."""

    l2_norms: np.ndarray
    snapshots: tuple[tuple[int, np.ndarray], ...]
    params: dict
    truncated: bool

    @property
    def times(self) -> np.ndarray:
        """t_n = n dt for every recorded step."""
        return np.arange(self.l2_norms.size) * self.params["dt"]

    @property
    def ln_l2_norms(self) -> np.ndarray:
        """ln of the norms; NaN where a norm is 0."""
        l2 = self.l2_norms
        # log only where positive: no log(0) warning and no full-size temporary
        return np.log(l2, out=np.full(l2.shape, np.nan), where=l2 > 0.0)


@dataclass(frozen=True)
class RegressionResult:
    """Least-squares slope of ln-norm versus time over a window."""

    slope: float
    intercept: float
    window: tuple[float, float]
    r_squared: float | None


def _continuum_function(ic: InitialCondition, grid: Grid) -> Callable[[float], float]:
    c, w = ic.center, ic.width_param
    if ic.kind == "gaussian":
        return lambda x: math.exp(-w * (x - c) ** 2)
    theta = float(ic.packet_theta)
    dx = grid.dx
    return lambda x: math.cos((theta / dx) * (x - c)) * math.exp(-w * (x - c) ** 2)


def build_initial(ic: InitialCondition, grid: Grid) -> np.ndarray:
    """Sample the initial condition on x_0..x_J (point or cell average)."""
    if ic.sampling == "cell_average":
        from scipy.integrate import quad  # the library's only scipy use
        f = _continuum_function(ic, grid)
        dx = grid.dx
        out = np.empty(grid.J + 1)
        for j in range(grid.J + 1):
            val, _ = quad(f, j * dx, (j + 1) * dx, epsabs=1e-14, epsrel=1e-10, limit=200)
            out[j] = val / dx
        return out
    xs = grid.xs
    if ic.kind == "gaussian":
        return np.exp(-ic.width_param * (xs - ic.center) ** 2)
    # carrier phase formed from grid indices: theta*(j - center/dx) avoids
    # the precision loss of evaluating cos((theta/dx)*(x_j - center))
    theta = float(ic.packet_theta)
    j = np.arange(grid.J + 1, dtype=np.float64)
    carrier = np.cos(theta * (j - ic.center / grid.dx))
    return carrier * np.exp(-ic.width_param * (xs - ic.center) ** 2)


def run(
    scheme: Scheme,
    k: int,
    grid: Grid,
    ic: InitialCondition,
    n_steps: int,
    snapshot_stride: int = 0,
) -> SimulationRecord:
    """Advance n_steps from the initial condition, recording norms each step.

    Deterministic: identical inputs produce bit-identical records. On norm
    overflow (ratio beyond OVERFLOW_RATIO or non-finite values) the run stops
    early and the record is marked truncated.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if snapshot_stride < 0:
        raise ValueError("snapshot_stride must be >= 0")
    op = IntervalOperator(scheme, k, grid.J)
    u = build_initial(ic, grid)
    dx = grid.dx
    dt = grid.dt
    sqnorms = np.empty(n_steps + 1)
    sqnorms[0] = np.dot(u, u)
    snapshots: list[tuple[int, np.ndarray]] = []
    if snapshot_stride:
        snapshots.append((0, u.copy()))
    guard = OVERFLOW_RATIO * max(math.sqrt(sqnorms[0]), np.finfo(float).tiny)
    truncated = False
    n_done = 0
    # a block runs on past an overflow (inf - inf is NaN there); the guard
    # below catches it, so numpy must not report it
    with np.errstate(over="ignore", invalid="ignore"):
        for states in op.advance(u, n_steps):
            m = states.shape[0]
            sq = sqnorms[n_done + 1:n_done + 1 + m]
            # one batched row-by-row dot: the same ddot, bit for bit, as np.dot
            np.matmul(states[:, None, :], states[:, :, None], out=sq[:, None, None])
            bad = np.flatnonzero(~(np.sqrt(sq) <= guard))
            kept = int(bad[0]) + 1 if bad.size else m
            if snapshot_stride:
                first = n_done + snapshot_stride - n_done % snapshot_stride
                for n in range(first, n_done + kept + 1, snapshot_stride):
                    snapshots.append((n, states[n - n_done - 1].copy()))
            n_done += kept
            if bad.size:
                truncated = True
                break
    l2 = np.sqrt(dx * sqnorms[:n_done + 1])
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
        truncated=truncated,
    )


def default_window(record: SimulationRecord) -> tuple[float, float]:
    """Last half of the run, starting no earlier than two domain traversals."""
    t_end = float(record.times[-1])
    L = float(record.params.get("L", 1.0))
    return (max(t_end / 2.0, 2.0 * L), t_end)


def growth_slope(
    record: SimulationRecord, window: tuple[float, float] | None = None
) -> RegressionResult:
    """Least-squares slope of ln-norm on the window (default: late half)."""
    if window is None:
        window = default_window(record)
    t0, t1 = float(window[0]), float(window[1])
    t = record.times
    y = record.ln_l2_norms
    mask = (t >= t0) & (t <= t1) & np.isfinite(y)
    if int(mask.sum()) < 10:
        raise ValueError(
            f"window [{t0}, {t1}] holds {int(mask.sum())} finite samples; need >= 10"
        )
    tt, yy = t[mask], y[mask]
    slope, intercept = np.polyfit(tt, yy, 1)
    fitted = slope * tt + intercept
    ss_res = float(np.sum((yy - fitted) ** 2))
    ss_tot = float(np.sum((yy - yy.mean()) ** 2))
    # variance at rounding scale (eps^2 * sum y^2) is noise, not signal
    scale = float(np.dot(yy, yy))
    r2 = None if ss_tot <= 1e-28 * max(scale, 1e-300) else 1.0 - ss_res / ss_tot
    return RegressionResult(
        slope=float(slope), intercept=float(intercept), window=(t0, t1), r_squared=r2
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


# ---------------------------------------------------------------------------
# record output


def save_record_csv(record: SimulationRecord, path: str) -> None:
    """Norm series CSV with header n,t,l2norm,ln_l2norm (blank for missing)."""
    def rows():
        yield b"n,t,l2norm,ln_l2norm\n"
        for n, (t, nrm, ln) in enumerate(
            zip(record.times, record.l2_norms, record.ln_l2_norms)
        ):
            ln_txt = repr(float(ln)) if math.isfinite(ln) else ""
            yield f"{n},{float(t)!r},{float(nrm)!r},{ln_txt}\n".encode()

    _atomic_write_bytes(path, rows())


def save_snapshots_csv(record: SimulationRecord, path: str) -> None:
    """Snapshots in long format: n,j,u."""
    lines = ["n,j,u"]
    for n, state in record.snapshots:
        for j, val in enumerate(state):
            lines.append(f"{n},{j},{float(val)!r}")
    _atomic_write_bytes(path, [("\n".join(lines) + "\n").encode()])


def save_sidecar_json(record: SimulationRecord, path: str, extra: dict | None = None) -> None:
    """Parameters sidecar; contains everything needed to re-run the record."""
    doc = dict(record.params)
    doc["truncated"] = record.truncated
    doc["n_recorded"] = int(record.times.size)
    if extra:
        doc.update(extra)
    _atomic_write_bytes(path, [(json.dumps(doc, indent=2) + "\n").encode()])
