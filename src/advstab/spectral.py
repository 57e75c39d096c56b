"""Spectral radius, operator norms and power-boundedness probes.

Spectral radii come from one dense LAPACK eigensolve, limited to matrices of
dimension at most operators.MAX_DENSE_DIMENSION. Plain one-vector power
iteration would stall on a dominant complex conjugate pair, the signature of
an oscillatory boundary instability, and is deliberately not offered for
eigenvalues; the power-bound probe iterates only on the symmetric B^T B, and
keeps a norm only under a Kato-Temple certificate.
"""

from __future__ import annotations

import math
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


class PowerBoundOverflow(RuntimeError):
    """Norm growth overflowed float range; carries the partial series."""

    def __init__(self, message: str, n_reached: int, series: list[float]):
        super().__init__(message)
        self.n_reached = n_reached
        self.series = series


@dataclass(frozen=True)
class SpectralReport:
    """Spectral radius with the leading eigenvalues and solve diagnostics."""

    rho: float
    leading_eigenvalues: tuple[complex, ...]
    method: str
    residual: float


@dataclass(frozen=True)
class PowerBoundResult:
    """Probe of sup_n ||A^n||: the sup, where it occurred, and the series.

    n_svd counts the powers whose norm came from the dense SVD rather than
    from the certified power step.
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


def _dense(A: IntervalOperator | np.ndarray) -> np.ndarray:
    return A.entries if isinstance(A, IntervalOperator) else np.asarray(A)


def _eigen_residual(A: np.ndarray, z: complex, v: np.ndarray) -> float:
    return float(np.linalg.norm(A @ v - z * v) / np.linalg.norm(v))


def spectral_radius(
    A: IntervalOperator | np.ndarray,
    method: str = "dense",
    n_leading: int = 10,
) -> SpectralReport:
    """Spectral radius from the full dense eigensystem, with its eigen-residual.

    'dense' is the only method; a matrix of dimension above
    MAX_DENSE_DIMENSION raises ValueError.
    """
    if method != "dense":
        raise ValueError(f"unknown method {method!r}")
    entries = _dense(A)
    _check_dense(entries.shape[0])
    w, V = np.linalg.eig(entries)
    order = np.argsort(-np.abs(w))
    residual = _eigen_residual(entries, w[order[0]], V[:, order[0]])
    w = w[order]
    leading = tuple(complex(z) for z in w[:n_leading])
    return SpectralReport(
        rho=float(np.abs(w[0])), leading_eigenvalues=leading,
        method=method, residual=residual,
    )


def operator_norm(A: IntervalOperator | np.ndarray) -> float:
    """l2-induced operator norm (largest singular value) by dense SVD."""
    entries = _dense(A)
    return float(np.linalg.norm(entries, 2))


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
    step can certify. Returns the norm, the last iterate (the next power's
    start vector) and whether the dense SVD supplied the norm.
    """
    frob2 = float(np.vdot(B, B))
    allowance = 4.0 * B.shape[0] * _EPS * frob2
    last = -math.inf
    for _ in range(_CERTIFY_ITERATIONS):
        w = B @ v
        theta = float(w @ w)
        gap = 2.0 * theta - frob2 - allowance
        if gap <= 0.0 and theta - last <= 4.0 * _EPS * theta:
            break  # stalled below the gap
        g = B.T @ w
        r = g - theta * v
        if gap > 0.0 and float(r @ r) <= 4.0 * _EPS * theta * gap:
            return math.sqrt(theta), v, False
        g_norm = math.sqrt(float(g @ g))
        if not g_norm > 0.0:
            break  # Bv = 0 (or not finite): no direction to iterate on
        v = g / g_norm
        last = theta
    return float(np.linalg.norm(B, 2)), v, True


def power_bound_probe(
    A: IntervalOperator | np.ndarray, n_max: int
) -> PowerBoundResult:
    """Compute ||A^n|| for n = 1..n_max with renormalized products.

    Powers are accumulated with per-step renormalization by a power of two
    and a base-2 exponent ledger, so the rescaling is exact and the probe
    survives growth and decay far beyond float range; only the reported
    norms themselves can overflow, which raises PowerBoundOverflow carrying
    the partial series. Each norm comes from a few power steps warm-started
    from the previous power's vector and is kept only under a Kato-Temple
    certificate; otherwise the dense SVD supplies it.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    entries = _dense(A)
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
        if s == 0.0:
            # nilpotent from here on: all further norms are zero
            series.extend([0.0] * (n_max - n + 1))
            break
        if exponent * _LN2 + math.log(s) > 700.0:
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
    return PowerBoundResult(
        sup_norm=sup, argmax_n=argmax_n, series=tuple(series), n_svd=n_svd
    )


def rho_vs_J_scan(scheme: Scheme, k: int, J_list: list[int]) -> list[ScanRow]:
    """Spectral radius versus J with the normalized excess J*(rho - 1).

    No monotonicity is implied: the excess is typically violently sensitive
    to J, flipping between stable and unstable as J varies by 1.
    """
    from .operators import assemble_matrix

    rows = []
    for J in J_list:
        A = assemble_matrix(scheme, k, J)
        rep = spectral_radius(A)
        rows.append(ScanRow(J=J, rho=rep.rho, normalized_excess=J * (rep.rho - 1.0)))
    return rows
