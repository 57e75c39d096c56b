"""Spectral radius, operator norms and power-boundedness probes.

The dense eigensolver is the ground truth for spectral radii; the iterative
path runs a small Krylov (implicitly restarted Arnoldi) eigensolve so that a
dominant complex conjugate pair, the signature of an oscillatory boundary
instability, is resolved correctly. Plain one-vector power iteration would
stall on such pairs and is deliberately not offered for eigenvalues; the
power-bound probe iterates only on the symmetric B^T B, and keeps a norm only
under a Kato-Temple certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .operators import IntervalOperator, _atomic_write_bytes
from .stencil import Scheme

__all__ = [
    "DENSE_EIGEN_LIMIT",
    "EigenConvergenceError",
    "PowerBoundOverflow",
    "PowerBoundResult",
    "ScanRow",
    "SpectralReport",
    "operator_norm",
    "power_bound_probe",
    "rho_vs_J_scan",
    "save_spectrum_csv",
    "spectral_radius",
]

# dense eigensolves cover the headline interval sizes with margin
DENSE_EIGEN_LIMIT = 2500

# Arnoldi convergence tolerance of the iterative spectral radius
_ARNOLDI_TOL = 1e-10
# power steps per scaled power before the probe falls back to the dense SVD
_CERTIFY_ITERATIONS = 4
_EPS = float(np.finfo(float).eps)
_LN2 = math.log(2.0)


class EigenConvergenceError(RuntimeError):
    """Iterative eigensolve failed; carries the best estimate found."""

    def __init__(self, message: str, best_estimate: float, residual: float):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.residual = residual


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
    method: str = "auto",
    n_leading: int = 10,
) -> SpectralReport:
    """Spectral radius with eigen-residual control.

    method 'dense' computes the full eigensystem; 'iterative' runs Arnoldi
    for the few largest-modulus eigenvalues (complex pairs included);
    'auto' picks dense up to DENSE_EIGEN_LIMIT. The iterative path raises
    EigenConvergenceError (with its best estimate) on nonconvergence.
    """
    entries = _dense(A)
    n = entries.shape[0]
    if method == "auto":
        method = "dense" if n <= DENSE_EIGEN_LIMIT else "iterative"
    if method == "dense":
        if n > DENSE_EIGEN_LIMIT:
            raise ValueError(f"dense path limited to n <= {DENSE_EIGEN_LIMIT}")
        w, V = np.linalg.eig(entries)
    elif method == "iterative":
        k = min(max(6, n_leading), n - 2)
        try:
            # a fixed start vector makes repeated calls return the same answer
            w, V = spla.eigs(
                entries, k=k, which="LM", tol=_ARNOLDI_TOL, v0=np.ones(n),
                maxiter=5000, ncv=min(n, max(4 * k, 40)),
            )
        except spla.ArpackNoConvergence as exc:
            w_part = np.asarray(exc.eigenvalues)
            best = float(np.abs(w_part).max()) if w_part.size else float("nan")
            raise EigenConvergenceError(
                f"Arnoldi did not converge within budget (best rho estimate {best})",
                best_estimate=best, residual=float("inf"),
            ) from exc
    else:
        raise ValueError(f"unknown method {method!r}")
    order = np.argsort(-np.abs(w))
    w = w[order]
    V = V[:, order]
    residual = _eigen_residual(entries, w[0], V[:, 0])
    if method == "iterative" and residual > 1e-8 * max(1.0, float(np.abs(w[0]))):
        raise EigenConvergenceError(
            f"Arnoldi residual {residual:.3e} exceeds tolerance",
            best_estimate=float(np.abs(w[0])), residual=residual,
        )
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
    bracket is within 4 eps relative. Returns the norm, the last iterate (the
    next power's start vector) and whether the dense SVD supplied the norm.
    """
    frob2 = float(np.vdot(B, B))
    allowance = 4.0 * B.shape[0] * _EPS * frob2
    for _ in range(_CERTIFY_ITERATIONS):
        w = B @ v
        theta = float(w @ w)
        g = B.T @ w
        r = g - theta * v
        gap = 2.0 * theta - frob2 - allowance
        if gap > 0.0 and float(r @ r) <= 4.0 * _EPS * theta * gap:
            return math.sqrt(theta), v, False
        g_norm = math.sqrt(float(g @ g))
        if not g_norm > 0.0:
            break  # Bv = 0 (or not finite): no direction to iterate on
        v = g / g_norm
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


def save_spectrum_csv(eigenvalues: np.ndarray, path: str) -> None:
    """Write eigenvalues as a two-column CSV with header re,im."""
    lines = ["re,im"]
    for z in np.asarray(eigenvalues):
        lines.append(f"{float(z.real)!r},{float(z.imag)!r}")
    _atomic_write_bytes(path, [("\n".join(lines) + "\n").encode()])

