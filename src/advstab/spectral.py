"""Spectral radius, operator norms and power-boundedness probes.

The dense eigensolver is the ground truth for spectral radii; the iterative
path runs a small Krylov (implicitly restarted Arnoldi) eigensolve so that a
dominant complex conjugate pair, the signature of an oscillatory boundary
instability, is resolved correctly. Plain one-vector power iteration would
stall on such pairs and is deliberately not offered.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .operators import IterationMatrix, _atomic_write_bytes
from .stencil import Scheme

__all__ = [
    "DENSE_EIGEN_LIMIT",
    "EigenConvergenceError",
    "PowerBoundOverflow",
    "PowerBoundResult",
    "ScanRow",
    "SpectralReport",
    "dense_eigen_oracle",
    "operator_norm",
    "power_bound_probe",
    "rho_vs_J_scan",
    "save_report",
    "save_spectrum_csv",
    "spectral_radius",
]

# dense eigensolves cover the headline interval sizes with margin
DENSE_EIGEN_LIMIT = 2500


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

    def to_dict(self) -> dict:
        return {
            "rho": self.rho,
            "leading_eigenvalues": [[z.real, z.imag] for z in self.leading_eigenvalues],
            "method": self.method,
            "residual": self.residual,
        }


@dataclass(frozen=True)
class PowerBoundResult:
    """Probe of sup_n ||A^n||: the sup, where it occurred, and the series."""

    sup_norm: float
    argmax_n: int
    series: tuple[float, ...]


@dataclass(frozen=True)
class ScanRow:
    J: int
    rho: float
    normalized_excess: float  # J * (rho - 1)


def _eigen_residual(A: np.ndarray, z: complex, v: np.ndarray) -> float:
    return float(np.linalg.norm(A @ v - z * v) / np.linalg.norm(v))


def dense_eigen_oracle(A: IterationMatrix | np.ndarray) -> np.ndarray:
    """All eigenvalues by the dense nonsymmetric solver; n <= 2500 guard."""
    entries = A.entries if isinstance(A, IterationMatrix) else np.asarray(A)
    n = entries.shape[0]
    if n > DENSE_EIGEN_LIMIT:
        raise ValueError(f"dense eigensolve limited to n <= {DENSE_EIGEN_LIMIT}, got {n}")
    return np.linalg.eigvals(entries)


def spectral_radius(
    A: IterationMatrix | np.ndarray,
    tol: float = 1e-10,
    method: str = "auto",
    n_leading: int = 10,
) -> SpectralReport:
    """Spectral radius with eigen-residual control.

    method 'dense' computes the full eigensystem; 'iterative' runs Arnoldi
    for the few largest-modulus eigenvalues (complex pairs included);
    'auto' picks dense up to the oracle limit. The iterative path raises
    EigenConvergenceError (with its best estimate) on nonconvergence.
    """
    entries = A.entries if isinstance(A, IterationMatrix) else np.asarray(A)
    n = entries.shape[0]
    if method == "auto":
        method = "dense" if n <= DENSE_EIGEN_LIMIT else "iterative"
    if method == "dense":
        if n > DENSE_EIGEN_LIMIT:
            raise ValueError(f"dense path limited to n <= {DENSE_EIGEN_LIMIT}")
        w, V = np.linalg.eig(entries)
        order = np.argsort(-np.abs(w))
        w = w[order]
        V = V[:, order]
        residual = _eigen_residual(entries, w[0], V[:, 0])
        leading = tuple(complex(z) for z in w[:n_leading])
        return SpectralReport(
            rho=float(np.abs(w[0])), leading_eigenvalues=leading,
            method="dense", residual=residual,
        )
    if method != "iterative":
        raise ValueError(f"unknown method {method!r}")
    k = min(max(6, n_leading), n - 2)
    try:
        w, V = spla.eigs(
            entries, k=k, which="LM", tol=tol,
            maxiter=5000, ncv=min(n, max(4 * k, 40)),
        )
    except spla.ArpackNoConvergence as exc:
        w_part = np.asarray(exc.eigenvalues)
        best = float(np.abs(w_part).max()) if w_part.size else float("nan")
        raise EigenConvergenceError(
            f"Arnoldi did not converge within budget (best rho estimate {best})",
            best_estimate=best, residual=float("inf"),
        ) from exc
    order = np.argsort(-np.abs(w))
    w = w[order]
    V = V[:, order]
    residual = _eigen_residual(entries, w[0], V[:, 0])
    if residual > max(tol * 100, 1e-8) * max(1.0, float(np.abs(w[0]))):
        raise EigenConvergenceError(
            f"Arnoldi residual {residual:.3e} exceeds tolerance",
            best_estimate=float(np.abs(w[0])), residual=residual,
        )
    leading = tuple(complex(z) for z in w[:n_leading])
    return SpectralReport(
        rho=float(np.abs(w[0])), leading_eigenvalues=leading,
        method="iterative", residual=residual,
    )


def operator_norm(A: IterationMatrix | np.ndarray) -> float:
    """l2-induced operator norm (largest singular value) by dense SVD."""
    entries = A.entries if isinstance(A, IterationMatrix) else np.asarray(A)
    return float(np.linalg.norm(entries, 2))


def power_bound_probe(
    A: IterationMatrix | np.ndarray, n_max: int
) -> PowerBoundResult:
    """Compute ||A^n|| for n = 1..n_max with renormalized products.

    Powers are accumulated with per-step renormalization and a log-scale
    ledger so the probe survives growth and decay far beyond float range;
    only the reported norms themselves can overflow, which raises
    PowerBoundOverflow carrying the partial series.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    entries = A.entries if isinstance(A, IterationMatrix) else np.asarray(A)
    B = np.eye(entries.shape[0])
    log_scale = 0.0
    series: list[float] = []
    sup = 0.0
    argmax_n = 1
    for n in range(1, n_max + 1):
        B = entries @ B
        s = float(np.linalg.norm(B, 2))
        if s == 0.0:
            # nilpotent from here on: all further norms are zero
            series.extend([0.0] * (n_max - n + 1))
            break
        log_norm = log_scale + math.log(s)
        if log_norm > 700.0:
            # n_reached counts the norms actually recorded, n - 1 of them
            raise PowerBoundOverflow(
                f"||A^{n}|| overflows float range (gross instability)",
                n_reached=n - 1, series=series,
            )
        value = math.exp(log_norm)
        series.append(value)
        if value > sup:
            sup = value
            argmax_n = n
        B /= s
        log_scale = log_norm
    return PowerBoundResult(sup_norm=sup, argmax_n=argmax_n, series=tuple(series))


def rho_vs_J_scan(
    scheme: Scheme, k: int, J_list: list[int], method: str = "auto"
) -> list[ScanRow]:
    """Spectral radius versus J with the normalized excess J*(rho - 1).

    No monotonicity is implied: the excess is typically violently sensitive
    to J, flipping between stable and unstable as J varies by 1.
    """
    from .operators import assemble_matrix

    rows = []
    for J in J_list:
        A = assemble_matrix(scheme, k, J)
        rep = spectral_radius(A, method=method)
        rows.append(ScanRow(J=J, rho=rep.rho, normalized_excess=J * (rep.rho - 1.0)))
    return rows


def save_spectrum_csv(eigenvalues: np.ndarray, path: str) -> None:
    """Write eigenvalues as a two-column CSV with header re,im."""
    lines = ["re,im"]
    for z in np.asarray(eigenvalues):
        lines.append(f"{float(z.real)!r},{float(z.imag)!r}")
    _atomic_write_bytes(path, ("\n".join(lines) + "\n").encode())


def save_report(report: SpectralReport, path: str) -> None:
    _atomic_write_bytes(
        path, (json.dumps(report.to_dict(), indent=2) + "\n").encode()
    )
