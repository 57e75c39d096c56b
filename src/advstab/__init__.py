"""Stability laboratory for explicit transport schemes on an interval.

The package studies one-step explicit finite-difference schemes for the
transport equation with a Dirichlet inflow boundary and an order-k
extrapolation outflow boundary: iteration-matrix assembly, spectral radii
and power bounds, wave-packet experiments, and pinned reference bundles.

Submodules load lazily so that importing the package does not pull in
numpy; the command line honors ADVSTAB_THREADS by capping BLAS threads
before any numeric import happens.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    # stencil: schemes and Fourier-symbol analysis
    "Scheme": "stencil",
    "WaveMode": "stencil",
    "consistency_residuals": "stencil",
    "amplification_factor": "stencil",
    "von_neumann_sup": "stencil",
    "group_velocity": "stencil",
    "unimodular_modes": "stencil",
    "builtin": "stencil",
    "builtin_names": "stencil",
    "load_scheme": "stencil",
    # boundary: ghost-value closures
    "ghost_weights": "boundary",
    "MAX_EXTRAPOLATION_ORDER": "boundary",
    # operators: interval / half-line steppers and matrices
    "Grid": "operators",
    "IntervalOperator": "operators",
    "SupportedSequence": "operators",
    "step_interval": "operators",
    "assemble_matrix": "operators",
    "step_halfline_inflow": "operators",
    "step_halfline_outflow": "operators",
    "save_matrix": "operators",
    "MAX_DENSE_DIMENSION": "operators",
    # spectral: radii, norms, power bounds
    "SpectralReport": "spectral",
    "PowerBoundResult": "spectral",
    "ScanRow": "spectral",
    "PowerBoundOverflow": "spectral",
    "spectral_radius": "spectral",
    "operator_norm": "spectral",
    "power_bound_probe": "spectral",
    "rho_vs_J_scan": "spectral",
    "save_spectrum_csv": "spectral",
    # simulate: time-stepping experiments and records
    "InitialCondition": "simulate",
    "SimulationRecord": "simulate",
    "RegressionResult": "simulate",
    "build_initial": "simulate",
    "run": "simulate",
    "default_window": "simulate",
    "growth_slope": "simulate",
    "exact_solution": "simulate",
    "lemma1_identity_residual": "simulate",
    "save_record_csv": "simulate",
    "save_snapshots_csv": "simulate",
    "save_sidecar_json": "simulate",
    "OVERFLOW_RATIO": "simulate",
    # experiments: the pinned reproduce bundles
    "TARGETS": "experiments",
    "BundleInputError": "experiments",
    "load_manifest": "experiments",
    "reproduce": "experiments",
}

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
