"""Spectral radii, operator norms, and renormalized power bounds."""

from __future__ import annotations

import json

import numpy as np
import pytest

from advstab import operators, spectral, stencil


def _wrap(entries: np.ndarray) -> operators.IterationMatrix:
    n = entries.shape[0]
    return operators.IterationMatrix(entries=entries, scheme_name="raw", k=1, J=n - 1)


# ---------------------------------------------------------------------------
# dense oracle and spectral radius

def test_dense_oracle_identity_and_shift() -> None:
    eye = spectral.dense_eigen_oracle(np.eye(6))
    assert np.allclose(sorted(eye.real), np.ones(6)) and np.allclose(eye.imag, 0.0)
    shift = operators.assemble_matrix(stencil.builtin("upwind", lam_a=1.0), 1, 5)
    w = spectral.dense_eigen_oracle(shift)
    assert np.max(np.abs(w)) < 1e-8  # nilpotent up to rounding


def test_dense_oracle_respects_limit() -> None:
    with pytest.raises(ValueError):
        spectral.dense_eigen_oracle(np.zeros((spectral.DENSE_EIGEN_LIMIT + 1,) * 2))


def test_spectral_radius_known_diagonal() -> None:
    rep = spectral.spectral_radius(np.diag([0.5, -2.0, 1.0]))
    assert rep.method == "dense"
    assert abs(rep.rho - 2.0) < 1e-13
    assert rep.residual < 1e-12
    assert abs(rep.leading_eigenvalues[0] - (-2.0)) < 1e-13


def test_spectral_radius_rotation_complex_pair() -> None:
    c, s = np.cos(0.4), np.sin(0.4)
    rep = spectral.spectral_radius(0.9 * np.array([[c, -s], [s, c]]))
    assert abs(rep.rho - 0.9) < 1e-13
    assert abs(abs(rep.leading_eigenvalues[0]) - 0.9) < 1e-13
    assert abs(rep.leading_eigenvalues[0].imag) > 0.1


def test_dense_and_iterative_paths_agree() -> None:
    A = operators.assemble_matrix(stencil.builtin("coeff2"), 2, 300)
    dense = spectral.spectral_radius(A, method="dense")
    iterative = spectral.spectral_radius(A, method="iterative")
    assert abs(dense.rho - iterative.rho) < 1e-9
    assert iterative.method == "iterative"
    assert iterative.residual < 1e-8


def test_spectral_radius_auto_picks_dense_below_limit() -> None:
    rep = spectral.spectral_radius(np.eye(10))
    assert rep.method == "dense"
    assert rep.rho == pytest.approx(1.0, abs=1e-14)


def test_spectral_report_serializes(tmp_path) -> None:
    rep = spectral.spectral_radius(np.diag([1.0, 3.0]))
    d = rep.to_dict()
    assert d["rho"] == rep.rho and d["method"] == "dense"
    path = str(tmp_path / "report.json")
    spectral.save_report(rep, path)
    back = json.loads(open(path).read())
    assert back["rho"] == rep.rho
    assert back["leading_eigenvalues"][0] == [3.0, 0.0]


# ---------------------------------------------------------------------------
# operator norm

def test_operator_norm_known_matrices() -> None:
    assert spectral.operator_norm(np.array([[0.0, 2.0], [0.0, 0.0]])) == 2.0
    assert abs(spectral.operator_norm(np.eye(17)) - 1.0) < 1e-14


def test_operator_norm_matches_svd_on_random_dense() -> None:
    rng = np.random.default_rng(29)
    A = rng.standard_normal((60, 60))
    assert abs(spectral.operator_norm(A) - np.linalg.svd(A, compute_uv=False)[0]) < 1e-10


# ---------------------------------------------------------------------------
# power bounds

def test_power_bound_probe_matches_direct_norms() -> None:
    rng = np.random.default_rng(31)
    A = 0.8 * rng.standard_normal((8, 8))
    probe = spectral.power_bound_probe(A, n_max=12)
    B = np.eye(8)
    for n in range(12):
        B = A @ B
        assert abs(probe.series[n] - np.linalg.norm(B, 2)) < 1e-9 * max(
            1.0, np.linalg.norm(B, 2)
        )
    assert probe.sup_norm == max(probe.series)
    assert probe.series[probe.argmax_n - 1] == probe.sup_norm


def test_power_bound_probe_survives_huge_growth() -> None:
    # 2*I overflows naive accumulation beyond n = 1023; the log ledger keeps
    # reported norms accurate to ~1e-10 relative far past that
    probe = spectral.power_bound_probe(2.0 * np.eye(3), n_max=900)
    assert probe.series[899] == pytest.approx(2.0**900, rel=1e-9)
    assert probe.argmax_n == 900


def test_power_bound_probe_overflow_raises_with_partial_series() -> None:
    with pytest.raises(spectral.PowerBoundOverflow) as info:
        spectral.power_bound_probe(10.0 * np.eye(2), n_max=400)
    err = info.value
    assert err.n_reached < 400
    assert len(err.series) == err.n_reached
    assert err.series[-1] > 1e290


def test_power_bound_probe_nilpotent_terminates_at_zero() -> None:
    A = operators.assemble_matrix(stencil.builtin("upwind", lam_a=1.0), 1, 4)
    probe = spectral.power_bound_probe(A, n_max=10)
    assert probe.series[0] == 1.0  # pure shift preserves all but the last node
    assert all(v == 0.0 for v in probe.series[5:])
    assert probe.sup_norm == 1.0


def test_power_bound_probe_validation() -> None:
    with pytest.raises(ValueError):
        spectral.power_bound_probe(np.eye(2), n_max=0)


# ---------------------------------------------------------------------------
# scans and CSV output

def test_rho_vs_j_scan_identity() -> None:
    rows = spectral.rho_vs_J_scan(stencil.builtin("identity"), 1, [3, 6, 9])
    assert [row.J for row in rows] == [3, 6, 9]
    for row in rows:
        assert abs(row.rho - 1.0) < 1e-13
        assert abs(row.normalized_excess) < 1e-11


def test_save_spectrum_csv_round_trip(tmp_path) -> None:
    w = np.array([1.0 + 2.0j, -0.5 - 0.25j])
    path = str(tmp_path / "spec.csv")
    spectral.save_spectrum_csv(w, path)
    lines = open(path).read().strip().splitlines()
    assert lines[0] == "re,im"
    parsed = [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
    assert parsed == [(1.0, 2.0), (-0.5, -0.25)]
