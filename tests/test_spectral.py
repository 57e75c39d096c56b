"""Spectral radii, operator norms, and renormalized power bounds."""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advstab import operators, spectral, stencil


# ---------------------------------------------------------------------------
# spectral radius

def test_spectral_radius_dense_respects_limit() -> None:
    with pytest.raises(ValueError):
        spectral.spectral_radius(
            np.zeros((operators.MAX_DENSE_DIMENSION + 1,) * 2), method="dense"
        )


def test_spectral_radius_has_only_the_dense_method() -> None:
    for method in ("iterative", "auto"):
        with pytest.raises(ValueError, match="unknown method"):
            spectral.spectral_radius(np.eye(3), method=method)


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


def test_spectral_radius_auto_picks_dense_below_limit() -> None:
    rep = spectral.spectral_radius(np.eye(10))
    assert rep.method == "dense"
    assert rep.rho == pytest.approx(1.0, abs=1e-14)


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


def test_power_bound_probe_certifies_most_criterion_7_powers() -> None:
    scheme = stencil.builtin("three-point", lam_a=0.5, nu=0.5)
    probe = spectral.power_bound_probe(operators.assemble_matrix(scheme, 2, 20), n_max=2000)
    assert probe.n_svd < 100


def test_power_bound_probe_falls_back_to_svd_without_a_gap() -> None:
    # equal singular values: 2 theta - ||B||_F^2 is never positive
    probe = spectral.power_bound_probe(2.0 * np.eye(3), n_max=60)
    assert probe.n_svd == 60
    assert probe.series[59] == pytest.approx(2.0**60, rel=1e-12)
    Q, _ = np.linalg.qr(np.random.default_rng(37).standard_normal((81, 81)))
    probe = spectral.power_bound_probe(Q, n_max=60)
    assert probe.n_svd == 60
    assert max(abs(x - 1.0) for x in probe.series) < 1e-12


def test_power_bound_probe_start_vector_in_null_space() -> None:
    # A @ ones = 0: the power step has no direction, so the SVD must answer
    A = np.array([[1.0, -1.0], [1.0, -1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        probe = spectral.power_bound_probe(A, n_max=3)
    assert probe.series[0] == pytest.approx(2.0, rel=1e-15)
    assert probe.series[1:] == (0.0, 0.0)
    assert probe.n_svd == 2


def _direct_power_norms(A: np.ndarray, n_max: int) -> np.ndarray:
    B = np.eye(A.shape[0])
    norms = []
    for _ in range(n_max):
        B = A @ B
        norms.append(np.linalg.norm(B, 2))
    return np.array(norms)


@settings(max_examples=25, deadline=None)
@given(size=st.integers(2, 40), width=st.floats(0.0, 2.0), seed=st.integers(0, 2**32 - 1))
def test_power_bound_probe_matches_direct_norms_on_bidiagonal(
    size: int, width: float, seed: int
) -> None:
    band = np.random.default_rng(seed).uniform(-width, width, size - 1)
    A = 0.5 * np.eye(size) + np.diag(band, -1)
    probe = spectral.power_bound_probe(A, n_max=200)
    np.testing.assert_allclose(probe.series, _direct_power_norms(A, 200), rtol=1e-12, atol=0)


@settings(max_examples=25, deadline=None)
@given(size=st.integers(2, 40), scale=st.floats(0.5, 1.1), seed=st.integers(0, 2**32 - 1))
def test_power_bound_probe_matches_direct_norms_on_dense(
    size: int, scale: float, seed: int
) -> None:
    # spectral radius 0.5-1.1 keeps every direct power well inside float range;
    # decaying powers are where a rounded rescaling ledger used to drift
    G = np.random.default_rng(seed).standard_normal((size, size))
    A = scale * G / np.max(np.abs(np.linalg.eigvals(G)))
    probe = spectral.power_bound_probe(A, n_max=200)
    np.testing.assert_allclose(probe.series, _direct_power_norms(A, 200), rtol=1e-12, atol=0)


@settings(max_examples=100, deadline=None)
@given(size=st.integers(1, 60), spread=st.floats(1.0, 1e4), seed=st.integers(0, 2**32 - 1))
def test_certified_norm_agrees_with_svd(size: int, spread: float, seed: int) -> None:
    # a rank-one term of weight `spread` opens the singular gap
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal((2, size))
    B = rng.standard_normal((size, size)) + spread * np.outer(x, y)
    v = rng.standard_normal(size)
    s, _, from_svd = spectral._certified_norm2(B, v / np.linalg.norm(v))
    sigma = np.linalg.norm(B, 2)
    # the certified bracket is 2 eps wide; both sides add a few eps of rounding
    assert from_svd or abs(s - sigma) <= 8 * np.finfo(float).eps * sigma
    if spread >= 1e3:
        assert not from_svd  # a wide gap is certified within the step budget


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
    lines = Path(path).read_text().strip().splitlines()
    assert lines[0] == "re,im"
    parsed = [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
    assert parsed == [(1.0, 2.0), (-0.5, -0.25)]
