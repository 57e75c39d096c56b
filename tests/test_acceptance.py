"""Acceptance gate: twelve pinned checks, one printed verdict line each.

Run with -s to see every line; without it pytest shows output for failures
only. Each check recomputes its quantity from library primitives and holds
it against a fixed reference value and tolerance. Two checks are expected
to fail on this implementation; see README for the measured values and the
evidence that the computed numbers, not the code, are the stable side.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from advstab import simulate, stencil
from advstab.operators import (
    Grid,
    SupportedSequence,
    assemble_matrix,
    step_halfline_inflow,
    step_halfline_outflow,
    step_interval,
)
from advstab.simulate import InitialCondition
from advstab.spectral import operator_norm, power_bound_probe, spectral_radius


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def system1() -> dict:
    """coeff1 with first-order outflow closure on J = 994."""
    scheme = stencil.builtin("coeff1")
    grid = Grid(J=994, L=1.0, lam=scheme.lam_float)
    result = spectral_radius(assemble_matrix(scheme, 1, 994), method="dense")
    return {
        "scheme": scheme,
        "grid": grid,
        "rho": result.rho,
        "rate": (result.rho - 1.0) / grid.dx,
    }


@pytest.fixture(scope="module")
def system2() -> dict:
    """coeff2 with second-order outflow closure on J = 1000."""
    scheme = stencil.builtin("coeff2")
    grid = Grid(J=1000, L=1.0, lam=scheme.lam_float)
    result = spectral_radius(assemble_matrix(scheme, 2, 1000), method="dense")
    return {
        "scheme": scheme,
        "grid": grid,
        "rho": result.rho,
        "rate": (result.rho - 1.0) / grid.dx,
    }


def test_criterion_01_wide_scheme_k1_eigenvalue_rate(system1) -> None:
    rate = system1["rate"]
    ok = abs(rate - 1.63995e-2) <= 2e-5
    _verdict(
        1, ok, f"(rho-1)/dx = {rate:.8e}; reference 1.63995e-02, tol 2e-05 abs"
    )


def test_criterion_02_wide_scheme_k1_growth_slope(system1) -> None:
    rate = system1["rate"]
    ic = InitialCondition(kind="gaussian", center=0.5, width_param=50.0)
    record = simulate.run(system1["scheme"], 1, system1["grid"], ic, 4_000_000)
    fit = simulate.growth_slope(record)
    rel_eigen = abs(fit.slope - rate) / abs(rate)
    rel_ref = abs(fit.slope - 1.63818e-2) / 1.63818e-2
    ok = rel_eigen <= 0.01 and rel_ref <= 0.02
    _verdict(
        2,
        ok,
        f"slope = {fit.slope:.8e}; vs eigenvalue rate {rel_eigen:.3%} (tol 1%), "
        f"vs reference 1.63818e-02 {rel_ref:.3%} (tol 2%)",
    )


def test_criterion_03_wide_scheme_k2_eigenvalue_rate(system2) -> None:
    rate = system2["rate"]
    ok = abs(rate - 3.15884e-1) <= 3e-4
    _verdict(
        3, ok, f"(rho-1)/dx = {rate:.8e}; reference 3.15884e-01, tol 3e-04 abs"
    )


def test_criterion_04_wide_scheme_k2_growth_slope(system2) -> None:
    rate = system2["rate"]
    ic = InitialCondition(kind="wavepacket", packet_theta=0.8 * math.pi)
    record = simulate.run(system2["scheme"], 2, system2["grid"], ic, 400_000)
    fit = simulate.growth_slope(record)
    rel_eigen = abs(fit.slope - rate) / abs(rate)
    rel_ref = abs(fit.slope - 3.15834e-1) / 3.15834e-1
    ok = rel_eigen <= 0.01 and rel_ref <= 0.02
    _verdict(
        4,
        ok,
        f"slope = {fit.slope:.8e}; vs eigenvalue rate {rel_eigen:.3%} (tol 1%), "
        f"vs reference 3.15834e-01 {rel_ref:.3%} (tol 2%)",
    )


def test_criterion_05_three_point_k1_norm_bound() -> None:
    rng = np.random.default_rng(2023)
    worst = -np.inf
    draws = 0
    for lam_a in np.linspace(0.0, 1.0, 11):
        for nu in np.linspace(lam_a * lam_a, 1.0, 11):
            scheme = stencil.builtin("three-point", lam_a=float(lam_a), nu=float(nu))
            for J in rng.integers(5, 201, size=5):
                worst = max(worst, operator_norm(assemble_matrix(scheme, 1, int(J))))
                draws += 1
    ok = worst <= 1.0 + 1e-12
    _verdict(5, ok, f"max ||A|| = {worst:.15f} over {draws} draws; bound 1 + 1e-12")


def test_criterion_06_summed_energy_identity() -> None:
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        lam_a = float(rng.uniform(-0.5, 1.5))
        nu = float(rng.uniform(-0.5, 1.5))
        u = rng.standard_normal(int(rng.integers(5, 201)) + 1)
        res = simulate.lemma1_identity_residual(u, lam_a, nu)
        worst = max(worst, res / float(np.dot(u, u)))
    ok = worst <= 1e-12
    _verdict(6, ok, f"max residual / ||u||^2 = {worst:.3e} over 1000 draws; tol 1e-12")


def test_criterion_07_three_point_k2_power_bound() -> None:
    scheme = stencil.builtin("three-point", lam_a=0.5, nu=0.5)
    sups = []
    for J in (20, 40, 80):
        probe = power_bound_probe(assemble_matrix(scheme, 2, J), n_max=10_000)
        sups.append(probe.sup_norm)
    spread = (max(sups) - min(sups)) / min(sups)
    ok = spread < 0.10
    _verdict(
        7,
        ok,
        f"sup_n ||A^n|| = {sups[0]:.6f}/{sups[1]:.6f}/{sups[2]:.6f} "
        f"for J = 20/40/80; spread {spread:.3%} (tol 10%)",
    )


def test_criterion_08_inflow_halfline_contraction() -> None:
    cases = [
        ("lax-friedrichs", 0.7, None),
        ("upwind", 0.7, None),
        ("lax-wendroff", 0.7, None),
        ("three-point", 0.5, 0.7),
        ("identity", None, None),
    ]
    rng = np.random.default_rng(11)
    worst = 0.0
    for name, lam_a, nu in cases:
        scheme = stencil.builtin(name, lam_a=lam_a, nu=nu)
        ics = []  # (values, offset) in the draw order width, values, offset
        for _ in range(100):
            width = int(rng.integers(1, 41))
            ics.append((rng.standard_normal(width), int(rng.integers(0, 5))))
        # the 100 ICs step as one batch on a shared window from j = 0
        block = np.zeros((len(ics), max(x.size + offset for x, offset in ics)))
        for row, (x, offset) in zip(block, ics):
            row[offset:offset + x.size] = x
        u = SupportedSequence(values=block, offset=0)
        prev = u.norm()
        for _ in range(500):
            u = step_halfline_inflow(scheme, u)
            cur = u.norm()
            live = prev > 1e-280  # below that, ratios are rounding noise
            if live.any():
                worst = max(worst, float((cur[live] / prev[live]).max()))
            prev = cur
    ok = worst <= 1.0 + 1e-12
    _verdict(
        8,
        ok,
        f"max step ratio ||u^(n+1)||/||u^n|| = {worst:.15f} "
        f"over {len(cases)} schemes x 100 ICs x 500 steps; bound 1 + 1e-12",
    )


def test_criterion_09_outflow_halfline_power_bound() -> None:
    rng = np.random.default_rng(12)
    details = []
    ok = True
    for name, k in (("coeff1", 1), ("coeff2", 2)):
        scheme = stencil.builtin(name)
        u = SupportedSequence(values=rng.standard_normal(31), offset=-30)
        norm0 = u.norm()
        max_small = 1.0
        max_large = 1.0
        for n in range(1, 801):
            u = step_halfline_outflow(scheme, k, u, J=0)
            ratio = u.norm() / norm0
            if n <= 400:
                max_small = max(max_small, ratio)
            max_large = max(max_large, ratio)
        drift = abs(max_large - max_small) / max_small
        ok = ok and drift < 0.01
        details.append(f"{name}/k={k} drift {drift:.3%}")
    _verdict(9, ok, "; ".join(details) + " as the horizon doubles 400 -> 800 (tol 1%)")


def test_criterion_10_unimodular_mode_tables() -> None:
    targets = {
        "coeff1": [(-0.82, 1.0), (-0.288, -1.0), (0.0, 1.0), (0.288, -1.0), (0.82, 1.0)],
        "coeff2": [(-0.8, 1.0), (-0.3, -1.0), (0.0, 1.0), (0.3, -1.0), (0.8, 1.0)],
    }
    ok = True
    worst_theta = 0.0
    worst_vg = 0.0
    for name, expected in targets.items():
        modes = sorted(stencil.unimodular_modes(stencil.builtin(name)), key=lambda m: m.theta)
        ok = ok and len(modes) == len(expected)
        for mode, (ratio, vg) in zip(modes, expected):
            worst_theta = max(worst_theta, abs(mode.theta - ratio * math.pi))
            worst_vg = max(worst_vg, abs(mode.group_velocity - vg))
    ok = ok and worst_theta <= 1e-3 and worst_vg <= 0.05
    _verdict(
        10,
        ok,
        f"5 modes per scheme; max |theta error| = {worst_theta:.2e} rad (tol 1e-3), "
        f"max |vg error| = {worst_vg:.2e} (tol 0.05)",
    )


def test_criterion_11_three_point_matrix_displays() -> None:
    checked = 0
    ok = True
    for lam_a, nu in ((0.5, 0.7), (0.5, 0.75), (0.3, 1.0)):
        am1 = (lam_a + nu) / 2.0
        a0 = 1.0 - nu
        a1 = (nu - lam_a) / 2.0
        scheme = stencil.builtin("three-point", lam_a=lam_a, nu=nu)
        for J in range(4, 13):
            for k in (1, 2):
                display = np.zeros((J + 1, J + 1))
                for j in range(J):
                    if j > 0:
                        display[j, j - 1] = am1
                    display[j, j] = a0
                    display[j, j + 1] = a1
                display[J, J - 1] = am1 if k == 1 else am1 - a1
                display[J, J] = a0 + a1 if k == 1 else a0 + a1 * 2.0
                ok = ok and np.array_equal(
                    assemble_matrix(scheme, k, J).entries, display
                )
                checked += 1
    _verdict(11, ok, f"{checked} matrices equal entry-for-entry (exact floats)")


def test_criterion_12_exact_transport_at_unit_cfl() -> None:
    scheme = stencil.builtin("upwind", lam_a=1.0)
    grid = Grid(J=99, L=1.0, lam=scheme.lam_float)
    f = lambda x: math.exp(-80.0 * (x - 0.3) ** 2)
    u = np.array([f(x) for x in grid.xs])
    for _ in range(40):
        u = step_interval(scheme, 1, u)
    err = float(np.max(np.abs(u - simulate.exact_solution(f, 1.0, 40 * grid.dt, grid))))
    for _ in range(60):  # 100 = J + 1 steps in total
        u = step_interval(scheme, 1, u)
    final = math.sqrt(grid.dx) * float(np.linalg.norm(u))
    ok = err <= 1e-12 and final == 0.0
    _verdict(
        12,
        ok,
        f"max |u - f(x - at)| = {err:.2e} at t = 0.4 (tol 1e-12); "
        f"norm after J + 1 steps = {final}",
    )
