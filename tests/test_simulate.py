"""Time-stepping experiments, slope regression, energy identity, records."""

from __future__ import annotations

import json
import math
import warnings

import numpy as np
import pytest

from advstab import operators, simulate, stencil
from advstab.operators import Grid
from advstab.simulate import InitialCondition, SimulationRecord


# ---------------------------------------------------------------------------
# initial conditions

def test_point_sampled_gaussian_matches_formula() -> None:
    grid = Grid(J=994)
    ic = InitialCondition(kind="gaussian", center=0.5, width_param=50.0)
    u = simulate.build_initial(ic, grid)
    # same float pipeline: samples at the grid nodes, no quadrature
    assert np.array_equal(u, np.exp(-50.0 * (grid.xs - 0.5) ** 2))


def test_point_sampled_constant_function() -> None:
    grid = Grid(J=9)
    ic = InitialCondition(kind="custom", func=lambda x: 1.0)
    assert np.array_equal(simulate.build_initial(ic, grid), np.ones(10))


def test_wavepacket_resolves_grid_frequency_exactly() -> None:
    grid = Grid(J=99)
    theta = 0.8 * math.pi
    ic = InitialCondition(kind="wavepacket", packet_theta=theta)
    u = simulate.build_initial(ic, grid)
    j = np.arange(100)
    expected = np.cos(theta * (j - 50.0)) * np.exp(
        -50.0 * (grid.xs - 0.5) ** 2
    )
    assert np.array_equal(u, expected)


def test_cell_average_of_linear_function_is_midpoint() -> None:
    # averaging x over [x_j, x_{j+1}] gives (x_j + x_{j+1})/2
    grid = Grid(J=9)
    ic = InitialCondition(kind="custom", func=lambda x: x, sampling="cell_average")
    u = simulate.build_initial(ic, grid)
    expected = (grid.xs + (grid.xs + grid.dx)) / 2.0
    assert np.allclose(u, expected, rtol=0.0, atol=1e-12)


def test_cell_average_of_quadratic_matches_exact_integral() -> None:
    grid = Grid(J=7)
    ic = InitialCondition(kind="custom", func=lambda x: x * x, sampling="cell_average")
    u = simulate.build_initial(ic, grid)
    dx = grid.dx
    j = np.arange(8)
    exact = (((j + 1) * dx) ** 3 - (j * dx) ** 3) / (3.0 * dx)
    assert np.allclose(u, exact, rtol=1e-9, atol=1e-14)


def test_initial_condition_validation() -> None:
    with pytest.raises(ValueError):
        InitialCondition(kind="nosuch")
    with pytest.raises(ValueError):
        InitialCondition(kind="wavepacket")  # needs packet_theta
    with pytest.raises(ValueError):
        InitialCondition(kind="custom")  # needs func
    with pytest.raises(ValueError):
        InitialCondition(kind="gaussian", sampling="weird")


# ---------------------------------------------------------------------------
# running

def test_run_record_shapes_and_times() -> None:
    s = stencil.builtin("lax-wendroff", lam_a=0.5)
    grid = Grid(J=30, lam=s.lam_float)
    ic = InitialCondition(kind="gaussian")
    rec = simulate.run(s, 1, grid, ic, n_steps=25, snapshot_stride=10)
    assert rec.times.shape == (26,)
    assert np.allclose(rec.times, np.arange(26) * grid.dt)
    assert [n for n, _ in rec.snapshots] == [0, 10, 20]
    assert not rec.truncated
    assert rec.params["scheme"] == s.name
    assert rec.params["J"] == 30 and rec.params["k"] == 1
    assert rec.params["ic"]["kind"] == "gaussian"


def test_run_is_deterministic() -> None:
    s = stencil.builtin("coeff1")
    grid = Grid(J=60, lam=s.lam_float)
    ic = InitialCondition(kind="gaussian")
    r1 = simulate.run(s, 1, grid, ic, n_steps=40)
    r2 = simulate.run(s, 1, grid, ic, n_steps=40)
    assert np.array_equal(r1.l2_norms, r2.l2_norms)


def test_run_k1_norms_match_step_interval_loop_bitwise() -> None:
    # k = 1 ghosts copy u_J, so folding them once changes no rounding
    s = stencil.builtin("coeff1")
    grid = Grid(J=60, lam=s.lam_float)
    ic = InitialCondition(kind="wavepacket", packet_theta=0.8 * math.pi)
    rec = simulate.run(s, 1, grid, ic, n_steps=300)
    u = simulate.build_initial(ic, grid)
    sqnorms = [np.dot(u, u)]
    for _ in range(300):
        u = operators.step_interval(s, 1, u)
        sqnorms.append(np.dot(u, u))
    assert np.array_equal(rec.l2_norms, np.sqrt(grid.dx * np.array(sqnorms)))


def test_run_norms_match_matrix_powers() -> None:
    s = stencil.builtin("three-point", lam_a=0.4, nu=0.6)
    grid = Grid(J=20, lam=s.lam_float)
    ic = InitialCondition(kind="gaussian", width_param=30.0)
    rec = simulate.run(s, 2, grid, ic, n_steps=15)
    A = operators.assemble_matrix(s, 2, 20).entries
    u = simulate.build_initial(ic, grid)
    for n in range(16):
        expected = math.sqrt(grid.dx) * np.linalg.norm(u)
        assert rec.l2_norms[n] == pytest.approx(expected, rel=1e-12)
        u = A @ u
    assert not rec.truncated


def test_run_truncates_on_overflow() -> None:
    # nu < (lam*a)^2 is von Neumann unstable: growth ~ e^{c n}, overflow fast
    s = stencil.builtin("three-point", lam_a=0.9, nu=0.1)
    grid = Grid(J=40, lam=s.lam_float)
    ic = InitialCondition(kind="gaussian")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rec = simulate.run(s, 1, grid, ic, n_steps=100000)
    assert rec.truncated
    assert rec.times.size < 100001
    # the offending sample is kept so the record shows where it blew up
    assert np.isfinite(rec.l2_norms[:-1]).all()
    assert rec.l2_norms[-2] > 1e100


def test_run_rejects_bad_arguments() -> None:
    s = stencil.builtin("upwind", lam_a=0.5)
    grid = Grid(J=10, lam=s.lam_float)
    ic = InitialCondition(kind="gaussian")
    with pytest.raises(ValueError):
        simulate.run(s, 1, grid, ic, n_steps=0)
    with pytest.raises(ValueError):
        simulate.run(s, 1, grid, ic, n_steps=5, snapshot_stride=-1)


# ---------------------------------------------------------------------------
# slope regression

def _synthetic_record(slope: float, n: int = 400, dt: float = 0.05) -> SimulationRecord:
    times = np.arange(n + 1) * dt
    ln = 0.3 + slope * times
    l2 = np.exp(ln)
    return SimulationRecord(
        times=times,
        l2_norms=l2,
        ln_l2_norms=ln,
        snapshots=(),
        params={"L": 1.0},
        truncated=False,
    )


def test_growth_slope_recovers_exact_exponential() -> None:
    rec = _synthetic_record(0.37)
    fit = simulate.growth_slope(rec)
    assert fit.slope == pytest.approx(0.37, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_growth_slope_zero_growth_has_no_r_squared() -> None:
    rec = _synthetic_record(0.0)
    fit = simulate.growth_slope(rec)
    assert fit.slope == pytest.approx(0.0, abs=1e-13)
    assert fit.r_squared is None  # no variance to explain


def test_growth_slope_window_selection() -> None:
    rec = _synthetic_record(1.0, n=100, dt=0.1)  # t_end = 10
    assert simulate.default_window(rec) == (5.0, 10.0)
    fit = simulate.growth_slope(rec, window=(2.0, 8.0))
    assert fit.window == (2.0, 8.0)
    with pytest.raises(ValueError):
        simulate.growth_slope(rec, window=(9.99, 10.0))  # too few samples


# ---------------------------------------------------------------------------
# exact solution and convergence

def test_exact_solution_shifts_and_zero_extends() -> None:
    grid = Grid(J=9, L=1.0)
    f = lambda x: x + 1.0
    u = simulate.exact_solution(f, a=1.0, t=0.3, grid=grid)
    for j in range(10):
        arg = j * grid.dx - 0.3
        assert u[j] == (f(arg) if arg >= 0 else 0.0)
    with pytest.raises(ValueError):
        simulate.exact_solution(f, a=1.0, t=-0.1, grid=grid)


def test_exact_transport_for_unit_cfl_upwind() -> None:
    s = stencil.builtin("upwind", lam_a=1.0)
    grid = Grid(J=49, lam=s.lam_float)
    f = lambda x: math.exp(-50.0 * (x - 0.3) ** 2)
    u = np.array([f(x) for x in grid.xs])
    for _ in range(20):
        u = operators.step_interval(s, 1, u)
    ref = simulate.exact_solution(f, a=1.0, t=20 * grid.dt, grid=grid)
    assert np.max(np.abs(u - ref)) < 1e-12


def test_convergence_orders_upwind_first_lax_wendroff_second() -> None:
    f = lambda x: math.sin(2.0 * math.pi * x) ** 4
    up = simulate.convergence_check(
        stencil.builtin("upwind", lam_a=0.5), 1, f, 0.25, [40, 80]
    )
    lw = simulate.convergence_check(
        stencil.builtin("lax-wendroff", lam_a=0.5), 1, f, 0.25, [40, 80]
    )
    up_ratio = up[0][1] / up[1][1]
    lw_ratio = lw[0][1] / lw[1][1]
    assert 1.5 < up_ratio < 2.5  # first order
    assert 3.0 < lw_ratio < 5.0  # second order


# ---------------------------------------------------------------------------
# energy identity

def test_energy_identity_residual_tiny_for_random_parameters() -> None:
    rng = np.random.default_rng(41)
    for _ in range(200):
        lam_a = rng.uniform(-0.5, 1.5)
        nu = rng.uniform(-0.5, 1.5)
        u = rng.standard_normal(rng.integers(2, 120))
        res = simulate.lemma1_identity_residual(u, lam_a, nu)
        assert res <= 1e-12 * float(np.dot(u, u))


def test_energy_identity_uses_the_interval_step() -> None:
    # the identity's internal one-step update must be the k = 1 interval step
    rng = np.random.default_rng(43)
    lam_a, nu = 0.5, 0.7
    s = stencil.builtin("three-point", lam_a=lam_a, nu=nu)
    u = rng.standard_normal(30)
    v = operators.step_interval(s, 1, u)
    ue = np.concatenate([[0.0], u, [u[-1]]])
    v_manual = 0.6 * ue[:-2] + 0.3 * ue[1:-1] + 0.1 * ue[2:]
    assert np.allclose(v, v_manual, rtol=1e-13, atol=1e-15)


def test_energy_identity_input_validation() -> None:
    with pytest.raises(ValueError):
        simulate.lemma1_identity_residual(np.array([1.0]), 0.5, 0.5)
    with pytest.raises(ValueError):
        simulate.lemma1_identity_residual(np.ones((2, 2)), 0.5, 0.5)


# ---------------------------------------------------------------------------
# record files

def test_record_csv_round_trip(tmp_path) -> None:
    s = stencil.builtin("upwind", lam_a=1.0)
    grid = Grid(J=9, lam=s.lam_float)
    ic = InitialCondition(kind="gaussian", center=0.3, width_param=80.0)
    rec = simulate.run(s, 1, grid, ic, n_steps=12, snapshot_stride=6)
    rpath = str(tmp_path / "run_record.csv")
    spath = str(tmp_path / "run_snapshots.csv")
    jpath = str(tmp_path / "run.json")
    simulate.save_record_csv(rec, rpath)
    simulate.save_snapshots_csv(rec, spath)
    simulate.save_sidecar_json(rec, jpath, extra={"tag": "unit"})

    rows = open(rpath).read().strip().splitlines()
    assert rows[0] == "n,t,l2norm,ln_l2norm"
    assert len(rows) == 14
    # after J + 1 = 10 shift steps the domain is empty: norm 0, ln blank
    last = rows[-1].split(",")
    assert last[0] == "12" and float(last[2]) == 0.0 and last[3] == ""
    mid = rows[5].split(",")
    assert float(mid[1]) == pytest.approx(4 * grid.dt, rel=1e-15)
    assert float(mid[3]) == pytest.approx(math.log(float(mid[2])), rel=1e-12)

    srows = open(spath).read().strip().splitlines()
    assert srows[0] == "n,j,u"
    assert len(srows) == 1 + 3 * 10  # snapshots at n = 0, 6, 12

    side = json.loads(open(jpath).read())
    assert side["scheme"] == s.name
    assert side["n_recorded"] == 13
    assert side["truncated"] is False
    assert side["tag"] == "unit"
