"""Time-stepping experiments, slope regression, energy identity, records."""

from __future__ import annotations

import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from advstab import experiments, operators, simulate, stencil
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


@pytest.mark.parametrize("sampling", ["point", "cell_average"])
def test_gaussian_past_float_range_keeps_its_limits(sampling: str) -> None:
    # at L = 1e300 the squared offsets (x - c)^2 overflow: width 0 is the
    # constant 1 (not 0 * inf = NaN), and a positive width decays to 0 there
    grid = Grid(J=50, L=1e300)
    flat = simulate.build_initial(InitialCondition("gaussian", width_param=0.0,
                                                   sampling=sampling), grid)
    np.testing.assert_allclose(flat, 1.0, rtol=1e-12)
    bump = simulate.build_initial(InitialCondition("gaussian", sampling=sampling), grid)
    assert np.isfinite(bump).all() and not bump[1:].any()
    if sampling == "point":
        assert bump[0] == math.exp(-50.0 * 0.5**2)


def test_cell_average_of_gaussian_matches_exact_integral() -> None:
    # the integral of exp(-w (x - c)^2) over [a, b] is
    # sqrt(pi / w) / 2 * (erf(sqrt(w) (b - c)) - erf(sqrt(w) (a - c)))
    grid = Grid(J=19)
    ic = InitialCondition(kind="gaussian", center=0.4, width_param=60.0, sampling="cell_average")
    u = simulate.build_initial(ic, grid)
    dx, sw = grid.dx, math.sqrt(60.0)
    exact = [
        math.sqrt(math.pi / 60.0) / 2.0
        * (math.erf(sw * ((j + 1) * dx - 0.4)) - math.erf(sw * (j * dx - 0.4))) / dx
        for j in range(20)
    ]
    assert np.allclose(u, exact, rtol=1e-9, atol=1e-14)


def _cell_average_of(func, grid: Grid, monkeypatch) -> np.ndarray:
    # drive the cell-average quadrature of build_initial with a chosen
    # continuum function in place of the Gaussian
    monkeypatch.setattr(simulate, "_continuum_function", lambda ic, g: func)
    ic = InitialCondition(kind="gaussian", sampling="cell_average")
    return simulate.build_initial(ic, grid)


def test_cell_average_of_linear_function_is_midpoint(monkeypatch) -> None:
    # averaging x over [x_j, x_{j+1}] gives (x_j + x_{j+1})/2
    grid = Grid(J=9)
    u = _cell_average_of(lambda x: x, grid, monkeypatch)
    expected = (grid.xs + (grid.xs + grid.dx)) / 2.0
    assert np.allclose(u, expected, rtol=0.0, atol=1e-12)


def test_cell_average_of_quadratic_matches_exact_integral(monkeypatch) -> None:
    grid = Grid(J=7)
    u = _cell_average_of(lambda x: x * x, grid, monkeypatch)
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
        InitialCondition(kind="custom")  # not a kind
    with pytest.raises(ValueError):
        InitialCondition(kind="gaussian", sampling="weird")
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            InitialCondition(kind="gaussian", center=bad)
        with pytest.raises(ValueError):
            InitialCondition(kind="gaussian", width_param=bad)
        with pytest.raises(ValueError):
            InitialCondition(kind="wavepacket", packet_theta=bad)
    # a negative width makes the gaussian grow away from its center
    for bad in (-1e-300, -2000.0):
        with pytest.raises(ValueError, match="width_param"):
            InitialCondition(kind="gaussian", width_param=bad)


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


def _reference_run(scheme, k, grid, ic, n_steps, snapshot_stride):
    """run's contract as a plain per-step loop: step_interval, np.dot, stop on a non-finite norm."""
    u = simulate.build_initial(ic, grid)
    sqnorms = [np.dot(u, u)]
    snapshots = [(0, u.copy())] if snapshot_stride else []
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, n_steps + 1):
            u = operators.step_interval(scheme, k, u)
            sqnorms.append(np.dot(u, u))
            if snapshot_stride and n % snapshot_stride == 0:
                snapshots.append((n, u.copy()))
            if not math.isfinite(grid.dx * sqnorms[-1]):
                return np.sqrt(grid.dx * np.array(sqnorms)), snapshots, True
    return np.sqrt(grid.dx * np.array(sqnorms)), snapshots, False


@pytest.mark.parametrize(
    "name, params, k, J, n_steps, stride",
    [
        ("coeff2", {}, 2, 1000, 2000, 0),  # the example2 configuration
        ("coeff1", {}, 1, 200, 700, 45),  # snapshots on both sides of block ends
        ("three-point", {"lam_a": 0.9, "nu": 0.1}, 1, 40, 100000, 7),  # truncates
        # |u| grows 2e8 per step: the block steps on from the norm's overflow
        # until the state overflows too, and inf - inf gives NaN
        ("upwind", {"lam_a": 1e8}, 1, 40, 1000, 4),
    ],
)
def test_run_matches_a_per_step_reference_loop_bitwise(
    name: str, params: dict, k: int, J: int, n_steps: int, stride: int
) -> None:
    s = stencil.builtin(name, **params)
    grid = Grid(J=J, lam=s.lam_float)
    ic = InitialCondition(kind="gaussian")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rec = simulate.run(s, k, grid, ic, n_steps=n_steps, snapshot_stride=stride)
    l2, snapshots, truncated = _reference_run(s, k, grid, ic, n_steps, stride)
    assert rec.truncated == truncated
    assert np.array_equal(rec.l2_norms, l2)
    assert [n for n, _ in rec.snapshots] == [n for n, _ in snapshots]
    for (_, got), (_, want) in zip(rec.snapshots, snapshots):
        assert got.tobytes() == want.tobytes()
    if truncated:
        # the overflow lands inside a block, not on its last state
        assert (l2.size - 1) % operators._RING_STATES != 0
        assert not np.isfinite(l2[-1])


def test_run_stops_at_the_first_non_finite_recorded_norm() -> None:
    # dx = 1e12 / 51: the recorded norm sqrt(dx * sum u^2) overflows some
    # steps before sum u^2 does, and the run must stop there, unwarned
    s = stencil.builtin("three-point", lam_a=0.5, nu=3)
    grid = Grid(J=50, L=1e12, lam=s.lam_float)
    ic = InitialCondition(kind="gaussian")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rec = simulate.run(s, 1, grid, ic, n_steps=2000)
    assert rec.truncated and np.isfinite(rec.l2_norms[:-1]).all()
    l2, _, truncated = _reference_run(s, 1, grid, ic, 2000, 0)
    assert truncated and np.array_equal(rec.l2_norms, l2)
    assert l2.size == 224


def test_run_steps_only_through_the_block_kernel(monkeypatch) -> None:
    s = stencil.builtin("coeff2")
    grid = Grid(J=300, lam=s.lam_float)
    ic = InitialCondition(kind="wavepacket", packet_theta=0.5 * math.pi)
    want = simulate.run(s, 2, grid, ic, n_steps=500, snapshot_stride=64)

    def forbidden(*args, **kwargs):
        raise AssertionError("run must step through IntervalOperator.advance")

    # simulate imports step_interval by name, so both holders are patched
    monkeypatch.setattr(operators, "step_interval", forbidden)
    monkeypatch.setattr(simulate, "step_interval", forbidden)
    got = simulate.run(s, 2, grid, ic, n_steps=500, snapshot_stride=64)
    assert np.array_equal(got.l2_norms, want.l2_norms)
    assert [n for n, _ in got.snapshots] == [n for n, _ in want.snapshots]
    for (_, a), (_, b) in zip(got.snapshots, want.snapshots):
        assert np.array_equal(a, b)


def test_run_rejects_bad_arguments() -> None:
    s = stencil.builtin("upwind", lam_a=0.5)
    grid = Grid(J=10, lam=s.lam_float)
    ic = InitialCondition(kind="gaussian")
    with pytest.raises(ValueError):
        simulate.run(s, 1, grid, ic, n_steps=0)
    with pytest.raises(ValueError):
        simulate.run(s, 1, grid, ic, n_steps=5, snapshot_stride=-1)
    # dt = lam dx must be the scheme's time step (here lam = 1), or times and slopes rescale
    with pytest.raises(ValueError, match="lam"):
        simulate.run(s, 1, Grid(J=10, lam=0.5), ic, n_steps=5)


# ---------------------------------------------------------------------------
# slope regression

def _synthetic_record(slope: float, n: int = 400, dt: float = 0.05) -> SimulationRecord:
    l2 = np.exp(0.3 + slope * (np.arange(n + 1) * dt))
    return SimulationRecord(l2_norms=l2, snapshots=(), params={"L": 1.0, "dt": dt})


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



def _polyfit_oracle(record: SimulationRecord, window: tuple[float, float]):
    """The fit as it was: a full-length mask, then np.polyfit; (t, ln, fit)."""
    t0, t1 = float(window[0]), float(window[1])
    t = record.times
    y = record.ln_l2_norms
    mask = (t >= t0) & (t <= t1) & np.isfinite(y)
    if int(mask.sum()) < simulate._MIN_FIT_SAMPLES:
        raise ValueError(f"window [{t0}, {t1}] holds {int(mask.sum())} finite samples; "
                         f"need >= {simulate._MIN_FIT_SAMPLES}")
    tt, yy = t[mask], y[mask]
    slope, intercept = np.polyfit(tt, yy, 1)
    fitted = slope * tt + intercept
    ss_res = float(np.sum((yy - fitted) ** 2))
    ss_tot = float(np.sum((yy - yy.mean()) ** 2))
    scale = float(np.dot(yy, yy))
    r2 = None if ss_tot <= 1e-28 * max(scale, 1e-300) else 1.0 - ss_res / ss_tot
    return tt, yy, simulate.RegressionResult(float(slope), float(intercept), (t0, t1), r2)


@hst.composite
def _records_and_windows(draw):
    """ln l2 = a + b t + noise, with zero, inf and NaN norms, and a window on it."""
    size = draw(hst.integers(1, 300))
    dt = draw(hst.floats(0.01, 1.0))
    a, b = draw(hst.floats(-5.0, 5.0)), draw(hst.sampled_from([0.0, 1.0, -1.0]))
    b *= draw(hst.floats(1e-3, 2.0))
    noise = draw(hst.sampled_from([0.0, 1.0])) * draw(hst.floats(1e-6, 0.5))
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    with np.errstate(over="ignore"):
        l2 = np.exp(a + b * (np.arange(size) * dt) + noise * rng.standard_normal(size))
    for _ in range(draw(hst.integers(0, 5))):
        l2[draw(hst.integers(0, size - 1))] = draw(hst.sampled_from([0.0, math.inf, math.nan]))
    record = SimulationRecord(l2_norms=l2, snapshots=(), params={"L": 1.0, "dt": dt})
    t_end = (size - 1) * dt

    def bound():
        n = draw(hst.integers(-3, size + 3))
        on_sample = n * dt  # a bound on a sample time must keep that sample
        return draw(hst.one_of(
            hst.just(on_sample),
            hst.sampled_from([math.nextafter(on_sample, -math.inf),
                              math.nextafter(on_sample, math.inf)]),
            hst.floats(-t_end - 1.0, 2.0 * t_end + 1.0),
            hst.sampled_from([-math.inf, math.inf, math.nan]),
        ))

    return record, (bound(), bound())


@settings(max_examples=300, deadline=None)
@given(case=_records_and_windows())
def test_growth_slope_matches_the_masked_polyfit(case) -> None:
    record, window = case
    try:
        tt, yy, want = _polyfit_oracle(record, window)
    except ValueError as exc:
        for fit in (lambda: simulate._window_samples(record, *window),
                    lambda: simulate.growth_slope(record, window)):
            with pytest.raises(ValueError) as got:
                fit()
            assert str(got.value) == str(exc)
        return
    t, y = simulate._window_samples(record, float(window[0]), float(window[1]))
    assert np.array_equal(t, tt) and np.array_equal(y, yy)
    fit = simulate.growth_slope(record, window)
    assert fit.window == want.window
    # a slope or intercept at rounding scale of the ln values is noise on both sides
    y_max = float(np.abs(yy).max())
    slope_floor = y_max / (tt[-1] - tt[0])
    assert fit.slope == pytest.approx(want.slope, rel=1e-12, abs=1e-12 * slope_floor)
    assert fit.intercept == pytest.approx(
        want.intercept, rel=1e-12, abs=1e-12 * (y_max + slope_floor * tt[-1]))
    assert (fit.r_squared is None) == (want.r_squared is None)
    if want.r_squared is not None:
        # the oracle's residuals come from uncentered ln values, each off by
        # a few eps max|ln|; that moves r_squared by about eps max|ln| / std(ln)
        noise = 8 * np.finfo(float).eps * y_max / float(np.std(yy))
        assert fit.r_squared == pytest.approx(want.r_squared, rel=1e-12, abs=1e-12 + noise)


def test_growth_slope_holds_only_window_sized_arrays() -> None:
    n, dt = 2_000_001, 1e-4
    record = SimulationRecord(l2_norms=np.exp(0.3 * (np.arange(n) * dt)), snapshots=(),
                              params={"L": 1.0, "dt": dt})
    t0, t1 = simulate.default_window(record)  # (100, 200): the late half
    window_bytes = 8 * int(np.count_nonzero((record.times >= t0) & (record.times <= t1)))
    tracemalloc.start()
    try:
        fit = simulate.growth_slope(record)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fit.slope == pytest.approx(0.3, rel=1e-12)
    assert peak < 3 * window_bytes


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

    def error(scheme: stencil.Scheme, J: int) -> float:
        # weighted l2 error against the exact profile at the time reached
        grid = Grid(J=J, lam=scheme.lam_float)
        n = round(0.25 / grid.dt)
        u = np.array([f(x) for x in grid.xs])
        for _ in range(n):
            u = operators.step_interval(scheme, 1, u)
        ref = simulate.exact_solution(f, float(scheme.velocity), n * grid.dt, grid)
        return float(np.sqrt(grid.dx * np.sum((u - ref) ** 2)))

    up = stencil.builtin("upwind", lam_a=0.5)
    lw = stencil.builtin("lax-wendroff", lam_a=0.5)
    assert 1.5 < error(up, 40) / error(up, 80) < 2.5  # first order
    assert 3.0 < error(lw, 40) / error(lw, 80) < 5.0  # second order


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


def test_energy_identity_uses_the_interval_step(monkeypatch) -> None:
    # the identity must check the shipped k = 1 interval step: a perturbed
    # step in its place has to break the balance
    rng = np.random.default_rng(43)
    u = rng.standard_normal(30)
    bound = 1e-12 * float(np.dot(u, u))
    assert simulate.lemma1_identity_residual(u, 0.5, 0.7) <= bound
    shipped, calls = simulate.step_interval, []

    def perturbed(scheme: stencil.Scheme, k: int, v: np.ndarray) -> np.ndarray:
        calls.append((scheme.coefficients, k))
        return shipped(scheme, k, v) + 1e-6

    monkeypatch.setattr(simulate, "step_interval", perturbed)
    assert simulate.lemma1_identity_residual(u, 0.5, 0.7) > bound
    assert calls == [(stencil.builtin("three-point", lam_a=0.5, nu=0.7).coefficients, 1)]


def test_energy_identity_input_validation() -> None:
    with pytest.raises(ValueError):
        simulate.lemma1_identity_residual(np.array([1.0]), 0.5, 0.5)
    with pytest.raises(ValueError):
        simulate.lemma1_identity_residual(np.ones((2, 2)), 0.5, 0.5)


# ---------------------------------------------------------------------------
# record files, written by the simulate report

def test_record_csv_round_trip(tmp_path) -> None:
    s = stencil.builtin("upwind", lam_a=1.0)
    grid = Grid(J=9, lam=s.lam_float)
    ic = {"kind": "gaussian", "center": 0.3, "width_param": 80.0}
    out = str(tmp_path / "run")
    report = experiments.simulate_report(s, 1, 9, 1.0, ic, 12, 6, out)
    rpath, spath, jpath = report["written"]
    assert report["written"] == [out + "_record.csv", out + "_snapshots.csv", out + ".json"]

    rows = Path(rpath).read_text().strip().splitlines()
    assert rows[0] == "n,t,l2norm,ln_l2norm"
    assert len(rows) == 14
    # after J + 1 = 10 shift steps the domain is empty: norm 0, ln blank
    last = rows[-1].split(",")
    assert last[0] == "12" and float(last[2]) == 0.0 and last[3] == ""
    mid = rows[5].split(",")
    assert float(mid[1]) == pytest.approx(4 * grid.dt, rel=1e-15)
    assert float(mid[3]) == pytest.approx(math.log(float(mid[2])), rel=1e-12)

    srows = Path(spath).read_text().strip().splitlines()
    assert srows[0] == "n,j,u"
    assert len(srows) == 1 + 3 * 10  # snapshots at n = 0, 6, 12

    side = json.loads(Path(jpath).read_text())
    assert side["scheme"] == s.name
    assert side["n_recorded"] == 13
    assert side["truncated"] is False
    # the fit rides along; 12 steps are too few for the default window
    assert side["slope"] is None and side["slope_window"] is None
    assert {key: side[key] for key in report["params"]} == report["params"]


def test_record_arrays_and_csv_bytes_are_pinned(tmp_path) -> None:
    # upwind at lam_a = 1 is an exact shift: the norm reaches 0 at step 10
    s = stencil.builtin("upwind", lam_a=1.0)
    grid = Grid(J=9, lam=s.lam_float)
    ic = InitialCondition(kind="gaussian", center=0.3, width_param=80.0)
    rec = simulate.run(s, 1, grid, ic, n_steps=12)
    l2 = rec.l2_norms
    assert l2.size == 13 and l2[-1] == 0.0 and (l2[:10] > 0.0).all()
    times = np.arange(13) * grid.dt
    with np.errstate(divide="ignore"):
        ln = np.log(l2)
    ln[l2 == 0.0] = np.nan
    assert np.array_equal(rec.times, times)
    assert np.array_equal(rec.ln_l2_norms, ln, equal_nan=True)

    path = tmp_path / "run_record.csv"
    assert experiments._write_record(rec, str(tmp_path / "run")) == str(path)
    rows = ["n,t,l2norm,ln_l2norm"] + [
        f"{n},{float(times[n])!r},{float(l2[n])!r},"
        + (repr(float(ln[n])) if l2[n] > 0.0 else "")
        for n in range(13)
    ]
    assert path.read_bytes() == ("\n".join(rows) + "\n").encode()


def test_record_csv_blocks_match_the_per_row_reference(tmp_path) -> None:
    # zero norms start the second block and end it, and the record's last,
    # non-finite norm starts the third
    block, dt = experiments._CSV_BLOCK, 0.00123
    size = 2 * block + 1
    l2 = np.exp(0.01 * np.sin(np.arange(size)) - 1e-5 * np.arange(size))
    l2[block] = l2[2 * block - 1] = 0.0
    l2[-1] = math.inf
    rec = SimulationRecord(l2_norms=l2, snapshots=(), params={"dt": dt})
    path = experiments._write_record(rec, str(tmp_path / "run"))
    rows = ["n,t,l2norm,ln_l2norm"] + [
        f"{n},{n * dt!r},{float(l2[n])!r},"
        + (repr(float(np.log(l2[n]))) if 0.0 < l2[n] < math.inf else "")
        for n in range(size)
    ]
    assert Path(path).read_bytes() == ("\n".join(rows) + "\n").encode()
