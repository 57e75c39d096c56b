"""Interval stepping, matrix assembly, exact half-line windows, matrix files."""

from __future__ import annotations

import json
import os
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from advstab import boundary, operators, stencil
from advstab.operators import Grid, IntervalOperator, SupportedSequence


def _three_point_display(lam_a: float, nu: float, J: int, k: int) -> np.ndarray:
    """Expected interval matrix, built directly from the displayed entries."""
    am1 = (lam_a + nu) / 2.0
    a0 = 1.0 - nu
    a1 = (nu - lam_a) / 2.0
    n = J + 1
    E = np.zeros((n, n))
    for i in range(n):
        if i > 0:
            E[i, i - 1] = am1
        E[i, i] = a0
        if i + 1 < n:
            E[i, i + 1] = a1
    if k == 1:
        E[n - 1, n - 1] = a0 + a1
        E[n - 1, n - 2] = am1
    elif k == 2:
        E[n - 1, n - 1] = a0 + a1 * 2.0
        E[n - 1, n - 2] = am1 - a1
    else:
        raise ValueError("display known for k = 1, 2 only")
    return E


# ---------------------------------------------------------------------------
# grid

def test_grid_spacing_and_nodes() -> None:
    g = Grid(J=9, L=2.0, lam=0.5)
    assert g.dx == 0.2
    assert g.dt == 0.1
    assert np.allclose(g.xs, np.arange(10) * 0.2)
    assert g.xs[0] == 0.0


def test_grid_validation() -> None:
    with pytest.raises(ValueError):
        Grid(J=0)
    with pytest.raises(ValueError):
        Grid(J=5, L=-1.0)
    with pytest.raises(ValueError):
        Grid(J=5, lam=0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            Grid(J=5, L=bad)
        with pytest.raises(ValueError):
            Grid(J=5, lam=bad)


# ---------------------------------------------------------------------------
# interval stepping and assembly

def test_interval_matrices_match_displays_exactly() -> None:
    for lam_a, nu in ((0.5, 0.7), (0.5, 0.75), (0.3, 1.0)):
        s = stencil.builtin("three-point", lam_a=lam_a, nu=nu)
        for k in (1, 2):
            for J in (4, 7, 12):
                A = operators.assemble_matrix(s, k, J)
                assert np.array_equal(A.entries, _three_point_display(lam_a, nu, J, k))


def test_step_interval_agrees_with_matrix_product() -> None:
    rng = np.random.default_rng(5)
    cases = [
        (stencil.builtin("lax-wendroff", lam_a=0.5), 1, 25),
        (stencil.builtin("three-point", lam_a=0.4, nu=0.6), 2, 30),
        (stencil.builtin("coeff1"), 1, 40),
        (stencil.builtin("coeff2"), 2, 40),
    ]
    for scheme, k, J in cases:
        A = operators.assemble_matrix(scheme, k, J).entries
        u = rng.standard_normal(J + 1)
        direct = operators.step_interval(scheme, k, u)
        assert np.allclose(direct, A @ u, rtol=1e-13, atol=1e-14)


def test_step_interval_dirichlet_side_sees_zero_ghosts() -> None:
    s = stencil.builtin("three-point", lam_a=0.5, nu=0.7)
    u = np.zeros(8)
    u[0] = 1.0
    v = operators.step_interval(s, 1, u)
    # column 0 of the display: a_0 at row 0, a_{-1} at row 1
    assert v[0] == 1.0 - 0.7
    assert v[1] == (0.5 + 0.7) / 2.0
    assert np.all(v[2:] == 0.0)


def test_step_interval_first_order_ghosts_copy_boundary() -> None:
    s = stencil.builtin("coeff1")
    rng = np.random.default_rng(9)
    u = rng.standard_normal(20)
    v = operators.step_interval(s, 1, u)
    # same result from an explicit extension with constant right tail
    ext = np.concatenate([np.zeros(7), u, np.full(7, u[-1])])
    expected = np.correlate(ext, s.coeffs_float, mode="valid")
    assert np.array_equal(v, expected)


def test_step_interval_rejects_small_grids() -> None:
    s = stencil.builtin("coeff1")
    with pytest.raises(ValueError):
        operators.step_interval(s, 1, np.zeros(10))  # needs r + p = 14
    with pytest.raises(ValueError):
        operators.step_interval(stencil.builtin("upwind", lam_a=0.5), 3, np.zeros(2))


def test_interval_operator_validation() -> None:
    upwind = stencil.builtin("upwind", lam_a=0.5)
    IntervalOperator(upwind, boundary.MAX_EXTRAPOLATION_ORDER, 40)
    with pytest.raises(ValueError):
        IntervalOperator(upwind, 0, 10)
    with pytest.raises(ValueError):
        IntervalOperator(upwind, boundary.MAX_EXTRAPOLATION_ORDER + 1, 40)
    with pytest.raises(ValueError):
        IntervalOperator(stencil.builtin("coeff1"), 1, 12)  # n = 13 < r + p = 14
    with pytest.raises(ValueError):
        IntervalOperator(upwind, 4, 2)  # n = 3 < k


def test_ghost_fold_is_the_exact_ghost_weights() -> None:
    # the fold is the weights as float64, p x k, Fortran-ordered, read-only
    for k in range(1, boundary.MAX_EXTRAPOLATION_ORDER + 1):
        for p in range(0, 9):
            s = stencil.Scheme(
                name="right-sided", r=0, p=p, coefficients=(Fraction(1),) * (p + 1),
                lam=Fraction(1), velocity=Fraction(1),
            )
            fold = IntervalOperator(s, k, max(k, p)).ghost_fold
            assert fold.shape == (p, k) and fold.dtype == np.float64
            assert fold.flags.f_contiguous and not fold.flags.writeable
            assert fold.tolist() == [list(map(float, row)) for row in boundary.ghost_weights(p, k)]


def _reference_step(op: IntervalOperator, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One step as a plain correlation of the padded state; also returns the pad."""
    ext = np.concatenate([np.zeros(op.scheme.r), u, op.ghost_fold @ u[-op.k:]])
    return np.correlate(ext, op.scheme.coeffs_float, mode="valid"), ext


def _unit_vector_matrix(op: IntervalOperator) -> np.ndarray:
    return np.column_stack([_reference_step(op, e)[0] for e in np.eye(op.n)])


_endpoint = hst.floats(-2.0, 2.0).filter(lambda x: x != 0.0)


@hst.composite
def _random_operators(draw) -> IntervalOperator:
    r, p, k = draw(hst.integers(0, 3)), draw(hst.integers(0, 3)), draw(hst.integers(1, 4))
    J = draw(hst.integers(max(1, k - 1, r + p - 1), 60))
    inner = draw(hst.lists(hst.floats(-2.0, 2.0), min_size=max(r + p - 1, 0),
                           max_size=max(r + p - 1, 0)))
    if r + p == 0:
        coeffs = [draw(hst.floats(-2.0, 2.0))]
    else:
        coeffs = [draw(_endpoint), *inner, draw(_endpoint)]
    s = stencil.Scheme(
        name="random", r=r, p=p, coefficients=tuple(Fraction(c) for c in coeffs),
        lam=Fraction(1), velocity=Fraction(1),
    )
    return IntervalOperator(s, k, J)


@settings(max_examples=60, deadline=None)
@given(op=_random_operators(), seed=hst.integers(0, 2**32 - 1))
def test_blocked_step_and_diagonal_assembly_match_the_correlation(
    op: IntervalOperator, seed: int
) -> None:
    n, k = op.n, op.k
    assert not op.toeplitz_block.flags.writeable
    u = np.random.default_rng(seed).standard_normal(n)
    expected, ext = _reference_step(op, u)
    # both sum the same r + p + 1 products, possibly in another order
    bound = 4 * np.finfo(float).eps * np.correlate(
        np.abs(ext), np.abs(op.scheme.coeffs_float), mode="valid"
    )
    assert np.all(np.abs(op.step(u) - expected) <= bound)
    A = op.entries
    for e in np.eye(n):
        assert np.array_equal(A @ e, op.step(e))
    # away from the ghost fold every entry is a single coefficient, exactly
    assert np.array_equal(A[:, :n - k], _unit_vector_matrix(op)[:, :n - k])


@settings(max_examples=40, deadline=None)
@given(op=_random_operators(), seed=hst.integers(0, 2**32 - 1),
       rings=hst.floats(0.0, 3.0), extra=hst.integers(0, 2))
def test_advance_yields_the_repeated_step_states_bitwise(
    op: IntervalOperator, seed: int, rings: float, extra: int
) -> None:
    # 1 to 3 ring lengths, whole multiples and off-by-a-few counts alike
    n_steps = min(max(1, int(rings * operators._RING_STATES) + extra - 1),
                  3 * operators._RING_STATES)
    u = np.random.default_rng(seed).standard_normal(op.n)
    # a random stencil may overflow within n_steps; both sides then agree on inf and NaN
    with np.errstate(over="ignore", invalid="ignore"):
        states = []
        for block in op.advance(u, n_steps):
            assert not block.flags.writeable
            assert block.shape[0] <= operators._RING_STATES and block.shape[1] == op.n
            states.extend(block.copy())
        assert len(states) == n_steps
        v = u
        for state in states:
            v = op.step(v)
            assert np.array_equal(state, v, equal_nan=True)
    # the dense matrix is still the step of each unit vector, column by column
    assert np.array_equal(op.entries, np.column_stack([op.step(e) for e in np.eye(op.n)]))


def test_advance_clears_the_block_product_past_the_ghosts() -> None:
    # the last window row also computes outputs past the ghosts; next to the
    # zero padding Lax-Wendroff's a_-1 + a_0 = 1.08 grows them each step, so
    # unless they are cleared they overflow within a block and reach the
    # state as 0 * inf through the zeros of the Toeplitz block
    op = IntervalOperator(stencil.builtin("lax-wendroff", lam_a=0.2), 1, 40)
    prev = np.full(op.n, 1e308)
    for block in op.advance(prev, 100):
        for state in block:
            expected, ext = _reference_step(op, prev)
            bound = 4 * np.finfo(float).eps * np.correlate(
                np.abs(ext), np.abs(op.scheme.coeffs_float), mode="valid"
            )
            assert np.all(np.abs(state - expected) <= bound)
            prev = state.copy()


def test_advance_ring_is_capped_at_large_grids() -> None:
    op = IntervalOperator(stencil.builtin("coeff2"), 2, 20000)
    sizes = [block.shape[0] for block in op.advance(np.ones(op.n), 100)]
    assert 1 <= sizes[0] < operators._RING_STATES
    assert sizes[0] * 8 * op.n <= operators._RING_BYTES
    assert sum(sizes) == 100
    assert list(op.advance(np.ones(op.n), 0)) == []
    with pytest.raises(ValueError):
        next(op.advance(np.ones(op.n), -1))


def test_headline_matrices_match_the_unit_vector_assembly() -> None:
    for name, k, J in (("coeff1", 1, 994), ("coeff2", 2, 1000)):
        op = IntervalOperator(stencil.builtin(name), k, J)
        u = np.ones(op.n)
        for _ in range(10):
            u = op.step(u)
        assert "entries" not in vars(op)  # stepping never builds the dense matrix
        assert np.array_equal(op.entries, _unit_vector_matrix(op))
        assert op.entries is op.entries
        assert not op.entries.flags.writeable


def test_assemble_matrix_guards_dimension() -> None:
    s = stencil.builtin("upwind", lam_a=0.5)
    with pytest.raises(ValueError):
        operators.assemble_matrix(s, 1, operators.MAX_DENSE_DIMENSION + 5)


def test_identity_scheme_assembles_identity_matrix() -> None:
    s = stencil.builtin("identity")
    A = operators.assemble_matrix(s, 1, 6)
    assert np.array_equal(A.entries, np.eye(7))


# ---------------------------------------------------------------------------
# supported sequences and exact half-line windows

def test_supported_sequence_basics() -> None:
    u = SupportedSequence(values=np.array([1.0, 2.0, 3.0]), offset=-1)
    assert u.support == (-1, 1)
    assert u.value_at(-1) == 1.0
    assert u.value_at(5) == 0.0
    assert u.norm() == np.sqrt(14.0)


def _halfline_schemes() -> list[stencil.Scheme]:
    return [
        stencil.builtin("coeff1"),
        stencil.builtin("coeff2"),
        stencil.builtin("three-point", lam_a=0.5, nu=0.7),
        stencil.builtin("upwind", lam_a=0.5),
    ]


def _on_interval(u: SupportedSequence, J: int) -> np.ndarray:
    return np.array([u.value_at(j) for j in range(J + 1)])


def test_halfline_inflow_matches_lattice_away_from_boundary() -> None:
    # the support grows right by r per step, so on this interval the outflow
    # closure only ever reads zeros and the interval is the inflow half-line
    rng = np.random.default_rng(17)
    for s in _halfline_schemes():
        J = 9 + 20 * s.r + 40
        op = IntervalOperator(s, 2, J)
        seq = SupportedSequence(values=rng.standard_normal(9), offset=0)
        u = _on_interval(seq, J)
        for _ in range(20):
            seq, u = operators.step_halfline_inflow(s, seq), op.step(u)
            assert np.max(np.abs(_on_interval(seq, J) - u)) <= 1e-14 * np.linalg.norm(u)


def test_halfline_inflow_zero_ghosts_at_boundary() -> None:
    s = stencil.builtin("three-point", lam_a=0.5, nu=0.7)
    u = SupportedSequence(values=np.array([1.0]), offset=0)
    v = operators.step_halfline_inflow(s, u)
    # v_0 = a_0 u_0 (left neighbor is the Dirichlet zero), v_1 = a_{-1} u_0
    assert v.value_at(0) == 1.0 - 0.7
    assert v.value_at(1) == (0.5 + 0.7) / 2.0
    assert v.value_at(-1) == 0.0


def test_halfline_inflow_rejects_negative_support() -> None:
    s = stencil.builtin("upwind", lam_a=0.5)
    with pytest.raises(ValueError):
        operators.step_halfline_inflow(
            s, SupportedSequence(values=np.ones(3), offset=-1)
        )


def test_halfline_outflow_matches_lattice_away_from_boundary() -> None:
    # the support grows left by p per step, so on this interval the inflow
    # ghosts only ever read zeros and the interval is the outflow half-line
    rng = np.random.default_rng(19)
    for s in _halfline_schemes():
        J = 20 * s.p + 60
        op = IntervalOperator(s, 2, J)
        seq = SupportedSequence(values=rng.standard_normal(9), offset=J - 8)
        u = _on_interval(seq, J)
        for _ in range(20):
            seq, u = operators.step_halfline_outflow(s, 2, seq, J), op.step(u)
            assert np.max(np.abs(_on_interval(seq, J) - u)) <= 1e-14 * np.linalg.norm(u)


def test_halfline_outflow_windows_narrower_than_k_match_the_interval() -> None:
    # the half-line is zero left of its window, so a window of fewer than k
    # values (or one that grows by p = 0) still has k values ending at J
    rng = np.random.default_rng(29)
    for s in _halfline_schemes():
        J = 20 * s.p + 60
        for k in range(1, 5):
            op = IntervalOperator(s, k, J)
            # the two ghost products round differently, by up to the weights' size
            tol = 1e-15 * (1.0 + np.abs(op.ghost_fold).sum(axis=1).max(initial=0.0))
            for width in range(1, max(k, 2)):
                for gap in (0, 1):
                    seq = SupportedSequence(rng.standard_normal(width), J - gap - width + 1)
                    u = _on_interval(seq, J)
                    for _ in range(20):
                        seq, u = operators.step_halfline_outflow(s, k, seq, J), op.step(u)
                        err = np.max(np.abs(_on_interval(seq, J) - u))
                        assert err <= tol * np.linalg.norm(u)


def test_halfline_outflow_first_order_ghosts() -> None:
    s = stencil.builtin("three-point", lam_a=0.5, nu=0.7)
    u = SupportedSequence(values=np.array([2.0]), offset=0)
    v = operators.step_halfline_outflow(s, 1, u, J=0)
    # ghost copies u_J: v_J = (a_0 + a_1) u_J; below, v_{J-1} = a_1 u_J
    assert v.value_at(0) == (1.0 - 0.7 + (0.7 - 0.5) / 2.0) * 2.0
    assert v.value_at(-1) == (0.7 - 0.5) / 2.0 * 2.0


def test_halfline_outflow_agrees_with_interval_far_from_inflow() -> None:
    # interval state supported near the outflow boundary: one step of the
    # interval equals one step of the outflow half-line shifted to j <= J
    rng = np.random.default_rng(23)
    s = stencil.builtin("coeff1")
    k, J = 1, 60
    u = np.zeros(J + 1)
    u[-12:] = rng.standard_normal(12)
    v_interval = operators.step_interval(s, k, u)
    seq = SupportedSequence(values=u[-12:], offset=J - 11)
    v_half = operators.step_halfline_outflow(s, k, seq, J=J)
    for j in range(J - 20, J + 1):
        assert abs(v_half.value_at(j) - v_interval[j]) < 1e-13


def test_halfline_outflow_rejects_support_beyond_boundary() -> None:
    s = stencil.builtin("upwind", lam_a=0.5)
    with pytest.raises(ValueError):
        operators.step_halfline_outflow(
            s, 1, SupportedSequence(values=np.ones(3), offset=5), J=6
        )


# ---------------------------------------------------------------------------
# matrix files

def test_matrix_save_load_round_trip(tmp_path) -> None:
    s = stencil.builtin("three-point", lam_a=0.5, nu=0.7)
    A = operators.assemble_matrix(s, 2, 12)
    path = str(tmp_path / "A.bin")
    written = operators.save_matrix(A, path)
    back = np.fromfile(path).reshape((A.n, A.n), order="F")
    assert np.array_equal(back, A.entries)
    assert path in written and path + ".json" in written
    sidecar = json.loads(Path(path + ".json").read_text())
    assert sidecar == {"n": 13, "scheme": s.name, "k": 2, "J": 12}


def test_matrix_csv_only_below_limit(tmp_path) -> None:
    s = stencil.builtin("upwind", lam_a=0.5)
    small = operators.assemble_matrix(s, 1, 10)
    big = operators.assemble_matrix(s, 1, 70)
    p1 = str(tmp_path / "small.bin")
    p2 = str(tmp_path / "big.bin")
    w1 = operators.save_matrix(small, p1)
    w2 = operators.save_matrix(big, p2)
    assert p1 + ".csv" in w1 and os.path.exists(p1 + ".csv")
    assert p2 + ".csv" not in w2 and not os.path.exists(p2 + ".csv")
    rows = Path(p1 + ".csv").read_text().strip().splitlines()
    assert len(rows) == 11
    first = [float(x) for x in rows[0].split(",")]
    assert first == list(small.entries[0])


def test_matrix_writes_leave_no_temp_files(tmp_path) -> None:
    s = stencil.builtin("upwind", lam_a=0.5)
    A = operators.assemble_matrix(s, 1, 5)
    operators.save_matrix(A, str(tmp_path / "A.bin"))
    names = sorted(f.name for f in tmp_path.iterdir())
    assert names == ["A.bin", "A.bin.csv", "A.bin.json"]
