"""Interval stepping, matrix assembly, exact half-line windows, matrix files."""

from __future__ import annotations

import json
import os
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from advstab import boundary, experiments, operators, spectral, stencil
from advstab.operators import Grid, IntervalOperator, SupportedSequence

from dense_band import band_of


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
    # finite positive L and lam whose dx or dt = lam dx leaves the float range
    for kwargs in ({"L": 1e-323}, {"L": 1e-300, "lam": 1e-30}, {"L": 1e308, "lam": 1e300}):
        with pytest.raises(ValueError, match="L = .*lam = .*J = 50"):
            Grid(J=50, **kwargs)


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
    # the fold is the weights as float64, p x k, Fortran-ordered, read-only,
    # and one cached object per (p, k): the one the outflow half-line applies
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
            assert IntervalOperator(s, k, max(k, p) + 5).ghost_fold is fold
            assert operators._float_ghost_weights(p, k) is fold


def _reference_step(op: IntervalOperator, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One step as a plain correlation of the padded state; also returns the pad."""
    ext = np.concatenate([np.zeros(op.scheme.r), u, op.ghost_fold @ u[-op.k:]])
    return np.correlate(ext, op.scheme.coeffs_float, mode="valid"), ext


def _rounding_bound(op: IntervalOperator, ext: np.ndarray) -> np.ndarray:
    """4 eps sum_l |a_l| |ext|: how far two orders of the same correlation sums may differ."""
    return 4 * np.finfo(float).eps * np.correlate(
        np.abs(ext), np.abs(op.scheme.coeffs_float), mode="valid")


def _step(op: IntervalOperator, u: np.ndarray) -> np.ndarray:
    """One step of op's scheme and k through the single-step entry, step_interval."""
    return operators.step_interval(op.scheme, op.k, u)


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
@given(op=_random_operators(), seed=hst.integers(0, 2**32 - 1), width=hst.integers(0, 12),
       gap=hst.integers(0, 2), half_J=hst.sampled_from([0, 5]))
def test_blocked_step_and_diagonal_assembly_match_the_correlation(
    op: IntervalOperator, seed: int, width: int, gap: int, half_J: int
) -> None:
    n, k, p = op.n, op.k, op.scheme.p
    assert not op.toeplitz_block.flags.writeable
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n)
    expected, ext = _reference_step(op, u)
    # both sum the same r + p + 1 products, possibly in another order
    assert np.all(np.abs(_step(op, u) - expected) <= _rounding_bound(op, ext))
    A = op.entries
    for e in np.eye(n):
        assert np.array_equal(A @ e, _step(op, e))
    # away from the ghost fold every entry is a single coefficient, exactly
    assert np.array_equal(A[:, :n - k], _unit_vector_matrix(op)[:, :n - k])
    # the outflow half-line: width values from m, then gap zeros up to J;
    # the oracle correlates them on lo..J, zeros below m, with r zeros before
    m = half_J + 1 - gap - width
    lo = min(m - p, half_J + 1 - k)
    x = np.zeros(half_J + 1 - lo)
    x[m - lo:m - lo + width] = rng.standard_normal(width)
    v = operators.step_halfline_outflow(
        op.scheme, k, SupportedSequence(x[m - lo:m - lo + width], m), half_J)
    expected, ext = _reference_step(op, x)
    assert v.support == (m - p, half_J)
    assert np.all(np.abs(v.values - expected[m - p - lo:])
                  <= _rounding_bound(op, ext)[m - p - lo:])


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
            v = _step(op, v)
            assert np.array_equal(state, v, equal_nan=True)
    # the dense matrix is still the step of each unit vector, column by column
    assert np.array_equal(op.entries, np.column_stack([_step(op, e) for e in np.eye(op.n)]))


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
            assert np.all(np.abs(state - expected) <= _rounding_bound(op, ext))
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


def test_advance_refuses_a_state_of_the_wrong_shape() -> None:
    # a scalar, a one-point or an (n, 1) state must not broadcast over J + 1 points
    op = IntervalOperator(stencil.builtin("upwind", lam_a=0.5), 1, 9)
    for u in (np.float64(1.0), np.array([2.0]), np.ones(op.n + 1), np.ones((op.n, 1))):
        for n_steps in (1, 5):
            with pytest.raises(ValueError, match="shape"):
                next(op.advance(u, n_steps))
    assert np.array_equal(next(op.advance(np.ones(op.n), 1)),
                          next(op.advance(list(np.ones(op.n)), 1)))


def test_headline_matrices_match_the_unit_vector_assembly() -> None:
    for name, k, J in (("coeff1", 1, 994), ("coeff2", 2, 1000)):
        op = IntervalOperator(stencil.builtin(name), k, J)
        for _ in op.advance(np.ones(op.n), 10):
            pass
        assert "entries" not in vars(op)  # stepping never builds the dense matrix
        assert np.array_equal(op.entries, _unit_vector_matrix(op))
        assert op.entries is op.entries
        assert not op.entries.flags.writeable


_BAND_PARAMS = {
    "three-point": [{"lam_a": 0.3, "nu": 0.6}, {"lam_a": 0.5, "nu": 0.5}],  # p = 1, p = 0
    "lax-friedrichs": [{"lam_a": 0.5}], "upwind": [{"lam_a": 0.5}],
    "lax-wendroff": [{"lam_a": 0.5}], "identity": [{}], "coeff1": [{}], "coeff2": [{}],
}


@pytest.mark.parametrize("name", stencil.builtin_names())
def test_band_is_the_nonzero_band_of_the_entries(name: str) -> None:
    # the structural widths are the widths of the nonzeros, so the band and
    # the band read off the dense matrix's nonzeros agree bit for bit
    for params in _BAND_PARAMS[name]:
        scheme = stencil.builtin(name, **params)
        for k in range(1, 31):
            fewest = max(k, scheme.r + scheme.p)  # the fewest points the guards allow
            for n in (fewest, fewest + 1, fewest + 17):
                op = IntervalOperator(scheme, k, n - 1)
                kl, ku, rows = op.band
                want_kl, want_ku, want = band_of(op.entries)
                assert (kl, ku) == (want_kl, want_ku)
                assert rows.tobytes() == want.tobytes()
                assert not rows.flags.writeable


@pytest.mark.parametrize("coefficient, k", [("1e305", 30), ("1e307", 10)])
def test_a_fold_that_overflows_is_refused_where_the_band_is_built(coefficient, k) -> None:
    # a_1 times the order-k fold weights passes float range in the ghost
    # columns; the refusal reaches every reader of the band, unwarned
    scheme = stencil.Scheme(name="big", r=0, p=1, lam=Fraction(1), velocity=Fraction(1),
                            coefficients=(Fraction(1), Fraction(coefficient)))
    op = IntervalOperator(scheme, k, 40)
    readers = (lambda: op.band, lambda: op.entries, lambda: spectral.operator_norm(op),
               lambda: spectral.power_bound_probe(op, 3), lambda: spectral.spectral_radius(op))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for read in readers:
            with pytest.raises(ValueError, match=f"scheme 'big' at k = {k} overflows float range"):
                read()
        # a lower order folds with smaller weights and stays finite
        assert np.isfinite(IntervalOperator(scheme, 3, 40).entries).all()


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
    assert u.norm() == np.sqrt(14.0)
    # a batch: rows on one shared window
    u = SupportedSequence(values=np.array([[3.0, 4.0, 0.0], [0.0, 0.0, 2.0]]), offset=1)
    assert u.support == (1, 3)
    assert np.array_equal(u.norm(), [5.0, 2.0])
    with pytest.raises(ValueError):
        SupportedSequence(values=np.zeros((2, 2, 2)), offset=0)


def _halfline_schemes() -> list[stencil.Scheme]:
    return [
        stencil.builtin("coeff1"),
        stencil.builtin("coeff2"),
        stencil.builtin("three-point", lam_a=0.5, nu=0.7),
        stencil.builtin("upwind", lam_a=0.5),
    ]


def _value_at(u: SupportedSequence, j: int) -> float | np.ndarray:
    """u at index j, 0 off its window; for a batch, one value per row."""
    i = j - u.offset
    return u.values[..., i] if 0 <= i < u.values.shape[-1] else np.zeros(u.values.shape[:-1])


def _on_interval(u: SupportedSequence, J: int) -> np.ndarray:
    return np.array([_value_at(u, j) for j in range(J + 1)])


def test_halfline_inflow_matches_lattice_away_from_boundary() -> None:
    # the support grows right by r per step, so on this interval the outflow
    # closure only ever reads zeros and the interval is the inflow half-line
    rng = np.random.default_rng(17)
    for s in _halfline_schemes():
        J = 9 + 20 * s.r + 40
        seq = SupportedSequence(values=rng.standard_normal(9), offset=0)
        u = _on_interval(seq, J)
        for _ in range(20):
            seq, u = operators.step_halfline_inflow(s, seq), operators.step_interval(s, 2, u)
            assert np.max(np.abs(_on_interval(seq, J) - u)) <= 1e-14 * np.linalg.norm(u)


def test_halfline_inflow_zero_ghosts_at_boundary() -> None:
    s = stencil.builtin("three-point", lam_a=0.5, nu=0.7)
    u = SupportedSequence(values=np.array([1.0]), offset=0)
    v = operators.step_halfline_inflow(s, u)
    # v_0 = a_0 u_0 (left neighbor is the Dirichlet zero), v_1 = a_{-1} u_0
    assert _value_at(v, 0) == 1.0 - 0.7
    assert _value_at(v, 1) == (0.5 + 0.7) / 2.0
    assert _value_at(v, -1) == 0.0


def test_halfline_inflow_rejects_negative_support() -> None:
    s = stencil.builtin("upwind", lam_a=0.5)
    for values in (np.ones(3), np.ones((2, 3))):
        u = SupportedSequence(values=values, offset=-1)
        with pytest.raises(ValueError):
            operators.step_halfline_inflow(s, u)


_BATCH_SCHEMES = [("upwind", 0.7, None), ("lax-friedrichs", 0.7, None),
                  ("lax-wendroff", 0.7, None), ("three-point", 0.5, 0.7),
                  ("identity", None, None), ("coeff1", None, None), ("coeff2", None, None)]


def test_halfline_inflow_batch_steps_each_row_as_alone() -> None:
    # rows of different supports share one window from offset 2; every row
    # is the same np.correlate dot as its own 1-D step, so bit for bit
    rng = np.random.default_rng(31)
    for name, lam_a, nu in _BATCH_SCHEMES:
        s = stencil.builtin(name, lam_a, nu)
        rows = [(int(rng.integers(0, 6)), rng.standard_normal(int(rng.integers(1, 20))))
                for _ in range(6)]
        block = np.zeros((len(rows), 26))
        for row, (start, x) in zip(block, rows):
            row[start:start + x.size] = x
        batch = SupportedSequence(values=block, offset=2)
        singles = [SupportedSequence(values=x, offset=2 + start) for start, x in rows]
        for _ in range(15):
            batch = operators.step_halfline_inflow(s, batch)
            singles = [operators.step_halfline_inflow(s, u) for u in singles]
            for i, u in enumerate(singles):
                width = u.values.size
                assert u.offset == batch.offset == 0
                assert np.array_equal(batch.values[i, :width], u.values)
                assert not batch.values[i, width:].any()
                assert _value_at(batch, 3)[i] == _value_at(u, 3)
            # a row norm is the 1-D norm of the row over the shared window
            assert np.array_equal(batch.norm(), [np.linalg.norm(row) for row in batch.values])


def test_halfline_outflow_refuses_a_batch() -> None:
    # the outflow stepper is one interval step of one zero-led window
    s = stencil.builtin("coeff2")
    batch = SupportedSequence(values=np.ones((2, 3)), offset=-2)
    with pytest.raises(ValueError, match="one sequence"):
        operators.step_halfline_outflow(s, 2, batch, J=0)


def test_halfline_outflow_matches_lattice_away_from_boundary() -> None:
    # the support grows left by p per step, so on this interval the inflow
    # ghosts only ever read zeros and the interval is the outflow half-line
    rng = np.random.default_rng(19)
    for s in _halfline_schemes():
        J = 20 * s.p + 60
        seq = SupportedSequence(values=rng.standard_normal(9), offset=J - 8)
        u = _on_interval(seq, J)
        for _ in range(20):
            seq, u = operators.step_halfline_outflow(s, 2, seq, J), operators.step_interval(s, 2, u)
            assert np.max(np.abs(_on_interval(seq, J) - u)) <= 1e-14 * np.linalg.norm(u)


def test_halfline_outflow_windows_narrower_than_k_match_the_interval() -> None:
    # the half-line is zero left of its window, so a window of fewer than k
    # values (or one that grows by p = 0) still has k values ending at J
    rng = np.random.default_rng(29)
    for s in _halfline_schemes():
        J = 20 * s.p + 60
        for k in range(1, 5):
            for width in range(1, max(k, 2)):
                for gap in (0, 1):
                    seq = SupportedSequence(rng.standard_normal(width), J - gap - width + 1)
                    u = _on_interval(seq, J)
                    for _ in range(20):
                        seq = operators.step_halfline_outflow(s, k, seq, J)
                        u = operators.step_interval(s, k, u)
                        err = np.max(np.abs(_on_interval(seq, J) - u))
                        assert err <= 1e-14 * np.linalg.norm(u)


def test_halfline_outflow_first_order_ghosts() -> None:
    s = stencil.builtin("three-point", lam_a=0.5, nu=0.7)
    u = SupportedSequence(values=np.array([2.0]), offset=0)
    v = operators.step_halfline_outflow(s, 1, u, J=0)
    # ghost copies u_J: v_J = (a_0 + a_1) u_J; below, v_{J-1} = a_1 u_J
    assert _value_at(v, 0) == (1.0 - 0.7 + (0.7 - 0.5) / 2.0) * 2.0
    assert _value_at(v, -1) == (0.7 - 0.5) / 2.0 * 2.0


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
        assert abs(_value_at(v_half, j) - v_interval[j]) < 1e-13


def test_halfline_outflow_rejects_support_beyond_boundary() -> None:
    s = stencil.builtin("upwind", lam_a=0.5)
    with pytest.raises(ValueError):
        operators.step_halfline_outflow(
            s, 1, SupportedSequence(values=np.ones(3), offset=5), J=6
        )


# ---------------------------------------------------------------------------
# matrix files, written by the spectrum report

def test_matrix_save_load_round_trip(tmp_path) -> None:
    s = stencil.builtin("three-point", lam_a=0.5, nu=0.7)
    A = operators.assemble_matrix(s, 2, 12)
    path = str(tmp_path / "A.bin")
    written = experiments.spectrum_report(s, 2, 12, 1.0, False, None, path)["written"]
    back = np.fromfile(path).reshape((A.n, A.n), order="F")
    assert np.array_equal(back, A.entries)
    assert path in written and path + ".json" in written
    sidecar = json.loads(Path(path + ".json").read_text())
    assert sidecar == {"n": 13, "scheme": s.name, "k": 2, "J": 12}


def test_matrix_dump_streams_column_blocks_with_the_bytes_of_one_copy(tmp_path) -> None:
    # n = 301 is not a multiple of the block, so the last block is partial
    s = stencil.builtin("coeff2")
    A = operators.IntervalOperator(s, 2, 300)
    assert A.n > experiments._DUMP_COLUMNS and A.n % experiments._DUMP_COLUMNS
    path = tmp_path / "A.bin"
    experiments.spectrum_report(s, 2, 300, 1.0, False, None, str(path))
    assert path.read_bytes() == A.entries.tobytes(order="F")


def test_matrix_csv_only_below_limit(tmp_path) -> None:
    # a CSV copy up to dimension 64, that is J = 63
    s = stencil.builtin("upwind", lam_a=0.5)
    for J, has_csv in ((10, True), (63, True), (64, False), (70, False)):
        path = str(tmp_path / f"A{J}.bin")
        written = experiments.spectrum_report(s, 1, J, 1.0, False, None, path)["written"]
        assert (path + ".csv" in written) == has_csv == os.path.exists(path + ".csv")
    small = operators.assemble_matrix(s, 1, 10)
    rows = Path(tmp_path / "A10.bin.csv").read_text().strip().splitlines()
    assert len(rows) == 11
    first = [float(x) for x in rows[0].split(",")]
    assert first == list(small.entries[0])


def test_matrix_writes_leave_no_temp_files(tmp_path) -> None:
    s = stencil.builtin("upwind", lam_a=0.5)
    experiments.spectrum_report(s, 1, 5, 1.0, False, None, str(tmp_path / "A.bin"))
    names = sorted(f.name for f in tmp_path.iterdir())
    assert names == ["A.bin", "A.bin.csv", "A.bin.json"]


def test_a_failed_write_names_the_path_and_leaves_no_temp_file(tmp_path) -> None:
    # the temporary file cannot be made in a missing directory; a directory
    # at the path is neither unlinked nor renamed over, and keeps its files
    (tmp_path / "dir").mkdir()
    (tmp_path / "dir" / "kept").write_bytes(b"old")
    for path in (tmp_path / "missing" / "A.bin", tmp_path / "dir"):
        with pytest.raises(OSError) as exc:
            experiments._atomic_write_bytes(str(path), [b"x"])
        assert exc.value.filename == str(path) and exc.value.filename2 is None
    assert [f.name for f in tmp_path.iterdir()] == ["dir"]
    assert (tmp_path / "dir" / "kept").read_bytes() == b"old"


def test_a_rewrite_never_renames_onto_the_old_file(monkeypatch, tmp_path) -> None:
    # on ext4 a rename over an existing file starts a writeback that later
    # file operations wait for; the old file is unlinked first instead
    path = tmp_path / "A.json"
    path.write_bytes(b"old")
    replace, seen = os.replace, []

    def recording(src, dst):
        seen.append(os.path.lexists(dst))
        replace(src, dst)

    monkeypatch.setattr(experiments.os, "replace", recording)
    experiments._atomic_write_bytes(str(path), [b"new"])
    assert seen == [False] and path.read_bytes() == b"new"
    assert [f.name for f in tmp_path.iterdir()] == ["A.json"]


def test_a_write_that_fails_part_way_keeps_the_old_file(tmp_path) -> None:
    path = tmp_path / "A.bin"
    path.write_bytes(b"old")

    def chunks():
        yield b"new"
        raise RuntimeError("the chunks stopped")

    with pytest.raises(RuntimeError, match="stopped"):
        experiments._atomic_write_bytes(str(path), chunks())
    assert path.read_bytes() == b"old"
    assert [f.name for f in tmp_path.iterdir()] == ["A.bin"]
