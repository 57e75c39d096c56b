"""Spectral radii, operator norms, and renormalized power bounds."""

from __future__ import annotations

import dataclasses
import gc
import itertools
import json
import math
import warnings
import weakref
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from advstab import experiments, operators, spectral, stencil

from dense_band import band_of


# ---------------------------------------------------------------------------
# spectral radius

def test_spectral_radius_dense_respects_limit() -> None:
    A = operators.IntervalOperator(stencil.builtin("upwind", lam_a=0.5), 1,
                                   operators.MAX_DENSE_DIMENSION)
    with pytest.raises(ValueError, match="dense guard"):
        spectral.spectral_radius(A)


def test_spectral_radius_and_operator_norm_take_an_interval_operator_only(monkeypatch) -> None:
    def forbidden(*args, **kwargs):
        raise AssertionError("a value that is not an interval operator reached a solve")

    spectral.spectral_radius(operators.IntervalOperator(stencil.builtin("coeff1"), 1, 20))
    memo = list(spectral._SOLVED)
    monkeypatch.setattr(np.linalg, "eigvals", forbidden)
    monkeypatch.setattr(np.linalg, "norm", forbidden)
    monkeypatch.setattr(spectral, "_solve", forbidden)
    monkeypatch.setattr(spectral, "_power_bounds", forbidden)
    monkeypatch.setattr(spectral, "_certified_norm2", forbidden)
    big = np.broadcast_to(0.0, (operators.MAX_DENSE_DIMENSION + 1,) * 2)  # past the guard
    for A, kind in ((np.eye(3), "ndarray"), (big, "ndarray"), (np.zeros((2, 3)), "ndarray"),
                    ([[1.0]], "list"), (2.0, "float"), (None, "NoneType")):
        # the type is checked first: before the method, n_leading, n_max and the dense guard
        with pytest.raises(TypeError, match=f"spectral_radius takes an IntervalOperator, "
                                            f"not {kind}$"):
            spectral.spectral_radius(A, method="iterative", n_leading=-1)
        with pytest.raises(TypeError, match=f"operator_norm takes an IntervalOperator, "
                                            f"not {kind}$"):
            spectral.operator_norm(A)
        with pytest.raises(TypeError, match=f"power_bound_probe takes an IntervalOperator, "
                                            f"not {kind}$"):
            spectral.power_bound_probe(A, 0)
    assert list(spectral._SOLVED) == memo


def test_spectral_radius_refuses_a_negative_or_fractional_n_leading(monkeypatch) -> None:
    def forbidden(*args, **kwargs):
        raise AssertionError("a bad n_leading reached a solve")

    # n_leading = -1 used to slice w[:-1]: all eigenvalues but the last
    op = operators.IntervalOperator(stencil.builtin("coeff1"), 1, 20)
    spectral.spectral_radius(op)
    spectral.spectral_radius(operators.IntervalOperator(op.scheme, 1, 21))
    memo = list(spectral._SOLVED)  # a lookup of op would move it to the end
    monkeypatch.setattr(spectral, "_solve", forbidden)
    for n_leading in (-1, 2.0, 1.5, "3", None, True):
        with pytest.raises(ValueError, match="n_leading must be a non-negative integer"):
            spectral.spectral_radius(op, n_leading=n_leading)
    assert list(spectral._SOLVED) == memo


def test_spectral_radius_has_only_the_dense_method() -> None:
    op = operators.IntervalOperator(stencil.builtin("coeff1"), 1, 20)
    for method in ("iterative", "auto"):
        with pytest.raises(ValueError, match="unknown method"):
            spectral.spectral_radius(op, method=method)


def test_spectral_radius_known_diagonal() -> None:
    # one coefficient and no ghost: the operator is -2 I
    scheme = stencil.Scheme(name="minus-two", r=0, p=0, coefficients=(Fraction(-2),),
                            lam=Fraction(1), velocity=Fraction(1))
    rep = spectral.spectral_radius(operators.IntervalOperator(scheme, 1, 9))
    assert rep.method == "dense"
    assert abs(rep.rho - 2.0) < 1e-13
    assert rep.residual < 1e-12
    assert abs(rep.leading_eigenvalues[0] - (-2.0)) < 1e-13
    assert rep.modulus_ratio == 1.0
    assert rep.eigen_condition == pytest.approx(1.0, abs=1e-12)


def test_spectral_radius_rotation_complex_pair() -> None:
    # coeff2 at k = 2 grows through a dominant conjugate pair, which turns
    # each step as a rotation does
    rep = spectral.spectral_radius(operators.IntervalOperator(stencil.builtin("coeff2"), 2, 60))
    first, second = rep.leading_eigenvalues[:2]
    assert rep.rho == abs(first) > 1.0
    assert abs(first.imag) > 0.01 and second == first.conjugate()
    assert rep.modulus_ratio == 1.0


def test_spectral_radius_of_the_identity_is_one_by_the_dense_method() -> None:
    rep = spectral.spectral_radius(operators.IntervalOperator(stencil.builtin("identity"), 1, 9))
    assert rep.method == "dense"
    assert rep.rho == pytest.approx(1.0, abs=1e-14)


def test_modulus_ratio_of_a_single_point_and_of_a_zero_spectrum() -> None:
    # a nonzero 1 x 1 matrix has no second eigenvalue: ratio 0
    one = spectral.spectral_radius(operators.IntervalOperator(stencil.builtin("identity"), 1, 0))
    assert (one.rho, one.modulus_ratio) == (1.0, 0.0)
    # upwind at lam a = 1 is the pure shift, nilpotent: ratio 1
    shift = operators.IntervalOperator(stencil.builtin("upwind", lam_a=1.0), 1, 20)
    zero = spectral.spectral_radius(shift)
    assert (zero.rho, zero.modulus_ratio) == (0.0, 1.0)


def test_jordan_block_floor_pivots_neither_overflow_nor_hide_the_defect() -> None:
    # every pivot of the nilpotent shift is the eps ||A||_1 floor: without
    # rescaling, the back substitution would pass 1e308 within 20 rows
    A = np.eye(300, k=1)
    w, residual, condition = spectral._solve(A, band_of(A))
    assert abs(w[0]) == 0.0 and residual < 1e-14
    assert condition == math.inf


def test_spectrum_report_prints_an_infinite_condition_as_null(monkeypatch) -> None:
    solve = spectral.spectral_radius

    def defective(A, **kw):
        return dataclasses.replace(solve(A, **kw), eigen_condition=math.inf)

    monkeypatch.setattr(spectral, "spectral_radius", defective)
    report = experiments.spectrum_report(stencil.builtin("coeff2"), 2, 60, 1.0, False,
                                         None, None)
    assert report["eigen_condition"] is None
    json.dumps(report, allow_nan=False)


# ---------------------------------------------------------------------------
# the per-process memo of interval spectra; each test clears it first

def _count_eigvals(monkeypatch) -> list[int]:
    calls, eigvals = [], np.linalg.eigvals

    def counted(a):
        calls.append(np.shape(a)[0])
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    return calls


def test_equal_operators_share_one_solve_and_one_certificate(monkeypatch) -> None:
    spectral._SOLVED.clear()
    first = spectral.spectral_radius(
        operators.IntervalOperator(stencil.builtin("coeff2"), 2, 60))

    def forbidden(*args, **kwargs):
        raise AssertionError("an interval spectrum already solved was solved again")

    monkeypatch.setattr(np.linalg, "eigvals", forbidden)
    again = spectral.spectral_radius(
        operators.assemble_matrix(stencil.builtin("coeff2"), 2, 60), n_leading=3)
    assert again == dataclasses.replace(
        first, leading_eigenvalues=first.leading_eigenvalues[:3])
    (w, residual, condition), = spectral._SOLVED.values()
    assert w.shape == (61,) and not w.flags.writeable
    assert (residual, condition) == (first.residual, first.eigen_condition)


def test_report_numbers_are_python_floats_fresh_and_from_the_memo() -> None:
    spectral._SOLVED.clear()
    op = operators.IntervalOperator(stencil.builtin("coeff2"), 2, 30)
    for report in (spectral.spectral_radius(op), spectral.spectral_radius(op)):  # solve, hit
        assert {type(getattr(report, name)) for name in
                ("rho", "residual", "eigen_condition", "modulus_ratio")} == {float}


def test_memo_keeps_the_most_recently_used_sixteen(monkeypatch) -> None:
    spectral._SOLVED.clear()
    scheme = stencil.builtin("upwind", lam_a=0.5)
    for J in range(2, 18):
        spectral.spectral_radius(operators.IntervalOperator(scheme, 1, J))
    spectral.spectral_radius(operators.IntervalOperator(scheme, 1, 2))  # a hit: now newest
    calls = _count_eigvals(monkeypatch)
    spectral.spectral_radius(operators.IntervalOperator(scheme, 1, 18))
    assert calls == [19] and len(spectral._SOLVED) == 16
    assert (scheme, 1, 3) not in spectral._SOLVED  # the oldest is gone
    assert (scheme, 1, 2) in spectral._SOLVED
    spectral.spectral_radius(operators.IntervalOperator(scheme, 1, 3))
    assert calls == [19, 4]


def test_memo_keeps_no_operator_alive() -> None:
    spectral._SOLVED.clear()
    A = operators.IntervalOperator(stencil.builtin("coeff2"), 2, 60)
    ref = weakref.ref(A)
    spectral.spectral_radius(A)
    del A
    gc.collect()
    assert ref() is None and len(spectral._SOLVED) == 1


def test_the_memo_does_not_move_a_scan_after_a_spectrum_report() -> None:
    spectral._SOLVED.clear()
    coeff2 = stencil.builtin("coeff2")
    report = experiments.spectrum_report(coeff2, 2, 1000, 1.0, False, None, None)
    after_report = spectral.rho_vs_J_scan(coeff2, 2, [60, 1000])
    spectral._SOLVED.clear()
    cleared = spectral.rho_vs_J_scan(coeff2, 2, [60, 1000])
    assert [row.rho for row in after_report] == [row.rho for row in cleared]
    assert after_report[1].rho == report["rho"]


def test_a_scan_row_already_solved_never_reads_the_dense_entries(monkeypatch) -> None:
    spectral._SOLVED.clear()
    coeff2 = stencil.builtin("coeff2")
    spectral.spectral_radius(operators.IntervalOperator(coeff2, 2, 60))
    solved = spectral.rho_vs_J_scan(coeff2, 2, [60])

    def forbidden(self):
        raise AssertionError("a scan row in the memo built its dense entries")

    monkeypatch.setattr(operators.IntervalOperator, "entries", property(forbidden))
    assert spectral.rho_vs_J_scan(coeff2, 2, [60]) == solved
    with pytest.raises(ValueError, match="dense guard"):
        spectral.rho_vs_J_scan(coeff2, 2, [operators.MAX_DENSE_DIMENSION])


def _banded(rng: np.random.Generator, n: int, kl: int, ku: int) -> np.ndarray:
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    i, j = np.indices((n, n))
    return np.where((i - j <= kl) & (j - i <= ku), M, 0.0)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 60), kl=st.integers(0, 4), ku=st.integers(0, 4),
       seed=st.integers(0, 2**32 - 1))
def test_band_solves_match_dense_solves(n: int, kl: int, ku: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    A = _banded(rng, n, kl, ku)
    z = complex(*rng.standard_normal(2))
    M = A - z * np.eye(n)
    # a forward error of 1e-10 needs a condition number well below 1/(1e6 eps)
    assume(np.linalg.cond(M) < 1e4)
    lu = spectral._BandLU(band_of(A), z)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for got, want in ((lu.solve(b), np.linalg.solve(M, b)),
                      (lu.solve_adjoint(b), np.linalg.solve(M.conj().T, b))):
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), kl=st.integers(0, 4), ku=st.integers(0, 4),
       extra=st.integers(0, 3), diagonal=st.booleans(), seed=st.integers(0, 2**32 - 1))
# one product per shift in each update: numpy's SIMD loops would fuse it
@example(n=2, kl=1, ku=0, extra=1, diagonal=False, seed=0)
@example(n=3, kl=1, ku=0, extra=1, diagonal=False, seed=1)
def test_a_batch_of_shifts_factors_each_shift_as_alone(
    n: int, kl: int, ku: int, extra: int, diagonal: bool, seed: int
) -> None:
    rng = np.random.default_rng(seed)
    A = _banded(rng, n, 0, 0) if diagonal else _banded(rng, n, kl, ku)
    # A[0, 0] zeroes the first pivot: a swap, or the floor for a diagonal A,
    # at that shift only; 1e3 makes A - zI diagonally dominant, so it never swaps
    extras = rng.standard_normal(extra) + 1j * rng.standard_normal(extra)
    z = np.concatenate([[A[0, 0], 1e3], extras])
    kl, ku, band_rows = band = band_of(A)
    # A - zI in _BandLU's row layout, one trailing column per shift
    rows = np.zeros((n + kl, 2 * kl + ku + 1, z.size), dtype=np.complex128)
    rows[:n, :kl + ku + 1] = band_rows[ku:ku + n, :, None]
    rows[:n, kl] -= z
    floor = spectral._BandLU(band, z[0]).floor
    blocks, eliminate = spectral._band_elimination(rows, kl, floor)
    pivots = eliminate()
    for s, shift in enumerate(z):
        lu = spectral._BandLU(band, shift)
        assert pivots[:, s].tolist() == lu.pivots
        assert blocks[:, 1:, 0, s].tobytes() == lu.lower.tobytes()
        assert blocks[:, 0, :, s].tobytes() == lu.upper.tobytes()
    assert not pivots[:, 1].any()
    if diagonal:
        assert np.argwhere(blocks[:, 0, 0] == floor).tolist() == [[0, 0]]
    elif kl and n > 1:
        assert pivots[0, 0] > 0


def test_a_nan_or_negative_pivot_fails_only_its_own_batch_element() -> None:
    # LDL^T of 2 x 2 tridiagonal bands [-1, 2, -1] at once, upper half only,
    # with a NaN on one diagonal and a -5 on another
    n = 6
    rows = np.zeros((n + 1, 3, 2, 2))
    rows[:n, 1], rows[:n - 1, 2] = 2.0, -1.0
    rows[3, 1, 0, 1] = np.nan
    rows[2, 1, 1, 0] = -5.0
    alone = [spectral._band_elimination(rows[..., i, j, None].copy(), 1)[1]()
             for i, j in itertools.product(range(2), repeat=2)]
    low = spectral._band_elimination(rows, 1)[1]()
    assert low.ravel().tobytes() == np.concatenate(alone).tobytes()
    assert low[0, 0] == low[1, 1] == pytest.approx(7 / 6)  # the last pivot of [-1, 2, -1]
    assert math.isnan(low[0, 1]) and low[1, 0] < 0.0


def _matrix(name: str, k: int, J: int, **params) -> operators.IntervalOperator:
    return operators.assemble_matrix(stencil.builtin(name, **params), k, J)


@pytest.mark.parametrize("k", [1, 3])
def test_lax_wendroff_keeps_the_better_step_and_flags_its_condition(k: int) -> None:
    # very non-normal: at k=1 the first solve certifies to 8.9e-16 and the
    # second drifts to 1.6e-3; the dominant eigenvalue's kappa_1 is about 1e14
    rep = spectral.spectral_radius(_matrix("lax-wendroff", k, 200, lam_a=0.5))
    assert rep.residual <= 1e-14
    assert rep.eigen_condition > 1e10


@pytest.mark.parametrize("name, k, kappa", [("coeff1", 1, 1.12), ("coeff2", 2, 1.33)])
def test_headline_radius_is_the_largest_eigenvalue_with_a_certificate(
    name: str, k: int, kappa: float
) -> None:
    # the operator, as the commands pass it: a spectrum an earlier test
    # solved in this process comes from the memo, and is checked all the same
    A = operators.IntervalOperator(stencil.builtin(name), k, 994 if name == "coeff1" else 1000)
    rep = spectral.spectral_radius(A)
    assert rep.rho == np.max(np.abs(np.linalg.eigvals(A.entries)))
    assert rep.residual <= 1e-14
    assert rep.eigen_condition == pytest.approx(kappa, rel=0.05)
    assert 0.99 < rep.modulus_ratio <= 1.0


@pytest.mark.parametrize("name, k, params", [
    ("coeff1", 1, {}), ("coeff2", 2, {}), ("coeff2", 1, {}),
    ("lax-friedrichs", 1, {"lam_a": 0.5}), ("lax-wendroff", 2, {"lam_a": 0.9}),
])
def test_condition_estimate_matches_scipy_left_and_right_vectors(
    name: str, k: int, params: dict
) -> None:
    from scipy.linalg import eig

    A = _matrix(name, k, 60, **params)
    w, left, right = eig(A.entries, left=True)
    i = np.argmax(np.abs(w))
    x, y = right[:, i], left[:, i]
    kappa = np.linalg.norm(x) * np.linalg.norm(y) / abs(np.vdot(y, x))
    rep = spectral.spectral_radius(A)
    # Lax-Friedrichs and Lax-Wendroff are very non-normal (kappa 1e11 and
    # 6e14): there the two estimates agree to a few percent
    rel = 1e-8 if kappa < 1e3 else 0.05
    assert rep.eigen_condition == pytest.approx(kappa, rel=rel)


# ---------------------------------------------------------------------------
# operator norm

def test_operator_norm_known_matrices() -> None:
    # the pure shift drops the last node and keeps the rest: norm 1
    shift = operators.IntervalOperator(stencil.builtin("upwind", lam_a=1.0), 1, 16)
    assert spectral.operator_norm(shift) == 1.0
    identity = operators.IntervalOperator(stencil.builtin("identity"), 1, 16)
    assert abs(spectral.operator_norm(identity) - 1.0) < 1e-14


def test_operator_norm_matches_svd_on_random_dense() -> None:
    rng = np.random.default_rng(29)
    for lam_a, nu in rng.uniform(-0.5, 1.5, (5, 2)):
        A = _matrix("three-point", int(rng.integers(1, 5)), 59, lam_a=lam_a, nu=nu)
        want = np.linalg.svd(A.entries, compute_uv=False)[0]
        assert abs(spectral.operator_norm(A) - want) < 1e-10 * max(1.0, want)


def test_band_of_a_plain_array_holds_its_nonzero_diagonals() -> None:
    # the tests' oracle for IntervalOperator.band and their feed to the band kernels
    rng = np.random.default_rng(43)
    for dtype in (np.float64, np.complex128):
        for _ in range(250):
            n = int(rng.integers(1, 12))
            A = (rng.standard_normal((n, n)) * (rng.random((n, n)) < rng.random())).astype(dtype)
            i, j = np.nonzero(A)
            kl, ku, rows = band_of(A)
            assert (kl, ku) == (int((i - j).max(initial=0)), int((j - i).max(initial=0)))
            assert rows.shape == (n + kl + ku, kl + ku + 1) and rows.dtype == dtype
            # rows[ku + i, kl + d] = A[i, i + d], zero everywhere else
            written = np.zeros_like(A)
            for d in range(-kl, ku + 1):
                row = np.arange(max(0, -d), n - max(0, d))
                written[row, row + d] = rows[ku + row, kl + d]
            assert np.array_equal(written, A)
            assert np.count_nonzero(rows) == np.count_nonzero(A)


def test_a_band_past_the_dense_guard_solves_with_no_dense_matrix() -> None:
    op = operators.IntervalOperator(stencil.builtin("coeff2"), 2, 4999)
    with pytest.raises(ValueError, match="dense guard"):
        op.entries
    kl, ku, rows = op.band
    assert (kl, ku) == (7, 7) and rows.shape == (op.n + 14, 15)
    z = 2.0 + 0.5j  # well outside the spectrum, so A - zI is well conditioned
    rng = np.random.default_rng(47)
    b = rng.standard_normal(op.n) + 1j * rng.standard_normal(op.n)
    x = spectral._BandLU(op.band, z).solve(b)
    # A x from two real steps: no n x n array exists anywhere
    (real,), (imag,) = op.advance(x.real, 1), op.advance(x.imag, 1)
    residual = real[0] + 1j * imag[0] - z * x - b
    assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(b)


def _three_point(lam_a: float, nu: float, k: int, J: int) -> operators.IntervalOperator:
    return operators.assemble_matrix(stencil.builtin("three-point", lam_a=lam_a, nu=nu), k, J)


@st.composite
def _three_point_batches(draw) -> list[tuple[float, float, int, int]]:
    # more operators than one (shrunken) chunk, of mixed sizes
    size = draw(st.integers(spectral._GRAM_CHUNK + 1, 3 * spectral._GRAM_CHUNK + 1))
    batch = []
    for _ in range(size):
        lam_a, nu = (draw(st.floats(-0.5, 1.5)) for _ in range(2))
        k = draw(st.integers(1, 4))
        batch.append((lam_a, nu, k, draw(st.integers(max(1, k - 1), 200))))
    return batch


def _assert_gram_norms_match_svd(ops: list) -> None:
    got = spectral._gram_norms(iter(ops))
    want = np.array([spectral.operator_norm(A) for A in ops])
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-14 * want)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_gram_norms_match_the_svd_in_input_order(data) -> None:
    # a chunk of 4 makes every batch span several chunks of mixed sizes
    with mock.patch.object(spectral, "_GRAM_CHUNK", 4):
        batch = data.draw(_three_point_batches())
        _assert_gram_norms_match_svd([_three_point(*args) for args in batch])


def test_gram_norms_match_the_svd_past_one_full_chunk() -> None:
    rng = np.random.default_rng(41)
    _assert_gram_norms_match_svd([
        _three_point(*rng.uniform(-0.5, 1.5, 2), int(k), int(rng.integers(max(1, k - 1), 60)))
        for k in rng.integers(1, 5, spectral._GRAM_CHUNK + 9)
    ])


@pytest.mark.parametrize("J", [5, 50, 200])
@pytest.mark.parametrize("lam_a", [0.0, 1.0])  # the identity, then the pure shift
def test_gram_norm_of_the_identity_and_the_pure_shift_is_exactly_one(lam_a, J) -> None:
    assert spectral._gram_norms([_three_point(lam_a, lam_a, 1, J)]).tolist() == [1.0]


@pytest.mark.parametrize("lam_a", [0.25, 0.5, 0.9])
def test_gram_norm_without_a_ghost_matches_the_svd(lam_a) -> None:
    # lam_a = nu zeroes a_1, so p = 0: no ghost, and A is lower bidiagonal
    A = _three_point(lam_a, lam_a, 1, 80)
    assert A.scheme.p == 0
    _assert_gram_norms_match_svd([A])


def test_gram_norms_of_one_or_no_operator() -> None:
    _assert_gram_norms_match_svd([_three_point(0.3, 0.6, 2, 37)])
    assert spectral._gram_norms([]).shape == (0,)


def test_gram_norms_of_a_permuted_list_are_the_permuted_norms(monkeypatch) -> None:
    # the identity and the pure shift have closed brackets (lo = hi = 1), so
    # they are settled without a factorization; the others are bisected in
    # chunks of 4, whose members a permutation changes: no norm may depend
    # on the operators it shares a chunk with
    rng = np.random.default_rng(53)
    closed = [_three_point(lam_a, lam_a, 1, J) for lam_a, J in
              [(0.0, 5), (1.0, 40), (0.0, 77), (1.0, 3)]]
    ops = closed + [
        _three_point(*rng.uniform(-0.5, 1.5, 2), int(k), int(rng.integers(max(1, k - 1), 120)))
        for k in rng.integers(1, 5, 21)
    ]
    bisected: list[int] = []
    bisect = spectral._gram_bisect

    def counted(chunk):
        bisected.append(len(chunk))
        return bisect(chunk)

    monkeypatch.setattr(spectral, "_GRAM_CHUNK", 4)
    monkeypatch.setattr(spectral, "_gram_bisect", counted)
    norms = spectral._gram_norms(ops)
    assert norms[:len(closed)].tolist() == [1.0] * len(closed)
    assert sum(bisected) == len(ops) - len(closed)
    # a random order and the lemma1 sweep's, by increasing size
    for order in (rng.permutation(len(ops)), sorted(range(len(ops)), key=lambda i: ops[i].n)):
        permuted = spectral._gram_norms([ops[i] for i in order])
        assert permuted.tobytes() == norms[order].tobytes()


# ---------------------------------------------------------------------------
# power bounds

def test_power_bound_probe_matches_direct_norms() -> None:
    rng = np.random.default_rng(31)
    A = 0.8 * rng.standard_normal((8, 8))
    probe = spectral._power_bounds(A, n_max=12)
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
    probe = spectral._power_bounds(2.0 * np.eye(3), n_max=900)
    assert probe.series[899] == pytest.approx(2.0**900, rel=1e-9)
    assert probe.argmax_n == 900


def test_power_bound_probe_overflow_raises_with_partial_series() -> None:
    with pytest.raises(spectral.PowerBoundOverflow) as info:
        spectral._power_bounds(10.0 * np.eye(2), n_max=400)
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
    A = operators.IntervalOperator(stencil.builtin("coeff1"), 1, 20)
    with pytest.raises(ValueError, match="n_max must be >= 1"):
        spectral.power_bound_probe(A, n_max=0)


def test_power_bound_probe_certifies_most_criterion_7_powers() -> None:
    scheme = stencil.builtin("three-point", lam_a=0.5, nu=0.5)
    probe = spectral.power_bound_probe(operators.assemble_matrix(scheme, 2, 20), n_max=2000)
    assert probe.n_svd < 100


def test_power_bound_probe_falls_back_to_svd_without_a_gap() -> None:
    # equal singular values: 2 theta - ||B||_F^2 is never positive
    probe = spectral._power_bounds(2.0 * np.eye(3), n_max=60)
    assert probe.n_svd == 60
    assert probe.series[59] == pytest.approx(2.0**60, rel=1e-12)
    Q, _ = np.linalg.qr(np.random.default_rng(37).standard_normal((81, 81)))
    probe = spectral._power_bounds(Q, n_max=60)
    assert probe.n_svd == 60
    assert max(abs(x - 1.0) for x in probe.series) < 1e-12


def test_certification_stops_once_theta_stalls_below_the_gap(monkeypatch) -> None:
    # an orthogonal B has B^T B = I: theta = 1 from the first power step on
    # and the gap 2 - 81 is never positive, so the second step sees the stall
    products: list[int] = []

    class Counting(np.ndarray):
        def __matmul__(self, other):
            products[-1] += 1
            return np.asarray(self) @ other

    certified = spectral._certified_norm2

    def counted(B, v):
        products.append(0)
        return certified(B.view(Counting), v)

    monkeypatch.setattr(spectral, "_certified_norm2", counted)
    shift = np.eye(81)[np.roll(np.arange(81), 1)]
    rotation = np.eye(81)
    for i, t in enumerate(np.linspace(0.1, 3.0, 40)):
        rotation[2 * i:2 * i + 2, 2 * i:2 * i + 2] = [[np.cos(t), -np.sin(t)],
                                                      [np.sin(t), np.cos(t)]]
    for A in (shift, rotation):
        products.clear()
        probe = spectral._power_bounds(A, n_max=20)
        assert probe.n_svd == 20
        assert max(abs(x - 1.0) for x in probe.series) < 1e-12
        # a power step is two products, B v and B^T (B v): at most two steps
        assert len(products) == 20 and max(products) <= 2 * 2


def test_power_bound_probe_start_vector_in_null_space() -> None:
    # A @ ones = 0: the power step has no direction, so the SVD must answer
    A = np.array([[1.0, -1.0], [1.0, -1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        probe = spectral._power_bounds(A, n_max=3)
    assert probe.series[0] == pytest.approx(2.0, rel=1e-15)
    assert probe.series[1:] == (0.0, 0.0)
    assert probe.n_svd == 2


def _counted_certificates(monkeypatch) -> list[int]:
    """A one-item list that counts the probe's calls to _certified_norm2."""
    calls = [0]
    certified = spectral._certified_norm2

    def counted(B, v):
        calls[0] += 1
        return certified(B, v)

    monkeypatch.setattr(spectral, "_certified_norm2", counted)
    return calls


def test_a_certified_contraction_stops_at_its_first_zero(monkeypatch) -> None:
    # criterion 7's J = 20 matrix has ||A|| = 0.9973: every norm from the
    # first 0.0 on is proven, not computed
    calls = _counted_certificates(monkeypatch)
    scheme = stencil.builtin("three-point", lam_a=0.5, nu=0.5)
    probe = spectral.power_bound_probe(operators.assemble_matrix(scheme, 2, 20), n_max=10_000)
    first_zero = probe.series.index(0.0) + 1
    assert len(probe.series) == 10_000 and set(probe.series[first_zero - 1:]) == {0.0}
    assert calls[0] == first_zero < 2000


def test_a_norm_above_one_never_ends_the_probe_early(monkeypatch) -> None:
    # ||A|| = 4.06: the series underflows from n = 1089 on, but without a
    # certified contraction nothing proves that it stays there
    calls = _counted_certificates(monkeypatch)
    probe = spectral._power_bounds(np.array([[0.5, 4.0], [0.0, 0.5]]), n_max=1500)
    assert set(probe.series[1088:]) == {0.0} and probe.series[1087] > 0.0
    assert calls[0] == 1500


def _powers_without_exit(A: np.ndarray):
    """The probe's loop with no exit: every norm is multiplied out and certified."""
    size = A.shape[0]
    B = np.eye(size)
    v = np.full(size, 1.0 / math.sqrt(size))
    exponent = 0
    while True:
        B = A @ B
        s, v, _ = spectral._certified_norm2(B, v)
        yield math.ldexp(s, exponent)
        e = math.frexp(s)[1]
        B = np.ldexp(B, -e)
        exponent += e


@settings(max_examples=30, deadline=None)
@given(size=st.integers(1, 40), shape=st.sampled_from(["dense", "bidiagonal", "upper"]),
       norm=st.floats(0.02, 0.9999), tail=st.integers(0, 300),
       seed=st.integers(0, 2**32 - 1))
def test_proven_zeros_of_a_contraction_are_the_computed_ones(
    size: int, shape: str, norm: float, tail: int, seed: int
) -> None:
    G = np.random.default_rng(seed).standard_normal((size, size))
    if shape == "bidiagonal":
        G = np.triu(np.tril(G, 1))
    elif shape == "upper":
        G = np.triu(G)
    A = norm * G / np.linalg.norm(G, 2)
    # a spectral radius of at most 0.7 underflows within a few thousand powers
    assume(np.max(np.abs(np.linalg.eigvals(A))) <= 0.7)
    series = []
    for n, value in enumerate(itertools.islice(_powers_without_exit(A), 20_000), 1):
        series.append(value)
        if value == 0.0 and n >= series.index(0.0) + 1 + tail:
            break
    assert series[-1] == 0.0  # n_max reaches past the underflow
    probe = spectral._power_bounds(A, n_max=len(series))
    assert probe.series == tuple(series)
    assert probe.sup_norm == max(series)
    assert probe.argmax_n == series.index(max(series)) + 1


def test_an_overflowing_certificate_warns_nothing() -> None:
    # ||Bv||^2 = 1e400 overflows: the SVD gives ||A||, and the second power
    # is reported as the probe's own overflow, not as a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(spectral.PowerBoundOverflow) as info:
            spectral._power_bounds(np.diag([1e200, 1e200]), 3)
        assert info.value.n_reached == 1 and info.value.series == [1e200]
        # the certificate alone: ||Bv||^2 overflows for the first B, B^T B v for the second
        for B in (np.diag([1e200, 1e200]), np.diag([1e120, 1.0])):
            s, v, from_svd = spectral._certified_norm2(B, np.full(2, math.sqrt(0.5)))
            assert from_svd and s == pytest.approx(B[0, 0], rel=1e-15)
            assert np.isfinite(v).all()


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
    probe = spectral._power_bounds(A, n_max=200)
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
    probe = spectral._power_bounds(A, n_max=200)
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
    # the spectrum report's eigenvalue CSV holds its eigenvalues exactly
    s = stencil.builtin("lax-wendroff", lam_a=0.5)
    report = experiments.spectrum_report(s, 2, 7, 1.0, True, str(tmp_path / "spec"), None)
    assert report["written"] == [str(tmp_path / "spec.csv"), str(tmp_path / "spec.json")]
    lines = Path(tmp_path / "spec.csv").read_text().strip().splitlines()
    assert lines[0] == "re,im"
    parsed = [[float(x) for x in line.split(",")] for line in lines[1:]]
    assert parsed == report["eigenvalues"] and len(parsed) == 8
    assert any(im != 0.0 for _, im in parsed)
