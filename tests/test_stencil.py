"""Scheme construction and Fourier-symbol analysis."""

from __future__ import annotations

import dataclasses
import json
import math
import re
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from advstab import stencil

EPS = np.finfo(float).eps


def _manifest() -> dict:
    text = (
        resources.files("advstab")
        .joinpath("data/reference_targets.json")
        .read_text(encoding="utf-8")
    )
    return json.loads(text)


# ---------------------------------------------------------------------------
# construction and validation

def test_three_point_coefficients_exact() -> None:
    s = stencil.builtin("three-point", lam_a=0.5, nu=0.75)
    # a_{-1} = (lam*a + nu)/2, a_0 = 1 - nu, a_1 = (nu - lam*a)/2
    assert s.r == 1 and s.p == 1
    assert s.coefficients == (Fraction(5, 8), Fraction(1, 4), Fraction(1, 8))
    assert s.lam == 1 and s.velocity == Fraction(1, 2)


def test_lax_friedrichs_is_nu_equals_one() -> None:
    s = stencil.builtin("lax-friedrichs", lam_a=0.5)
    assert s.coefficients == (Fraction(3, 4), Fraction(0), Fraction(1, 4))


def test_lax_wendroff_is_nu_equals_cfl_squared() -> None:
    s = stencil.builtin("lax-wendroff", lam_a=0.5)
    assert s.coefficients == (Fraction(3, 8), Fraction(3, 4), Fraction(-1, 8))


def test_upwind_trims_to_two_point_stencil() -> None:
    s = stencil.builtin("upwind", lam_a=0.75)
    assert (s.r, s.p) == (1, 0)
    assert s.coefficients == (Fraction(3, 4), Fraction(1, 4))


def test_upwind_unit_cfl_is_pure_shift() -> None:
    # a_0 = 1 - nu = 0 is allowed at the right end because p = 0 there
    s = stencil.builtin("upwind", lam_a=1.0)
    assert (s.r, s.p) == (1, 0)
    assert s.coefficients == (Fraction(1), Fraction(0))


def test_identity_scheme() -> None:
    s = stencil.builtin("identity")
    assert (s.r, s.p) == (0, 0)
    assert s.coefficients == (Fraction(1),)
    assert s.velocity == 0


def test_identity_group_velocity_is_positive_zero() -> None:
    # C' = 0, so -Im(C'/C)/lam is a negative zero unless it is normalised
    (mode,) = stencil.unimodular_modes(stencil.builtin("identity"))
    assert mode.theta == 0.0
    assert mode.group_velocity == 0.0
    assert math.copysign(1.0, mode.group_velocity) == 1.0


def test_builtin_names_cover_all_constructors() -> None:
    for name in stencil.builtin_names():
        if name == "three-point":
            stencil.builtin(name, lam_a=0.5, nu=0.5)
        elif name in ("lax-friedrichs", "upwind", "lax-wendroff"):
            stencil.builtin(name, lam_a=0.5)
        else:
            stencil.builtin(name)


def test_unknown_builtin_rejected() -> None:
    with pytest.raises(ValueError):
        stencil.builtin("nosuch")


@pytest.mark.parametrize(
    "name, lam_a, nu, param",
    [("coeff1", 0.5, None, "lam_a"), ("identity", None, 0.5, "nu"),
     ("upwind", 0.5, 0.9, "nu"), ("lax-wendroff", 0.5, 0.25, "nu")],
)
def test_builtin_rejects_parameters_the_scheme_does_not_take(name, lam_a, nu, param) -> None:
    with pytest.raises(ValueError, match=f"{name} takes no parameter {param}"):
        stencil.builtin(name, lam_a=lam_a, nu=nu)


def test_scheme_validation_rejects_bad_extents() -> None:
    with pytest.raises(ValueError):
        stencil.Scheme(
            name="bad", r=-1, p=0, coefficients=(Fraction(1),),
            lam=Fraction(1), velocity=Fraction(1),
        )
    with pytest.raises(ValueError):
        stencil.Scheme(
            name="bad", r=1, p=1, coefficients=(Fraction(1),),
            lam=Fraction(1), velocity=Fraction(1),
        )
    # zero endpoint with positive extent is not a valid support
    with pytest.raises(ValueError):
        stencil.Scheme(
            name="bad", r=1, p=1,
            coefficients=(Fraction(0), Fraction(1), Fraction(1)),
            lam=Fraction(1), velocity=Fraction(1),
        )


def test_coeffs_float_single_conversion_point() -> None:
    s = stencil.builtin("three-point", lam_a=0.5, nu=0.75)
    assert s.coeffs_float.dtype == np.float64
    assert [float(c) for c in s.coefficients] == list(s.coeffs_float)
    assert list(s.ells) == [-1, 0, 1]
    assert s.lam_a == 0.5 and s.lam_float == 1.0


@pytest.mark.parametrize(
    "coefficient, lam, velocity, what",
    [(10**400, 1, 0, "coefficient a_{0}"), (1, 10**400, 0, "lam"),
     (1, 1, 10**400, "lam * a"), (1, 10**200, 10**200, "lam * a"),
     (1, Fraction(1, 10**400), 0, "lam")],
    ids=["coefficient", "lam", "velocity", "product", "lam-underflow"],
)
def test_scheme_refuses_values_beyond_float_range(coefficient, lam, velocity, what) -> None:
    with pytest.raises(ValueError, match=re.escape(f"{what} lies ")):
        stencil.Scheme(name="big", r=0, p=0, coefficients=(Fraction(coefficient),),
                       lam=Fraction(lam), velocity=Fraction(velocity))


# ---------------------------------------------------------------------------
# consistency and amplification

def test_three_point_family_is_exactly_consistent() -> None:
    for lam_a, nu in ((0.5, 0.75), (0.3, 1.0), (1.0, 1.0), (0.7, 0.49)):
        s = stencil.builtin("three-point", lam_a=lam_a, nu=nu)
        assert stencil.consistency_residuals(s) == (0.0, 0.0)


def test_identity_consistency_with_zero_velocity() -> None:
    assert stencil.consistency_residuals(stencil.builtin("identity")) == (0.0, 0.0)


def test_wide_builtin_residuals_match_recorded_values() -> None:
    man = _manifest()["builtin_measured"]
    for name in ("coeff1", "coeff2"):
        r0, r1 = stencil.consistency_residuals(stencil.builtin(name))
        assert abs(r0 - man[name]["r0"]) <= 1e-15
        assert abs(r1 - man[name]["r1"]) <= 1e-15


def test_amplification_factor_lax_wendroff_at_pi() -> None:
    # C(pi) = a_0 - (a_{-1} + a_1) = 1 - 2 nu
    s = stencil.builtin("lax-wendroff", lam_a=0.5)
    value = stencil.amplification_factor(s, math.pi)
    assert isinstance(value, complex)
    assert abs(value - 0.5) < 1e-15


def test_amplification_factor_at_zero_is_coefficient_sum() -> None:
    s = stencil.builtin("three-point", lam_a=0.3, nu=0.6)
    assert abs(stencil.amplification_factor(s, 0.0) - 1.0) < 1e-15


# ---------------------------------------------------------------------------
# von Neumann supremum

def _brute_force_sup(s: stencil.Scheme, n: int = 200001) -> float:
    thetas = np.linspace(-math.pi, math.pi, n)
    vals = np.zeros(n, dtype=np.complex128)
    for a, ell in zip(s.coeffs_float, s.ells):
        vals += a * np.exp(1j * ell * thetas)
    return float(np.max(np.abs(vals)))


def test_sup_matches_brute_force_on_stable_scheme() -> None:
    s = stencil.builtin("lax-wendroff", lam_a=0.5)
    sup, argmax = stencil.von_neumann_sup(s)
    assert abs(sup - _brute_force_sup(s)) < 1e-9
    assert abs(sup - 1.0) < 1e-12
    assert argmax


def test_sup_matches_brute_force_on_unstable_scheme() -> None:
    # nu < (lam*a)^2 violates the dissipation bound, sup > 1
    s = stencil.builtin("three-point", lam_a=0.7, nu=0.2)
    sup, _ = stencil.von_neumann_sup(s)
    assert sup > 1.0 + 1e-3
    assert abs(sup - _brute_force_sup(s)) < 1e-9


def test_sup_excess_of_wide_builtins_matches_recorded() -> None:
    man = _manifest()["builtin_measured"]
    for name in ("coeff1", "coeff2"):
        sup, _ = stencil.von_neumann_sup(stencil.builtin(name))
        assert abs((sup - 1.0) - man[name]["von_neumann_sup_excess"]) <= 1e-12


def test_sup_rejects_undersampling() -> None:
    # r + p = 4100 > 2**14 / 4: the thetas x ells phase table alone would
    # need about 1.07 GB, so the check must come before any sampling
    s = stencil.Scheme(
        name="too-wide", r=2050, p=2050, coefficients=(Fraction(1, 4101),) * 4101,
        lam=Fraction(1), velocity=Fraction(0),
    )
    with pytest.raises(ValueError, match=r"r \+ p = 4100"):
        stencil.von_neumann_sup(s)
    with pytest.raises(ValueError, match=r"r \+ p = 4100"):
        stencil.unimodular_modes(s)


# ---------------------------------------------------------------------------
# group velocity and mode tables

def test_group_velocity_upwind_shift() -> None:
    # C(theta) = e^{-i theta}: arg C is linear, v_g = a = 1 everywhere
    s = stencil.builtin("upwind", lam_a=1.0)
    for theta in (0.0, 0.3, -1.1, 2.5):
        assert abs(stencil.group_velocity(s, theta) - 1.0) < 1e-7


def test_group_velocity_lax_wendroff_at_origin_is_velocity() -> None:
    s = stencil.builtin("lax-wendroff", lam_a=0.5)
    assert abs(stencil.group_velocity(s, 0.0) - 0.5) < 1e-7


def test_group_velocity_rejects_zero_amplification() -> None:
    # at lam*a = 0, nu = 1 the symbol is cos(theta), zero at pi/2
    s = stencil.builtin("three-point", lam_a=0.0, nu=1.0)
    with pytest.raises(ValueError):
        stencil.group_velocity(s, math.pi / 2)


def test_lax_wendroff_single_mode_family() -> None:
    s = stencil.builtin("lax-wendroff", lam_a=0.5)
    modes = stencil.unimodular_modes(s)
    assert len(modes) == 1
    # |C| is quartically flat at 0, where f = f' = 0: Newton leaves the
    # sample at theta = 0 in place; C inherits the phase -lam*a*theta
    assert abs(modes[0].theta) < 1e-3
    z = stencil.amplification_factor(s, modes[0].theta)
    assert abs(abs(z) - 1.0) < 1e-12
    assert abs(z - 1.0) < 1e-3
    assert abs(modes[0].group_velocity - 0.5) < 1e-6


def test_wide_builtin_mode_tables_match_recorded() -> None:
    man = _manifest()["builtin_measured"]
    for name in ("coeff1", "coeff2"):
        modes = stencil.unimodular_modes(stencil.builtin(name))
        ref = man[name]["modes"]
        assert len(modes) == len(ref) == 5
        for mode, row in zip(modes, ref):
            assert abs(mode.theta / math.pi - row["theta_over_pi"]) <= 1e-6
            assert abs(mode.group_velocity - row["group_velocity"]) <= 1e-8
            assert abs(mode.modulus_excess - row["modulus_excess"]) <= 1e-10


@pytest.mark.parametrize("name", ["upwind", "lax-wendroff", "lax-friedrichs"])
def test_pure_shift_reports_one_mode_at_zero(name: str) -> None:
    # at lam*a = 1 each is u_j <- u_{j-1}: |C| = 1 up to rounding, and that
    # noise must not be read as thousands of local maxima
    s = stencil.builtin(name, lam_a=1.0)
    assert s.coefficients == (Fraction(1), Fraction(0))
    assert stencil.von_neumann_sup(s) == (1.0, [0.0])
    modes = stencil.unimodular_modes(s)
    assert [(m.theta, m.modulus_excess, m.group_velocity) for m in modes] == [(0.0, 0.0, 1.0)]


_endpoint = hst.floats(-2.0, 2.0).filter(lambda x: x != 0.0)


@hst.composite
def _random_schemes(draw) -> stencil.Scheme:
    r, p = draw(hst.integers(0, 3)), draw(hst.integers(0, 3))
    inner = draw(hst.lists(hst.floats(-2.0, 2.0), min_size=max(r + p - 1, 0),
                           max_size=max(r + p - 1, 0)))
    coeffs = [draw(_endpoint)] if r + p == 0 else [draw(_endpoint), *inner, draw(_endpoint)]
    return stencil.Scheme(
        name="random", r=r, p=p, coefficients=tuple(Fraction(c) for c in coeffs),
        lam=Fraction(1), velocity=Fraction(1),
    )


@settings(max_examples=80, deadline=None)
@given(s=_random_schemes())
def test_refined_maxima_bound_the_grid_and_are_stationary(s: stencil.Scheme) -> None:
    a = s.coeffs_float
    # eps is relative to the rounding unit of the symbol sum, sum |a_l|
    scale, slope = np.sum(np.abs(a)), np.sum(np.abs(s.ells * a))
    sup, argmax = stencil.von_neumann_sup(s)
    grid = np.linspace(-math.pi, math.pi, 2**16, endpoint=False)
    assert sup >= np.max(np.abs(stencil.amplification_factor(s, grid))) - 4 * EPS * scale
    assert argmax
    for theta in argmax:
        c = stencil.amplification_factor(s, theta)
        dc = complex(np.sum(1j * s.ells * a * np.exp(1j * s.ells * theta)))
        assert abs((c.conjugate() * dc).real) <= 8 * EPS * slope * scale


@pytest.mark.parametrize("exponent", [-560, 520])
def test_symbol_maxima_scale_exactly_with_the_coefficients(exponent: int) -> None:
    # |C|^2 is near 2^(2 exponent): it underflows (or overflows) in float64
    # unless the maxima search rescales; a power of two scales exactly
    def scheme(scale: float) -> stencil.Scheme:
        return stencil.Scheme(
            name="scaled", r=1, p=1, lam=Fraction(1), velocity=Fraction(1),
            coefficients=tuple(Fraction(c * scale) for c in (0.7, 0.5, -0.6)),
        )

    sup, argmax = stencil.von_neumann_sup(scheme(1.0))
    assert stencil.von_neumann_sup(scheme(2.0**exponent)) == (
        math.ldexp(sup, exponent), argmax
    )


def test_unimodular_modes_reject_unstable_scheme() -> None:
    s = stencil.builtin("three-point", lam_a=0.7, nu=0.2)
    with pytest.raises(ValueError):
        stencil.unimodular_modes(s)


# ---------------------------------------------------------------------------
# scheme files

def test_scheme_json_round_trip_exact(tmp_path) -> None:
    for name in ("coeff1", "coeff2"):
        s = stencil.builtin(name)
        path = tmp_path / f"{name}.json"
        # str of a Fraction is its 'num/den' form
        path.write_text(json.dumps({
            "name": name, "r": s.r, "p": s.p, "lambda": str(s.lam), "a": str(s.velocity),
            "coefficients": [str(c) for c in s.coefficients],
        }))
        back = stencil.load_scheme(str(path))
        assert all(isinstance(c, Fraction) for c in back.coefficients)
        assert back.coefficients == s.coefficients
        assert back.lam == s.lam and back.velocity == s.velocity
        assert (back.r, back.p) == (s.r, s.p)


def test_scheme_json_fractions_stay_rational(tmp_path) -> None:
    path = tmp_path / "tp.json"
    path.write_text(json.dumps({"name": "tp", "r": 1, "p": 1, "lambda": "1", "a": "1/2",
                                "coefficients": ["5/8", "1/4", "1/8"]}))
    back = stencil.load_scheme(str(path))
    assert back.coefficients == (Fraction(5, 8), Fraction(1, 4), Fraction(1, 8))
    assert back.coefficients == stencil.builtin("three-point", lam_a=0.5, nu=0.75).coefficients
    assert back.lam == 1 and back.velocity == Fraction(1, 2)
    assert (back.r, back.p) == (1, 1)


# parameters for every builtin that takes any, 0 and 1 included
_BUILTIN_PARAMS = {
    "three-point": [dict(lam_a=la, nu=nu) for la in (0, 0.5, 1) for nu in (0, 0.75, 1)],
    **{name: [dict(lam_a=la) for la in (0, 0.3, 1)]
       for name in ("lax-friedrichs", "upwind", "lax-wendroff")},
}


def test_builtins_written_as_scheme_files_load_back_equal(tmp_path) -> None:
    # the two doors agree: each builtin, written from its exact rationals,
    # is the same scheme through load_scheme, down to the float conversions
    path = tmp_path / "s.json"
    for name in stencil.builtin_names():
        for params in _BUILTIN_PARAMS.get(name, [{}]):
            s = stencil.builtin(name, **params)
            path.write_text(json.dumps({
                "name": "from-file", "r": s.r, "p": s.p, "lambda": str(s.lam),
                "a": str(s.velocity), "coefficients": [str(c) for c in s.coefficients],
            }))
            back = stencil.load_scheme(str(path))
            assert back.name == "from-file"
            assert dataclasses.replace(back, name=s.name) == s, (name, params)
            assert back.coeffs_float.tobytes() == s.coeffs_float.tobytes()
            assert back.ells.tobytes() == s.ells.tobytes()
            assert (back.lam_float, back.lam_a) == (s.lam_float, s.lam_a)


def test_load_scheme_accepts_float_lambda(tmp_path) -> None:
    path = tmp_path / "s.json"
    path.write_text(
        json.dumps(
            {
                "name": "custom",
                "r": 1,
                "p": 0,
                "lambda": 0.5,
                "a": 2,
                "coefficients": ["1/2", "1/2"],
            }
        )
    )
    s = stencil.load_scheme(str(path))
    assert s.lam == Fraction(1, 2)
    assert s.lam_a == 1.0
