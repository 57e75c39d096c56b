"""Command-line surface: exit codes, report JSON, artifact files."""

from __future__ import annotations

import copy
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from advstab import cli, experiments, operators, simulate, spectral, stencil

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _not_json(token: str):
    raise ValueError(f"{token} is not strict JSON")


def _run(capsys, argv: list[str]) -> tuple[int, dict, str]:
    # every report must be strict JSON: NaN and Infinity tokens fail the parse
    code = cli.main(argv)
    captured = capsys.readouterr()
    raw = captured.out
    return code, (json.loads(raw, parse_constant=_not_json) if raw.strip() else {}), captured.err


# ---------------------------------------------------------------------------
# scheme check

def test_check_stable_scheme(capsys) -> None:
    code, rep, _ = _run(
        capsys, ["scheme", "check", "--scheme", "lax-wendroff", "--lam-a", "0.5"]
    )
    assert code == 0
    assert rep["scheme"] == "lax-wendroff(0.5)"
    assert rep["consistency_residuals"] == {"order0": 0.0, "order1": 0.0}
    assert rep["von_neumann_sup"] == pytest.approx(1.0, abs=1e-12)
    # |C| is quartically flat at theta = 0, so the maximizer wanders a little
    (mode,) = rep["modes"]
    assert abs(mode["theta"]) < 1e-3
    assert mode["group_velocity"] == pytest.approx(0.5, abs=1e-6)


def test_check_samples_the_symbol_table_once(capsys) -> None:
    stencil._local_maxima.cache_clear()
    code, rep, _ = _run(capsys, ["scheme", "check", "--scheme", "coeff1"])
    assert code == 0 and rep["modes"]
    # the supremum computes the refined maxima; the modes reuse them
    info = stencil._local_maxima.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_check_assert_stable_fails_on_amplifying_scheme(capsys) -> None:
    code, rep, _ = _run(
        capsys, ["scheme", "check", "--scheme", "coeff1", "--assert-stable"]
    )
    assert code == 1
    assert rep["stable"] is False
    assert rep["von_neumann_sup"] > 1.0


@pytest.mark.parametrize("tol, stable", [(1e-4, True), (1.1e-5, False)])
def test_check_stable_is_the_one_sided_rule_on_the_printed_values(capsys, tol, stable) -> None:
    # coeff1's sup |C| - 1 is 1.1178e-5: inside 1e-4, just outside 1.1e-5
    code, rep, _ = _run(capsys, ["scheme", "check", "--scheme", "coeff1", "--assert-stable",
                                 "--tol", repr(tol)])
    assert rep["stability_tol"] == tol and rep["stable"] is stable
    assert rep["stable"] is (rep["von_neumann_sup"] <= 1.0 + rep["stability_tol"])
    assert code == (0 if stable else 1)


def test_check_writes_report_file(capsys, tmp_path) -> None:
    out = tmp_path / "check"
    code, rep, _ = _run(
        capsys,
        ["scheme", "check", "--scheme", "upwind", "--lam-a", "0.7", "--out", str(out)],
    )
    assert code == 0
    on_disk = json.loads((tmp_path / "check.json").read_text())
    assert on_disk == rep


def test_check_unknown_scheme_is_usage_error(capsys) -> None:
    code, _, err = _run(capsys, ["scheme", "check", "--scheme", "nope"])
    assert code == 2
    assert "nope" in err


# upwind at lambda*a = 1/2: u_j^{n+1} = (u_{j-1} + u_j)/2
UPWIND_FILE = {"name": "upwind-half", "r": 1, "p": 0, "lambda": "1", "a": "1/2",
               "coefficients": ["1/2", "1/2"]}


def test_check_accepts_scheme_file(capsys, tmp_path) -> None:
    p = tmp_path / "custom.json"
    # Lax-Friedrichs at lambda*a = 1/2
    p.write_text(json.dumps({"name": "lf", "r": 1, "p": 1, "lambda": "1", "a": "1/2",
                             "coefficients": ["3/4", "0", "1/4"]}))
    code, rep, _ = _run(capsys, ["scheme", "check", "--scheme", str(p)])
    assert code == 0
    assert rep["von_neumann_sup"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "argv",
    [["--scheme", "coeff1", "--lam-a", "0.5"],
     ["--scheme", "upwind", "--lam-a", "0.5", "--nu", "0.9"],
     ["--scheme", "FILE", "--lam-a", "0.5"],
     ["--scheme", "FILE", "--nu", "0.5"]],
)
def test_check_rejects_parameters_the_scheme_does_not_take(capsys, tmp_path, argv) -> None:
    p = tmp_path / "custom.json"
    p.write_text(json.dumps(UPWIND_FILE))
    argv = [str(p) if a == "FILE" else a for a in argv]
    code, rep, err = _run(capsys, ["scheme", "check", *argv])
    assert code == 2 and rep == {}
    assert ("nu" if "--nu" in argv else "lam") in err


@pytest.mark.parametrize(
    "field, value",
    [("r", True), ("p", False), ("coefficients", [True, 0.5]), ("lambda", True),
     ("a", True), ("r", 1.0), ("r", "1"), ("lambda", float("inf")),
     # a string is not read digit by digit as the two coefficients 1, 2
     ("coefficients", "12"),
     # exact rationals beyond the float range
     ("coefficients", ["1e400", "1/2"]), ("lambda", "1e400"), ("a", "1e400"),
     # a positive lambda that is 0.0 as a float
     ("lambda", "1e-400"),
     # None replaces the whole document
     (None, [UPWIND_FILE])],
)
def test_check_rejects_booleans_and_non_integer_extents(capsys, tmp_path, field, value) -> None:
    p = tmp_path / "custom.json"
    p.write_text(json.dumps(value if field is None else {**UPWIND_FILE, field: value}))
    code, rep, err = _run(capsys, ["scheme", "check", "--scheme", str(p)])
    assert code == 2 and rep == {}
    assert "bad scheme file" in err
    # the file door raises ValueError alone, whatever is wrong with the file
    with pytest.raises(ValueError):
        stencil.load_scheme(str(p))


@pytest.mark.parametrize(
    "field, value", [("coefficients", ["1/0", "1/2"]), ("lambda", "1/0")],
)
def test_check_zero_denominator_is_usage_error(capsys, tmp_path, field, value) -> None:
    p = tmp_path / "custom.json"
    p.write_text(json.dumps({**UPWIND_FILE, field: value}))
    code, rep, err = _run(capsys, ["scheme", "check", "--scheme", str(p)])
    assert code == 2 and rep == {}
    assert err == f"error: bad scheme file {p}: '1/0' has a zero denominator\n"


def test_builtin_name_wins_over_a_file_of_that_name(capsys, monkeypatch, tmp_path) -> None:
    monkeypatch.chdir(tmp_path)
    (tmp_path / "upwind").mkdir()
    (tmp_path / "coeff1").write_text("")
    (tmp_path / "Identity").write_text("")
    code, rep, _ = _run(capsys, ["scheme", "check", "--scheme", "upwind", "--lam-a", "0.5"])
    assert code == 0 and rep["scheme"] == "upwind(0.5)"
    code, rep, _ = _run(capsys, ["spectrum", "--scheme", "coeff1", "--k", "1", "--J", "20"])
    assert code == 0 and rep["scheme"] == "coeff1"
    # builtin names match case-insensitively, as stencil.builtin does
    code, rep, _ = _run(capsys, ["scheme", "check", "--scheme", "Identity"])
    assert code == 0 and rep["scheme"] == "identity"
    # the file is reached through a path
    code, rep, err = _run(capsys, ["scheme", "check", "--scheme", "./coeff1"])
    assert code == 2 and rep == {}
    assert err.startswith("error: bad scheme file ./coeff1: ")


@pytest.mark.parametrize(
    "argv, param",
    [
        pytest.param(["--scheme", "upwind", "--lam-a", "nan"], "lam_a", id="nan"),
        pytest.param(["--scheme", "upwind", "--lam-a", "inf"], "lam_a", id="inf"),
        pytest.param(["--scheme", "three-point", "--lam-a", "0.5", "--nu", "nan"], "nu",
                     id="nu-nan"),
    ],
)
def test_check_non_finite_scheme_parameter_is_usage_error(capsys, argv, param) -> None:
    code, rep, err = _run(capsys, ["scheme", "check", *argv])
    assert code == 2 and rep == {}
    assert "numeric failure" not in err
    # the message names the bad parameter, not just its value
    assert f"error: {param} = " in err


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize("flag", ["--tol", "--mode-tol"])
def test_check_bad_tolerance_is_usage_error(capsys, flag, value) -> None:
    code, rep, err = _run(capsys, ["scheme", "check", "--scheme", "lax-wendroff",
                                   "--lam-a", "0.5", "--assert-stable", flag, value])
    assert code == 2 and rep == {}
    assert flag in err


# ---------------------------------------------------------------------------
# spectrum

def test_spectrum_identity_scheme(capsys) -> None:
    code, rep, _ = _run(
        capsys, ["spectrum", "--scheme", "identity", "--k", "1", "--J", "10"]
    )
    assert code == 0
    assert rep["rho"] == pytest.approx(1.0, abs=1e-12)
    assert rep["eigen_residual"] < 1e-10
    assert rep["eigen_condition"] == pytest.approx(1.0, abs=1e-12)
    assert rep["modulus_ratio"] == 1.0  # the identity's eigenvalues all tie


def test_spectrum_full_writes_artifacts(capsys, tmp_path) -> None:
    out = tmp_path / "spec.json"
    mat = tmp_path / "A.bin"
    code, rep, _ = _run(
        capsys,
        [
            "spectrum", "--scheme", "identity", "--k", "1", "--J", "10",
            "--full", "--out", str(out), "--dump-matrix", str(mat),
        ],
    )
    assert code == 0
    assert len(rep["eigenvalues"]) == 11
    assert math.hypot(*rep["eigenvalues"][0]) == rep["rho"]
    assert json.loads(out.read_text())["rho"] == rep["rho"]
    csv_rows = (tmp_path / "spec.csv").read_text().strip().splitlines()
    assert csv_rows[0] == "re,im" and len(csv_rows) == 12
    assert sorted(str(p.name) for p in tmp_path.iterdir() if p.name.startswith("A")) == [
        "A.bin", "A.bin.csv", "A.bin.json",
    ]
    A = np.fromfile(mat, dtype=np.float64).reshape(11, 11)
    assert np.array_equal(A, np.eye(11))


def test_spectrum_rejects_grid_too_small_for_stencil(capsys) -> None:
    code, _, err = _run(capsys, ["spectrum", "--scheme", "coeff1", "--k", "1", "--J", "5"])
    assert code == 2


def test_spectrum_beyond_the_dense_guard_is_usage_error(capsys) -> None:
    code, rep, err = _run(capsys, ["spectrum", "--scheme", "upwind", "--lam-a", "0.5",
                                   "--k", "1", "--J", "20000"])
    assert code == 2 and rep == {}
    assert "dense guard" in err


@pytest.mark.parametrize("extra", [[], ["--full"]], ids=["default", "full"])
def test_spectrum_full_beyond_the_dense_eigen_limit_is_usage_error(
    capsys, monkeypatch, extra
) -> None:
    def forbidden(*args, **kwargs):
        raise AssertionError("a grid beyond the limit must be rejected before any eigensolve")

    monkeypatch.setattr(np.linalg, "eig", forbidden)
    monkeypatch.setattr(np.linalg, "eigvals", forbidden)
    J = operators.MAX_DENSE_DIMENSION  # n = J + 1 is one past the limit
    code, rep, err = _run(capsys, ["spectrum", "--scheme", "upwind", "--lam-a", "0.5",
                                   "--k", "1", "--J", str(J), *extra])
    assert code == 2 and rep == {}
    assert "dense guard" in err and str(operators.MAX_DENSE_DIMENSION) in err


def test_spectrum_has_no_method_switch() -> None:
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "--scheme", "identity", "--k", "1", "--J", "10",
                  "--method", "dense"])
    assert exc.value.code == 2


@pytest.mark.parametrize("length", ["nan", "inf"])
def test_spectrum_non_finite_length_is_usage_error(capsys, length) -> None:
    code, rep, err = _run(capsys, ["spectrum", "--scheme", "identity", "--k", "1",
                                   "--J", "10", "--L", length])
    assert code == 2 and rep == {}
    assert "finite" in err


@pytest.mark.parametrize("route", [[], ["--ic", "wavepacket:0.5"], ["--ic", "gaussian"]])
def test_a_length_whose_spacing_underflows_is_usage_error(
    capsys, monkeypatch, no_numerics, route
) -> None:
    # L = 1e-323 is finite and positive, but dx = L / 51 rounds to 0
    monkeypatch.setattr(simulate, "build_initial", no_numerics)
    command = ["simulate", *route, "--steps", "10"] if route else ["spectrum"]
    code, rep, err = _run(capsys, [*command, "--scheme", "upwind", "--lam-a", "0.5",
                                   "--k", "1", "--J", "50", "--L", "1e-323"])
    assert code == 2 and rep == {}
    assert err.startswith("error: L = 1e-323") and "dx = 0.0" in err


# ---------------------------------------------------------------------------
# simulate

def test_simulate_unit_cfl_upwind_empties_domain(capsys, tmp_path) -> None:
    out = tmp_path / "run"
    code, rep, _ = _run(
        capsys,
        [
            "simulate", "--scheme", "upwind", "--lam-a", "1.0",
            "--k", "1", "--J", "9", "--ic", "gaussian", "--steps", "12",
            "--snapshot-stride", "6", "--out", str(out),
        ],
    )
    assert code == 0
    assert rep["truncated"] is False
    assert rep["steps_recorded"] == 12
    assert rep["final_l2_norm"] == 0.0
    rows = (tmp_path / "run_record.csv").read_text().strip().splitlines()
    assert len(rows) == 14
    assert (tmp_path / "run_snapshots.csv").exists()
    assert json.loads((tmp_path / "run.json").read_text()) == rep
    assert rep["params"]["scheme"] == "upwind(1.0)"
    assert rep["params"]["J"] == 9


def test_simulate_wavepacket_ic(capsys) -> None:
    code, rep, _ = _run(
        capsys,
        [
            "simulate", "--scheme", "coeff2", "--k", "2", "--J", "120",
            "--ic", "wavepacket:0.8", "--steps", "50",
        ],
    )
    assert code == 0
    assert rep["params"]["ic"]["kind"] == "wavepacket"
    assert rep["final_l2_norm"] > 0.0


def test_simulate_overflow_reports_a_null_final_norm(capsys) -> None:
    # nu = 3 leaves the stability box; the norm overflows within 600 steps
    code, rep, _ = _run(capsys, ["simulate", "--scheme", "three-point", "--lam-a", "0.5",
                                 "--nu", "3", "--k", "1", "--J", "50", "--ic", "gaussian",
                                 "--steps", "600"])
    assert code == 0
    assert rep["truncated"] is True and rep["steps_recorded"] < 600
    assert rep["final_l2_norm"] is None


def test_simulate_bad_ic_is_usage_error(capsys) -> None:
    for ic in ("triangle", "wavepacket:abc", "wavepacket:", "wavepacket:nan"):
        code, _, err = _run(
            capsys,
            [
                "simulate", "--scheme", "upwind", "--lam-a", "0.5",
                "--k", "1", "--J", "20", "--ic", ic, "--steps", "5",
            ],
        )
        assert code == 2


@pytest.mark.parametrize(
    "flag, value", [("--center", "nan"), ("--width", "inf"), ("--width", "-2000")],
)
def test_simulate_non_finite_initial_condition_is_usage_error(capsys, flag, value) -> None:
    code, rep, err = _run(capsys, ["simulate", "--scheme", "upwind", "--lam-a", "0.5", "--k",
                                   "1", "--J", "20", "--ic", "gaussian", "--steps", "5",
                                   flag, value])
    assert code == 2 and rep == {}
    assert "finite" in err


@pytest.mark.parametrize("k", ["0", "-3"])
@pytest.mark.parametrize(
    "argv",
    [["spectrum", "--J", "10"], ["simulate", "--J", "10", "--ic", "gaussian", "--steps", "5"]],
    ids=["spectrum", "simulate"],
)
def test_extrapolation_order_out_of_range_is_usage_error(capsys, argv, k) -> None:
    code, rep, err = _run(capsys, [*argv, "--scheme", "lax-wendroff", "--lam-a", "0.5",
                                   "--k", k])
    assert code == 2 and rep == {}
    assert err == f"error: extrapolation order k = {k} must lie in [1, 30]\n"


# ---------------------------------------------------------------------------
# reproduce

def test_reproduce_lemma1_passes(capsys) -> None:
    code, rep, _ = _run(capsys, ["reproduce", "--target", "lemma1"])
    assert code == 0
    assert rep["overall"] == "PASS"
    assert all(c["pass"] for c in rep["clauses"])


def test_reproduce_halfline_passes(capsys) -> None:
    code, rep, _ = _run(capsys, ["reproduce", "--target", "halfline"])
    assert code == 0
    assert rep["overall"] == "PASS"


def test_halfline_contraction_matches_a_loop_per_initial_condition() -> None:
    # the bundle steps its initial conditions as rows of one batch on a shared
    # window; this reference steps each one alone, its norm over its own window
    def shorten(m):
        m["halfline"]["contraction"]["steps"] = 20
        m["halfline"]["outflow"].update(n_small=1, n_large=2)

    manifest = _packaged_with(shorten)
    c = manifest["halfline"]["contraction"]
    assert c["seed"] == 11
    report = experiments.reproduce("halfline", manifest)
    rng = np.random.default_rng(c["seed"])
    for name, lam_a, nu in c["schemes"]:
        scheme = stencil.builtin(name, lam_a, nu)
        worst = 0.0
        for _ in range(c["n_ics"]):
            width = int(rng.integers(1, c["max_support"] + 1))
            start = int(rng.integers(0, 5))
            u = operators.SupportedSequence(rng.standard_normal(width), start)
            prev = u.norm()
            for _ in range(c["steps"]):
                u = operators.step_halfline_inflow(scheme, u)
                cur = u.norm()
                if prev > 1e-280:
                    worst = max(worst, cur / prev)
                prev = cur
        computed = report["info"]["inflow_worst_ratios"][scheme.name]
        assert computed == pytest.approx(worst, rel=1e-15, abs=0)


def test_halfline_steps_each_scheme_as_one_batch(monkeypatch) -> None:
    shapes: dict[str, list[tuple[int, ...]]] = {}
    step = operators.step_halfline_inflow

    def counted(scheme, u):
        shapes.setdefault(scheme.name, []).append(u.values.shape)
        return step(scheme, u)

    monkeypatch.setattr(operators, "step_halfline_inflow", counted)
    manifest = experiments.load_manifest()
    c = manifest["halfline"]["contraction"]
    assert experiments.reproduce("halfline", manifest)["overall"] == "PASS"
    names = [stencil.builtin(*row).name for row in c["schemes"]]
    assert sorted(shapes) == sorted(names)
    for name in names:
        # one call per step, each carrying every initial condition as a row
        assert len(shapes[name]) == c["steps"]
        assert all(len(shape) == 2 and shape[0] == c["n_ics"] for shape in shapes[name])


def test_reproduce_example1_reports_rate_mismatch(capsys) -> None:
    # the rate clause compares the certified eigenvalue against the pinned
    # target and fails regardless of step count, so a smoke run suffices
    code, rep, _ = _run(
        capsys, ["reproduce", "--target", "example1", "--steps", "2000"]
    )
    assert code == 1
    assert rep["overall"] == "FAIL"
    rate = rep["clauses"][0]
    assert rate["pass"] is False
    assert rate["computed"] == pytest.approx(0.013458613344239367, abs=1e-9)


def test_reproduce_example2_rate_clause_passes(capsys) -> None:
    code, rep, _ = _run(
        capsys, ["reproduce", "--target", "example2", "--steps", "2000"]
    )
    rate = rep["clauses"][0]
    assert rate["pass"] is True
    assert rate["computed"] == pytest.approx(0.31588428658117595, abs=1e-9)
    assert code in (0, 1)  # slope clauses may miss on a smoke-length run


SMALL_LEMMA1 = {
    "lemma1": {
        "grid_points": 3,
        "J_draws_per_cell": 1,
        "J_range": [5, 30],
        "norm_tol": 1e-12,
        "seed": 5,
        "residual_draws": 10,
        "residual_tol": 1e-12,
        "residual_lam_a_range": [-0.5, 1.5],
        "residual_nu_range": [-0.5, 1.5],
        "residual_J_range": [5, 30],
        "residual_seed": 6,
    }
}


def _write_manifest(tmp_path, manifest: dict) -> str:
    p = tmp_path / "mini.json"
    p.write_text(json.dumps(manifest))
    return str(p)


def test_reproduce_with_manifest_override(capsys, tmp_path) -> None:
    p = _write_manifest(tmp_path, SMALL_LEMMA1)
    code, rep, _ = _run(
        capsys, ["reproduce", "--target", "lemma1", "--manifest", str(p)]
    )
    assert code == 0
    assert rep["overall"] == "PASS"
    # and a manifest without the requested target is a usage error
    code, _, err = _run(capsys, ["reproduce", "--target", "example1", "--manifest", str(p)])
    assert code == 2


@pytest.mark.parametrize("field, value", [("residual_lam_a_range", [1e200, 1e200]),
                                          ("residual_nu_range", [1e300, 1e300])])
def test_reproduce_lemma1_fails_an_overflowing_energy_residual(
    capsys, tmp_path, field, value
) -> None:
    # the residual is inf or NaN there; NaN once slipped through max() as a pass
    manifest = copy.deepcopy(SMALL_LEMMA1)
    manifest["lemma1"][field] = value
    p = _write_manifest(tmp_path, manifest)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, rep, _ = _run(capsys, ["reproduce", "--target", "lemma1", "--manifest", p])
    assert code == 1 and rep["overall"] == "FAIL"
    norm, residual = rep["clauses"]
    assert norm["pass"]
    assert not residual["pass"] and residual["computed"] is None
    assert rep["info"]["worst_relative_residual"] is None


# halfline manifests whose stepping overflows: coeff1 with a 30th-order
# outflow closure grows past float range, and so does a three-point scheme
# with nu = 1e200 on the inflow half-line
OVERFLOWING_HALFLINE = {
    "outflow": lambda m: m["halfline"]["outflow"].update(cases=[["coeff1", 30]]),
    "inflow": lambda m: m["halfline"]["contraction"].update(
        schemes=[["three-point", 0.5, 1e200]]),
}


def _verdict(clause: dict) -> bool:
    """The clause's pass flag recomputed from the values the report prints."""
    (kind, tol), = clause["tolerance"].items()
    c, r = clause["computed"], clause["reference"]
    if c is None:  # a computed value that is not finite fails
        return False
    return {"abs": abs(c - r) <= tol, "rel": abs(c - r) <= tol * abs(r),
            "max": c <= r + tol}[kind]


@pytest.mark.parametrize("argv, edit", [
    (["--target", "lemma1"], None),
    (["--target", "halfline"], None),
    (["--target", "example2", "--steps", "40"], None),
    (["--target", "halfline"], OVERFLOWING_HALFLINE["outflow"]),
    (["--target", "halfline"], OVERFLOWING_HALFLINE["inflow"]),
], ids=["lemma1", "halfline", "example2-steps-40", "outflow-overflow", "inflow-overflow"])
def test_every_clause_passes_by_the_rule_of_its_printed_tolerance(
    capsys, tmp_path, argv, edit
) -> None:
    if edit is not None:
        argv = [*argv, "--manifest", _write_manifest(tmp_path, _packaged_with(edit))]
    code, rep, _ = _run(capsys, ["reproduce", *argv])
    assert [c["pass"] for c in rep["clauses"]] == [_verdict(c) for c in rep["clauses"]]
    assert rep["overall"] == ("PASS" if all(map(_verdict, rep["clauses"])) else "FAIL")
    assert code == (0 if rep["overall"] == "PASS" else 1)
    # the upper bounds are one-sided, the examples' comparisons two-sided
    one_sided = argv[1] in ("lemma1", "halfline")
    assert all((set(c["tolerance"]) == {"max"}) is one_sided for c in rep["clauses"])


@pytest.mark.parametrize("where", sorted(OVERFLOWING_HALFLINE))
def test_reproduce_halfline_fails_an_overflowing_case(capsys, tmp_path, where) -> None:
    # the overflow used to leak numpy warnings and crash the report with exit 3
    p = _write_manifest(tmp_path, _packaged_with(OVERFLOWING_HALFLINE[where]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, rep, err = _run(capsys, ["reproduce", "--target", "halfline", "--manifest", p])
    assert code == 1 and rep["overall"] == "FAIL" and err == ""
    info = rep["info"]
    if where == "outflow":
        (clause,) = [c for c in rep["clauses"] if c["name"].startswith("outflow")]
        assert info["outflow"] == {"coeff1": dict.fromkeys(
            ("max_ratio_short", "max_ratio_long", "relative_change"))}
    else:
        (clause,) = [c for c in rep["clauses"] if c["name"].startswith("inflow")]
        assert info["inflow_worst_ratios"] == {"three-point(0.5,1e+200)": None}
    assert clause["computed"] is None and clause["pass"] is False
    # the cases that do not overflow still pass
    assert all(c["pass"] for c in rep["clauses"] if c is not clause)


def test_reproduce_lemma1_runs_a_manifest_that_still_says_k_is_one() -> None:
    manifest = experiments.load_manifest()
    assert "k" not in manifest["lemma1"]
    report = experiments.reproduce("lemma1", manifest)
    assert report["overall"] == "PASS"
    manifest["lemma1"]["k"] = 1
    assert experiments.reproduce("lemma1", manifest) == report


def test_reproduce_unknown_target_rejected_by_parser() -> None:
    with pytest.raises(SystemExit) as exc:
        cli.main(["reproduce", "--target", "example9"])
    assert exc.value.code == 2


def test_library_reproduce_matches_cli_report(capsys, tmp_path) -> None:
    p = _write_manifest(tmp_path, SMALL_LEMMA1)
    code, rep, _ = _run(capsys, ["reproduce", "--target", "lemma1", "--manifest", p])
    assert code == 0
    assert experiments.reproduce("lemma1", copy.deepcopy(SMALL_LEMMA1)) == rep


# the library's report functions return exactly what the commands print

@pytest.mark.parametrize("name, lam_a", [("coeff1", None), ("lax-wendroff", 0.5)])
def test_library_check_report_matches_cli_report(capsys, name, lam_a) -> None:
    scheme_args = ["--scheme", name] + ([] if lam_a is None else ["--lam-a", str(lam_a)])
    scheme = stencil.builtin(name, lam_a=lam_a)
    for extra, tol in (([], None), (["--assert-stable", "--tol", "1e-6"], 1e-6)):
        code, rep, _ = _run(capsys, ["scheme", "check", *scheme_args, *extra])
        assert code == (1 if rep.get("stable") is False else 0)
        assert experiments.check_report(scheme, 1e-4, tol) == rep


def test_library_spectrum_report_matches_cli_report(capsys, tmp_path) -> None:
    out, mat = str(tmp_path / "spec.json"), str(tmp_path / "A.bin")
    code, rep, _ = _run(capsys, ["spectrum", "--scheme", "coeff2", "--k", "2", "--J", "40",
                                 "--full", "--out", out, "--dump-matrix", mat])
    assert code == 0 and rep["written"][-2:] == [str(tmp_path / "spec.csv"), out]
    report = experiments.spectrum_report(stencil.builtin("coeff2"), 2, 40, 1.0, True, out, mat)
    assert report == rep


def test_library_simulate_report_matches_cli_report(capsys, tmp_path) -> None:
    out = str(tmp_path / "run")
    code, rep, _ = _run(capsys, ["simulate", "--scheme", "upwind", "--lam-a", "0.5", "--k",
                                 "1", "--J", "30", "--ic", "wavepacket:0.5", "--steps", "200",
                                 "--snapshot-stride", "50", "--out", out])
    assert code == 0 and rep["slope"] is not None and len(rep["written"]) == 3
    ic = {"kind": "wavepacket", "center": 0.5, "width_param": 50.0,
          "packet_theta": 0.5 * math.pi, "sampling": "point"}
    scheme = stencil.builtin("upwind", lam_a=0.5)
    assert experiments.simulate_report(scheme, 1, 30, 1.0, ic, 200, 50, out) == rep
    # an infeasible default window gives a null slope and the reason
    code, rep, _ = _run(capsys, ["simulate", "--scheme", "upwind", "--lam-a", "0.5", "--k",
                                 "1", "--J", "30", "--ic", "gaussian", "--steps", "5"])
    assert code == 0 and rep["slope"] is None and "finite samples" in rep["slope_note"]
    ic.update(kind="gaussian", packet_theta=None)
    assert experiments.simulate_report(scheme, 1, 30, 1.0, ic, 5, 0, None) == rep


@pytest.fixture
def no_numerics(monkeypatch):
    """Fail any bundle that gets as far as a matrix or an eigensolve."""

    def forbidden(*args, **kwargs):
        raise AssertionError("a bad input must be rejected before any computation")

    for module, name in ((operators, "assemble_matrix"), (spectral, "spectral_radius"),
                         (spectral, "operator_norm"), (spectral, "_gram_norms")):
        monkeypatch.setattr(module, name, forbidden)
    return forbidden


def _packaged_with(edit) -> dict:
    manifest = experiments.load_manifest()
    edit(manifest)
    return manifest


@pytest.mark.parametrize(
    "target, manifest, field",
    [
        ("lemma1", _packaged_with(lambda m: m["lemma1"].pop("seed")), "lemma1.seed"),
        ("lemma1", {"lemma1": "x"}, "lemma1"),
        ("example2", _packaged_with(lambda m: m["example2"]["ic"].update(kind="triangle")),
         "example2.ic.kind"),
        ("halfline",
         _packaged_with(lambda m: m["halfline"]["outflow"]["cases"].append(["nope", 1])),
         "halfline.outflow.cases[2]"),
        ("example2",
         _packaged_with(lambda m: m["example2"].update(J=operators.MAX_DENSE_DIMENSION)),
         "example2.J"),
        ("lemma1",
         _packaged_with(lambda m: m["lemma1"].update(J_range=[5, operators.MAX_DENSE_DIMENSION])),
         "lemma1.J_range"),
        ("example2", _packaged_with(lambda m: m["example2"]["ic"].update(width_param=-1.0)),
         "example2.ic.width_param"),
        # lemma1 is the k = 1 statement: a manifest from before k was dropped
        # that still asks for another order is refused, not run at k = 1
        ("lemma1", _packaged_with(lambda m: m["lemma1"].update(k=2)), "lemma1.k"),
        ("example2", _packaged_with(lambda m: m["example2"].update(J=5)),
         "example2.J: grid with 6 points is narrower than the stencil (r + p = 14)"),
    ],
)
def test_reproduce_bad_manifest_is_usage_error(
    capsys, tmp_path, no_numerics, target, manifest, field
) -> None:
    p = _write_manifest(tmp_path, manifest)
    code, rep, err = _run(capsys, ["reproduce", "--target", target, "--manifest", p])
    assert code == 2 and rep == {}
    assert f"manifest {field}" in err
    assert "Traceback" not in err


def test_reproduce_negative_steps_is_usage_error(capsys, no_numerics) -> None:
    code, rep, err = _run(capsys, ["reproduce", "--target", "example2", "--steps", "-5"])
    assert code == 2 and rep == {}
    assert "example2" in err and "steps" in err


@pytest.mark.parametrize("target", ["lemma1", "halfline"])
def test_reproduce_steps_on_a_bundle_without_steps_is_usage_error(
    capsys, monkeypatch, no_numerics, target
) -> None:
    def forbidden(*args, **kwargs):
        raise AssertionError("a bad input must be rejected before any computation")

    for name in ("step_halfline_inflow", "step_halfline_outflow"):
        monkeypatch.setattr(operators, name, forbidden)
    code, rep, err = _run(capsys, ["reproduce", "--target", target, "--steps", "5"])
    assert code == 2 and rep == {}
    assert target in err and "steps" in err
    assert "Traceback" not in err


def test_reproduce_too_few_steps_is_usage_error_before_any_work(
    capsys, monkeypatch
) -> None:
    def forbidden(*args, **kwargs):
        raise AssertionError("a bad step count must be rejected before any computation")

    monkeypatch.setattr(spectral, "spectral_radius", forbidden)
    monkeypatch.setattr(simulate, "run", forbidden)
    code, rep, err = _run(capsys, ["reproduce", "--target", "example2", "--steps", "10"])
    assert code == 2 and rep == {}
    assert "example2" in err and "--steps 10" in err
    least = int(re.search(r">= (\d+)", err).group(1))
    code, _, err = _run(capsys, ["reproduce", "--target", "example2",
                                 "--steps", str(least - 1)])
    assert code == 2
    with pytest.raises(AssertionError, match="before any computation"):
        cli.main(["reproduce", "--target", "example2", "--steps", str(least)])
    # the named count is the least whose late-half window holds enough samples
    monkeypatch.undo()
    scheme = stencil.builtin("upwind", lam_a=0.5)
    grid = operators.Grid(J=20, lam=scheme.lam_float)

    def fit_late_half(n_steps: int) -> simulate.RegressionResult:
        record = simulate.run(scheme, 1, grid, simulate.InitialCondition("gaussian"), n_steps)
        t_end = (record.l2_norms.size - 1) * record.params["dt"]
        return simulate.growth_slope(record, window=(t_end / 2.0, t_end))

    with pytest.raises(ValueError, match="finite samples"):
        fit_late_half(least - 1)
    assert fit_late_half(least).window[1] > 0.0


def test_reproduce_numeric_value_error_still_exits_3(capsys, monkeypatch) -> None:
    def failing(*args, **kwargs):
        raise ValueError("eigensolve went wrong")

    monkeypatch.setattr(spectral, "spectral_radius", failing)
    code, _, err = _run(capsys, ["reproduce", "--target", "example2", "--steps", "20"])
    assert code == 3
    assert "numeric failure" in err


def test_a_matrix_that_overflows_is_a_numeric_failure(capsys, tmp_path) -> None:
    # the operator's band refuses it where it is built, before any eigensolve
    p = tmp_path / "big.json"
    p.write_text(json.dumps({"name": "big", "r": 0, "p": 1, "coefficients": ["1", "1e305"],
                             "lambda": "1", "a": "1"}))
    code, rep, err = _run(capsys, ["spectrum", "--scheme", str(p), "--k", "30", "--J", "40"])
    assert code == 3 and rep == {}
    assert err == ("numeric failure: the iteration matrix of scheme 'big' at k = 30 "
                   "overflows float range in its outflow ghost fold\n")


@pytest.mark.parametrize("argv", [
    ["simulate", "--scheme", "upwind", "--lam-a", "0.5", "--k", "1", "--J", "10",
     "--ic", "gaussian"],
    ["reproduce", "--target", "example1"],
])
def test_a_step_count_too_large_to_record_is_a_numeric_failure(capsys, argv) -> None:
    # 10**15 steps need an 8 PB record, past any address space, so the
    # allocation fails at once even under memory overcommit
    code = cli.main([*argv, "--steps", str(10**15)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("numeric failure: ") and captured.err.count("\n") == 1


def test_parser_leaves_numpy_unloaded() -> None:
    # ADVSTAB_THREADS only works while numpy is still unloaded
    probe = (
        "import sys, advstab.cli; advstab.cli.build_parser(); "
        "sys.exit('numpy' in sys.modules)"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["scheme", "check", "--scheme", "identity"], "--out"),
        (["spectrum", "--scheme", "identity", "--k", "1", "--J", "10", "--full"], "--out"),
        (["spectrum", "--scheme", "identity", "--k", "1", "--J", "10"], "--dump-matrix"),
        (["simulate", "--scheme", "upwind", "--lam-a", "0.5", "--k", "1", "--J", "20",
          "--ic", "gaussian", "--steps", "5"], "--out"),
        (["reproduce", "--target", "lemma1"], "--out"),
        (["reproduce", "--target", "example2", "--steps", "40"], "--out"),
    ],
    ids=["check", "spectrum-out", "spectrum-dump-matrix", "simulate", "reproduce",
         "reproduce-example"],
)
def test_unwritable_output_is_usage_error(
    capsys, monkeypatch, tmp_path, no_numerics, argv, flag
) -> None:
    # refused before any work; the error names the path given, not a
    # temporary file, and no report is printed. A path that names a
    # directory is refused too: --out d/ would write the hidden d/.json
    def forbidden(*args, **kwargs):
        raise AssertionError("a bad output path must be rejected before any computation")

    for module, name in ((stencil, "von_neumann_sup"), (simulate, "run")):
        monkeypatch.setattr(module, name, forbidden)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_text("")
    (tmp_path / "d").mkdir()
    named_dirs = (["d/", "d/.json", ".json"] if flag == "--out" else ["d", "d/"])
    for target in (str(tmp_path / "missing" / "x"), str(tmp_path / "file" / "x"),
                   *named_dirs):
        code, rep, err = _run(capsys, [*argv, flag, target])
        assert code == 2 and rep == {}
        assert err.startswith("error: ") and f"{flag} {target}" in err
        assert ".part" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d", "file"]
    assert list((tmp_path / "d").iterdir()) == []


def test_report_file_holds_the_bytes_printed(capsys, monkeypatch, tmp_path) -> None:
    monkeypatch.chdir(tmp_path)
    p = _write_manifest(tmp_path, SMALL_LEMMA1)
    for argv, report in (
        (["scheme", "check", "--scheme", "coeff1", "--out", "chk"], "chk.json"),
        (["spectrum", "--scheme", "lax-wendroff", "--lam-a", "0.5", "--k", "3", "--J", "20",
          "--full", "--out", "spec", "--dump-matrix", "M"], "spec.json"),
        (["reproduce", "--target", "lemma1", "--manifest", p, "--out", "r.json"], "r.json"),
        (["simulate", "--scheme", "upwind", "--lam-a", "0.5", "--k", "1", "--J", "30",
          "--ic", "wavepacket:0.5", "--steps", "200", "--out", "run"], "run.json"),
        (["reproduce", "--target", "example2", "--steps", "40", "--out", "ex2"], "ex2.json"),
    ):
        # 40 steps are too few for example2's slope clauses: a FAIL report, exit 1
        assert cli.main(argv) == (1 if "example2" in argv else 0)
        assert (tmp_path / report).read_bytes() == capsys.readouterr().out.encode()


@pytest.mark.parametrize("argv", [
    ["scheme", "check", "--scheme", "coeff1"],
    ["spectrum", "--scheme", "upwind", "--lam-a", "0.5", "--k", "1", "--J", "5", "--full"],
    ["simulate", "--scheme", "upwind", "--lam-a", "0.5", "--k", "1", "--J", "9",
     "--ic", "gaussian", "--steps", "12", "--snapshot-stride", "6"],
    ["reproduce", "--target", "example2", "--steps", "40"],
    ["reproduce", "--target", "lemma1"],
])
def test_out_with_and_without_json_suffix_writes_the_same_files(
    capsys, monkeypatch, tmp_path, argv
) -> None:
    # the report goes to P.json and every other artifact to P<suffix>;
    # written lists every file in the folder, the report last
    seen = []
    for out in ("P", "P.json"):
        folder = tmp_path / out.replace(".", "_")
        folder.mkdir()
        monkeypatch.chdir(folder)
        code, rep, _ = _run(capsys, [*argv, "--out", out])
        assert code == (1 if "example2" in argv else 0)  # 40 steps fail its slope clauses
        seen.append((sorted(p.name for p in folder.iterdir()), rep["written"]))
    assert seen[0] == seen[1]
    names, written = seen[0]
    assert sorted(written) == names and written[-1] == "P.json"
    assert all(name.startswith(("P.", "P_")) for name in names)


def test_artifacts_follow_the_umask(capsys, tmp_path) -> None:
    argv = ["spectrum", "--scheme", "upwind", "--lam-a", "0.5", "--k", "1", "--J", "5",
            "--full"]
    for umask, mode in ((0o022, 0o644), (0o077, 0o600)):
        folder = tmp_path / oct(umask)
        folder.mkdir()
        old = os.umask(umask)
        try:
            code, rep, _ = _run(capsys, [*argv, "--out", str(folder / "spec"),
                                         "--dump-matrix", str(folder / "A")])
        finally:
            os.umask(old)
        assert code == 0 and len(rep["written"]) == 5
        assert {p.name: p.stat().st_mode & 0o777 for p in folder.iterdir()} == {
            os.path.basename(path): mode for path in rep["written"]}


@pytest.mark.parametrize("out, matrix", [("A", "A"), ("A.json", "A"), ("B", "B.json"),
                                         ("C", "./C")])
def test_overlapping_spectrum_artifacts_are_refused(
    capsys, monkeypatch, tmp_path, no_numerics, out, matrix
) -> None:
    # one path would get two files: exit 2 before any assembly, nothing written
    monkeypatch.chdir(tmp_path)
    code, rep, err = _run(capsys, ["spectrum", "--scheme", "upwind", "--lam-a", "0.5",
                                   "--k", "1", "--J", "5", "--full", "--out", out,
                                   "--dump-matrix", matrix])
    assert code == 2 and rep == {} and err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# environment knob

def test_thread_cap_seeds_environment(capsys, monkeypatch) -> None:
    for var in THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("ADVSTAB_THREADS", "2")
    code, _, err = _run(
        capsys, ["scheme", "check", "--scheme", "upwind", "--lam-a", "0.5"]
    )
    assert code == 0
    for var in THREAD_VARS:
        assert os.environ[var] == "2"


def test_thread_cap_rejects_garbage(capsys, monkeypatch) -> None:
    monkeypatch.setenv("ADVSTAB_THREADS", "abc")
    code, _, err = _run(
        capsys, ["scheme", "check", "--scheme", "upwind", "--lam-a", "0.5"]
    )
    assert code == 2
