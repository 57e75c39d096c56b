"""Command-line surface: exit codes, report JSON, artifact files."""

from __future__ import annotations

import copy
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from advstab import cli, experiments, operators, spectral

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _run(capsys, argv: list[str]) -> tuple[int, dict, str]:
    code = cli.main(argv)
    captured = capsys.readouterr()
    raw = captured.out
    return code, (json.loads(raw) if raw.strip() else {}), captured.err


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


def test_check_assert_stable_fails_on_amplifying_scheme(capsys) -> None:
    code, rep, _ = _run(
        capsys, ["scheme", "check", "--scheme", "coeff1", "--assert-stable"]
    )
    assert code == 1
    assert rep["stable"] is False
    assert rep["von_neumann_sup"] > 1.0


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


def test_check_accepts_scheme_file(capsys, tmp_path) -> None:
    from advstab import stencil

    p = tmp_path / "custom.json"
    stencil.save_scheme(stencil.builtin("lax-friedrichs", lam_a=0.5), str(p))
    code, rep, _ = _run(capsys, ["scheme", "check", "--scheme", str(p)])
    assert code == 0
    assert rep["von_neumann_sup"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "field, value",
    [("r", True), ("p", False), ("coefficients", [True, 0.5]), ("lambda", True),
     ("a", True), ("r", 1.0), ("r", "1")],
)
def test_check_rejects_booleans_and_non_integer_extents(capsys, tmp_path, field, value) -> None:
    from advstab import stencil

    p = tmp_path / "custom.json"
    stencil.save_scheme(stencil.builtin("upwind", lam_a=0.5), str(p))
    doc = json.loads(p.read_text())
    doc[field] = value
    p.write_text(json.dumps(doc))
    code, rep, err = _run(capsys, ["scheme", "check", "--scheme", str(p)])
    assert code == 2 and rep == {}
    assert "bad scheme file" in err


# ---------------------------------------------------------------------------
# spectrum

def test_spectrum_identity_scheme(capsys) -> None:
    code, rep, _ = _run(
        capsys, ["spectrum", "--scheme", "identity", "--k", "1", "--J", "10"]
    )
    assert code == 0
    assert rep["rho"] == pytest.approx(1.0, abs=1e-12)
    assert rep["eigen_residual"] < 1e-10


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
    side = json.loads((tmp_path / "run.json").read_text())
    assert side["scheme"] == "upwind(1.0)"
    assert side["J"] == 9


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


def test_simulate_bad_ic_is_usage_error(capsys) -> None:
    for ic in ("triangle", "wavepacket:abc", "wavepacket:"):
        code, _, err = _run(
            capsys,
            [
                "simulate", "--scheme", "upwind", "--lam-a", "0.5",
                "--k", "1", "--J", "20", "--ic", ic, "--steps", "5",
            ],
        )
        assert code == 2


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
        "k": 1,
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


def test_reproduce_unknown_target_rejected_by_parser() -> None:
    with pytest.raises(SystemExit) as exc:
        cli.main(["reproduce", "--target", "example9"])
    assert exc.value.code == 2


def test_library_reproduce_matches_cli_report(capsys, tmp_path) -> None:
    p = _write_manifest(tmp_path, SMALL_LEMMA1)
    code, rep, _ = _run(capsys, ["reproduce", "--target", "lemma1", "--manifest", p])
    assert code == 0
    assert experiments.reproduce("lemma1", copy.deepcopy(SMALL_LEMMA1)) == rep


@pytest.fixture
def no_numerics(monkeypatch):
    """Fail any bundle that gets as far as a matrix or an eigensolve."""

    def forbidden(*args, **kwargs):
        raise AssertionError("a bad input must be rejected before any computation")

    for module, name in ((operators, "assemble_matrix"), (spectral, "spectral_radius"),
                         (spectral, "operator_norm")):
        monkeypatch.setattr(module, name, forbidden)


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


def test_reproduce_numeric_value_error_still_exits_3(capsys, monkeypatch) -> None:
    def failing(*args, **kwargs):
        raise ValueError("eigensolve went wrong")

    monkeypatch.setattr(spectral, "spectral_radius", failing)
    code, _, err = _run(capsys, ["reproduce", "--target", "example2", "--steps", "10"])
    assert code == 3
    assert "numeric failure" in err


def test_parser_leaves_numpy_unloaded() -> None:
    # ADVSTAB_THREADS only works while numpy is still unloaded
    probe = (
        "import sys, advstab.cli; advstab.cli.build_parser(); "
        "sys.exit('numpy' in sys.modules)"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0


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
