"""The three workload bodies, the checks on their outputs, and their inputs.

Each body drives advstab the way a user does: through `advstab` commands
(cli.main with the same argument lists) and the public library calls that
demos/interval_spectra.py and the acceptance criteria use. Every checked
result is one operation; a check that finds problems counts it as failed.

Only `bounds` consumes the workload seed, through the seeds of a generated
`reproduce --manifest`. The inputs of `example2` and `spectra` are fixed.
advstab is imported only inside the functions that run a pass, so the
parent process can use this module without loading numpy.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import random
import time
import traceback
from pathlib import Path
from typing import Callable

WORKLOADS = ("example2", "spectra", "bounds")
PACKAGED_MANIFEST = Path("src") / "advstab" / "data" / "reference_targets.json"
EXPECTED = Path(__file__).with_name("expected.json")

# (scheme, k, J, manifest target holding its certified measured_rate)
HEADLINE = (("coeff1", 1, 994, "example1"), ("coeff2", 2, 1000, "example2"))
# the J lists of demos/interval_spectra.py
SCAN_J = {"coeff1": [60, 120, 250, 500, 994], "coeff2": [60, 120, 250, 500, 1000]}
# criterion 7: three-point lam*a = nu = 0.5 with k = 2 outflow
PROBE_J = (20, 40, 80)
PROBE_N_MAX = 10_000

# Tolerances sit a few orders above the run-to-run scatter of the dense
# LAPACK path and the golden-section refinement, and far below any change
# in the answer.
RATE_TOL = 1e-8  # on (rho - 1)/dx
RHO_TOL = 1e-11
RESIDUAL_MAX = 1e-8
SYMBOL_TOL = {"r0": 1e-14, "r1": 1e-14, "sup_excess": 1e-13}
MODE_TOL = {"theta_over_pi": 1e-7, "modulus_excess": 1e-12, "group_velocity": 1e-8}
PROBE_REL_TOL = 1e-8


def bounds_manifest(packaged: dict, seed: int) -> dict:
    """The packaged manifest with the lemma1 and halfline seeds drawn from seed."""
    rng = random.Random(seed)
    m = copy.deepcopy(packaged)
    m["lemma1"]["seed"] = rng.randrange(2**31)
    m["lemma1"]["residual_seed"] = rng.randrange(2**31)
    m["halfline"]["contraction"]["seed"] = rng.randrange(2**31)
    m["halfline"]["outflow"]["seed"] = rng.randrange(2**31)
    return m


# ---------------------------------------------------------------------------
# checks: each returns the list of problems found (empty means correct)


def _off(label: str, got: float, want: float, tol: float) -> list[str]:
    if abs(got - want) <= tol:
        return []
    return [f"{label}: got {got!r}, expected {want!r} within {tol:g}"]


def rate_problems(rate: float, measured_rate: float) -> list[str]:
    return _off("(rho - 1)/dx", rate, measured_rate, RATE_TOL)


def symbol_problems(code: int, report: dict, measured: dict) -> list[str]:
    problems = [] if code == 0 else [f"exit code {code}"]
    res = report["consistency_residuals"]
    problems += _off("r0", res["order0"], measured["r0"], SYMBOL_TOL["r0"])
    problems += _off("r1", res["order1"], measured["r1"], SYMBOL_TOL["r1"])
    problems += _off(
        "sup|C| - 1",
        report["von_neumann_sup"] - 1.0,
        measured["von_neumann_sup_excess"],
        SYMBOL_TOL["sup_excess"],
    )
    modes = report["modes"] or []
    if len(modes) != len(measured["modes"]):
        return problems + [f"{len(modes)} modes, expected {len(measured['modes'])}"]
    for i, (got, want) in enumerate(zip(modes, measured["modes"])):
        for key, tol in MODE_TOL.items():
            problems += _off(f"mode {i} {key}", got[key], want[key], tol)
    return problems


def spectrum_problems(
    code: int, report: dict, measured_rate: float, out: str, matrix: str
) -> list[str]:
    problems = [] if code == 0 else [f"exit code {code}"]
    n = report["n"]
    problems += rate_problems(report["normalized_excess"], measured_rate)
    if not report["eigen_residual"] <= RESIDUAL_MAX:
        problems.append(f"eigen-residual {report['eigen_residual']!r} > {RESIDUAL_MAX}")
    moduli = [abs(complex(re, im)) for re, im in report["eigenvalues"]]
    if len(moduli) != n:
        problems.append(f"{len(moduli)} eigenvalues for n = {n}")
    elif abs(max(moduli) - report["rho"]) > RHO_TOL:
        problems.append(f"full spectrum max modulus {max(moduli)!r} != rho {report['rho']!r}")
    if os.path.getsize(matrix) != 8 * n * n:
        problems.append(f"matrix dump holds {os.path.getsize(matrix)} bytes, not 8 n^2")
    if _count_lines(out + ".csv") != n + 1:
        problems.append("spectrum CSV does not hold a header and n rows")
    return problems


def scan_row_problems(row, J: int, expected_rho: float | None, measured_rate: float | None) -> list[str]:
    problems = [] if row.J == J else [f"row for J = {row.J}, expected J = {J}"]
    if measured_rate is not None:
        problems += rate_problems((row.rho - 1.0) * (J + 1), measured_rate)
    else:
        problems += _off("rho", row.rho, expected_rho, RHO_TOL)
    problems += _off("J*(rho - 1)", row.normalized_excess, J * (row.rho - 1.0), 1e-12)
    return problems


def clause_problems(clause: dict) -> list[str]:
    return [] if clause["pass"] is True else [f"clause failed: {clause}"]


def _count_lines(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


# ---------------------------------------------------------------------------
# one workload pass


class Session:
    """Times the calls of one workload pass and counts its checked results.

    wall_s sums the time spent inside calls into advstab; checks and the
    benchmark's own bookkeeping run outside it. With a tracer, each call is
    also a top-level span named perfbench.<label>.
    """

    def __init__(self, work: Path, manifest: dict, manifest_path: str,
                 expected: dict, tracer=None):
        self.work = work
        self.manifest = manifest
        self.manifest_path = manifest_path
        self.expected = expected
        self.tracer = tracer
        self.wall_s = 0.0
        self.attempted = 0
        self.failures: list[dict] = []

    def path(self, name: str) -> str:
        return str(self.work / name)

    def time(self, label: str, thunk: Callable):
        start = time.perf_counter()
        if self.tracer is None:
            result = thunk()
        else:
            result = self.tracer.wrap(f"perfbench.{label}", thunk)()
        self.wall_s += time.perf_counter() - start
        return result

    def cli(self, argv: list[str]) -> tuple[int, dict]:
        from advstab import cli

        buf = io.StringIO()

        def call():
            with contextlib.redirect_stdout(buf):
                return cli.main(argv)

        code = self.time(argv[0], call)
        return code, json.loads(buf.getvalue())

    def check(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append({"operation": label, "problems": problems})

    def step(self, label: str, body: Callable) -> None:
        """Run body; an exception fails the step as one operation."""
        try:
            body()
        except Exception:  # noqa: BLE001 - a crash is a failed operation, not a lost run
            self.check(label, [traceback.format_exc(limit=3)])

    def reproduce(self, target: str, argv: list[str]) -> dict:
        code, report = self.cli(["reproduce", "--target", target, *argv])
        verdict = 0 if report["overall"] == "PASS" else 1
        for clause in report["clauses"]:
            problems = clause_problems(clause)
            if code != verdict:
                problems.append(f"exit code {code} disagrees with overall {report['overall']}")
            self.check(f"{target}: {clause['name']}", problems)
        return report


def run_example2(s: Session) -> None:
    def body():
        out = s.path("example2")
        report = s.reproduce("example2", ["--out", out])
        info = report["info"]
        s.check("example2: eigen rate",
                rate_problems(info["eigen_rate"], s.manifest["example2"]["measured_rate"]))
        rows = _count_lines(out + "_record.csv")
        s.check("example2: record csv",
                [] if rows == info["steps"] + 2 else [f"{rows} lines for {info['steps']} steps"])

    s.step("example2", body)


def run_spectra(s: Session) -> None:
    from advstab import spectral, stencil

    for name, k, J, target in HEADLINE:
        def symbol(name=name):
            code, report = s.cli(["scheme", "check", "--scheme", name,
                                  "--out", s.path(f"check_{name}")])
            s.check(f"{name}: symbol table",
                    symbol_problems(code, report, s.manifest["builtin_measured"][name]))

        def spectrum(name=name, k=k, J=J, target=target):
            out, matrix = s.path(f"spectrum_{name}"), s.path(f"matrix_{name}")
            code, report = s.cli(["spectrum", "--scheme", name, "--k", str(k), "--J", str(J),
                                  "--full", "--dump-matrix", matrix, "--out", out])
            s.check(f"{name}: spectrum rho",
                    spectrum_problems(code, report, s.manifest[target]["measured_rate"],
                                      out, matrix))

        s.step(f"{name}: symbol table", symbol)
        s.step(f"{name}: spectrum rho", spectrum)
    for name, k, J_head, target in HEADLINE:
        def scan(name=name, k=k, J_head=J_head, target=target):
            rows = s.time("rho_vs_J_scan", lambda: spectral.rho_vs_J_scan(
                stencil.builtin(name), k, SCAN_J[name]))
            for J, row in zip(SCAN_J[name], rows):
                measured = s.manifest[target]["measured_rate"] if J == J_head else None
                expected = None if measured is not None else s.expected["scan_rho"][name][str(J)]
                s.check(f"{name}: scan J={J}", scan_row_problems(row, J, expected, measured))

        s.step(f"{name}: scan", scan)


def run_bounds(s: Session) -> None:
    from advstab import operators, spectral, stencil

    for target in ("lemma1", "halfline"):
        s.step(target, lambda target=target: s.reproduce(
            target, ["--manifest", s.manifest_path]))
    for J in PROBE_J:
        def probe(J=J):
            result = s.time("power_bound_probe", lambda: spectral.power_bound_probe(
                operators.assemble_matrix(
                    stencil.builtin("three-point", lam_a=0.5, nu=0.5), 2, J),
                n_max=PROBE_N_MAX))
            want = s.expected["probe_sup"][str(J)]
            s.check(f"probe sup J={J}",
                    _off("sup ||A^n||", result.sup_norm, want, PROBE_REL_TOL * want))

        s.step(f"probe sup J={J}", probe)


BODIES = {"example2": run_example2, "spectra": run_spectra, "bounds": run_bounds}
