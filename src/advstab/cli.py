"""Command line front end.

Subcommands: scheme check, spectrum, simulate, reproduce. Every command
prints a JSON report to standard output; --out persists artifacts to disk
(written atomically). Exit codes: 0 success, 1 a check ran and failed,
2 usage error, 3 numeric failure (eigensolver nonconvergence, overflow).

ADVSTAB_THREADS caps the BLAS/OpenMP thread count. It is honored by seeding
the standard thread-count environment variables before numpy is loaded, so
this module and the package __init__ import nothing numeric at module scope.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from importlib import resources

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class UsageError(Exception):
    """Bad arguments or unreadable inputs; maps to exit code 2."""


def _cap_threads() -> None:
    # must run before anything imports numpy in this process
    raw = os.environ.get("ADVSTAB_THREADS", "").strip()
    if not raw:
        return
    if not raw.isdigit() or int(raw) < 1:
        raise UsageError(f"ADVSTAB_THREADS must be a positive integer, got {raw!r}")
    for var in _THREAD_VARS:
        os.environ.setdefault(var, raw)


# ---------------------------------------------------------------------------
# shared argument plumbing

def _add_scheme_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scheme",
        required=True,
        help="builtin scheme name or path to a scheme JSON file",
    )
    parser.add_argument(
        "--lam-a",
        type=float,
        default=None,
        help="CFL number lambda*a for the parametric builtin schemes",
    )
    parser.add_argument(
        "--nu",
        type=float,
        default=None,
        help="dissipation parameter nu (three-point builtin only)",
    )


def _resolve_scheme(args: argparse.Namespace):
    from . import stencil

    choice = args.scheme
    looks_like_path = choice.endswith(".json") or os.sep in choice
    if looks_like_path or os.path.exists(choice):
        if not os.path.exists(choice):
            raise UsageError(f"scheme file not found: {choice}")
        try:
            return stencil.load_scheme(choice)
        except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
            raise UsageError(f"bad scheme file {choice}: {exc}") from exc
    try:
        return stencil.builtin(
            choice, lam_a=getattr(args, "lam_a", None), nu=getattr(args, "nu", None)
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _parse_ic(text: str, center: float, width: float, cell_average: bool):
    from .simulate import InitialCondition

    sampling = "cell_average" if cell_average else "point"
    if text == "gaussian":
        return InitialCondition(
            kind="gaussian", center=center, width_param=width, sampling=sampling
        )
    if text.startswith("wavepacket:"):
        tail = text.split(":", 1)[1]
        try:
            ratio = float(tail)
        except ValueError as exc:
            raise UsageError(
                f"bad wave-packet frequency {tail!r}; expected wavepacket:<theta-over-pi>"
            ) from exc
        return InitialCondition(
            kind="wavepacket",
            center=center,
            width_param=width,
            packet_theta=ratio * math.pi,
            sampling=sampling,
        )
    raise UsageError(
        f"unknown initial condition {text!r}; use gaussian or wavepacket:<theta-over-pi>"
    )


def _emit_report(report: dict, out_path: str | None) -> None:
    text = json.dumps(report, indent=2)
    print(text)
    if out_path:
        from .operators import _atomic_write_bytes

        _atomic_write_bytes(out_path, (text + "\n").encode("utf-8"))


def _report_json_path(out: str) -> str:
    return out if out.endswith(".json") else out + ".json"


# ---------------------------------------------------------------------------
# scheme check

def cmd_scheme_check(args: argparse.Namespace) -> int:
    from . import stencil

    scheme = _resolve_scheme(args)
    r0, r1 = stencil.consistency_residuals(scheme)
    sup, argmax = stencil.von_neumann_sup(scheme)
    report: dict = {
        "command": "scheme check",
        "scheme": scheme.name,
        "r": scheme.r,
        "p": scheme.p,
        "coefficients": [str(c) for c in scheme.coefficients],
        "lambda": str(scheme.lam),
        "velocity": str(scheme.velocity),
        "lam_a": scheme.lam_a,
        "consistency_residuals": {"order0": r0, "order1": r1},
        "von_neumann_sup": sup,
        "sup_argmax_theta": argmax,
    }
    try:
        modes = stencil.unimodular_modes(scheme, tol=args.mode_tol)
        report["modes"] = [
            {
                "theta": m.theta,
                "theta_over_pi": m.theta / math.pi,
                "modulus_excess": m.modulus_excess,
                "group_velocity": m.group_velocity,
            }
            for m in modes
        ]
    except ValueError as exc:
        report["modes"] = None
        report["modes_note"] = str(exc)
    code = EXIT_OK
    if args.assert_stable:
        stable = sup <= 1.0 + args.tol
        report["stability_tol"] = args.tol
        report["stable"] = bool(stable)
        if not stable:
            code = EXIT_CHECK_FAILED
    _emit_report(report, _report_json_path(args.out) if args.out else None)
    return code


# ---------------------------------------------------------------------------
# spectrum

def cmd_spectrum(args: argparse.Namespace) -> int:
    from .operators import Grid, assemble_matrix, save_matrix
    from .spectral import save_spectrum_csv, spectral_radius

    scheme = _resolve_scheme(args)
    try:
        grid = Grid(J=args.J, L=args.L, lam=scheme.lam_float)
        A = assemble_matrix(scheme, args.k, args.J)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    if args.full:
        # one dense eigensolve serves rho and the full list, largest modulus first
        result = spectral_radius(A, method="dense", n_leading=A.n)
    else:
        result = spectral_radius(A, method=args.method)
    rate = (result.rho - 1.0) / grid.dx
    report: dict = {
        "command": "spectrum",
        "scheme": scheme.name,
        "k": args.k,
        "J": args.J,
        "L": args.L,
        "dx": grid.dx,
        "n": A.n,
        "method": result.method,
        "rho": result.rho,
        "rho_minus_one": result.rho - 1.0,
        "normalized_excess": rate,
        "eigen_residual": result.residual,
        "leading_eigenvalues": [[z.real, z.imag] for z in result.leading_eigenvalues[:10]],
    }
    written: list[str] = []
    if args.dump_matrix:
        written.extend(save_matrix(A, args.dump_matrix))
    if args.full:
        report["eigenvalues"] = [[z.real, z.imag] for z in result.leading_eigenvalues]
    if args.out:
        json_path = _report_json_path(args.out)
        if args.full:
            csv_path = json_path[: -len(".json")] + ".csv"
            save_spectrum_csv(result.leading_eigenvalues, csv_path)
            written.append(csv_path)
        written.append(json_path)
        report["written"] = written
        _emit_report(report, json_path)
    else:
        report["written"] = written
        _emit_report(report, None)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(args: argparse.Namespace) -> int:
    from . import simulate as sim
    from .operators import Grid

    scheme = _resolve_scheme(args)
    ic = _parse_ic(args.ic, args.center, args.width, args.cell_average)
    try:
        grid = Grid(J=args.J, L=args.L, lam=scheme.lam_float)
        if args.steps < 1:
            raise ValueError("--steps must be >= 1")
        record = sim.run(
            scheme, args.k, grid, ic, args.steps, snapshot_stride=args.snapshot_stride
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    report: dict = {
        "command": "simulate",
        "params": record.params,
        "truncated": record.truncated,
        "steps_recorded": int(record.times.size - 1),
        "final_time": float(record.times[-1]),
        "final_l2_norm": float(record.l2_norms[-1]),
    }
    try:
        fit = sim.growth_slope(record)
        report["slope"] = fit.slope
        report["slope_window"] = list(fit.window)
        report["slope_r_squared"] = fit.r_squared
    except ValueError as exc:
        report["slope"] = None
        report["slope_note"] = str(exc)

    if args.out:
        record_path = args.out + "_record.csv"
        snapshot_path = args.out + "_snapshots.csv"
        sidecar_path = args.out + ".json"
        sim.save_record_csv(record, record_path)
        sim.save_snapshots_csv(record, snapshot_path)
        sim.save_sidecar_json(
            record,
            sidecar_path,
            extra={
                "slope": report.get("slope"),
                "slope_window": report.get("slope_window"),
            },
        )
        report["written"] = [record_path, snapshot_path, sidecar_path]
    _emit_report(report, None)
    return EXIT_OK


# ---------------------------------------------------------------------------
# reproduce

def _load_manifest(path: str | None) -> dict:
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read manifest {path}: {exc}") from exc
    text = (
        resources.files("advstab")
        .joinpath("data/reference_targets.json")
        .read_text(encoding="utf-8")
    )
    return json.loads(text)


def _clause(
    name: str,
    computed: float,
    reference: float,
    tol_kind: str,
    tol: float,
    passed: bool,
) -> dict:
    return {
        "name": name,
        "computed": float(computed),
        "reference": float(reference),
        "tolerance": {tol_kind: float(tol)},
        "pass": bool(passed),
    }


def _reproduce_example(m: dict, args: argparse.Namespace) -> tuple[list[dict], dict]:
    from . import simulate as sim
    from . import stencil
    from .operators import Grid, assemble_matrix
    from .spectral import spectral_radius

    scheme = stencil.builtin(m["scheme"])
    k, J = int(m["k"]), int(m["J"])
    grid = Grid(J=J, L=1.0, lam=scheme.lam_float)
    result = spectral_radius(assemble_matrix(scheme, k, J))
    rate = (result.rho - 1.0) / grid.dx

    clauses = [
        _clause(
            "eigenvalue rate (rho - 1)/dx vs reference",
            rate,
            m["reference_rate"],
            "abs",
            m["rate_tol_abs"],
            abs(rate - m["reference_rate"]) <= m["rate_tol_abs"],
        )
    ]

    steps = int(args.steps) if args.steps else int(m["steps"])
    icm = m["ic"]
    if icm["kind"] == "gaussian":
        ic = sim.InitialCondition(
            kind="gaussian", center=icm["center"], width_param=icm["width_param"]
        )
    else:
        ic = sim.InitialCondition(
            kind="wavepacket",
            center=icm["center"],
            width_param=icm["width_param"],
            packet_theta=icm["theta_over_pi"] * math.pi,
        )
    record = sim.run(scheme, k, grid, ic, steps)
    try:
        fit = sim.growth_slope(record)
    except ValueError:
        # shortened override run: the pinned window is infeasible
        late_half = (float(record.times[-1]) / 2.0, float(record.times[-1]))
        fit = sim.growth_slope(record, window=late_half)
    clauses.append(
        _clause(
            "growth slope vs computed eigenvalue rate",
            fit.slope,
            rate,
            "rel",
            m["slope_eigen_rel_tol"],
            abs(fit.slope - rate) <= m["slope_eigen_rel_tol"] * abs(rate),
        )
    )
    clauses.append(
        _clause(
            "growth slope vs reference slope",
            fit.slope,
            m["reference_slope"],
            "rel",
            m["slope_reference_rel_tol"],
            abs(fit.slope - m["reference_slope"])
            <= m["slope_reference_rel_tol"] * abs(m["reference_slope"]),
        )
    )
    info = {
        "scheme": scheme.name,
        "k": k,
        "J": J,
        "rho": result.rho,
        "eigen_rate": rate,
        "eigen_method": result.method,
        "steps": steps,
        "slope": fit.slope,
        "slope_window": list(fit.window),
        "slope_r_squared": fit.r_squared,
        "truncated": record.truncated,
    }
    if args.steps and int(args.steps) != int(m["steps"]):
        info["note"] = (
            f"steps overridden to {steps}; the pinned experiment uses {m['steps']}"
        )
    if args.out:
        record_path = args.out + "_record.csv"
        sim.save_record_csv(record, record_path)
        info["written"] = [record_path]
    return clauses, info


def _reproduce_lemma1(m: dict) -> tuple[list[dict], dict]:
    import numpy as np

    from . import stencil
    from .operators import assemble_matrix
    from .simulate import lemma1_identity_residual
    from .spectral import operator_norm

    rng = np.random.default_rng(int(m["seed"]))
    n_grid = int(m["grid_points"])
    j_lo, j_hi = int(m["J_range"][0]), int(m["J_range"][1])
    k = int(m["k"])
    worst_excess = -math.inf
    n_matrices = 0
    for lam_a in np.linspace(0.0, 1.0, n_grid):
        for nu in np.linspace(lam_a * lam_a, 1.0, n_grid):
            scheme = stencil.builtin("three-point", lam_a=float(lam_a), nu=float(nu))
            for _ in range(int(m["J_draws_per_cell"])):
                J = int(rng.integers(j_lo, j_hi + 1))
                norm = operator_norm(assemble_matrix(scheme, k, J))
                worst_excess = max(worst_excess, norm - 1.0)
                n_matrices += 1

    rng2 = np.random.default_rng(int(m["residual_seed"]))
    la_lo, la_hi = m["residual_lam_a_range"]
    nu_lo, nu_hi = m["residual_nu_range"]
    rj_lo, rj_hi = int(m["residual_J_range"][0]), int(m["residual_J_range"][1])
    worst_rel_residual = 0.0
    for _ in range(int(m["residual_draws"])):
        lam_a = float(rng2.uniform(la_lo, la_hi))
        nu = float(rng2.uniform(nu_lo, nu_hi))
        J = int(rng2.integers(rj_lo, rj_hi + 1))
        u = rng2.standard_normal(J + 1)
        res = lemma1_identity_residual(u, lam_a, nu)
        norm_sq = float(np.dot(u, u))
        worst_rel_residual = max(worst_rel_residual, res / norm_sq)

    clauses = [
        _clause(
            "operator norm excess over the (lam*a, nu) stability box",
            worst_excess,
            0.0,
            "abs",
            m["norm_tol"],
            worst_excess <= m["norm_tol"],
        ),
        _clause(
            "energy identity residual / ||u||^2 over random draws",
            worst_rel_residual,
            0.0,
            "abs",
            m["residual_tol"],
            worst_rel_residual <= m["residual_tol"],
        ),
    ]
    info = {
        "matrices_checked": n_matrices,
        "residual_draws": int(m["residual_draws"]),
        "worst_norm_excess": worst_excess,
        "worst_relative_residual": worst_rel_residual,
    }
    return clauses, info


def _reproduce_halfline(m: dict) -> tuple[list[dict], dict]:
    import numpy as np

    from . import stencil
    from .operators import SupportedSequence, step_halfline_inflow, step_halfline_outflow

    c = m["contraction"]
    rng = np.random.default_rng(int(c["seed"]))
    clauses: list[dict] = []
    inflow_worst: dict[str, float] = {}
    for entry in c["schemes"]:
        name, lam_a, nu = entry
        scheme = stencil.builtin(name, lam_a=lam_a, nu=nu)
        worst = 0.0
        for _ in range(int(c["n_ics"])):
            width = int(rng.integers(1, int(c["max_support"]) + 1))
            start = int(rng.integers(0, 5))
            u = SupportedSequence(values=rng.standard_normal(width), offset=start)
            prev = u.norm()
            for _ in range(int(c["steps"])):
                u = step_halfline_inflow(scheme, u)
                cur = u.norm()
                if prev > 1e-280:
                    worst = max(worst, cur / prev)
                prev = cur
        inflow_worst[scheme.name] = worst
        clauses.append(
            _clause(
                f"inflow step-norm ratio, {scheme.name}",
                worst,
                1.0,
                "abs",
                c["tol"],
                worst <= 1.0 + c["tol"],
            )
        )

    o = m["outflow"]
    rng2 = np.random.default_rng(int(o["seed"]))
    outflow_ratios: dict[str, dict[str, float]] = {}
    for name, k in o["cases"]:
        scheme = stencil.builtin(name)
        support = int(o["support"])
        u = SupportedSequence(values=rng2.standard_normal(support + 1), offset=-support)
        norm0 = u.norm()
        n_small, n_large = int(o["n_small"]), int(o["n_large"])
        max_small = 1.0
        max_large = 1.0
        for n in range(1, n_large + 1):
            u = step_halfline_outflow(scheme, int(k), u, J=0)
            ratio = u.norm() / norm0
            if n <= n_small:
                max_small = max(max_small, ratio)
            max_large = max(max_large, ratio)
        rel_change = abs(max_large - max_small) / max_small
        outflow_ratios[scheme.name] = {
            "max_ratio_short": max_small,
            "max_ratio_long": max_large,
            "relative_change": rel_change,
        }
        clauses.append(
            _clause(
                f"outflow max ||u^n||/||u^0|| drift as the horizon doubles, {scheme.name} k={k}",
                rel_change,
                0.0,
                "rel",
                o["rel_change_tol"],
                rel_change <= o["rel_change_tol"],
            )
        )
    info = {"inflow_worst_ratios": inflow_worst, "outflow": outflow_ratios}
    return clauses, info


def cmd_reproduce(args: argparse.Namespace) -> int:
    manifest = _load_manifest(args.manifest)
    target = args.target
    if target not in manifest:
        raise UsageError(f"manifest has no target {target!r}")
    m = manifest[target]
    if target in ("example1", "example2"):
        clauses, info = _reproduce_example(m, args)
    elif target == "lemma1":
        clauses, info = _reproduce_lemma1(m)
    else:
        clauses, info = _reproduce_halfline(m)
    overall = all(cl["pass"] for cl in clauses)
    report = {
        "command": "reproduce",
        "target": target,
        "clauses": clauses,
        "info": info,
        "overall": "PASS" if overall else "FAIL",
    }
    _emit_report(report, _report_json_path(args.out) if args.out else None)
    return EXIT_OK if overall else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# parser and entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="advstab",
        description=(
            "Stability laboratory for explicit one-step transport schemes on an "
            "interval with Dirichlet inflow and extrapolation outflow closures."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scheme = sub.add_parser("scheme", help="scheme-level inspection tools")
    scheme_sub = scheme.add_subparsers(dest="scheme_command", required=True)
    check = scheme_sub.add_parser(
        "check",
        help="consistency residuals, von Neumann supremum, unimodular mode table",
    )
    _add_scheme_args(check)
    check.add_argument(
        "--assert-stable",
        action="store_true",
        help="exit 1 when sup|C| > 1 + tol",
    )
    check.add_argument(
        "--tol",
        type=float,
        default=1e-8,
        help="stability tolerance for --assert-stable (default 1e-8)",
    )
    check.add_argument(
        "--mode-tol",
        type=float,
        default=1e-4,
        help="modulus tolerance for listing unimodular modes (default 1e-4)",
    )
    check.add_argument("--out", help="also write the JSON report to this path")
    check.set_defaults(handler=cmd_scheme_check)

    spectrum = sub.add_parser(
        "spectrum", help="spectral radius of the interval iteration matrix"
    )
    _add_scheme_args(spectrum)
    spectrum.add_argument("--k", type=int, required=True, help="extrapolation order")
    spectrum.add_argument("--J", type=int, required=True, help="last interior index")
    spectrum.add_argument("--L", type=float, default=1.0, help="interval length")
    spectrum.add_argument(
        "--method",
        choices=("auto", "dense", "iterative"),
        default="auto",
        help="eigensolver path (default auto)",
    )
    spectrum.add_argument(
        "--full",
        action="store_true",
        help="force the dense path and include every eigenvalue in the report",
    )
    spectrum.add_argument(
        "--out",
        help="write the JSON report here; with --full also a full-spectrum CSV",
    )
    spectrum.add_argument(
        "--dump-matrix",
        help="save the iteration matrix to this path (binary + JSON sidecar)",
    )
    spectrum.set_defaults(handler=cmd_spectrum)

    simulate = sub.add_parser(
        "simulate", help="time-step an initial condition and fit the growth slope"
    )
    _add_scheme_args(simulate)
    simulate.add_argument("--k", type=int, required=True, help="extrapolation order")
    simulate.add_argument("--J", type=int, required=True, help="last interior index")
    simulate.add_argument("--L", type=float, default=1.0, help="interval length")
    simulate.add_argument(
        "--ic",
        required=True,
        help="initial condition: gaussian or wavepacket:<theta-over-pi>",
    )
    simulate.add_argument("--steps", type=int, required=True, help="number of steps")
    simulate.add_argument(
        "--center", type=float, default=0.5, help="envelope center (default 0.5)"
    )
    simulate.add_argument(
        "--width", type=float, default=50.0, help="envelope width parameter (default 50)"
    )
    simulate.add_argument(
        "--cell-average",
        action="store_true",
        help="sample the initial condition by cell averages instead of point values",
    )
    simulate.add_argument(
        "--snapshot-stride",
        type=int,
        default=0,
        help="record a solution snapshot every this many steps (0 disables)",
    )
    simulate.add_argument(
        "--out",
        help="prefix for artifacts: <out>_record.csv, <out>_snapshots.csv, <out>.json",
    )
    simulate.set_defaults(handler=cmd_simulate)

    reproduce = sub.add_parser(
        "reproduce", help="run a pinned experiment bundle and compare to its targets"
    )
    reproduce.add_argument(
        "--target",
        required=True,
        choices=("example1", "example2", "lemma1", "halfline"),
        help="which bundle to run",
    )
    reproduce.add_argument(
        "--manifest",
        help="override the packaged reference-target manifest with this JSON file",
    )
    reproduce.add_argument(
        "--steps",
        type=int,
        default=0,
        help="override the pinned step count (smoke runs; 0 keeps the manifest value)",
    )
    reproduce.add_argument(
        "--out", help="prefix for artifacts (report JSON, record CSV for examples)"
    )
    reproduce.set_defaults(handler=cmd_reproduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        _cap_threads()
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        return EXIT_OK
    except (ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
