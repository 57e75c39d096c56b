"""Command line front end.

Subcommands: scheme check, spectrum, simulate, reproduce. Every command
prints a JSON report to standard output; --out persists artifacts to disk
(written atomically). Exit codes: 0 success, 1 a check ran and failed,
2 usage error, 3 numeric failure (eigensolver nonconvergence, overflow).

The commands only parse arguments and print reports: the pinned reproduce
bundles and their manifest live in the experiments module, the numerics in
the library modules.

ADVSTAB_THREADS caps the BLAS/OpenMP thread count. It is honored by seeding
the standard thread-count environment variables before numpy is loaded, so
this module, experiments and the package __init__ import nothing numeric at
module scope.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

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
        "--scheme", required=True, help="builtin scheme name or path to a scheme JSON file"
    )
    parser.add_argument(
        "--lam-a", type=float, help="CFL number lambda*a for the parametric builtin schemes"
    )
    parser.add_argument(
        "--nu", type=float, help="dissipation parameter nu (three-point builtin only)"
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

    if text == "gaussian":
        theta = None
    elif text.startswith("wavepacket:"):
        tail = text.split(":", 1)[1]
        try:
            theta = float(tail) * math.pi
        except ValueError as exc:
            raise UsageError(
                f"bad wave-packet frequency {tail!r}; expected wavepacket:<theta-over-pi>"
            ) from exc
    else:
        raise UsageError(
            f"unknown initial condition {text!r}; use gaussian or wavepacket:<theta-over-pi>"
        )
    return InitialCondition(
        kind="gaussian" if theta is None else "wavepacket", center=center,
        width_param=width, packet_theta=theta,
        sampling="cell_average" if cell_average else "point",
    )


def _emit_report(report: dict, out_path: str | None) -> None:
    text = json.dumps(report, indent=2)
    print(text)
    if out_path:
        from .operators import _atomic_write_bytes

        _atomic_write_bytes(out_path, [(text + "\n").encode("utf-8")])


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
    json_path = _report_json_path(args.out) if args.out else None
    if json_path and args.full:
        csv_path = json_path[: -len(".json")] + ".csv"
        save_spectrum_csv(result.leading_eigenvalues, csv_path)
        written.append(csv_path)
    if json_path:
        written.append(json_path)
    report["written"] = written
    _emit_report(report, json_path)
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
        extra = {"slope": report.get("slope"), "slope_window": report.get("slope_window")}
        sim.save_sidecar_json(record, sidecar_path, extra=extra)
        report["written"] = [record_path, snapshot_path, sidecar_path]
    _emit_report(report, None)
    return EXIT_OK


# ---------------------------------------------------------------------------
# reproduce

def cmd_reproduce(args: argparse.Namespace) -> int:
    from . import experiments

    try:
        manifest = experiments.load_manifest(args.manifest)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read manifest {args.manifest}: {exc}") from exc
    try:
        # --steps 0, the default, keeps the pinned step count
        report = experiments.reproduce(args.target, manifest, args.steps or None, args.out)
    except experiments.BundleInputError as exc:
        raise UsageError(str(exc)) from exc
    _emit_report(report, _report_json_path(args.out) if args.out else None)
    return EXIT_OK if report["overall"] == "PASS" else EXIT_CHECK_FAILED


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
        "check", help="consistency residuals, von Neumann supremum, unimodular mode table"
    )
    _add_scheme_args(check)
    check.add_argument(
        "--assert-stable", action="store_true", help="exit 1 when sup|C| > 1 + tol"
    )
    check.add_argument(
        "--tol", type=float, default=1e-8,
        help="stability tolerance for --assert-stable (default 1e-8)",
    )
    check.add_argument(
        "--mode-tol", type=float, default=1e-4,
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
        "--method", choices=("auto", "dense", "iterative"), default="auto",
        help="eigensolver path (default auto)",
    )
    spectrum.add_argument(
        "--full", action="store_true",
        help="force the dense path and include every eigenvalue in the report",
    )
    spectrum.add_argument(
        "--out", help="write the JSON report here; with --full also a full-spectrum CSV"
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
        "--ic", required=True, help="initial condition: gaussian or wavepacket:<theta-over-pi>"
    )
    simulate.add_argument("--steps", type=int, required=True, help="number of steps")
    simulate.add_argument(
        "--center", type=float, default=0.5, help="envelope center (default 0.5)"
    )
    simulate.add_argument(
        "--width", type=float, default=50.0, help="envelope width parameter (default 50)"
    )
    simulate.add_argument(
        "--cell-average", action="store_true",
        help="sample the initial condition by cell averages instead of point values",
    )
    simulate.add_argument(
        "--snapshot-stride", type=int, default=0,
        help="record a solution snapshot every this many steps (0 disables)",
    )
    simulate.add_argument(
        "--out", help="prefix for artifacts: <out>_record.csv, <out>_snapshots.csv, <out>.json"
    )
    simulate.set_defaults(handler=cmd_simulate)

    # experiments imports nothing numeric at module scope (see _cap_threads)
    from .experiments import TARGETS

    reproduce = sub.add_parser(
        "reproduce", help="run a pinned experiment bundle and compare to its targets"
    )
    reproduce.add_argument(
        "--target", required=True, choices=TARGETS, help="which bundle to run"
    )
    reproduce.add_argument(
        "--manifest", help="override the packaged reference-target manifest with this JSON file"
    )
    reproduce.add_argument(
        "--steps", type=int, default=0,
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
        args = build_parser().parse_args(argv)
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
