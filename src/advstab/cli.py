"""Command line front end.

Subcommands: scheme check, spectrum, simulate, reproduce. Every command
prints a JSON report to standard output; --out and --dump-matrix name the
artifacts, and the directory of each is checked before any computation.
Exit codes: 0 success, 1 a check ran and failed, 2 usage error or a path
that cannot be read or written, 3 numeric failure (eigensolver
nonconvergence, overflow, an array too large to allocate). A usage error
is experiments.BundleInputError, whether a report raised it or this module
did for a bad flag, scheme, initial condition, manifest path or
ADVSTAB_THREADS value.

A command checks its own flags, resolves the scheme, calls one report
function of experiments (check_report, spectrum_report, simulate_report,
reproduce), which writes every artifact, and prints the report it returns.

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

from . import experiments
from .experiments import BundleInputError

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


def _cap_threads() -> None:
    # must run before anything imports numpy in this process
    raw = os.environ.get("ADVSTAB_THREADS", "").strip()
    if not raw:
        return
    if not raw.isdigit() or int(raw) < 1:
        raise BundleInputError(f"ADVSTAB_THREADS must be a positive integer, got {raw!r}")
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
    """A builtin name means the builtin, whatever the directory holds; else a file path."""
    from . import stencil

    choice = args.scheme
    is_file = choice.strip().lower() not in stencil.builtin_names() and (
        choice.endswith(".json") or os.sep in choice or os.path.exists(choice))
    if is_file and not os.path.exists(choice):
        raise BundleInputError(f"scheme file not found: {choice}")
    if is_file and (args.lam_a is not None or args.nu is not None):
        raise BundleInputError(f"--lam-a and --nu apply to builtin schemes, not {choice}")
    try:
        if is_file:
            return stencil.load_scheme(choice)
        return stencil.builtin(choice, lam_a=args.lam_a, nu=args.nu)
    except ValueError as exc:
        raise BundleInputError(
            f"bad scheme file {choice}: {exc}" if is_file else str(exc)) from exc


def _parse_ic(args: argparse.Namespace) -> dict:
    """--ic and its envelope flags as InitialCondition's fields."""
    if args.ic == "gaussian":
        theta = None
    elif args.ic.startswith("wavepacket:"):
        tail = args.ic.split(":", 1)[1]
        try:
            theta = float(tail) * math.pi
        except ValueError as exc:
            raise BundleInputError(
                f"bad wave-packet frequency {tail!r}; expected wavepacket:<theta-over-pi>"
            ) from exc
    else:
        raise BundleInputError(
            f"unknown initial condition {args.ic!r}; use gaussian or wavepacket:<theta-over-pi>"
        )
    return {"kind": "gaussian" if theta is None else "wavepacket", "center": args.center,
            "width_param": args.width, "packet_theta": theta,
            "sampling": "cell_average" if args.cell_average else "point"}


def _emit_report(report: dict) -> None:
    # strict JSON: a non-finite float raises ValueError, a numeric failure
    print(json.dumps(report, indent=2, allow_nan=False))


def _check_output_dirs(args: argparse.Namespace) -> None:
    """BundleInputError unless every --out and --dump-matrix path is in an existing directory.

    Run before any numeric work, so a mistyped path costs no computation.
    """
    for flag, path in (("--out", getattr(args, "out", None)),
                       ("--dump-matrix", getattr(args, "dump_matrix", None))):
        folder = os.path.dirname(path or "") or os.curdir
        if path and not os.path.isdir(folder):
            raise BundleInputError(f"{flag} {path}: {folder} is not an existing directory")


# ---------------------------------------------------------------------------
# commands: check the command's own flags, call one report function, print

def cmd_scheme_check(args: argparse.Namespace) -> int:
    for flag, tol in (("--tol", args.tol), ("--mode-tol", args.mode_tol)):
        if not 0.0 <= tol < math.inf:
            raise BundleInputError(f"{flag} must be a finite number >= 0, got {tol}")
    report = experiments.check_report(_resolve_scheme(args), args.mode_tol,
                                      args.tol if args.assert_stable else None, args.out)
    _emit_report(report)
    return EXIT_CHECK_FAILED if report.get("stable") is False else EXIT_OK


def cmd_spectrum(args: argparse.Namespace) -> int:
    report = experiments.spectrum_report(_resolve_scheme(args), args.k, args.J, args.L,
                                         args.full, args.out, args.dump_matrix)
    _emit_report(report)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    scheme = _resolve_scheme(args)
    report = experiments.simulate_report(scheme, args.k, args.J, args.L, _parse_ic(args),
                                         args.steps, args.snapshot_stride, args.out)
    _emit_report(report)
    return EXIT_OK


def cmd_reproduce(args: argparse.Namespace) -> int:
    try:
        manifest = experiments.load_manifest(args.manifest)
    except (OSError, json.JSONDecodeError) as exc:
        raise BundleInputError(f"cannot read manifest {args.manifest}: {exc}") from exc
    # --steps 0, the default, keeps the pinned step count
    report = experiments.reproduce(args.target, manifest, args.steps or None, args.out)
    _emit_report(report)
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
        "--full", action="store_true",
        help="include every eigenvalue, from one dense eigensolve",
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
        "--out", help="prefix for artifacts: <out>_{record,snapshots}.csv and <out>.json"
    )
    simulate.set_defaults(handler=cmd_simulate)

    reproduce = sub.add_parser(
        "reproduce", help="run a pinned experiment bundle and compare to its targets"
    )
    reproduce.add_argument(
        "--target", required=True, choices=experiments.TARGETS, help="which bundle to run"
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
        _check_output_dirs(args)
        return args.handler(args)
    except BundleInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        return EXIT_OK
    except OSError as exc:
        # an unwritable or unreadable path the user gave; the library names it
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, ArithmeticError, RuntimeError, MemoryError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
