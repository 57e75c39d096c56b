"""Every command's report: the three routes for one scheme and the pinned bundles.

check_report, spectrum_report and simulate_report answer through the
symbol, the spectrum and time stepping; reproduce runs a pinned bundle, the
paper's evidence as pass/fail clauses: lemma1 the energy identity behind
the three-point norm bound at k = 1, halfline the bounded half-line
semigroups, example1 and example2 the two growing interval examples. A
clause passes by its tolerance kind's rule on the values it prints
(_passes). Each writes its artifacts, report JSON included, lists them in
the report's written (the report JSON last) and returns the report the
command prints. No other module writes a file, and every file here goes
through _atomic_write_bytes: a temporary file beside the path, then the old
file unlinked and the new one renamed into place, never over it. An unusable
input raises BundleInputError, naming the manifest field it came from.
Nothing numeric loads at module scope, so the parser can read TARGETS
before the BLAS thread caps are set; reports call the library via module
attributes.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
from collections.abc import Iterable
from importlib import resources
from typing import Callable

from .boundary import MAX_EXTRAPOLATION_ORDER

__all__ = ["TARGETS", "BundleInputError", "check_report", "load_manifest", "reproduce",
           "simulate_report", "spectrum_report"]


class BundleInputError(ValueError):
    """An input that cannot be used, exit code 2 on the command line.

    It covers a manifest field, a step count or a report argument, and the
    command line's own flags, scheme file, manifest path and ADVSTAB_THREADS.
    """


def load_manifest(path: str | None = None) -> dict:
    """The manifest JSON at path (OSError or JSONDecodeError), else the packaged one."""
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    packaged = resources.files("advstab").joinpath("data/reference_targets.json")
    return json.loads(packaged.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# manifest fields: each kind is (check, what the field must hold)

def _is_int(v, lo: int = 1) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= lo


def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


_COUNT = (_is_int, "an integer >= 1")
_NATURAL = (lambda v: _is_int(v, 0), "an integer >= 0")
_ORDER = (lambda v: _is_int(v) and v <= MAX_EXTRAPOLATION_ORDER,
          f"an integer in [1, {MAX_EXTRAPOLATION_ORDER}]")
_NUMBER = (_is_num, "a finite number")
_OPTIONAL = (lambda v: v is None or _is_num(v), "a finite number or null")
_NONNEG = (lambda v: _is_num(v) and v >= 0, "a finite number >= 0")
_NAME = (lambda v: isinstance(v, str), "a builtin scheme name")
_IC_KIND = (lambda v: v in ("gaussian", "wavepacket"), "'gaussian' or 'wavepacket'")
_K_ONE = (lambda v: v == 1 and _is_int(v), "1 (lemma1 is the k = 1 statement)")


def _pair(kind: tuple) -> tuple:
    ok, what = kind
    return (lambda v: isinstance(v, list) and len(v) == 2 and all(map(ok, v))
            and v[0] <= v[1], f"[lo, hi] with lo <= hi, each {what}")


def _rows(*kinds: tuple) -> tuple:
    def ok(v) -> bool:
        return isinstance(v, list) and len(v) > 0 and all(
            isinstance(row, list) and len(row) == len(kinds)
            and all(check(x) for (check, _), x in zip(kinds, row)) for row in v
        )

    return ok, "a non-empty list of [" + ", ".join(what for _, what in kinds) + "]"


_EXAMPLE = {
    "scheme": _NAME, "k": _ORDER, "J": _COUNT, "steps": _COUNT,
    "reference_rate": _NUMBER, "rate_tol_abs": _NONNEG, "reference_slope": _NUMBER,
    "slope_reference_rel_tol": _NONNEG, "slope_eigen_rel_tol": _NONNEG,
    "ic": {"kind": _IC_KIND, "center": _NUMBER, "width_param": _NONNEG},
}
_LEMMA1 = {
    "grid_points": _COUNT, "J_draws_per_cell": _COUNT, "J_range": _pair(_COUNT),
    "seed": _NATURAL, "norm_tol": _NONNEG,
    "residual_draws": _COUNT, "residual_seed": _NATURAL, "residual_tol": _NONNEG,
    "residual_lam_a_range": _pair(_NUMBER), "residual_nu_range": _pair(_NUMBER),
    "residual_J_range": _pair(_COUNT),
}
_HALFLINE = {
    "contraction": {
        "schemes": _rows(_NAME, _OPTIONAL, _OPTIONAL), "n_ics": _COUNT, "steps": _COUNT,
        "max_support": _COUNT, "seed": _NATURAL, "tol": _NONNEG,
    },
    "outflow": {
        "cases": _rows(_NAME, _ORDER), "n_small": _COUNT, "n_large": _COUNT,
        "support": _NATURAL, "seed": _NATURAL, "rel_change_tol": _NONNEG,
    },
}


def _check(where: str, value, schema) -> None:
    """Raise BundleInputError unless value fits schema, a kind or a dict of them."""
    if isinstance(schema, dict):
        if not isinstance(value, dict):
            raise BundleInputError(f"manifest {where}: expected an object, got {value!r}")
        for key, kind in schema.items():
            if key not in value:
                raise BundleInputError(f"manifest {where}.{key}: missing")
            _check(f"{where}.{key}", value[key], kind)
    elif not schema[0](value):
        raise BundleInputError(f"manifest {where}: expected {schema[1]}, got {value!r}")


def _input(where: str | None, build: Callable, *args, **kwargs):
    """build(*args, **kwargs); a ValueError is a BundleInputError naming field where, if any."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise BundleInputError(f"manifest {where}: {exc}" if where else str(exc)) from exc


def _finite(x: float) -> float | None:
    """x as a float, or None (null in strict JSON) where it overflowed or is NaN."""
    return float(x) if math.isfinite(x) else None


def _passes(kind: str, c: float, r: float, tol: float) -> bool:
    """abs |c - r| <= tol, rel |c - r| <= tol |r|, max c <= r + tol; c not finite fails."""
    rules = {"abs": abs(c - r) <= tol, "rel": abs(c - r) <= tol * abs(r), "max": c <= r + tol}
    return math.isfinite(c) and rules[kind]


def _clause(name: str, computed: float, reference: float, kind: str, tol: float) -> dict:
    c, r, tol = float(computed), float(reference), float(tol)
    return {"name": name, "computed": _finite(c), "reference": r, "tolerance": {kind: tol},
            "pass": _passes(kind, c, r, tol)}


# ---------------------------------------------------------------------------
# the spectrum and stepping answers, shared by the reports and the examples

def _grid(scheme, J: int, L: float):
    from . import operators

    return _input(None, operators.Grid, J=J, L=L, lam=scheme.lam_float)


def _spectrum(A, grid, full: bool):
    """(eigensolve, rate (rho - 1)/dx) of the operator A; full keeps every eigenvalue."""
    from . import spectral

    # one eigensolve serves rho and the full list, largest modulus first
    result = spectral.spectral_radius(A, n_leading=A.n if full else 10)
    return result, (result.rho - 1.0) / grid.dx


def _stepping(scheme, k: int, grid, ic, steps: int, snapshot_stride: int = 0):
    """The run and its default-window fit: (record, fit, None), or (record, None, why)."""
    from . import simulate

    record = _input(None, simulate.run, scheme, k, grid, ic, steps, snapshot_stride)
    try:
        return record, simulate.growth_slope(record), None
    except ValueError as exc:
        return record, None, str(exc)


# ---------------------------------------------------------------------------
# artifacts: every file a report writes goes through _atomic_write_bytes

_CSV_LIMIT = 64  # the matrix dump adds a CSV copy up to this dimension
_CSV_BLOCK = 1 << 14  # record rows made Python floats at a time; all at once is large
# matrix columns copied to bytes at a time, 1 MB at n = 1001; a copy of the
# whole matrix would set the peak memory of a spectrum --dump-matrix run
_DUMP_COLUMNS = 128


def _atomic_write_bytes(path: str, chunks: Iterable[bytes]) -> None:
    """Write the chunks to a temporary file beside path, unlink path, then rename.

    path holds its old bytes until every chunk is written and the temporary
    file is closed; it is missing only between the unlink and the rename, so
    a reader finds the complete old file, the complete new one or none.
    Nothing is fsynced: no promise holds across a power loss. The rename never
    lands on an existing file, because on ext4 (auto_da_alloc) a rename over
    one starts a writeback of the new file that later file operations wait
    for; README gives the measured cost.

    The file gets mode 0o666 & ~umask, as open() gives it. An OSError names
    path, not the temporary file; a path that is a directory is left as it is.
    """
    tmp = None
    try:
        name = os.path.join(os.path.dirname(os.path.abspath(path)),
                            f".tmp-{os.urandom(8).hex()}.part")
        fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        tmp = name
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def _write_json(path: str, doc: dict) -> None:
    """doc as the commands print it: strict JSON (inf or NaN raise ValueError), indented."""
    _atomic_write_bytes(path, [(json.dumps(doc, indent=2, allow_nan=False) + "\n").encode()])


def _write_csv(path: str, header: tuple[str, ...], rows: Iterable[Iterable[str]]) -> None:
    """The header (if any), then a line per row of text cells; a float's cell is its repr."""
    lines = itertools.chain([header] if header else [], rows)
    _atomic_write_bytes(path, ((",".join(row) + "\n").encode() for row in lines))


def _write_record(record, out: str) -> str:
    """out_record.csv: n, t, the norm and its ln, blank where the ln is not finite.

    t and ln are formed a block of _CSV_BLOCK rows at a time, never for the
    whole record, and each block is encoded and written as one chunk.
    """
    import numpy as np

    path, l2, dt = out + "_record.csv", record.l2_norms, record.params["dt"]

    def chunk(lo: int) -> bytes:
        block = l2[lo:lo + _CSV_BLOCK]
        with np.errstate(divide="ignore", invalid="ignore"):
            ln = np.log(block).tolist()
        rows = zip(map(repr, range(lo, lo + block.size)),
                   map(repr, (np.arange(lo, lo + block.size) * dt).tolist()),
                   map(repr, block.tolist()),
                   [repr(x) if math.isfinite(x) else "" for x in ln])
        return ("\n".join(map(",".join, rows)) + "\n").encode()

    header = b"n,t,l2norm,ln_l2norm\n"
    _atomic_write_bytes(path, itertools.chain([header], map(chunk, range(0, l2.size, _CSV_BLOCK))))
    return path


def _stem(out: str | None) -> str | None:
    """--out less a trailing .json: the report goes to STEM.json, every other artifact
    to STEM<suffix>, so --out P and --out P.json write the same files."""
    return out[: -len(".json")] if out and out.endswith(".json") else out


# ---------------------------------------------------------------------------
# bundles: (target, checked section m, step override) -> (clauses, info, the
# run's record or None); only the examples take the override and return a record

def _example(target: str, m: dict, steps: int | None):
    from . import operators, simulate, stencil

    scheme = _input(f"{target}.scheme", stencil.builtin, m["scheme"])
    k, J = m["k"], m["J"]
    A = _input(f"{target}.J", operators.IntervalOperator, scheme, k, J)
    _input(f"{target}.J", operators._check_dense, A.n)
    icm, theta = m["ic"], None
    if icm["kind"] == "wavepacket":
        _check(f"{target}.ic", icm, {"theta_over_pi": _NUMBER})
        theta = icm["theta_over_pi"] * math.pi
    ic = simulate.InitialCondition(kind=icm["kind"], center=icm["center"],
                                   width_param=icm["width_param"], packet_theta=theta)
    n_steps = m["steps"] if steps is None else steps
    # the fallback late-half window holds the steps n >= n_steps / 2, that
    # is n_steps // 2 + 1 samples, enough for a fit from min_steps on
    min_steps = 2 * (simulate._MIN_FIT_SAMPLES - 1)
    if n_steps < min_steps:
        where = f"{target}: --steps" if steps is not None else f"manifest {target}.steps:"
        raise BundleInputError(f"{where} {n_steps} is too few for the late-half slope "
                               f"window; it needs >= {min_steps}")
    grid = _grid(scheme, J, 1.0)

    result, rate = _spectrum(A, grid, False)
    del A  # its dense entries need not stay resident through the run and the record CSV
    record, fit, _ = _stepping(scheme, k, grid, ic, n_steps)
    if fit is None:
        # shortened override run: the pinned window is infeasible
        t_end = (record.l2_norms.size - 1) * record.params["dt"]
        fit = simulate.growth_slope(record, window=(t_end / 2.0, t_end))
    clauses = [
        _clause("eigenvalue rate (rho - 1)/dx vs reference", rate, m["reference_rate"],
                "abs", m["rate_tol_abs"]),
        _clause("growth slope vs computed eigenvalue rate", fit.slope, rate, "rel",
                m["slope_eigen_rel_tol"]),
        _clause("growth slope vs reference slope", fit.slope, m["reference_slope"], "rel",
                m["slope_reference_rel_tol"]),
    ]
    info = {
        "scheme": scheme.name, "k": k, "J": J,
        "rho": result.rho, "eigen_rate": rate, "eigen_method": result.method,
        "steps": n_steps, "slope": fit.slope, "slope_window": list(fit.window),
        "slope_r_squared": fit.r_squared, "truncated": record.truncated,
    }
    if n_steps != m["steps"]:
        info["note"] = (
            f"steps overridden to {n_steps}; the pinned experiment uses {m['steps']}"
        )
    return clauses, info, record


def _lemma1(target: str, m: dict, steps: int | None):
    import numpy as np

    from . import operators, simulate, spectral, stencil

    # Lemma 1 is the k = 1 statement (Neumann outflow), as the energy clause
    # checks: a manifest may still say k = 1, but no other order
    _check(f"{target}.k", m.get("k", 1), _K_ONE)
    j_lo, j_hi = m["J_range"]
    _input(f"{target}.J_range", operators._check_dense, j_hi + 1)

    rng = np.random.default_rng(m["seed"])
    n_grid = m["grid_points"]  # per axis of the (lam*a, nu) stability box

    cells = (stencil.builtin("three-point", lam_a=float(lam_a), nu=float(nu))
             for lam_a in np.linspace(0.0, 1.0, n_grid)
             for nu in np.linspace(lam_a * lam_a, 1.0, n_grid))
    draws = sorted(((scheme, int(rng.integers(j_lo, j_hi + 1)))
                    for scheme in cells for _ in range(m["J_draws_per_cell"])),
                   key=lambda draw: draw[1])
    # drawn in manifest order, streamed by increasing J so that a Gram chunk pads
    # its bands little; one chunk of Gram bands is held at a time, no dense matrix
    norms = spectral._gram_norms(operators.IntervalOperator(s, 1, J) for s, J in draws)
    worst_excess = float(np.max(norms, initial=-math.inf)) - 1.0

    rng2 = np.random.default_rng(m["residual_seed"])
    la_lo, la_hi = m["residual_lam_a_range"]
    nu_lo, nu_hi = m["residual_nu_range"]
    rj_lo, rj_hi = m["residual_J_range"]
    ratios = np.empty(m["residual_draws"])
    for i in range(ratios.size):
        lam_a = float(rng2.uniform(la_lo, la_hi))
        nu = float(rng2.uniform(nu_lo, nu_hi))
        J = int(rng2.integers(rj_lo, rj_hi + 1))
        u = rng2.standard_normal(J + 1)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow gives inf or NaN
            ratios[i] = simulate.lemma1_identity_residual(u, lam_a, nu) / float(np.dot(u, u))
    worst_rel_residual = float(np.max(ratios))  # np.max keeps a NaN: it fails the clause

    clauses = [
        _clause("operator norm excess over the (lam*a, nu) stability box", worst_excess,
                0.0, "max", m["norm_tol"]),
        _clause("energy identity residual / ||u||^2 over random draws", worst_rel_residual,
                0.0, "max", m["residual_tol"]),
    ]
    info = {"matrices_checked": norms.size, "residual_draws": m["residual_draws"],
            "worst_norm_excess": worst_excess,
            "worst_relative_residual": _finite(worst_rel_residual)}
    return clauses, info, None


def _halfline(target: str, m: dict, steps: int | None):
    import numpy as np

    from . import operators, stencil

    c, o = m["contraction"], m["outflow"]
    inflow_schemes = [
        _input(f"{target}.contraction.schemes[{i}]", stencil.builtin, name, lam_a, nu)
        for i, (name, lam_a, nu) in enumerate(c["schemes"])
    ]
    cases = [
        (_input(f"{target}.outflow.cases[{i}]", stencil.builtin, name), k)
        for i, (name, k) in enumerate(o["cases"])
    ]
    n_small, n_large = o["n_small"], o["n_large"]
    if n_small > n_large:
        raise BundleInputError(f"manifest {target}.outflow.n_small: {n_small} exceeds "
                               f"n_large = {n_large}")

    rng = np.random.default_rng(c["seed"])
    n_ics, n_steps = c["n_ics"], c["steps"]
    clauses: list[dict] = []
    inflow_worst: dict[str, float] = {}
    for scheme in inflow_schemes:
        ics = []  # (start, values), drawn in the order of one loop per IC
        for _ in range(n_ics):
            width = int(rng.integers(1, c["max_support"] + 1))
            start = int(rng.integers(0, 5))
            ics.append((start, rng.standard_normal(width)))
        block = np.zeros((n_ics, max(start + x.size for start, x in ics)))
        for row, (start, x) in zip(block, ics):
            row[start:start + x.size] = x
        u = operators.SupportedSequence(values=block, offset=0)
        # a row's ratio counts only while its norm is above 1e-280, below which
        # ratios are rounding noise; an overflow's NaN, kept by maximum, fails
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            prev, worst_rows = u.norm(), np.zeros(n_ics)
            for _ in range(n_steps):
                u = operators.step_halfline_inflow(scheme, u)
                cur = u.norm()
                np.maximum(worst_rows, cur / prev, out=worst_rows, where=prev > 1e-280)
                prev = cur
        inflow_worst[scheme.name] = worst = float(worst_rows.max())
        clauses.append(_clause(f"inflow step-norm ratio, {scheme.name}", worst, 1.0, "max",
                               c["tol"]))

    rng2 = np.random.default_rng(o["seed"])
    outflow_ratios: dict[str, dict[str, float | None]] = {}
    for scheme, k in cases:
        support = o["support"]
        u = operators.SupportedSequence(rng2.standard_normal(support + 1), -support)
        norm0, ratios = u.norm(), np.empty(n_large)
        with np.errstate(over="ignore", invalid="ignore"):
            for n in range(n_large):
                u = operators.step_halfline_outflow(scheme, k, u, J=0)
                ratios[n] = u.norm() / norm0
        max_small = float(np.max(ratios[:n_small], initial=1.0))  # a NaN stays, and fails
        max_large = float(np.max(ratios, initial=1.0))
        rel_change = abs(max_large - max_small) / max_small
        outflow_ratios[scheme.name] = {"max_ratio_short": _finite(max_small),
                                       "max_ratio_long": _finite(max_large),
                                       "relative_change": _finite(rel_change)}
        clauses.append(_clause(
            f"outflow max ||u^n||/||u^0|| drift as the horizon doubles, {scheme.name} k={k}",
            rel_change, 0.0, "max", o["rel_change_tol"]))
    info = {"inflow_worst_ratios": {name: _finite(x) for name, x in inflow_worst.items()},
            "outflow": outflow_ratios}
    return clauses, info, None


# the one target table: the parser's --target choices and the dispatch
_BUNDLES: dict[str, tuple[Callable, dict]] = {
    "example1": (_example, _EXAMPLE),
    "example2": (_example, _EXAMPLE),
    "lemma1": (_lemma1, _LEMMA1),
    "halfline": (_halfline, _HALFLINE),
}
TARGETS = tuple(_BUNDLES)


def reproduce(
    target: str, manifest: dict, steps: int | None = None, out: str | None = None
) -> dict:
    """Run the bundle for target against manifest[target]; return its report.

    steps overrides the examples' pinned step count (the other targets have
    none). out (see _stem) names the report JSON and the examples' record
    CSV; written lists them. overall is 'PASS' when every clause passes.
    """
    if target not in _BUNDLES:
        raise BundleInputError(f"unknown target {target!r}; known: {', '.join(TARGETS)}")
    if not isinstance(manifest, dict) or target not in manifest:
        raise BundleInputError(f"manifest has no target {target!r}")
    bundle, schema = _BUNDLES[target]
    if steps is not None and "steps" not in schema:
        raise BundleInputError(f"{target}: has no step count, so steps cannot override it")
    if steps is not None and not _is_int(steps):
        raise BundleInputError(f"{target}: steps must be an integer >= 1, got {steps!r}")
    _check(target, manifest[target], schema)
    clauses, info, record = bundle(target, manifest[target], steps)
    overall = all(cl["pass"] for cl in clauses)
    report = {"command": "reproduce", "target": target, "clauses": clauses, "info": info,
              "overall": "PASS" if overall else "FAIL"}
    if out:
        stem = _stem(out)
        written = report["written"] = [] if record is None else [_write_record(record, stem)]
        written.append(stem + ".json")
        _write_json(written[-1], report)
    return report


# ---------------------------------------------------------------------------
# the three routes for one scheme: scheme check, spectrum, simulate

def check_report(scheme, mode_tol: float, tol: float | None, out: str | None = None) -> dict:
    """The symbol route: consistency, sup |C| and the modes within mode_tol of |C| = 1.

    With tol, stable says whether sup |C| <= 1 + tol. out (see _stem) names
    the report JSON, which written lists.
    """
    from . import stencil

    r0, r1 = stencil.consistency_residuals(scheme)
    sup, argmax = stencil.von_neumann_sup(scheme)
    report: dict = {
        "command": "scheme check", "scheme": scheme.name, "r": scheme.r, "p": scheme.p,
        "coefficients": [str(c) for c in scheme.coefficients], "lambda": str(scheme.lam),
        "velocity": str(scheme.velocity), "lam_a": scheme.lam_a,
        "consistency_residuals": {"order0": r0, "order1": r1},
        "von_neumann_sup": sup, "sup_argmax_theta": argmax,
    }
    try:
        report["modes"] = [
            {"theta": m.theta, "theta_over_pi": m.theta / math.pi,
             "modulus_excess": m.modulus_excess, "group_velocity": m.group_velocity}
            for m in stencil.unimodular_modes(scheme, tol=mode_tol)
        ]
    except ValueError as exc:
        report.update(modes=None, modes_note=str(exc))
    if tol is not None:
        report.update(stability_tol=tol, stable=_passes("max", sup, 1.0, tol))
    if out:
        report["written"] = [_stem(out) + ".json"]
        _write_json(report["written"][-1], report)
    return report


def spectrum_report(scheme, k: int, J: int, L: float, full: bool,
                    out: str | None, matrix_path: str | None) -> dict:
    """The spectrum route: rho and (rho - 1)/dx of the interval iteration matrix.

    The dominant eigenvalue carries its eigen-residual, an estimate of its
    condition number and the modulus ratio |lambda_2| / |lambda_1|.
    full adds every eigenvalue. out (see _stem) names the report JSON and,
    with full, the eigenvalue CSV. matrix_path dumps the matrix as
    column-major float64 bytes, a JSON sidecar (n, scheme, k, J) and, for
    n <= _CSV_LIMIT, a CSV. Files that coincide are refused before assembly;
    written lists them all.
    """
    from . import operators

    grid = _grid(scheme, J, L)
    stem = _stem(out)
    json_path = stem + ".json" if out else None
    csv_path = stem + ".csv" if out and full else None
    ends = ("", ".json", ".csv") if J + 1 <= _CSV_LIMIT else ("", ".json")  # n = J + 1
    dumps = [matrix_path + end for end in ends] if matrix_path else []
    written = [*dumps, *(path for path in (csv_path, json_path) if path)]
    if len({os.path.realpath(path) for path in written}) < len(written):
        raise BundleInputError(f"--out and --dump-matrix name one file twice: {written}")

    # the size checks are input errors; a matrix that overflows is a numeric failure
    A = _input(None, operators.IntervalOperator, scheme, k, J)
    _input(None, operators._check_dense, A.n)
    result, rate = _spectrum(A, grid, full)
    report: dict = {
        "command": "spectrum", "scheme": scheme.name, "k": k, "J": J, "L": L,
        "dx": grid.dx, "n": A.n, "method": result.method, "rho": result.rho,
        "rho_minus_one": result.rho - 1.0, "normalized_excess": rate,
        "eigen_residual": result.residual,
        # an estimate of kappa_1, null where it is infinite: JSON has no inf
        "eigen_condition": _finite(result.eigen_condition),
        "modulus_ratio": result.modulus_ratio,
        "leading_eigenvalues": [[z.real, z.imag] for z in result.leading_eigenvalues[:10]],
    }
    if full:
        report["eigenvalues"] = [[z.real, z.imag] for z in result.leading_eigenvalues]
    report["written"] = written
    if dumps:
        _atomic_write_bytes(dumps[0], (A.entries[:, j:j + _DUMP_COLUMNS].tobytes(order="F")
                                       for j in range(0, A.n, _DUMP_COLUMNS)))
        _write_json(dumps[1], {"n": A.n, "scheme": scheme.name, "k": k, "J": J})
    if len(dumps) == 3:
        _write_csv(dumps[2], (), (map(repr, row) for row in A.entries.tolist()))
    if csv_path:
        _write_csv(csv_path, ("re", "im"),
                   ((repr(z.real), repr(z.imag)) for z in result.leading_eigenvalues))
    if json_path:
        _write_json(json_path, report)
    return report


def simulate_report(scheme, k: int, J: int, L: float, ic: dict, steps: int,
                    snapshot_stride: int, out: str | None) -> dict:
    """The stepping route: a run from ic (InitialCondition's fields) and its growth slope.

    The slope fits the default window; it is null, with slope_note saying why, if that
    window is infeasible. out (see _stem) names the report JSON, the record CSV and,
    with a snapshot_stride above 0, the snapshot CSV (n, j, u); written lists them.
    """
    from . import simulate

    initial = _input(None, simulate.InitialCondition, **ic)
    record, fit, note = _stepping(scheme, k, _grid(scheme, J, L), initial, steps,
                                  snapshot_stride)
    steps_recorded = record.l2_norms.size - 1
    report: dict = {
        "command": "simulate", "params": record.params, "truncated": record.truncated,
        "steps_recorded": steps_recorded, "final_time": steps_recorded * record.params["dt"],
        "final_l2_norm": _finite(record.l2_norms[-1]),  # null past an overflow
    }
    if fit is None:
        report.update(slope=None, slope_note=note)
    else:
        report.update(slope=fit.slope, slope_window=list(fit.window),
                      slope_r_squared=fit.r_squared)
    if out:
        stem = _stem(out)
        written = report["written"] = [_write_record(record, stem)]
        if snapshot_stride:
            written.append(stem + "_snapshots.csv")
            _write_csv(written[-1], ("n", "j", "u"), ((repr(n), repr(j), repr(x))
                       for n, state in record.snapshots for j, x in enumerate(state.tolist())))
        written.append(stem + ".json")
        _write_json(written[-1], report)
    return report
