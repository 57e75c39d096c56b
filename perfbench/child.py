"""One benchmark pass in a fresh process: set-up, then the workload body.

Started by run.py with the thread caps already in its environment, so BLAS
is single-threaded from the first numpy import. Set-up runs from the
parent's launch timestamp (CLOCK_MONOTONIC, shared by all processes) to
the moment the advstab modules are imported and the manifest is loaded,
just before the first call into a layer. The pass writes one JSON result
to --result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import spans
import workloads

THREAD_VARS = ("ADVSTAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = _read(root / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    loose = _read(root / ".git" / ref)
    if loose:
        return loose
    for line in (_read(root / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment(root: Path) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    model = None
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(index / "level")
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(index / "size")
    return {
        "git_commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_caps": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cache_per_cpu0": caches,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--env", action="store_true")
    args = parser.parse_args()
    root = Path.cwd()

    # every layer module, so set-up covers the imports of numpy and scipy
    from advstab import boundary, cli, operators, simulate, spectral, stencil  # noqa: F401

    source = (root / "src" / "advstab").resolve()
    if Path(cli.__file__).resolve().parent != source:
        print(f"advstab imported from {cli.__file__}, not {source}", file=sys.stderr)
        return 2
    with open(args.manifest, encoding="utf-8") as fh:
        manifest = json.load(fh)
    ready = time.monotonic()

    result: dict = {"setup_s": ready - args.launched}
    if args.env:
        result["env"] = environment(root)
    if args.mode != "setup":
        tracer = spans.Tracer() if args.mode == "traced" else None
        if tracer is not None:
            spans.instrument(tracer)
        expected = json.loads(workloads.EXPECTED.read_text())
        session = workloads.Session(Path(args.work), manifest, args.manifest, expected, tracer)
        workloads.BODIES[args.workload](session)
        result.update(
            wall_s=session.wall_s,
            attempted=session.attempted,
            failures=session.failures,
            # ru_maxrss is in KiB on Linux
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if tracer is not None:
            result["layers"] = spans.layer_values(tracer)
            result["module_self_s"] = tracer.module_self()
            result["spans"] = tracer.rows()
            result["span_events"] = tracer.events
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
