"""advstab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload {example2,spectra,bounds} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; advstab is imported from ./src.
Each pass of the workload runs in a fresh single-threaded child process
(ADVSTAB_THREADS and the BLAS thread variables set to 1 before numpy
loads), one pass at a time: a closed loop with one client. Passes repeat
while the next one is expected to finish within S seconds; there is always
at least one. A few extra children only import and load the manifest, to
sample set-up time.

--trace 0 reports the end-to-end metrics wall_s, setup_s and peak_rss_mb.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced ones, plus the tracing overhead. The last line of
standard output is the result object; the line before it carries the
environment, the timing samples and any failed checks. The exit code is
0 when every checked operation passed and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 4
RUN_LIMIT_S = 170.0  # a run must end within 180 s
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
THREAD_CAPS = {v: "1" for v in (
    "ADVSTAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env(root: Path) -> dict:
    env = dict(os.environ, **THREAD_CAPS)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_child(args, mode: str, work: Path, manifest: Path, deadline: float,
              env_info: bool = False) -> dict:
    result_path = work / f"result-{time.monotonic_ns()}.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--mode", mode, "--manifest", str(manifest), "--work", str(work),
           "--result", str(result_path)]
    if env_info:
        cmd.append("--env")
    launched = time.monotonic()
    proc = subprocess.Popen([*cmd, "--launched", repr(launched)],
                            env=child_env(Path.cwd()), stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} pass of {args.workload} ran past the time limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise BenchError(f"{mode} pass of {args.workload} exited with code {code}")
    result = json.loads(result_path.read_text())
    result_path.unlink()
    return result


def summary(values: list[float]) -> dict:
    """Median, the highest order statistic and the sample count.

    No run takes enough samples for a percentile with ten samples beyond
    it, so the tail reported is the maximum.
    """
    return {"median": statistics.median(values), "max": max(values),
            "n": len(values), "samples": values}


def measure(args, root: Path, work: Path) -> tuple[dict, dict]:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    packaged = json.loads((root / workloads.PACKAGED_MANIFEST).read_text())
    if args.workload == "bounds":
        manifest = work / "manifest.json"
        manifest.write_text(json.dumps(workloads.bounds_manifest(packaged, args.seed)))
    else:
        manifest = root / workloads.PACKAGED_MANIFEST

    probes = [run_child(args, "setup", work, manifest, deadline, env_info=(i == 0))
              for i in range(SETUP_PROBES)]
    modes = ("plain", "traced") if args.trace else ("plain",)
    passes: list[dict] = []
    durations: list[float] = []
    loop_start = time.monotonic()
    while True:
        mode = modes[len(passes) % len(modes)]
        t0 = time.monotonic()
        res = run_child(args, mode, work, manifest, deadline)
        durations.append(time.monotonic() - t0)
        res["mode"] = mode
        passes.append(res)
        elapsed = time.monotonic() - loop_start
        if len(passes) >= len(modes) and elapsed + statistics.median(durations) > args.seconds:
            break

    plain = [p for p in passes if p["mode"] == "plain"]
    traced = [p for p in passes if p["mode"] == "traced"]
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    wall = summary([p["wall_s"] for p in plain])
    setup = summary([p["setup_s"] for p in probes + passes])
    rss = summary([p["peak_rss_mb"] for p in plain])
    if args.trace:
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        metrics = {m: statistics.median(p["layers"][m] for p in traced)
                   for m in spans.LAYER_METRICS}
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - wall["median"]
        metrics["trace.spans"] = statistics.median(p["span_events"] for p in traced)
    else:
        metrics = {"wall_s": wall["median"], "setup_s": setup["median"],
                   "peak_rss_mb": rss["median"]}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": probes[0]["env"],
        "timings": {"wall_s": wall, "setup_s": setup, "peak_rss_mb": rss},
        "fail_ratio": len(failures) / attempted if attempted else 1.0,
        "failures": failures,
    }
    if args.trace:
        last = traced[-1]
        # the module self times of one traced pass add up to its wall_s
        detail["last_traced_pass"] = {k: last[k] for k in ("wall_s", "module_self_s", "spans")}
    result = {
        "correct": attempted > 0 and not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m: {"value": v, "unit": E2E_UNITS.get(m) or spans.unit(m)}
                    for m, v in metrics.items()},
    }
    return detail, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind through the finally blocks that stop the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    root = Path.cwd()
    if not (root / "src" / "advstab" / "__init__.py").is_file():
        print("error: run from the root of an advstab checkout (no src/advstab here)",
              file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        detail, result = measure(args, root, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
