"""Self-tests of the benchmark: span arithmetic, failure counting, seeds.

Run with `PYTHONPATH=src python -m pytest -q perfbench` from the repository
root.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import run
import spans
import workloads

ROOT = Path(__file__).resolve().parents[1]


def _packaged() -> dict:
    return json.loads((ROOT / workloads.PACKAGED_MANIFEST).read_text())


def test_self_time_is_duration_minus_direct_children() -> None:
    # cli.main [0, 10] calls assemble_matrix [1, 4], which calls
    # step_interval [2, 3]; then cli.main calls step_interval [5, 8].
    tracer = spans.Tracer(clock=iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 8.0, 10.0]).__next__)
    step = tracer.wrap("operators.step_interval", lambda: None)
    assemble = tracer.wrap("operators.assemble_matrix", step)

    def main():
        assemble()
        step()

    tracer.wrap("cli.main", main)()

    assert tracer.stats == {
        ("operators.step_interval", "operators.assemble_matrix"): [1, 1.0, 1.0],
        ("operators.assemble_matrix", "cli.main"): [1, 3.0, 2.0],
        ("operators.step_interval", "cli.main"): [1, 3.0, 3.0],
        ("cli.main", None): [1, 10.0, 4.0],
    }
    assert tracer.by_name()["operators.step_interval"] == {
        "calls": 2, "total_s": 4.0, "self_s": 4.0}
    modules = tracer.module_self()
    assert modules == {"cli": 4.0, "operators": 6.0}
    assert sum(modules.values()) == 10.0  # the top-level span's duration
    values = spans.layer_values(tracer)
    assert values["operators.step_interval.us_per_call"] == 2e6
    assert values["spectral.power_bound_probe.ms_per_power"] == 0.0  # never called


def test_benchmark_json_lists_the_metrics_the_benchmark_prints() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.E2E_UNITS.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (m, spans.unit(m)) for m in (*spans.LAYER_METRICS, *spans.TRACE_METRICS)]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_perturbed_measured_rate_counts_as_failed_operation(tmp_path) -> None:
    session = workloads.Session(tmp_path, {}, "", {})
    out, matrix = str(tmp_path / "spectrum"), str(tmp_path / "matrix")
    code, report = session.cli(["spectrum", "--scheme", "coeff2", "--k", "2", "--J", "1000",
                                "--full", "--dump-matrix", matrix, "--out", out])
    certified = _packaged()["example2"]["measured_rate"]
    for measured_rate in (certified, certified * (1.0 + 1e-6)):
        session.check("coeff2: spectrum rho",
                      workloads.spectrum_problems(code, report, measured_rate, out, matrix))
    assert session.attempted == 2
    assert [f["operation"] for f in session.failures] == ["coeff2: spectrum rho"]
    assert "(rho - 1)/dx" in session.failures[0]["problems"][0]


SEED_PATHS = (("lemma1", "seed"), ("lemma1", "residual_seed"),
              ("halfline", "contraction", "seed"), ("halfline", "outflow", "seed"))


def _split_seeds(manifest: dict) -> tuple[list, dict]:
    rest = copy.deepcopy(manifest)
    seeds = []
    for *parents, key in SEED_PATHS:
        node = rest
        for p in parents:
            node = node[p]
        seeds.append(node.pop(key))
    return seeds, rest


def test_bounds_manifest_changes_only_the_seeds() -> None:
    packaged = _packaged()
    assert workloads.bounds_manifest(packaged, 1) == workloads.bounds_manifest(packaged, 1)
    seeds1, rest1 = _split_seeds(workloads.bounds_manifest(packaged, 1))
    seeds2, rest2 = _split_seeds(workloads.bounds_manifest(packaged, 2))
    assert rest1 == rest2 == _split_seeds(packaged)[1]
    assert all(a != b for a, b in zip(seeds1, seeds2))
