"""The public API is the submodules' __all__: each name public once, each with a caller."""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import advstab

SUBMODULES = ("stencil", "boundary", "operators", "spectral", "simulate", "experiments")


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on the package source, without an install."""
    src = Path(advstab.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, check=True)


def _public_names() -> dict[str, str]:
    """Each submodule's __all__ names, mapped to the one submodule that declares them."""
    owners: dict[str, str] = {}
    for short in SUBMODULES:
        module = importlib.import_module(f"advstab.{short}")
        for name in module.__all__:
            assert name not in owners, f"{name} is public in {owners[name]} and {short}"
            owners[name] = short
    return owners


def test_exports_are_exactly_the_submodules_public_names() -> None:
    for name, short in _public_names().items():
        module = importlib.import_module(f"advstab.{short}")
        value = getattr(module, name)
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == module.__name__, f"{short}.{name} is a re-export"


def _shipped_sources() -> list[Path]:
    """The callers that ship: library modules, perfbench, demos, acceptance tests."""
    root = Path(advstab.__file__).resolve().parents[2]
    return [
        *(p for p in (root / "src" / "advstab").glob("*.py") if p.name != "__init__.py"),
        *(p for p in (root / "perfbench").glob("*.py") if p.name != "test_perfbench.py"),
        *(root / "demos").glob("*.py"),
        root / "tests" / "test_acceptance.py",
    ]


def test_every_export_has_a_shipped_caller() -> None:
    used: set[str] = set()
    for path in _shipped_sources():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    assert sorted(set(_public_names()) - used) == []


def test_library_imports_no_sparse_eigensolver() -> None:
    # spectral radii come from the dense eigensolve until a certified solver exists
    imported: list[str] = []
    for path in Path(advstab.__file__).resolve().parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.extend(f"{path.name}: {alias.name}" for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.extend(f"{path.name}: {node.module}.{alias.name}"
                                for alias in node.names)
    assert [line for line in imported if "scipy.sparse" in line] == []


# the private names one library module may read from another: the dense
# guard, the slope fit's sample floor and the lemma1 sweep's batched norm
# engine; the interval size checks belong to IntervalOperator alone
SHARED_PRIVATE_NAMES = {"_check_dense", "_MIN_FIT_SAMPLES", "_gram_norms"}


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def test_library_modules_read_only_listed_private_names_of_siblings() -> None:
    read: list[tuple[str, str, str]] = []  # (file, what it reads, the name)
    for path in Path(advstab.__file__).resolve().parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        siblings: set[str] = set()  # local names of sibling modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level and node.module is None:
                siblings.update(alias.asname or alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level:
                read.extend((path.name, f"{node.module}.{alias.name}", alias.name)
                            for alias in node.names)
        read.extend((path.name, f"{node.value.id}.{node.attr}", node.attr)
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in siblings)
    assert [f"{where}: {what}" for where, what, name in read
            if _is_private(name) and name not in SHARED_PRIVATE_NAMES] == []


def _readers(names: set[str]) -> set[tuple[str, str, str]]:
    """(file, top-level definition, name) for every use of the names in the library."""
    found: set[tuple[str, str, str]] = set()
    for path in Path(advstab.__file__).resolve().parent.glob("*.py"):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    used = {node.id}
                elif isinstance(node, ast.Attribute):
                    used = {node.attr}
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    used = {alias.name.rpartition(".")[2] for alias in node.names}
                else:
                    continue
                found.update((path.name, owner, name) for name in used & names)
    return found


def test_the_ghost_fold_and_the_correlation_each_have_one_site() -> None:
    # the interval operator is the one place the outflow fold is applied;
    # the outflow half-line steps through it, and only the inflow half-line
    # keeps its own kernel, one correlation per batch
    fold = {"_float_ghost_weights", "ghost_fold"}
    assert _readers(fold) == {("operators.py", "IntervalOperator", name) for name in fold}
    assert _readers({"correlate"}) == {("operators.py", "step_halfline_inflow", "correlate")}


def test_the_band_elimination_has_one_kernel_and_two_readers() -> None:
    # the certificate's LU and Lemma 1's Gram bisection are the two modes of
    # one kernel, so a third band elimination cannot appear unnoticed
    kernel = {"_band_elimination"}
    assert _readers(kernel) == {("spectral.py", owner, "_band_elimination")
                                for owner in ("_BandLU", "_gram_bisect")}


def test_no_library_engine_falls_back_to_the_dense_svd() -> None:
    # operator_norm stays the reference the tests and criterion 5 check
    # against; the lemma1 sweep's engine bisects every band it is given
    assert _readers({"operator_norm"}) == set()
    # every public spectral function takes an interval operator: the probe's
    # loop, which takes any matrix, is reached through the probe alone
    assert _readers({"_power_bounds"}) == {("spectral.py", "power_bound_probe", "_power_bounds")}


def test_the_initial_condition_has_one_profile() -> None:
    # point samples and cell averages both read _profile, so the envelope's
    # overflow rule and the carrier's phase are written once
    assert _readers({"_envelope"}) == {("simulate.py", "_profile", "_envelope")}
    assert _readers({"packet_theta"}) == {("simulate.py", owner, "packet_theta")
                                          for owner in ("InitialCondition", "_profile")}


def test_every_file_is_written_by_one_function() -> None:
    # every artifact goes through the one atomic write, so no second writer
    # can rename over an existing file or leave a partial one behind
    names = {"replace", "rename", "unlink", "fdopen"}
    assert {(path, owner) for path, owner, _ in _readers(names)} == {
        ("experiments.py", "_atomic_write_bytes")}


def _fields(schema: dict) -> set[str]:
    """Every key of a manifest schema, nested sections flattened."""
    return set(schema).union(*(_fields(kind) for kind in schema.values()
                               if isinstance(kind, dict)))


def test_every_manifest_field_is_read_by_its_bundle() -> None:
    # a field that nothing reads cannot stay behind in a schema: each is read
    # as a string subscript inside the bundle function it is checked for
    from advstab import experiments

    tree = ast.parse(Path(experiments.__file__).read_text(encoding="utf-8"))
    bundles = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for bundle, schema in experiments._BUNDLES.values():
        read = {node.slice.value for node in ast.walk(bundles[bundle.__name__])
                if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
                and isinstance(node.slice.value, str)}
        assert sorted(_fields(schema) - read) == [], bundle.__name__


def test_cli_reads_only_the_reports_and_scheme_resolution() -> None:
    # the commands parse, resolve the scheme, call one experiments function
    # and print
    path = Path(advstab.__file__).resolve().parent / "cli.py"
    read: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            read.update(f"{node.module}.{alias.name}" if node.module else alias.name
                        for alias in node.names)
    assert sorted(name for name in read
                  if name.partition(".")[0] not in ("experiments", "stencil")) == []


def test_cli_defines_no_class() -> None:
    # an input error from the command line is the reports' BundleInputError
    path = Path(advstab.__file__).resolve().parent / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)] == []


def test_numeric_modules_import_no_json_os_or_tempfile() -> None:
    # experiments writes every artifact; stencil reads scheme files, so it
    # alone keeps json, for json.load
    allowed = {"stencil": {"json"}}
    for short in ("stencil", "boundary", "operators", "spectral", "simulate"):
        path = Path(advstab.__file__).resolve().parent / f"{short}.py"
        imported: set[str] = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                imported.add(node.module.partition(".")[0])
        assert imported & {"json", "os", "tempfile"} <= allowed.get(short, set()), short


def test_layer_imports_load_no_scipy() -> None:
    # scipy is imported only where --cell-average needs it, at call time
    probe = (
        "import sys\n"
        "import advstab.boundary, advstab.cli, advstab.operators\n"
        "import advstab.simulate, advstab.spectral, advstab.stencil\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    assert _python("-c", probe).stdout.strip() == "[]"


def test_spectral_radius_loads_no_scipy_and_forms_no_eigenvectors() -> None:
    # importing scipy for LAPACK's band LU cost 0.16 s and 26 MB, past the
    # benchmark's memory bound; the numpy band LU must stay the certificate.
    # With np.linalg.eig gone, any eigenvector matrix would fail the call.
    probe = (
        "import sys\n"
        "import numpy as np\n"
        "from advstab import experiments, operators, spectral, stencil\n"
        "del np.linalg.eig\n"
        "A = operators.assemble_matrix(stencil.builtin('coeff2'), 2, 60)\n"
        "assert spectral.spectral_radius(A).residual < 1e-14\n"
        "experiments.spectrum_report(stencil.builtin('coeff2'), 2, 60, 1.0, True, None, None)\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    assert _python("-c", probe).stdout.strip() == "[]"


def test_lemma1_sweep_runs_no_svd_and_loads_no_scipy() -> None:
    # the lemma1 norms come from the banded Gram bisection on each operator's
    # band; with the SVD gone from numpy.linalg and from the module norm
    # calls it in, and the dense entries raising, a dense SVD or a dense
    # matrix anywhere in the sweep would fail the run
    probe = (
        "import sys\n"
        "import numpy as np\n"
        "from advstab import cli, operators\n"
        "def forbidden(self):\n"
        "    raise AssertionError('the lemma1 sweep built a dense matrix')\n"
        "operators.IntervalOperator.entries = property(forbidden)\n"
        "del np.linalg.svd, np.linalg._linalg.svd\n"
        "assert cli.main(['reproduce', '--target', 'lemma1']) == 0\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    report, _, scipy = _python("-c", probe).stdout.strip().rpartition("\n")
    assert json.loads(report)["overall"] == "PASS"
    assert scipy == "[]"


def test_package_import_loads_no_submodule_and_no_numpy() -> None:
    probe = (
        "import sys, advstab\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith('advstab.') or m.partition('.')[0] == 'numpy'))"
    )
    assert _python("-c", probe).stdout.strip() == "[]"


def test_experiments_import_loads_no_numpy() -> None:
    probe = "import sys\nfrom advstab import experiments\nprint('numpy' in sys.modules)"
    assert _python("-c", probe).stdout.strip() == "False"


def test_module_entry_point_runs_the_cli() -> None:
    out = _python("-m", "advstab", "scheme", "check", "--scheme", "identity")
    assert json.loads(out.stdout)["command"] == "scheme check"
