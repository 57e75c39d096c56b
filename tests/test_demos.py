"""The demo scripts import and define their entry points against the library."""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found() -> None:
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_and_defines_main(path: Path) -> None:
    # any run name but "__main__" runs the imports and definitions only
    namespace = runpy.run_path(str(path), run_name="demo")
    assert callable(namespace["main"])
