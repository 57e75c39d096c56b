"""The package export table against the submodules' public names."""

from __future__ import annotations

import importlib
import inspect

import advstab

SUBMODULES = ("stencil", "boundary", "operators", "spectral", "simulate", "experiments")


def test_exports_are_exactly_the_submodules_public_names() -> None:
    owners: dict[str, str] = {}
    for short in SUBMODULES:
        module = importlib.import_module(f"advstab.{short}")
        for name in module.__all__:
            assert name not in owners, f"{name} is public in {owners[name]} and {short}"
            owners[name] = short
            value = getattr(module, name)
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == module.__name__, f"{short}.{name} is a re-export"
    assert advstab._EXPORTS == owners


def test_package_attributes_resolve_to_the_defining_module() -> None:
    for name, short in advstab._EXPORTS.items():
        module = importlib.import_module(f"advstab.{short}")
        assert getattr(advstab, name) is getattr(module, name)
