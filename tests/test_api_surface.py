"""API-surface sanity: exports resolve, docstrings exist, no cycles."""

from __future__ import annotations

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import repro

SUBPACKAGES = [
    "repro",
    "repro.core",
    "repro.batch",
    "repro.constraints",
    "repro.data",
    "repro.matching",
    "repro.parsing",
    "repro.schema",
    "repro.workloads",
    "repro.bench",
    "repro.extensions",
    "repro.resilience",
    "repro.service",
    "repro.tools",
    "repro.certify",
]


def all_modules() -> list[str]:
    out = list(SUBPACKAGES)
    for name in SUBPACKAGES:
        package = importlib.import_module(name)
        if hasattr(package, "__path__"):
            for info in pkgutil.iter_modules(package.__path__):
                out.append(f"{name}.{info.name}")
    return sorted(set(out))


@pytest.mark.parametrize("module_name", all_modules())
def test_module_imports_and_is_documented(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), f"{module_name} lacks a docstring"


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.__all__ lists missing {name!r}"


def test_version():
    assert repro.__version__ == "1.2.0"


def test_session_api_is_exported():
    """The Session front door (and its option/result shapes) is the
    pinned public configuration path."""
    import dataclasses

    for name in ("Session", "MinimizeOptions", "QueryResult"):
        assert name in repro.__all__, f"repro.__all__ is missing {name}"
    fields = {f.name for f in dataclasses.fields(repro.MinimizeOptions)}
    assert fields == {
        "oracle_cache",
        "jobs",
        "memoize",
        "watchdog",
        "fault_plan",
        "store_path",
        "certify",
        "audit_rate",
    }


def test_service_surface():
    """The serving layer's exports resolve and ride on the Session API."""
    service = importlib.import_module("repro.service")
    for name in (
        "MinimizationService",
        "ServiceStats",
        "LatencyHistogram",
        "serve_tcp",
        "serve_stdio",
        "handle_line",
        "handle_connection",
    ):
        assert hasattr(service, name), f"repro.service is missing {name}"
    for name in ("ServiceError", "ServiceClosedError", "ServiceOverloadedError"):
        assert name in repro.__all__, f"repro.__all__ is missing {name}"


def test_public_callables_documented():
    undocumented = []
    for name in repro.__all__:
        obj = getattr(repro, name, None)
        if callable(obj) and not isinstance(obj, type):
            if not (obj.__doc__ or "").strip():
                undocumented.append(name)
    assert not undocumented, f"undocumented public functions: {undocumented}"


def test_public_classes_documented():
    undocumented = []
    for name in repro.__all__:
        obj = getattr(repro, name, None)
        if isinstance(obj, type) and not (obj.__doc__ or "").strip():
            undocumented.append(name)
    assert not undocumented, f"undocumented public classes: {undocumented}"


def test_console_scripts_resolve():
    """Every ``[project.scripts]`` entry of pyproject.toml names an
    importable callable. Read without ``tomllib``, which Python 3.10
    lacks: each line of the table is ``name = "module:function"``."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    table = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    lines = [line for line in table.splitlines() if line.strip()]
    entries = [
        re.fullmatch(r'([\w-]+) = "([\w.]+):(\w+)"', line.strip()) for line in lines
    ]
    assert lines and all(entries), lines
    for entry in entries:
        name, module, function = entry.groups()
        target = getattr(importlib.import_module(module), function, None)
        assert callable(target), f"{name} = {module}:{function} does not resolve"
