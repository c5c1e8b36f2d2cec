"""The public surface: every exported name exists, and so does every name
the benchmark's tracer wraps, so trimming one shows up here first."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import blowup

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _modules():
    return [blowup] + [importlib.import_module(f"blowup.{m.name}") for m in pkgutil.iter_modules(blowup.__path__)]


@pytest.mark.parametrize("module", _modules(), ids=lambda m: m.__name__)
def test_every_exported_name_exists(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def _tracer_tables() -> dict[str, list]:
    """The tracer's SPANS and LEAVES rows (name, module, attribute path), read without importing it."""
    tables = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            if node.targets[0].id in ("SPANS", "LEAVES"):
                tables[node.targets[0].id] = ast.literal_eval(node.value)
    return tables


def test_tracer_tables_are_found():
    assert sorted(_tracer_tables()) == ["LEAVES", "SPANS"]


@pytest.mark.parametrize("module, path", [pytest.param(module, path, id=name)
                                          for rows in _tracer_tables().values() for name, module, path in rows])
def test_every_traced_name_resolves(module, path):
    # looked up as the tracer patches it: a method in its own class's namespace
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    assert callable(vars(owner).get(attr)), (module, path)
