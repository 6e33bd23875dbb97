"""Names the package is reached by as strings must exist.

perfbench/tracer.py rebinds every (module, function) pair of its TARGETS
with getattr, so a removed or renamed function fails every traced run.
The pairs are read by parsing the file, which is neither imported nor
edited here.  The benchmark's own modules import package names, and a
removed one fails every benchmark run: those imports are read the same
way.  Likewise every name in a module's __all__ must be defined, or a
star import of that module fails.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import polyminor

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def traced_targets() -> tuple[tuple[str, str], ...]:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} assigns no TARGETS")


def test_every_traced_function_exists():
    targets = traced_targets()
    assert targets
    missing = [
        f"polyminor.{module}.{function}"
        for module, function in targets
        if not callable(getattr(importlib.import_module(f"polyminor.{module}"), function, None))
    ]
    assert not missing, f"traced by perfbench/tracer.py but not callable: {missing}"


def test_every_benchmark_import_resolves():
    imported = [
        (path.name, node.module, alias.name)
        for path in sorted(PERFBENCH.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("polyminor")
        for alias in node.names
    ]
    assert any(module == "polyminor.toric" for _, module, _ in imported)
    missing = [
        f"{file}: from {module} import {name}"
        for file, module, name in imported
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing, f"imported by perfbench but not defined: {missing}"


def test_every_module_star_imports():
    modules = [m.name for m in pkgutil.iter_modules(polyminor.__path__)]
    assert "localization" in modules
    for name in modules:
        exec(f"from polyminor.{name} import *", {})
