"""Names the package is reached by as strings must exist.

perfbench/tracer.py rebinds every (module, function) pair of its TARGETS
with getattr, so a removed or renamed function fails every traced run.
The pairs are read by parsing the file, which is neither imported nor
edited here.  Likewise every name in a module's __all__ must be defined,
or a star import of that module fails.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import polyminor

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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


def test_every_module_star_imports():
    modules = [m.name for m in pkgutil.iter_modules(polyminor.__path__)]
    assert "localization" in modules
    for name in modules:
        exec(f"from polyminor.{name} import *", {})
