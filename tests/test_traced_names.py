"""The benchmark's per-function trace must find every function it names.

perfbench/tracing.py wraps each TRACED name as a module attribute of
fermigap; the tier-1 suite does not collect perfbench/, so a deleted or
renamed function would otherwise break only a traced benchmark run.
"""

import ast
import importlib
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced():
    """The TRACED literal of perfbench/tracing.py, read without importing it."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {TRACING}")


def test_every_traced_name_is_a_module_level_function():
    names = traced()
    assert names
    for module, functions in names.items():
        mod = importlib.import_module(f"fermigap.{module}")
        for name in functions:
            fn = getattr(mod, name, None)
            assert inspect.isfunction(fn), f"fermigap.{module}.{name} is not a function"
