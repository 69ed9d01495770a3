"""The benchmark's per-function trace must find every function it names.

perfbench/tracing.py wraps each TRACED name as a module attribute of
fermigap, and its COUNTERS read attributes of the arguments of some of
them; the tier-1 suite does not collect perfbench/, so a deleted or renamed
function or attribute would otherwise break only a traced benchmark run.
"""

import ast
import importlib
import importlib.util
import inspect
import json
from pathlib import Path

from fermigap import cli, io as fio, lattice as lat

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


def load_tracing():
    """perfbench/tracing.py as a module, loaded by path and unedited."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_counter_reads_the_arguments_of_a_real_call(tmp_path, monkeypatch, capsys):
    # each COUNTERS lambda reads attributes of a traced function's positional
    # arguments (a spec's .n, an operator set's .dimension); record the
    # arguments of real calls and evaluate each lambda on them
    counters = load_tracing().COUNTERS
    calls = {}
    for name in counters:
        module_name, fn_name = name.split(".")
        module = importlib.import_module(f"fermigap.{module_name}")
        original = getattr(module, fn_name)

        def record(*args, _name=name, _original=original, **kwargs):
            calls.setdefault(_name, []).append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, fn_name, record)
    spec = lat.stack(lat.build_xy_cycle(4), 3)
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(fio.structured_to_dict(spec)))
    assert cli.main(["gap", str(path)]) == 0
    assert cli.main(["verify", "--n-max", "3", "--trials", "1"]) == 0
    capsys.readouterr()
    lat.structured_gap_report(spec, 0.5)
    assert sorted(calls) == sorted(counters)
    for name, (counter, amount) in counters.items():
        for args in calls[name]:
            value = amount(args)
            assert type(value) is int and value > 0, (name, counter, value)
