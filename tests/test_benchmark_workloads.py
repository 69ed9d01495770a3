"""The benchmark's command lines must run and pass the benchmark's own checks.

perfbench/workloads.py builds each workload's CLI argv and the check of its
output; the tier-1 suite does not collect perfbench/, so a dropped option or
a renamed summary key would otherwise break only a benchmark run.  The file
is loaded by path, unedited, and each workload runs at its smoke size
in-process.
"""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

from fermigap import cli

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    """perfbench/workloads.py as a module, without importing the perfbench package."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_passes_its_check(tmp_path, capsys, name):
    prepared = workloads.WORKLOADS[name].prepare(tmp_path, 1, True)
    assert cli.main(prepared.argv) == 0
    output = workloads.Output(capsys.readouterr().out, prepared.out_dir)
    assert prepared.check(output) is None
    if name == "ensemble-survival":
        # the smoke check is a no-op (too few samples for its tolerance)
        points = workloads.strict_json(output.stdout)["points"]
        assert [p["x"] for p in points] == list(workloads.SURVIVAL_X)
        for p in points:
            assert all(math.isfinite(p[key]) for key in ("empirical", "limit", "std_error"))
