"""Self-tests of the benchmark: python3 -m pytest perfbench/"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_smoke_workload(name):
    metrics, records = run.run_workload(name, seed=3, seconds=0.0, trace=False, smoke=True)
    assert [r.failure for r in records] == [None]
    assert set(metrics) == set(run.E2E_UNITS)
    assert all(math.isfinite(v) and v > 0 for v in metrics.values())


def test_smoke_trace_reports_every_layer_metric():
    metrics, records = run.run_workload("verify-oracle", seed=3, seconds=0.0, trace=True,
                                        smoke=True)
    assert all(r.failure is None for r in records)
    expected = set(tracing.layer_metric_names()) | {"trace.overhead_s"}
    expected |= {f"threads1.{k}" for k in run.E2E_UNITS}
    assert set(metrics) == expected
    assert metrics["cli.main.calls"] == 1
    assert metrics["spinrep.fcr_check.calls"] > 0
    # n_max=3 with 3 trials: dense 2^n over 3 * (2 + 4 + 8) oracles + one 2^3 route check,
    # plus the fermionic assembly of that route check
    assert metrics["spinrep.dense_dim_sum"] == 3 * (2 + 4 + 8) + 8 + 8
    assert metrics["cli.self_s"] <= metrics["cli.main.s"]


def test_self_time_on_synthetic_span_tree():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["quadform.ground_gap", 1.0, 4.0, 0],
        ["quadform.ground_gap", 2.0, 3.0, 1],        # nested in its own name
        ["lattice.structured_gap_report", 3.5, 6.0, 0],   # overlaps its sibling
    ]
    assert tracing.self_times(spans) == [10.0 - 5.0, 3.0 - 1.0, 1.0, 2.5]
    metrics = tracing.layer_metrics(spans, {"io.bytes_in": 7})
    assert metrics["cli.main.s"] == 10.0
    assert metrics["cli.self_s"] == 5.0
    assert metrics["quadform.ground_gap.s"] == 3.0
    assert metrics["quadform.ground_gap.self_s"] == 3.0
    assert metrics["quadform.ground_gap.calls"] == 2
    assert metrics["io.bytes_in"] == 7
    assert metrics["spinrep.fcr_check.calls"] == 0


@pytest.mark.parametrize("text", ['{"gap": NaN}', '{"gap": Infinity}', '[-Infinity]'])
def test_strict_json_rejects_non_standard_constants(text):
    with pytest.raises(ValueError):
        wl.strict_json(text)


def test_strict_json_accepts_standard_json():
    assert wl.strict_json('{"gap": 1e308, "ok": true}') == {"gap": 1e308, "ok": True}


@pytest.mark.parametrize("name", ["profile-dense", "profile-torus"])
def test_profile_check_fails_on_tampered_output(name, tmp_path):
    prepared = wl.WORKLOADS[name].prepare(tmp_path, 5, True)
    record = run.invoke(prepared, tmp_path, "run")
    assert record.failure is None
    csv_path = prepared.out_dir / "profile.csv"
    good = csv_path.read_text()
    out = wl.Output("", prepared.out_dir)
    lines = good.splitlines()
    s, gap, degenerate = lines[51].split(",")
    lines[51] = f"{s},{float(gap) * (1 + 1e-6)!r},{degenerate}"
    csv_path.write_text("\n".join(lines) + "\n")
    assert "numpy gives" in prepared.check(out)
    lines = good.splitlines()
    lines[1] = "0.0,2.0000000000000004,false"
    csv_path.write_text("\n".join(lines) + "\n")
    assert "gap(0)" in prepared.check(out)


def _survival_stdout(errors):
    points = [{"x": x, "empirical": math.exp(-x) + e, "limit": math.exp(-x), "std_error": 0.01}
              for x, e in zip(wl.SURVIVAL_X, errors)]
    return json.dumps({"points": points})


def test_survival_check_fails_on_tampered_output(tmp_path):
    assert wl.check_survival(wl.Output(_survival_stdout([0.01, -0.02, 0.0]), tmp_path)) is None
    failure = wl.check_survival(wl.Output(_survival_stdout([0.01, -0.06, 0.0]), tmp_path))
    assert "x=1.0" in failure


def test_verify_check_fails_on_tampered_output(tmp_path):
    prepared = wl.WORKLOADS["verify-oracle"].prepare(tmp_path, 5, True)
    stdout = _run_cli(prepared.argv, tmp_path)
    assert prepared.check(wl.Output(stdout, tmp_path)) is None
    doc = json.loads(stdout)
    doc["checks"][1]["passed"] = False
    assert "route-equality" in prepared.check(wl.Output(json.dumps(doc), tmp_path))
    doc["checks"] = doc["checks"][:1]
    assert "1 conformance checks" in prepared.check(wl.Output(json.dumps(doc), tmp_path))


def _run_cli(argv, work):
    proc = subprocess.run([sys.executable, str(run.CHILD), str(work / "child.json"), "run",
                           *argv], cwd=work, capture_output=True, text=True, check=True)
    return proc.stdout


def test_benchmark_json_names_what_the_runs_report():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        name: w.why for name, w in wl.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.E2E_UNITS
    assert [m["name"] for m in doc["per_layer"]] == run.per_layer_names()
    assert all(m["unit"] == run.unit_of(m["name"]) for m in doc["per_layer"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "profile-dense",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
