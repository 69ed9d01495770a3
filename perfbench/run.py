"""fermigap benchmark: the CLI end to end, one fresh interpreter per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every workload, one table

Each workload is a closed loop: one invocation at a time from this process,
no concurrency.  Inputs are generated from --seed into a scratch directory
inside the checkout (``.perfbench-work/``, removed at exit); the program
sees only those files and its argv.  Every invocation's output is checked
with numpy alone, and a failed check, a nonzero exit or stdout that is not
strict JSON counts as a failed invocation.

--trace 0 reports the end-to-end metrics, medians over the invocations of
the run: wall_s, spawn to exit of one invocation; setup_s, spawn until
``import fermigap.cli`` returns (import-only probes add samples when a run
has few invocations); work_per_s, work units per second inside
``cli.main`` (samples, grid points or conformance trials); peak_rss_mb, the
child's own peak RSS.  The failure fraction is ``failed / attempted`` in the
result line.  The timed invocations inherit this process's environment
unchanged.

--trace 1 runs one invocation with every public fermigap function wrapped
in spans (see tracing.py) for the per-layer metrics, one untraced
invocation for the tracing overhead, and then, for half of --seconds, the
same workload with OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 in the child's
environment only, reported as threads1.<metric> for information.

The last line of stdout is the JSON result; the lines before it are the
environment block and the metrics, by name and unit, for a reader.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS, Output, Prepared, strict_json  # noqa: E402

# Import-only probes top set-up samples up to this count in runs whose
# invocations are long.
MIN_SETUP_SAMPLES = 5
INVOKE_TIMEOUT_S = 150.0
THREADS1_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}


def per_layer_names() -> list[str]:
    return [*tracing.layer_metric_names(), "trace.overhead_s",
            *(f"threads1.{key}" for key in E2E_UNITS)]


def unit_of(metric: str) -> str:
    base = metric.removeprefix("threads1.")
    if base in E2E_UNITS:
        return E2E_UNITS[base]
    if base.endswith(("_s", ".s")):
        return "s"
    return "B" if base.endswith("bytes_in") else "count"


@dataclass
class Record:
    """One child process: its timings and, if it failed, why."""

    wall_s: float
    setup_s: float | None = None
    main_s: float | None = None
    rss_mb: float | None = None
    failure: str | None = None
    trace: dict = field(default_factory=dict)


def invoke(prepared: Prepared, work: Path, mode: str, env: dict | None = None) -> Record:
    """Run one child in a fresh interpreter and check what it left behind."""
    shutil.rmtree(prepared.out_dir, ignore_errors=True)
    result_path = work / "child.json"
    result_path.unlink(missing_ok=True)
    argv = [sys.executable, str(CHILD), str(result_path), mode]
    if mode != "import":
        argv += prepared.argv
    start = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=work, env=env, capture_output=True, text=True,
                              timeout=INVOKE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return Record(time.monotonic() - start, failure=f"timed out after {INVOKE_TIMEOUT_S} s")
    rec = Record(time.monotonic() - start)
    if proc.returncode != 0:
        rec.failure = f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
        return rec
    try:
        child = json.loads(result_path.read_text())
        rec.setup_s = child["import_done"] - start
        rec.rss_mb = child["peak_rss_kb"] / 1024.0
        if mode == "import":
            return rec
        rec.main_s = child["main_s"]
        rec.trace = {k: child[k] for k in ("spans", "counters") if k in child}
        if prepared.stdout_json:
            strict_json(proc.stdout)
        rec.failure = prepared.check(Output(proc.stdout, prepared.out_dir))
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        rec.failure = f"output check raised {type(exc).__name__}: {exc}"
    return rec


def invoke_until(prepared: Prepared, work: Path, seconds: float,
                 env: dict | None = None) -> list[Record]:
    """Invoke at least once, then until the next one would end past the deadline."""
    deadline = time.monotonic() + seconds
    records, costs = [], []
    while True:
        start = time.monotonic()
        records.append(invoke(prepared, work, "run", env))
        costs.append(time.monotonic() - start)
        if time.monotonic() + statistics.median(costs) > deadline:
            return records


def e2e_metrics(records: list[Record], units: float, probes: list[Record] = ()) -> dict:
    """Medians over the records; set-up also over the import-only probes."""
    ok = [r for r in records if r.main_s is not None]
    setups = [r.setup_s for r in [*ok, *probes] if r.setup_s is not None]
    return {
        "wall_s": statistics.median(r.wall_s for r in records),
        "setup_s": statistics.median(setups) if setups else 0.0,
        "work_per_s": statistics.median(units / r.main_s for r in ok) if ok else 0.0,
        "peak_rss_mb": statistics.median(r.rss_mb for r in ok) if ok else 0.0,
    }


def setup_probes(prepared: Prepared, work: Path, have: int, want: int,
                 env: dict | None = None) -> list[Record]:
    return [invoke(prepared, work, "import", env) for _ in range(want - have)]


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    build = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": build.get("blas"),
        "lapack": build.get("lapack"),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.startswith(("OMP_", "OPENBLAS_", "MKL_"))},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> tuple[dict, list[Record]]:
    """Measure one workload; return its metrics and every invocation made."""
    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    try:
        prepared = WORKLOADS[name].prepare(work, seed, smoke)
        invoke(prepared, work, "import")     # warm the OS file cache and bytecode
        min_setups = 1 if smoke else MIN_SETUP_SAMPLES
        if not trace:
            records = invoke_until(prepared, work, seconds)
            probes = setup_probes(prepared, work, len(records), min_setups)
            return e2e_metrics(records, prepared.units, probes), records
        reference = invoke(prepared, work, "run")
        traced = invoke(prepared, work, "trace")
        metrics = dict.fromkeys(per_layer_names(), 0.0)
        if traced.trace:
            metrics.update(tracing.layer_metrics(traced.trace["spans"], traced.trace["counters"]))
        if traced.main_s is not None and reference.main_s is not None:
            metrics["trace.overhead_s"] = metrics["cli.main.s"] - reference.main_s
        env1 = dict(os.environ, **THREADS1_ENV)
        threads1 = invoke_until(prepared, work, seconds / 2, env1)
        probes = setup_probes(prepared, work, len(threads1), min_setups, env1)
        for key, value in e2e_metrics(threads1, prepared.units, probes).items():
            metrics[f"threads1.{key}"] = value
        return metrics, [reference, traced, *threads1]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:     # another run is still using it
            pass


def describe(name: str, metrics: dict, records: list[Record], trace: bool) -> list[str]:
    failed = [r for r in records if r.failure]
    lines = [f"workload {name}: {len(records)} invocations, {len(failed)} failed, "
             f"fail_frac {len(failed) / len(records):.3f}"]
    lines += [f"  FAILED: {r.failure}" for r in failed]
    walls = sorted(r.wall_s for r in records)
    for key, value in metrics.items():
        lines.append(f"  {key:<48} {value:>14.6g} {unit_of(key)}")
    if not trace:
        lines.append(f"  wall_s over {len(walls)} invocations: min {walls[0]:.4f} s, "
                     f"max {walls[-1]:.4f} s")
    else:
        selfs = sorted(((v, k) for k, v in metrics.items() if k.endswith("self_s")), reverse=True)
        lines.append("  top self time: " + ", ".join(f"{k} {v:.3f} s" for v, k in selfs[:4]))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fermigap" / "cli.py").is_file():
        print(f"perfbench: no fermigap source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment()))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        values, records = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(describe(name, values, records, bool(args.trace))))
        attempted += len(records)
        failed += sum(1 for r in records if r.failure)
        prefix = f"{name}." if len(names) > 1 else ""
        for key, value in values.items():
            metrics[prefix + key] = {"value": value, "unit": unit_of(key)}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
