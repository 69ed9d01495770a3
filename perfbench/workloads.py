"""The four benchmark workloads: seeded inputs, CLI argv and output checks.

Each workload makes one module do most of the work and the others almost
none, so that a change to one layer shows on one workload and not on the
rest.  The checks use numpy alone, never fermigap, and return a failure
message or None.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

TORUS_DIMS = (128, 128, 64)      # (p, q, r): 2**20 sites, the c10 gate size
DENSE_N = 256
GRID = 101
SURVIVAL_N = 128
SURVIVAL_X = (0.5, 1.0, 2.0)
SURVIVAL_TOL = 0.05
# At 2000 samples the binomial standard error is <= 0.011, so the 0.05
# tolerance sits more than 4 standard errors out; at 1000 a seed in a few
# dozen lands within 0.01 of it.
SURVIVAL_SAMPLES = 2000
VERIFY_N_MAX = 10
VERIFY_TRIALS = 3
VERIFY_CHECKS = 4


def strict_json(text: str):
    """json.loads that rejects NaN, Infinity and -Infinity."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


@dataclass
class Output:
    """What one successful invocation left behind."""

    stdout: str
    out_dir: Path


@dataclass
class Prepared:
    """A workload with its inputs written, ready to invoke."""

    argv: list[str]
    units: float                  # work units per invocation, for work_per_s
    out_dir: Path
    check: Callable[[Output], str | None]
    stdout_json: bool = True      # the command prints its result as JSON


@dataclass
class Workload:
    name: str
    why: str
    prepare: Callable[[Path, int, bool], Prepared]


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def torus_roots(rng: np.random.Generator, dims=TORUS_DIMS) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-neighbour 3D torus roots, shape (r, q, p), seeded couplings.

    A gets an on-site term and +t at both neighbours along each axis, B gets
    +d and -d, so the reflection (anti)symmetry fermigap checks holds exactly.
    """
    p, q, r = dims
    a = np.zeros((r, q, p))
    b = np.zeros((r, q, p))
    a[0, 0, 0] = rng.uniform(-1.0, 1.0)
    for axis in range(3):
        step = [0, 0, 0]
        step[axis] = 1
        plus, minus = tuple(step), tuple(-k for k in step)
        t, d = rng.uniform(0.5, 1.5), rng.uniform(-1.0, 1.0)
        a[plus] = a[minus] = t
        b[plus], b[minus] = d, -d
    return a, b


def gaussian_pair(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric and anti-symmetric parts of an n x n Gaussian matrix."""
    c = rng.standard_normal((n, n))
    return (c + c.T) / 2.0, (c - c.T) / 2.0


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def read_profile(out_dir: Path) -> tuple[np.ndarray, np.ndarray, dict]:
    with open(out_dir / "profile.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["s", "gap", "degenerate"]:
        raise ValueError(f"unexpected CSV header {rows[0]}")
    s = np.array([float(r[0]) for r in rows[1:]])
    gaps = np.array([float(r[1]) for r in rows[1:]])
    summary = strict_json((out_dir / "summary.json").read_text())
    return s, gaps, summary


def min_nonzero_gap(lam: np.ndarray) -> float:
    """2 * least singular value above n * eps * max, fermigap's convention."""
    tol = lam.size * np.finfo(float).eps * lam.max(initial=0.0)
    nonzero = lam[lam > tol]
    return 2.0 * float(nonzero.min()) if nonzero.size else 0.0


def check_profile(out: Output, reference_gap: Callable[[float], float],
                  atol: float) -> str | None:
    """gap(0) == 2, and the gap at a few rows and the argmin matches numpy."""
    s, gaps, summary = read_profile(out.out_dir)
    if not np.array_equal(s, np.linspace(0.0, 1.0, GRID)):
        return f"s column is not the {GRID}-point grid on [0, 1]"
    if gaps[0] != 2.0:
        return f"gap(0) = {gaps[0]!r}, expected 2"
    if summary["min_gap"] != gaps.min():
        return f"summary min_gap {summary['min_gap']!r} != CSV minimum {gaps.min()!r}"
    for row in sorted({1, GRID // 2, GRID - 1, int(np.argmin(gaps))}):
        ref = reference_gap(float(s[row]))
        if not abs(gaps[row] - ref) <= atol:
            return f"gap at s={s[row]!r} is {gaps[row]!r}, numpy gives {ref!r}"
    return None


def check_survival(out: Output) -> str | None:
    """Every |empirical - e^-x| <= 0.05 at the requested x, all finite."""
    summary = strict_json(out.stdout)
    points = summary["points"]
    if [p["x"] for p in points] != list(SURVIVAL_X):
        return f"survival points at x={[p['x'] for p in points]}, expected {SURVIVAL_X}"
    for p in points:
        if not all(math.isfinite(p[k]) for k in ("empirical", "limit", "std_error")):
            return f"non-finite survival point {p}"
        err = abs(p["empirical"] - math.exp(-p["x"]))
        if not err <= SURVIVAL_TOL:
            return f"|empirical - e^-x| = {err:.4f} > {SURVIVAL_TOL} at x={p['x']}"
    return None


def check_verify(out: Output) -> str | None:
    """Every one of the conformance checks ran and passed."""
    doc = strict_json(out.stdout)
    checks = doc["checks"]
    if len(checks) != VERIFY_CHECKS:
        return f"{len(checks)} conformance checks ran, expected {VERIFY_CHECKS}"
    for c in checks:
        if not (c["passed"] is True and c["max_residual"] <= c["tolerance"]):
            return f"conformance check {c['check']} failed: {c}"
    if doc["passed"] is not True:
        return "verify reports passed != true"
    return None


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def prepare_survival(work: Path, seed: int, smoke: bool) -> Prepared:
    samples = 10 if smoke else SURVIVAL_SAMPLES
    out_dir = work / "out"
    argv = ["ensemble", "--experiment", "survival", "--kind", "bounded_uniform",
            "--n", str(SURVIVAL_N), "--samples", str(samples), "--seed", str(seed),
            "--out", str(out_dir)]
    # too few samples for the 0.05 tolerance to mean anything statistically
    check = (lambda out: None) if smoke else check_survival
    return Prepared(argv, samples, out_dir, check)


def profile_workload(spec: Path, out_dir: Path, reference_gap, atol: float) -> Prepared:
    return Prepared(["profile", str(spec), "--grid", str(GRID), "--out", str(out_dir)],
                    GRID, out_dir,
                    lambda out: check_profile(out, reference_gap, atol),
                    stdout_json=False)


def prepare_torus(work: Path, seed: int, smoke: bool) -> Prepared:
    dims = (8, 8, 4) if smoke else TORUS_DIMS
    a, b = torus_roots(np.random.default_rng(seed), dims)
    spec = work / "torus.json"
    spec.write_text(json.dumps({"kind": "bc2cb", "dims": list(dims),
                                "a_root": a.ravel().tolist(), "b_root": b.ravel().tolist()}))
    symbol = np.fft.fftn(a + b)

    def reference_gap(s: float) -> float:
        return min_nonzero_gap(np.abs((1.0 - s) + s * symbol).ravel())

    atol = 1e-9 * (1.0 + float(np.abs(symbol).max()))
    return profile_workload(spec, work / "out", functools.cache(reference_gap), atol)


def prepare_dense(work: Path, seed: int, smoke: bool) -> Prepared:
    n = 8 if smoke else DENSE_N
    a, b = gaussian_pair(np.random.default_rng(seed), n)
    pair = work / "pair.json"
    pair.write_text(json.dumps({"n": n, "a": a.ravel().tolist(), "b": b.ravel().tolist()}))
    eye = np.eye(n)

    def reference_gap(s: float) -> float:
        return min_nonzero_gap(np.linalg.svd(((1.0 - s) * eye + s * a) + s * b,
                                             compute_uv=False))

    atol = 1e-9 * (1.0 + float(np.linalg.norm(a + b, 2)))
    return profile_workload(pair, work / "out", functools.cache(reference_gap), atol)


def prepare_verify(work: Path, seed: int, smoke: bool) -> Prepared:
    n_max = 3 if smoke else VERIFY_N_MAX
    argv = ["verify", "--n-max", str(n_max), "--trials", str(VERIFY_TRIALS),
            "--seed", str(seed)]
    return Prepared(argv, VERIFY_TRIALS, work / "out", check_verify)


WORKLOADS = {w.name: w for w in [
    Workload("ensemble-survival",
             "bounded-uniform survival at n=128: Haar QR and values-only SVD per sample, "
             "no input file, no FFT, no 2^n space",
             prepare_survival),
    Workload("profile-torus",
             "101-point profile of a seeded 2^20-site 3D torus: 10 MB JSON parse, one FFT, "
             "sort and gap reduction per point, no dense SVD",
             prepare_torus),
    Workload("profile-dense",
             "101-point profile of a seeded n=256 Gaussian pair: interpolate, re-validate "
             "and values-only SVD per point",
             prepare_dense),
    Workload("verify-oracle",
             "conformance suite to n=10: dense 2^n assembly, eigvalsh and FCR checks, "
             "the only workload in spinrep",
             prepare_verify),
]}
