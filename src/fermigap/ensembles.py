"""Seeded random Hamiltonian ensembles and their gap statistics.

Three ensembles over coefficient pairs:

* ``gaussian``       -- C with i.i.d. N(0,1) entries, split into (A, B).
* ``wishart``        -- A = C C^T / n, B = 0.
* ``bounded_uniform``-- C = U diag(Sigma) V^T with Sigma uniform on [0,1]
                        and U, V Haar-orthogonal, so ||C||_2 <= 1.

Streams: sample ``index`` of a run with seed ``seed`` always draws from
``seeded_rng(seed, index)`` (PCG64), so samples are reproducible bit-for-bit
and independent of evaluation order.  Normal variates are numpy's ziggurat
implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._blas import forked_chunks
from .errors import CapacityError, InputError
from .quadform import (
    CoefficientPair,
    _path_singular_values,
    check_sites,
    gap_profile,
    ground_gap,
    subset_sum_spectrum,
    symmetrize_split,
)

ENSEMBLE_KINDS = ("gaussian", "wishart", "bounded_uniform")

# Largest n whose 2^n levels figure1 and figure2 enumerate per sample.
ENUMERATION_MODE_CAP = 12

# Samples per run.  Peak RSS grew by 184 bytes per sample for edelman (its
# scaled gap and CSV row), 46 for survival and 39 for figure1 (n = 2, 10^3 to
# 3*10^5 samples, 2-core x86-64 VM): about 190 MB at the cap.
SAMPLE_CAP = 10 ** 6

# Histogram layout for the two-distribution gap figure: 60 logarithmic bins.
HIST_RANGE = (1e-12, 10.0)
HIST_BINS = 60

# Median of the limiting law of n*gamma^2/4: root of x/2 + sqrt(x) = ln 2.
EDELMAN_MEDIAN = 0.2967673027370769


@dataclass(frozen=True)
class EnsembleConfig:
    kind: str
    n: int
    samples: int
    seed: int

    def __post_init__(self):
        if self.kind not in ENSEMBLE_KINDS:
            raise InputError(f"unknown ensemble kind {self.kind!r}; expected one of {ENSEMBLE_KINDS}")
        if self.n < 2:
            raise InputError(f"need n >= 2, got {self.n}")
        check_sites(self.n, "ensemble matrix")
        if self.samples < 1:
            raise InputError(f"need samples >= 1, got {self.samples}")
        if self.samples > SAMPLE_CAP:
            raise CapacityError(f"samples={self.samples} exceeds the sample cap of {SAMPLE_CAP}")


def seeded_rng(seed: int, *key: int) -> np.random.Generator:
    """The PCG64 stream of SeedSequence(entropy=seed, spawn_key=key)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def haar_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed orthogonal matrix via sign-corrected QR."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def sample_pair(config: EnsembleConfig, index: int) -> CoefficientPair:
    """Draw the index-th coefficient pair of the configured ensemble."""
    if not 0 <= index < config.samples:
        raise InputError(f"index {index} outside [0, {config.samples})")
    rng = seeded_rng(config.seed, index)
    n = config.n
    if config.kind == "gaussian":
        return symmetrize_split(rng.standard_normal((n, n)))
    if config.kind == "wishart":
        c = rng.standard_normal((n, n))
        return CoefficientPair((1.0 / n) * (c @ c.T), np.zeros((n, n)))
    sigma = rng.uniform(0.0, 1.0, size=n)
    u = haar_orthogonal(n, rng)
    v = haar_orthogonal(n, rng)
    return symmetrize_split((u * sigma) @ v.T)


# ---------------------------------------------------------------------------
# The limiting law of n * sigma_min^2 for Gaussian matrices
# ---------------------------------------------------------------------------

def edelman_cdf(x) -> float | np.ndarray:
    """Distribution function 1 - exp(-(x/2 + sqrt(x))) for x >= 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise InputError("cdf is defined for x >= 0")
    out = 1.0 - np.exp(-(x / 2.0 + np.sqrt(x)))
    return float(out) if out.ndim == 0 else out


def ks_statistic(samples, cdf) -> float:
    """Two-sided one-sample Kolmogorov-Smirnov distance sup |F_n(x) - cdf(x)|.

    The same arithmetic as scipy.stats.ks_1samp, so the same float.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    f = cdf(x)
    n = x.size
    d_plus = np.max(np.arange(1.0, n + 1) / n - f)
    d_minus = np.max(f - np.arange(0.0, n) / n)
    return float(max(d_plus, d_minus))


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def ensemble_gaps(config: EnsembleConfig) -> np.ndarray:
    """Ground-state gaps (2 sigma_min of A+B) for every sample of the run.

    The samples are split over _blas.loop_workers processes.  Each sample
    draws from its own stream and the chunks are joined in index order, so
    the gaps are bit-identical for any number of workers.
    """
    def chunk(lo: int, hi: int) -> np.ndarray:
        return np.array([ground_gap(sample_pair(config, i)).gap for i in range(lo, hi)])

    return np.concatenate(forked_chunks(chunk, config.samples, config.n, "samples"))


def _check_enumeration(n: int) -> None:
    if n > ENUMERATION_MODE_CAP:
        raise CapacityError(f"n={n} too large for full 2^n enumeration here "
                            f"(cap {ENUMERATION_MODE_CAP})")


def _config(name: str, n: int, samples: int, seed: int) -> EnsembleConfig:
    """The run's config, drawn from the ensemble that EXPERIMENTS names for `name`."""
    return EnsembleConfig(EXPERIMENTS[name][0], n, samples, seed)


# Each experiment returns (summary, tables): summary holds the keys that
# summary.json gives after "experiment" and "config", with the pass thresholds
# and "passed"; tables maps each CSV file name to its (header, columns).

def survival_experiment(n: int, samples: int, seed: int, x_values) -> tuple[dict, dict]:
    """Empirical P(gap > 2x/n) at each x, against its limit e^{-x}."""
    x_values = [float(x) for x in x_values]
    if not all(0.0 < x < math.inf for x in x_values):
        raise InputError(f"x values must be positive and finite, got {x_values}")
    gaps = ensemble_gaps(_config("survival", n, samples, seed))
    rows = []
    for x in x_values:
        # n/2 is exact, so this is 2x/n rounded once, and finite for every finite x
        threshold = x / (n / 2.0)
        p = float(np.mean(gaps > threshold))
        se = math.sqrt(p * (1.0 - p) / samples)
        rows.append((x, threshold, p, se, math.exp(-x)))
    worst = max(abs(p - limit) for _, _, p, _, limit in rows)
    summary = {
        "points": [{"x": x, "empirical": p, "limit": limit, "std_error": se}
                   for x, _, p, se, limit in rows],
        "worst_abs_error": worst,
        "threshold": {"abs_error": 0.05,
                      "note": "empirical finite-n tolerance, not an asymptotic bound"},
        "passed": worst <= 0.05,
    }
    header = ("x", "threshold", "empirical", "std_error", "limit")
    return summary, {"survival.csv": (header, list(zip(*rows)))}


def gap_distribution_experiment(n: int, samples: int, seed: int) -> tuple[dict, dict]:
    """Distribution of n*gamma^2/4, KS-tested against its limiting law."""
    gaps = ensemble_gaps(_config("edelman", n, samples, seed))
    scaled = n * gaps ** 2 / 4.0
    ks_distance = ks_statistic(scaled, edelman_cdf)
    median = float(np.median(scaled))
    summary = {
        "ks_distance": ks_distance,
        "sample_median": median,
        "limit_median": EDELMAN_MEDIAN,
        "num_degenerate": int(np.sum(gaps == 0.0)),
        "threshold": {"ks_distance": 0.06, "median_abs_error": 0.08,
                      "note": "empirical finite-n tolerances, not asymptotic bounds"},
        "passed": ks_distance < 0.06 and abs(median - EDELMAN_MEDIAN) <= 0.08,
    }
    header = ("sample_index", "scaled_gap")
    return summary, {"edelman.csv": (header, (np.arange(scaled.size), scaled))}


def figure1_experiment(n: int, samples: int, seed: int) -> tuple[dict, dict]:
    """Compare ground gaps against the other 2^n - 2 level gaps.

    Per sample, all 2^n energies are enumerated; the first consecutive
    difference of the sorted list is the ground gap, the rest are "other"
    gaps.  Both are binned logarithmically, with values clipped into the
    histogram range so the counts always conserve totals.
    """
    _check_enumeration(n)
    config = _config("figure1", n, samples, seed)
    lo, hi = HIST_RANGE
    top = np.nextafter(hi, 0.0)
    edges = np.logspace(np.log10(lo), np.log10(hi), HIST_BINS + 1)

    def chunk(first: int, last: int):
        ground, other_median = np.empty(last - first), np.empty(last - first)
        other_counts = np.zeros(HIST_BINS, dtype=int)
        for k, i in enumerate(range(first, last)):
            diffs = np.diff(subset_sum_spectrum(sample_pair(config, i).singular_values()))
            ground[k], other_median[k] = diffs[0], np.median(diffs[1:])
            other_counts += np.histogram(np.clip(diffs[1:], lo, top), bins=edges)[0]
        return ground, other_median, other_counts

    grounds, other_medians, other_counts = zip(*forked_chunks(chunk, samples, n, "samples"))
    ground = np.concatenate(grounds)
    median_ground = float(np.median(ground))
    median_other = float(np.median(np.concatenate(other_medians)))
    ratio = median_ground / median_other
    summary = {
        "median_ground_gap": median_ground,
        "median_other_gap": median_other,
        "median_ratio": ratio,
        "threshold": {"median_ratio_min": 10.0, "note": "pilot-pinned threshold"},
        "passed": ratio >= 10.0,
    }
    header = ("bin_left", "bin_right", "ground_count", "other_count")
    columns = (edges[:-1], edges[1:], np.histogram(np.clip(ground, lo, top), bins=edges)[0],
               sum(other_counts))
    return summary, {"figure1.csv": (header, columns)}


def figure2_experiment(n: int, seed: int) -> tuple[dict, dict]:
    """Full level table of an evolution to A = C C^T / n, B = 0, on 101 points of s.

    Uses the first sample of a Wishart run, and takes the gaps from
    gap_profile.  The gap must be exactly affine in s: gap(s) = 2(1-s) + s*gap(1).
    """
    _check_enumeration(n)
    target = sample_pair(_config("figure2", n, 1, seed), 0)
    s_grid = np.linspace(0.0, 1.0, 101)
    profile = gap_profile(target, s_grid)
    lam_at = _path_singular_values(target)
    points = s_grid.tolist()
    levels = np.concatenate(forked_chunks(
        lambda lo, hi: [subset_sum_spectrum(lam_at(s)) for s in points[lo:hi]],
        s_grid.size, n, "points"))
    count = 2 ** n
    defect = profile.summary["linear_defect"]
    summary = {
        "final_gap": float(profile.gap[-1]),
        "max_linearity_defect": defect,
        "threshold": {"max_linearity_defect": 1e-10},
        "passed": defect <= 1e-10,
    }
    columns = (np.repeat(s_grid, count), np.tile(np.arange(count), s_grid.size), levels.ravel())
    return summary, {"figure2.csv": (("s", "level_index", "energy"), columns)}


# The ensemble each experiment draws from, and the function that runs it.
EXPERIMENTS = {
    "survival": ("bounded_uniform", survival_experiment),
    "edelman": ("gaussian", gap_distribution_experiment),
    "figure1": ("gaussian", figure1_experiment),
    "figure2": ("wishart", figure2_experiment),
}
