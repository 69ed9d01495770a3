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

from ._blas import forked_chunks, small_matrix_threads
from .errors import CapacityError, InputError, NumericalError
from .quadform import (
    CoefficientPair,
    _path_singular_values,
    check_matrix_size,
    gap_and_zero_modes,
    ground_gap,
    linearity_defect,
    subset_sum_spectrum,
    symmetrize_split,
)

ENSEMBLE_KINDS = ("gaussian", "wishart", "bounded_uniform")

# The ensemble each experiment draws from.
EXPERIMENT_KINDS = {
    "survival": "bounded_uniform",
    "edelman": "gaussian",
    "figure1": "gaussian",
    "figure2": "wishart",
}

# The experiments whose samples ensemble_gaps spreads over processes.
POOLED_EXPERIMENTS = ("survival", "edelman")

# Largest n whose 2^n levels figure1 and figure2 enumerate per sample.
ENUMERATION_MODE_CAP = 12

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
        check_matrix_size(self.n, "ensemble matrix")
        if self.samples < 1:
            raise InputError(f"need samples >= 1, got {self.samples}")


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

def edelman_pdf(x: float) -> float:
    """Density (1 + sqrt(x)) / (2 sqrt(x)) * exp(-(x/2 + sqrt(x))), x > 0."""
    x = float(x)
    if x <= 0.0:
        raise InputError(f"pdf is defined for x > 0, got {x}")
    sq = math.sqrt(x)
    return (1.0 + sq) / (2.0 * sq) * math.exp(-(x / 2.0 + sq))


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
# Analytic rarity of large gaps among arbitrary level choices
# ---------------------------------------------------------------------------

def rarity_fraction(n: int, epsilon: float) -> float:
    """Fraction (1 - eps)^(2^n - 1) of level choices with gap >= eps.

    Evaluated in log space so it underflows gracefully for large n.
    """
    return math.exp(rarity_log_fraction(n, epsilon))


def rarity_log_fraction(n: int, epsilon: float) -> float:
    """log of rarity_fraction, usable far past float underflow."""
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")
    if not 0.0 < epsilon < 1.0:
        raise InputError(f"epsilon must lie in (0, 1), got {epsilon}")
    return (2.0 ** n - 1.0) * math.log1p(-epsilon)


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


@dataclass(frozen=True)
class SurvivalPoint:
    x: float
    threshold: float          # gap threshold 2x/n
    empirical: float          # P(gap > 2x/n)
    std_error: float          # binomial standard error
    limit: float              # e^{-x}


def _check_enumeration(n: int) -> None:
    if n > ENUMERATION_MODE_CAP:
        raise CapacityError(f"n={n} too large for full 2^n enumeration here "
                            f"(cap {ENUMERATION_MODE_CAP})")


def survival_experiment(n: int, samples: int, seed: int, x_values) -> list[SurvivalPoint]:
    """Empirical P(gap > 2x/n) for the bounded-uniform ensemble."""
    x_values = [float(x) for x in x_values]
    if not all(0.0 < x < math.inf for x in x_values):
        raise InputError(f"x values must be positive and finite, got {x_values}")
    config = EnsembleConfig(EXPERIMENT_KINDS["survival"], n, samples, seed)
    gaps = ensemble_gaps(config)
    out = []
    for x in x_values:
        threshold = 2.0 * x / n
        p = float(np.mean(gaps > threshold))
        se = math.sqrt(max(p * (1.0 - p), 1e-300) / samples)
        out.append(SurvivalPoint(x=x, threshold=threshold, empirical=p,
                                 std_error=se, limit=math.exp(-x)))
    return out


@dataclass(frozen=True)
class GapDistributionResult:
    scaled_gaps: np.ndarray   # per-sample n * gamma^2 / 4
    ks_distance: float
    median: float
    num_degenerate: int


def gap_distribution_experiment(n: int, samples: int, seed: int) -> GapDistributionResult:
    """Distribution of n*gamma^2/4 for the Gaussian ensemble, KS-tested."""
    gaps = ensemble_gaps(EnsembleConfig(EXPERIMENT_KINDS["edelman"], n, samples, seed))
    scaled = n * gaps ** 2 / 4.0
    return GapDistributionResult(
        scaled_gaps=scaled,
        ks_distance=ks_statistic(scaled, edelman_cdf),
        median=float(np.median(scaled)),
        num_degenerate=int(np.sum(gaps == 0.0)),
    )


@dataclass(frozen=True)
class GapHistogram:
    """Ground gaps vs all other consecutive level gaps, binned logarithmically."""

    bin_edges: np.ndarray
    ground_gap_counts: np.ndarray
    other_gap_counts: np.ndarray
    median_ground: float
    median_other: float


def figure1_experiment(n: int, samples: int, seed: int) -> GapHistogram:
    """Compare ground gaps against the other 2^n - 2 level gaps.

    Per Gaussian sample, all 2^n energies are enumerated; the first
    consecutive difference of the sorted list is the ground gap, the rest are
    "other" gaps.  Values are clipped into the histogram range so the counts
    always conserve totals.
    """
    _check_enumeration(n)
    config = EnsembleConfig(EXPERIMENT_KINDS["figure1"], n, samples, seed)
    lo, hi = HIST_RANGE
    top = np.nextafter(hi, 0.0)
    edges = np.logspace(np.log10(lo), np.log10(hi), HIST_BINS + 1)
    ground_counts = np.zeros(HIST_BINS, dtype=int)
    other_counts = np.zeros(HIST_BINS, dtype=int)
    ground_list = []
    other_medians = []
    with small_matrix_threads(n):
        for i in range(samples):
            energies = subset_sum_spectrum(sample_pair(config, i).singular_values())
            diffs = np.diff(energies)
            ground, others = diffs[0], diffs[1:]
            ground_list.append(ground)
            other_medians.append(np.median(others))
            other_counts += np.histogram(np.clip(others, lo, top), bins=edges)[0]
            ground_counts += np.histogram([min(max(ground, lo), top)], bins=edges)[0]
    return GapHistogram(
        bin_edges=edges,
        ground_gap_counts=ground_counts,
        other_gap_counts=other_counts,
        median_ground=float(np.median(ground_list)),
        median_other=float(np.median(other_medians)),
    )


@dataclass(frozen=True)
class EvolutionTable:
    """Full level tables of a scaled-Wishart evolution along an s grid."""

    s_grid: np.ndarray
    levels: np.ndarray            # shape (len(s_grid), 2^n)
    final_gap: float
    max_linearity_defect: float   # max |gap(s) - (2(1-s) + s*gap(1))|


def figure2_experiment(n: int, seed: int) -> EvolutionTable:
    """Level diagram of an evolution to A = C C^T / n, B = 0, on 101 points.

    Uses the first sample of a Wishart run.  The gap must be exactly affine
    in s: gap(s) = 2(1-s) + s*gap(1).
    """
    _check_enumeration(n)
    target = sample_pair(EnsembleConfig(EXPERIMENT_KINDS["figure2"], n, 1, seed), 0)
    s_grid = np.linspace(0.0, 1.0, 101)
    levels = np.empty((s_grid.size, 2 ** n))
    gaps = np.empty(s_grid.size)
    lam_at = _path_singular_values(target)
    with small_matrix_threads(n):
        for i, s in enumerate(s_grid.tolist()):
            lam = lam_at(s)
            levels[i] = subset_sum_spectrum(lam)
            gaps[i] = gap_and_zero_modes(lam)[0]
    return EvolutionTable(s_grid=s_grid, levels=levels, final_gap=float(gaps[-1]),
                          max_linearity_defect=linearity_defect(s_grid, gaps))
