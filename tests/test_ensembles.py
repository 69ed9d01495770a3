import math
import os

import numpy as np
import pytest
from scipy import integrate, optimize, stats

from fermigap import _blas, ensembles as ens, quadform as qf
from fermigap.errors import InputError

from oracles import edelman_pdf, rarity_fraction, rarity_log_fraction


def assert_bit_identical(run, other):
    """Two (summary, tables) results agree value for value, in type and in dtype."""
    (summary, tables), (other_summary, other_tables) = run, other
    assert summary.keys() == other_summary.keys() and tables.keys() == other_tables.keys()
    pairs = [(summary[key], other_summary[key]) for key in summary]
    for name, (header, columns) in tables.items():
        other_header, other_columns = other_tables[name]
        assert header == other_header and len(columns) == len(other_columns)
        pairs.extend(zip(columns, other_columns))
    for serial, pooled in pairs:
        assert type(pooled) is type(serial)
        assert np.asarray(pooled).dtype == np.asarray(serial).dtype
        assert np.array_equal(pooled, serial)


class TestSampling:
    def test_reproducible_and_order_independent(self):
        config = ens.EnsembleConfig(kind="gaussian", n=5, samples=10, seed=42)
        third = ens.sample_pair(config, 3)
        # drawing other indices first must not change sample 3
        ens.sample_pair(config, 0)
        ens.sample_pair(config, 7)
        again = ens.sample_pair(config, 3)
        assert np.array_equal(third.a, again.a)
        assert np.array_equal(third.b, again.b)

    def test_distinct_indices_differ(self):
        config = ens.EnsembleConfig(kind="gaussian", n=4, samples=2, seed=0)
        assert not np.array_equal(ens.sample_pair(config, 0).a,
                                  ens.sample_pair(config, 1).a)

    def test_wishart_is_psd_with_zero_b(self):
        config = ens.EnsembleConfig(kind="wishart", n=6, samples=1, seed=1)
        pair = ens.sample_pair(config, 0)
        assert np.array_equal(pair.b, np.zeros((6, 6)))
        assert np.linalg.eigvalsh(pair.a).min() >= 0.0
        # A = C C^T / n from sample 0's stream
        c = np.random.default_rng(np.random.SeedSequence(entropy=1, spawn_key=(0,))
                                  ).standard_normal((6, 6))
        assert np.array_equal(pair.a, (1.0 / 6) * (c @ c.T))

    def test_bounded_uniform_norm(self):
        config = ens.EnsembleConfig(kind="bounded_uniform", n=8, samples=5, seed=2)
        for i in range(5):
            pair = ens.sample_pair(config, i)
            assert np.linalg.norm(pair.c, 2) <= 1.0 + 1e-12

    def test_haar_orthogonal(self):
        q = ens.haar_orthogonal(6, np.random.default_rng(3))
        np.testing.assert_allclose(q @ q.T, np.eye(6), atol=1e-12)

    def test_bad_config_rejected(self):
        with pytest.raises(InputError):
            ens.EnsembleConfig(kind="ginibre", n=4, samples=1, seed=0)
        with pytest.raises(InputError):
            ens.EnsembleConfig(kind="gaussian", n=1, samples=1, seed=0)
        config = ens.EnsembleConfig(kind="gaussian", n=4, samples=2, seed=0)
        with pytest.raises(InputError):
            ens.sample_pair(config, 2)


class TestLimitLaw:
    def test_pdf_integrates_to_one(self):
        total, _ = integrate.quad(edelman_pdf, 0, np.inf)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_cdf_is_pdf_antiderivative(self):
        for x in (0.1, 0.5, 1.0, 3.0):
            num, _ = integrate.quad(edelman_pdf, 0, x)
            assert ens.edelman_cdf(x) == pytest.approx(num, abs=1e-10)

    def test_pdf_value(self):
        assert edelman_pdf(1.0) == pytest.approx(math.exp(-1.5), rel=1e-14)

    def test_median_constant(self):
        root = optimize.brentq(lambda x: ens.edelman_cdf(x) - 0.5, 1e-6, 2.0,
                               xtol=1e-15)
        assert ens.EDELMAN_MEDIAN == pytest.approx(root, abs=1e-12)

    def test_domains(self):
        with pytest.raises(InputError):
            edelman_pdf(0.0)
        with pytest.raises(InputError):
            ens.edelman_cdf(-0.5)


class TestKsStatistic:
    @pytest.mark.parametrize("seed,size", [(0, 1), (1, 7), (2, 300), (3, 2000)])
    def test_equals_scipy_kstest(self, seed, size):
        rng = np.random.default_rng(seed)
        x = rng.chisquare(1.0, size=size)  # positive, roughly on the law's scale
        assert ens.ks_statistic(x, ens.edelman_cdf) == \
            stats.kstest(x, ens.edelman_cdf).statistic

    def test_experiment_distance_equals_scipy_kstest(self):
        summary, tables = ens.gap_distribution_experiment(n=16, samples=100, seed=9)
        _, (_, scaled_gaps) = tables["edelman.csv"]
        assert summary["ks_distance"] == stats.kstest(scaled_gaps, ens.edelman_cdf).statistic


class TestRarity:
    def test_small_cases(self):
        # n=2: (1 - 1/2)^3 = 1/8
        assert rarity_fraction(2, 0.5) == pytest.approx(0.125, rel=1e-14)
        assert rarity_fraction(1, 0.25) == pytest.approx(0.75, rel=1e-14)

    def test_log_route_survives_underflow(self):
        log_val = rarity_log_fraction(40, 0.5)
        assert log_val == pytest.approx((2.0 ** 40 - 1.0) * math.log1p(-0.5), rel=1e-12)
        assert rarity_fraction(40, 0.5) == 0.0  # underflows, no exception

    def test_consistency(self):
        assert math.log(rarity_fraction(6, 0.1)) == pytest.approx(
            rarity_log_fraction(6, 0.1), rel=1e-12)

    def test_monte_carlo_agreement(self):
        # independent oracle: draw uniform level subsets directly
        rng = np.random.default_rng(123)
        n, eps, draws = 4, 0.25, 40000
        hits = 0
        for _ in range(draws):
            lam = np.sort(rng.uniform(0.0, 1.0, size=2 ** n - 1))
            # gap >= eps iff every one of the 2^n - 1 uniforms exceeds eps
            hits += bool(lam[0] >= eps)
        p_hat = hits / draws
        se = math.sqrt(p_hat * (1 - p_hat) / draws) + 1e-6
        assert abs(p_hat - rarity_fraction(n, eps)) <= 4 * se

    def test_domain(self):
        with pytest.raises(InputError):
            rarity_fraction(3, 1.5)


class TestExperiments:
    def test_gap_distribution_small_run(self):
        summary, tables = ens.gap_distribution_experiment(n=32, samples=200, seed=9)
        header, (_, scaled_gaps) = tables["edelman.csv"]
        assert header == ("sample_index", "scaled_gap")
        assert scaled_gaps.shape == (200,)
        assert summary["num_degenerate"] == 0
        assert summary["ks_distance"] < 0.15          # loose: small sample
        assert abs(summary["sample_median"] - ens.EDELMAN_MEDIAN) < 0.15

    def test_survival_small_run(self):
        _, tables = ens.survival_experiment(n=32, samples=300, seed=4, x_values=[0.5, 1.0])
        header, columns = tables["survival.csv"]
        assert header == ("x", "threshold", "empirical", "std_error", "limit")
        for x, threshold, empirical, _, limit in zip(*columns):
            assert threshold == pytest.approx(2 * x / 32)
            assert 0.0 <= empirical <= 1.0
            assert abs(empirical - limit) < 0.12

    @pytest.mark.parametrize("x_values", [[1e308], [5e-324]])    # fractions 0 and 1
    def test_survival_std_error_of_a_certain_fraction_is_zero(self, x_values):
        summary, tables = ens.survival_experiment(n=4, samples=3, seed=1, x_values=x_values)
        (point,) = summary["points"]
        assert point["empirical"] in (0.0, 1.0)
        assert point["std_error"] == 0.0
        assert tables["survival.csv"][1][3] == (0.0,)

    def test_figure1_counts_conserved(self):
        summary, tables = ens.figure1_experiment(n=6, samples=50, seed=3)
        header, (_, _, ground_counts, other_counts) = tables["figure1.csv"]
        assert header == ("bin_left", "bin_right", "ground_count", "other_count")
        assert ground_counts.sum() == 50
        assert other_counts.sum() == 50 * (2 ** 6 - 2)
        # consecutive spacings in the dense 2^n spectrum are far smaller
        # than the ground gap 2*sigma_min
        assert summary["median_ground_gap"] > summary["median_other_gap"]

    def test_figure2_linearity(self):
        summary, tables = ens.figure2_experiment(n=5, seed=5)
        header, (s, level_index, energy) = tables["figure2.csv"]
        assert header == ("s", "level_index", "energy")
        assert energy.shape == (101 * 32,)
        assert np.array_equal(level_index, np.tile(np.arange(32), 101))
        assert np.array_equal(s, np.repeat(np.linspace(0.0, 1.0, 101), 32))
        assert summary["max_linearity_defect"] < 1e-10
        # the s = 0 level table is the free-field ladder -n, -n+2, ..., n
        np.testing.assert_allclose(np.unique(np.round(energy[:32], 9)),
                                   np.arange(-5.0, 6.0, 2.0), atol=1e-9)

    def test_figure2_builds_one_pair_and_the_gaps_of_gap_profile(self, monkeypatch):
        built, seen = [], []
        real_init, real_profile = qf.CoefficientPair.__post_init__, ens.gap_profile

        def counted_init(pair):
            built.append(pair)
            real_init(pair)

        def spied_profile(target, s_grid, zero_tolerance=None):
            profile = real_profile(target, s_grid, zero_tolerance)
            seen.append(profile)
            return profile

        monkeypatch.setattr(qf.CoefficientPair, "__post_init__", counted_init)
        monkeypatch.setattr(ens, "gap_profile", spied_profile)
        summary, tables = ens.figure2_experiment(n=6, seed=5)
        assert len(built) == 1          # the target, and no pair per grid point
        (profile,) = seen
        gaps = profile.gap
        s_grid = np.linspace(0.0, 1.0, 101)
        assert np.array_equal(profile.s, s_grid)
        _, (s, _, _) = tables["figure2.csv"]
        assert np.array_equal(s, np.repeat(s_grid, 2 ** 6))
        target = ens.sample_pair(ens.EnsembleConfig("wishart", 6, 1, 5), 0)
        assert np.array_equal(gaps, qf.gap_profile(target, s_grid).gap)
        assert summary["final_gap"] == gaps[-1]
        affine = 2.0 * (1.0 - s_grid) + s_grid * gaps[-1]
        assert summary["max_linearity_defect"] == float(np.max(np.abs(gaps - affine)))


class TestSingleThreadLoop:
    def test_gaps_bit_identical_to_default_threads(self, monkeypatch):
        config = ens.EnsembleConfig(kind="bounded_uniform", n=128, samples=40, seed=17)
        capped = ens.ensemble_gaps(config)
        monkeypatch.setattr(_blas, "loaded_openblas", lambda: [])
        assert np.array_equal(capped, ens.ensemble_gaps(config))

    def test_figures_bit_identical_to_default_threads(self, monkeypatch):
        capped = [ens.figure1_experiment(n=10, samples=60, seed=11),
                  ens.figure2_experiment(n=8, seed=5)]
        monkeypatch.setattr(_blas, "loaded_openblas", lambda: [])
        default = [ens.figure1_experiment(n=10, samples=60, seed=11),
                   ens.figure2_experiment(n=8, seed=5)]
        for a, b in zip(capped, default):
            assert_bit_identical(a, b)


class TestWorkers:
    @pytest.mark.parametrize("kind, samples, workers", [
        ("bounded_uniform", 7, 3),      # uneven chunks: [0, 3), [3, 5), [5, 7)
        ("gaussian", 2, 2),             # the caller's chunk is sample 0 alone
        ("gaussian", 41, 2),
    ])
    def test_gaps_bit_identical_for_any_worker_count(self, monkeypatch, kind, samples,
                                                     workers):
        config = ens.EnsembleConfig(kind=kind, n=12, samples=samples, seed=23)
        serial = ens.ensemble_gaps(config)
        monkeypatch.setattr(_blas, "loop_workers", lambda items, n, work=None: workers)
        pooled = ens.ensemble_gaps(config)
        assert pooled.dtype == serial.dtype and pooled.shape == (samples,)
        assert np.array_equal(pooled, serial)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_figures_bit_identical_for_any_worker_count(self, monkeypatch, workers):
        runs = []
        for count in (1, workers):
            monkeypatch.setattr(_blas, "loop_workers",
                                lambda items, n, work=None, count=count: count)
            runs.append([ens.figure1_experiment(n=8, samples=41, seed=11),
                         ens.figure2_experiment(n=6, seed=5)])
            assert _blas.last_loop["workers"] == count
        for a, b in zip(*runs):
            assert_bit_identical(a, b)

    def test_one_worker_per_cpu_with_enough_samples(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        three = 1 + -(-3 * _blas.WORK_PER_WORKER // 128 ** 3)    # fewest samples for 3
        assert _blas.loop_workers(three, 128) == 3
        assert _blas.loop_workers(10 ** 6, 128) == 3
        assert _blas.loop_workers(three - 1, 128) == 2
        assert _blas.loop_workers(3, _blas.SINGLE_THREAD_MAX_N) == 2   # one item each after item 0

    def test_two_workers_on_two_cpus_at_n_128(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert _blas.loop_workers(2000, 128) == 2

    @pytest.mark.parametrize("n, items", [
        (256, 101),         # the benchmark's dense profile
        (39, 10 ** 6),      # many cheap samples
    ])
    def test_two_workers_on_two_cpus(self, monkeypatch, n, items):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert _blas.loop_workers(items, n) == 2

    @pytest.mark.parametrize("n, samples, cpus", [
        (_blas.SINGLE_THREAD_MAX_N + 1, 10 ** 6, {0, 1}),    # already on every BLAS thread
        (128, 10 ** 6, {0}),                                  # one usable CPU
        (128, 1 + (2 * _blas.WORK_PER_WORKER - 1) // 128 ** 3, {0, 1}),   # too little work
        (128, 1, {0, 1}),
        (8, 2000, {0, 1}),                  # the n^3 count undercounts small n
        (64, 20, {0, 1, 2}),                # the fork costs more
        (2, 10 ** 6, {0, 1}),
        (32, 200, {0, 1}),
        (_blas.SINGLE_THREAD_MAX_N, 2, {0, 1}),             # nothing to share after item 0
    ])
    def test_single_process(self, monkeypatch, n, samples, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        assert _blas.loop_workers(samples, n) == 1

    def test_single_process_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        assert _blas.loop_workers(10 ** 6, 128) == 1
