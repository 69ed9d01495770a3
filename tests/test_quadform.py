import errno
import io
import json
import os
import pickle
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermigap import _blas, quadform as qf
from fermigap.errors import CapacityError, InputError, NumericalError

from conftest import fake_openblas
from oracles import lieb_residuals


def random_pair(n, seed=0):
    rng = np.random.default_rng(seed)
    return qf.symmetrize_split(rng.standard_normal((n, n)))


def dyadic_matrix(n, rng, scale=2 ** 20):
    """Entries on a dyadic grid so pairwise sums/differences are exact."""
    return rng.integers(-scale, scale, size=(n, n)) / scale


class TestCheckSites:
    def test_default_cap_is_the_matrix_cap(self):
        qf.check_sites(qf.MATRIX_SIZE_CAP, "ensemble matrix")
        with pytest.raises(CapacityError, match=r"^n=4097 exceeds the ensemble matrix cap "
                                                r"of 4096 sites$"):
            qf.check_sites(qf.MATRIX_SIZE_CAP + 1, "ensemble matrix")

    def test_given_cap(self):
        qf.check_sites(6, "spin-3/2", 6)
        with pytest.raises(CapacityError, match=r"^n=7 exceeds the spin-3/2 cap of 6 sites$"):
            qf.check_sites(7, "spin-3/2", 6)

    @pytest.mark.parametrize("n", [0, -3])
    def test_no_site_is_input_error(self, n):
        with pytest.raises(InputError, match=rf"^need at least one site, got n={n}$"):
            qf.check_sites(n, "dense-matrix", 13)


class TestSymmetrizeSplit:
    def test_identity_input(self):
        pair = qf.symmetrize_split(np.eye(3))
        assert np.array_equal(pair.a, np.eye(3))
        assert np.array_equal(pair.b, np.zeros((3, 3)))

    def test_single_offdiagonal(self):
        pair = qf.symmetrize_split(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert np.array_equal(pair.a, [[0.0, 0.5], [0.5, 0.0]])
        assert np.array_equal(pair.b, [[0.0, 0.5], [-0.5, 0.0]])

    def test_exact_reconstruction_on_dyadic_input(self):
        # exact A + B == C requires representable pairwise sums; dyadic
        # entries guarantee that, full-precision doubles only almost do
        rng = np.random.default_rng(5)
        for _ in range(20):
            c = dyadic_matrix(6, rng)
            pair = qf.symmetrize_split(c)
            assert np.array_equal(pair.a + pair.b, c)

    def test_reconstruction_within_rounding(self):
        rng = np.random.default_rng(6)
        c = rng.standard_normal((8, 8))
        pair = qf.symmetrize_split(c)
        np.testing.assert_allclose(pair.a + pair.b, c, rtol=0, atol=1e-15)

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(InputError):
            qf.symmetrize_split(np.zeros((2, 3)))
        with pytest.raises(InputError):
            qf.symmetrize_split(np.array([[0.0, np.inf], [0.0, 0.0]]))

    @pytest.mark.parametrize("c", [[[0.0, 1e308], [1e308, 0.0]],     # C + C^T overflows
                                   [[0.0, 1e308], [-1e308, 0.0]],    # C - C^T overflows
                                   [[1e308, 0.0], [0.0, 0.0]]])      # a diagonal 2 c_jj
    @pytest.mark.filterwarnings("error")
    def test_overflowing_parts_named_without_a_warning(self, c):
        with pytest.raises(InputError, match=r"c \+ c\^T or c - c\^T overflows"):
            qf.symmetrize_split(c)


class TestCoefficientPair:
    def test_rejects_asymmetric_a(self):
        a = np.eye(2)
        a[0, 1] = 1.0
        with pytest.raises(InputError, match=r"\(0, 1\)"):
            qf.CoefficientPair(a, np.zeros((2, 2)))

    @pytest.mark.parametrize("anti, entries, first", [
        (False, {(2, 1): 1.0, (3, 0): 5.0, (1, 3): 2.0}, (0, 3)),
        (True, {(3, 2): 1.0, (1, 1): 4.0, (2, 0): 3.0}, (0, 2)),
    ], ids=["a", "b"])
    def test_reports_the_first_violation_in_row_major_order(self, anti, entries, first):
        m = np.zeros((4, 4))
        for index, value in entries.items():
            m[index] = value
        assert qf.first_symmetry_violation(m, anti) == first
        assert qf.first_symmetry_violation(m - m.T if anti else m + m.T, anti) is None
        with pytest.raises(InputError) as caught:
            qf.CoefficientPair(np.eye(4), m) if anti else qf.CoefficientPair(m, 0 * m)
        name = "b is not anti-symmetric" if anti else "a is not symmetric"
        assert str(caught.value) == f"{name} at index pair {first}"

    def test_rejects_nonzero_b_diagonal(self):
        with pytest.raises(InputError):
            qf.CoefficientPair(np.eye(2), np.eye(2))

    def test_immutable(self):
        pair = qf.CoefficientPair.identity(3)
        with pytest.raises(ValueError):
            pair.a[0, 0] = 2.0

    @pytest.mark.parametrize("read_only_view", [False, True])
    def test_caller_arrays_are_copied(self, read_only_view):
        # a writable array, or a read-only view of one, is the caller's to write
        a, b = np.eye(3), np.zeros((3, 3))
        given = [a.view(), b.view()] if read_only_view else [a, b]
        for array in given:
            array.flags.writeable = not read_only_view
        pair = qf.CoefficientPair(*given)
        a[0, 0] = b[0, 1] = 7.0
        assert np.array_equal(pair.a, np.eye(3)) and not pair.b.any()
        assert not (np.shares_memory(pair.a, a) or np.shares_memory(pair.b, b))

    def test_read_only_owner_is_kept(self):
        a, b = np.eye(3), np.zeros((3, 3))
        a.flags.writeable = b.flags.writeable = False
        pair = qf.CoefficientPair(a, b)
        assert pair.a is a and pair.b is b


class TestLiebDecompose:
    def test_identity(self):
        decomp = qf.lieb_decompose(qf.CoefficientPair.identity(4))
        np.testing.assert_allclose(decomp.lam, np.ones(4))

    def test_cyclic_shift_singular_values(self):
        # XY-cycle A+B at n=4 is a cyclic shift permutation: all sigma = 1
        a = np.array([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]]) / 2.0
        b = np.array([[0, 1, 0, -1], [-1, 0, 1, 0], [0, -1, 0, 1], [1, 0, -1, 0]]) / 2.0
        decomp = qf.lieb_decompose(qf.CoefficientPair(a, b))
        np.testing.assert_allclose(decomp.lam, np.ones(4), atol=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 6, 11])
    def test_defining_residuals_and_orthogonality(self, n):
        pair = random_pair(n, seed=n)
        decomp = qf.lieb_decompose(pair)
        scale = np.linalg.norm(pair.c, 2)
        r1, r2 = lieb_residuals(decomp, pair)
        assert r1 <= 1e-10 * scale
        assert r2 <= 1e-10 * scale
        assert np.linalg.norm(decomp.x @ decomp.x.T - np.eye(n)) <= 1e-12 * n
        assert np.linalg.norm(decomp.y @ decomp.y.T - np.eye(n)) <= 1e-12 * n

    def test_lambda_ascending_and_matches_svd(self):
        pair = random_pair(7, seed=3)
        decomp = qf.lieb_decompose(pair)
        assert np.all(np.diff(decomp.lam) >= 0)
        np.testing.assert_allclose(
            decomp.lam, np.sort(np.linalg.svd(pair.c, compute_uv=False)))

    def test_residuals_with_zero_singular_value(self):
        pair = qf.CoefficientPair(np.diag([0.0, 1.0, 2.0]), np.zeros((3, 3)))
        decomp = qf.lieb_decompose(pair)
        r1, r2 = lieb_residuals(decomp, pair)
        assert max(r1, r2) <= 1e-14


class TestGroundGap:
    def test_identity_pair(self):
        report = qf.ground_gap(qf.CoefficientPair.identity(5))
        assert report.gap == 2.0
        assert report.ground_energy == -5.0
        assert not report.degenerate

    def test_gap_is_twice_least_singular_value(self):
        rng = np.random.default_rng(8)
        c = rng.standard_normal((8, 8))
        report = qf.ground_gap(qf.symmetrize_split(c))
        smin = np.linalg.svd(c, compute_uv=False)[-1]
        assert report.gap == pytest.approx(2.0 * smin, rel=1e-12)

    def test_degenerate_zero_mode(self):
        report = qf.ground_gap(qf.CoefficientPair(np.diag([0.0, 1.0]), np.zeros((2, 2))))
        assert report.degenerate
        assert report.num_zero_modes == 1
        assert report.gap == 2.0

    def test_all_zero(self):
        report = qf.ground_gap(qf.CoefficientPair(np.zeros((2, 2)), np.zeros((2, 2))))
        assert report.gap == 0.0
        assert report.degenerate
        assert report.num_zero_modes == 2

    def test_rejects_negative_tolerance(self):
        with pytest.raises(InputError):
            qf.ground_gap(qf.CoefficientPair.identity(2), -1.0)


class TestSubsetSumSpectrum:
    def brute(self, lam):
        out = []
        for mask in range(2 ** len(lam)):
            e = -sum(lam)
            for j, l in enumerate(lam):
                if mask >> j & 1:
                    e += 2 * l
            out.append(e)
        return sorted(out)

    def test_two_equal_modes(self):
        np.testing.assert_allclose(qf.subset_sum_spectrum([1.0, 1.0]), [-2, 0, 0, 2])

    def test_two_distinct_modes(self):
        np.testing.assert_allclose(qf.subset_sum_spectrum([1.0, 2.0]), [-3, -1, 1, 3])

    def test_matches_subset_enumeration(self):
        rng = np.random.default_rng(9)
        lam = np.sort(rng.uniform(0, 2, size=5))
        np.testing.assert_allclose(qf.subset_sum_spectrum(lam), self.brute(lam),
                                   atol=1e-12)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError, match="n=23 exceeds the spectrum enumeration cap of 22"):
            qf.subset_sum_spectrum(np.ones(qf.SPECTRUM_MODE_CAP + 1))


class TestInterpolation:
    def test_endpoints(self):
        pair = random_pair(4, seed=11)
        start = qf.interpolate(pair, 0.0)
        assert np.array_equal(start.a, np.eye(4))
        assert np.array_equal(start.b, np.zeros((4, 4)))
        end = qf.interpolate(pair, 1.0)
        assert np.array_equal(end.a, pair.a)
        assert np.array_equal(end.b, pair.b)

    def test_fixed_point_of_identity(self):
        mid = qf.interpolate(qf.CoefficientPair.identity(3), 0.5)
        assert np.array_equal(mid.a, np.eye(3))
        assert qf.ground_gap(mid).gap == 2.0

    def test_domain_error(self):
        with pytest.raises(InputError):
            qf.interpolate(qf.CoefficientPair.identity(2), 1.5)

    @given(s=st.floats(0.0, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_affine_in_s(self, s):
        pair = random_pair(4, seed=13)
        mid = qf.interpolate(pair, s)
        assert np.array_equal(
            mid.a, (1.0 - s) * qf.interpolate(pair, 0.0).a + s * pair.a)
        assert np.array_equal(mid.b, s * pair.b)


class TestGapProfile:
    def test_wishart_profile_is_affine(self):
        rng = np.random.default_rng(14)
        c = rng.standard_normal((6, 6))
        pair = qf.CoefficientPair(c @ c.T, np.zeros((6, 6)))
        gamma = qf.ground_gap(pair).gap
        profile = qf.gap_profile(pair, np.linspace(0, 1, 21))
        for s, gap in zip(profile.s, profile.gap):
            assert gap == pytest.approx(2 * (1 - s) + s * gamma, abs=1e-10)

    def test_trivial_grid(self):
        profile = qf.gap_profile(random_pair(3, seed=1), [0.0])
        assert profile.gap[0] == 2.0
        assert profile.summary["min_gap_s"] == 0.0

    def test_empty_grid_rejected(self):
        with pytest.raises(InputError):
            qf.gap_profile(random_pair(3, seed=1), [])

    def test_summary_keys_in_order_and_plain_types(self):
        s = np.linspace(0.0, 1.0, 5)
        gap = np.array([2.0, 1.0, 0.5, 1.0, 0.5])
        keys = ["min_gap", "min_gap_s", "min_gap_row", "linear", "linear_defect"]
        profile = qf.GapProfile(s, gap, np.zeros(5, dtype=int))
        assert list(profile.summary) == keys
        assert profile.summary["min_gap_row"] == 2       # the first of two least gaps
        assert [type(v) for v in profile.summary.values()] == [float, float, int, bool, float]
        with_path = qf.GapProfile(s, gap, np.zeros(5, dtype=int), (0.25, 0.4, False))
        assert list(with_path.summary) == [*keys, "path_min_gap", "path_min_gap_s", "closes"]
        assert list(with_path.summary.values())[5:] == [0.25, 0.4, False]

    def test_grid_independence_of_order(self):
        pair = random_pair(5, seed=15)
        grid = [0.2, 0.8, 0.5]
        profile = qf.gap_profile(pair, grid)
        gaps = dict(zip(profile.s.tolist(), profile.gap.tolist()))
        for s in grid:
            assert gaps[s] == qf.ground_gap(qf.interpolate(pair, s)).gap

    def test_bit_identical_to_interpolated_pairs(self):
        pair = random_pair(64, seed=22)
        grid = np.linspace(0.0, 1.0, 41)
        profile = qf.gap_profile(pair, grid)
        reference = [qf.ground_gap(qf.interpolate(pair, float(s))) for s in grid]
        assert profile.s.tolist() == grid.tolist()
        for field in ("gap", "num_zero_modes"):
            assert getattr(profile, field).tolist() == \
                [getattr(rep, field) for rep in reference]

    @pytest.mark.parametrize("points, workers", [
        (7, 3),     # uneven chunks: [0, 3), [3, 5), [5, 7)
        (2, 2),     # the caller's chunk is point 0 alone
        (41, 2),
    ])
    def test_bit_identical_for_any_worker_count(self, monkeypatch, points, workers):
        pair = random_pair(12, seed=23)
        grid = np.linspace(0.0, 1.0, points)
        profiles = []
        for count in (1, workers):
            monkeypatch.setattr(_blas, "loop_workers",
                                lambda items, n, work=None, count=count: count)
            profiles.append(qf.gap_profile(pair, grid))
        for field in ("s", "gap", "num_zero_modes"):
            serial, pooled = (getattr(p, field) for p in profiles)
            assert pooled.dtype == serial.dtype and np.array_equal(pooled, serial)

    @pytest.mark.parametrize("grid", [[0.5, 1.5], [-0.25], [0.0, float("nan")]])
    def test_grid_outside_unit_interval_rejected(self, grid):
        with pytest.raises(InputError, match=r"\[0, 1\]"):
            qf.gap_profile(random_pair(3, seed=1), grid)


def fail_svd(*args, **kwargs):
    raise np.linalg.LinAlgError("SVD did not converge")


class TestGroundGapFailure:
    def test_svd_failure_is_numerical_error(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "svd", fail_svd)
        with pytest.raises(NumericalError, match="did not converge"):
            qf.ground_gap(random_pair(3))

    def test_svd_failure_in_profile_is_numerical_error(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "svd", fail_svd)
        with pytest.raises(NumericalError, match="did not converge"):
            qf.gap_profile(random_pair(3), [0.0, 0.5, 1.0])


def thread_counts(libs):
    return [lib.get() for lib in libs]


class TestSingleThreadLoops:
    @pytest.fixture
    def libs(self):
        libs = _blas.loaded_openblas()
        if not libs:
            pytest.skip("no OpenBLAS loaded in this process")
        _blas.restore_threads()     # the counts an earlier test's fork left owed
        return libs

    def test_profile_bit_identical_to_default_threads(self, monkeypatch):
        pair = random_pair(64, seed=21)
        grid = np.linspace(0.0, 1.0, 21)
        capped = qf.gap_profile(pair, grid)
        monkeypatch.setattr(_blas, "loaded_openblas", lambda: [])
        default = qf.gap_profile(pair, grid)
        for field in ("gap", "num_zero_modes"):
            assert np.array_equal(getattr(capped, field), getattr(default, field))

    def test_one_thread_inside_and_restored_after(self, libs):
        # one thread for the work and after it, until restore_threads
        before = thread_counts(libs)
        _blas.threads_for(64)
        assert thread_counts(libs) == [1] * len(libs)
        _blas.threads_for(64)
        assert thread_counts(libs) == [1] * len(libs)
        _blas.restore_threads()
        assert thread_counts(libs) == before

    def test_restored_when_block_raises(self, libs):
        # work that raises leaves one thread too, until work above the cap
        before = thread_counts(libs)
        with pytest.raises(RuntimeError, match="inside"):
            _blas.threads_for(64)
            raise RuntimeError("raised inside the block")
        assert thread_counts(libs) == [1] * len(libs)
        _blas.threads_for(_blas.SINGLE_THREAD_MAX_N + 1)
        assert thread_counts(libs) == before

    def test_large_matrices_keep_their_threads(self, libs):
        before = thread_counts(libs)
        _blas.threads_for(_blas.SINGLE_THREAD_MAX_N + 1)
        assert thread_counts(libs) == before

    def test_no_library_found_is_a_no_op(self, libs, monkeypatch):
        before = thread_counts(libs)
        monkeypatch.setattr(_blas, "loaded_openblas", lambda: [])
        threads = _blas.threads_for(64)
        assert thread_counts(libs) == before
        assert threads is None

    @pytest.mark.parametrize("n, capped", [(64, True), (_blas.SINGLE_THREAD_MAX_N + 1, False)])
    def test_yields_threads_found_and_used(self, libs, n, capped):
        before = thread_counts(libs)
        threads = _blas.threads_for(n)
        assert [t["used"] for t in threads] == thread_counts(libs)
        assert [t["library"] for t in threads] == [lib.name for lib in libs]
        assert [t["found"] for t in threads] == before
        assert [t["used"] for t in threads] == ([1] * len(libs) if capped else before)


class TestCapSkipsOneThread:
    """A library already on one thread is never set: after a fork, a set()
    starts its thread pool again, even to set one thread."""

    def test_one_thread_is_left_alone(self, monkeypatch):
        calls = fake_openblas(monkeypatch, 1)
        threads = _blas.threads_for(64)
        assert calls == []
        _blas.threads_for(_blas.SINGLE_THREAD_MAX_N + 1)
        assert calls == []
        assert threads == [{"library": "libfake_openblas.so", "found": 1, "used": 1}]

    def test_two_threads_set_to_one_and_restored(self, monkeypatch):
        # set to one once, left there after the work, and put back only by
        # restore_threads or by work above the cap
        calls = fake_openblas(monkeypatch, 2)
        threads = _blas.threads_for(64)
        assert calls == [1]
        assert _blas.threads_for(64) == threads
        assert calls == [1]
        _blas.restore_threads()
        assert calls == [1, 2]
        assert threads == [{"library": "libfake_openblas.so", "found": 2, "used": 1}]
        _blas.threads_for(64)
        assert _blas.threads_for(_blas.SINGLE_THREAD_MAX_N + 1) == \
            [{"library": "libfake_openblas.so", "found": 2, "used": 2}]
        assert calls == [1, 2, 1, 2]

    @pytest.mark.parametrize("capped", [True, False], ids=["forked-loop", "fork-outside-a-cap"])
    def test_a_fork_leaves_one_thread_until_a_large_block(self, monkeypatch, capped):
        # a fork shuts the pool down, and set() would start it again: the
        # library stays on one thread, found still reads its own count, and
        # only work above the cap puts it back
        calls = fake_openblas(monkeypatch, 2)
        if capped:
            monkeypatch.setattr(_blas, "loop_workers", lambda items, n, work=None: 2)
            _blas.forked_chunks(lambda lo, hi: hi - lo, 3, 64, "items")
        else:
            _blas.split_chunks(lambda lo, hi: hi - lo, 3, 2, "items")
        assert calls == [1]
        threads = _blas.threads_for(64)
        assert calls == [1]
        assert threads == [{"library": "libfake_openblas.so", "found": 2, "used": 1}]
        threads = _blas.threads_for(_blas.SINGLE_THREAD_MAX_N + 1)
        assert calls == [1, 2]
        assert threads == [{"library": "libfake_openblas.so", "found": 2, "used": 2}]
        assert calls == [1, 2]

    def test_library_caller_gets_one_thread_until_large_work(self, monkeypatch):
        # a caller's own BLAS work after fermigap's small work runs on one
        # thread, forked or not, until fermigap's work above the cap
        calls = fake_openblas(monkeypatch, 2)
        lib = _blas.loaded_openblas()[0]
        qf.gap_profile(random_pair(8), [0.0, 0.5, 1.0])
        assert _blas.last_loop["workers"] == 1
        assert calls == [1] and lib.get() == 1
        monkeypatch.setattr(_blas, "loop_workers", lambda items, n, work=None: 2)
        _blas.forked_chunks(lambda lo, hi: hi - lo, 3, 64, "items")
        assert _blas.last_loop["workers"] == 2
        assert _blas.last_loop["blas_threads"] == [
            {"library": "libfake_openblas.so", "found": 2, "used": 1}]
        assert calls == [1]
        random_pair(_blas.SINGLE_THREAD_MAX_N + 1).singular_values()
        assert calls == [1, 2] and lib.get() == 2


# The child of a fork sets the one thread that its parent set, and sends back
# its thread count before that, after it and after an SVD of order 64.
_FORKED_CAP_SCRIPT = """
import json, os
import numpy
from fermigap import _blas


def tasks():
    return len(os.listdir("/proc/self/task"))


libs = _blas.loaded_openblas()
_blas.threads_for(64)
read_end, write_end = os.pipe()
pid = os.fork()
if pid == 0:
    counts = [tasks()]
    _blas.threads_for(64)
    counts.append(tasks())
    numpy.linalg.svd(numpy.eye(64), compute_uv=False)
    counts.append(tasks())
    os.write(write_end, json.dumps(counts).encode())
    os._exit(0)
os.close(write_end)
with open(read_end, "rb") as fh:
    counts = json.loads(fh.read())
os.waitpid(pid, 0)
print(json.dumps({"libraries": [lib.name for lib in libs], "tasks": counts}))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
def test_forked_child_starts_no_blas_thread():
    proc = subprocess.run([sys.executable, "-c", _FORKED_CAP_SCRIPT],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout)
    if not found["libraries"]:
        pytest.skip("no OpenBLAS loaded with NumPy")
    assert found["tasks"] == [1, 1, 1]


# After a two-process forked_chunks loop: the process's tasks, and the CPU
# it uses while its one thread sleeps 0.3 s.
_FORKED_LOOP_SCRIPT = """
import json, os, time
import numpy
from fermigap import _blas

_blas.loop_workers = lambda items, n, work=None: 2
libs = _blas.loaded_openblas()
_blas.forked_chunks(lambda lo, hi: hi - lo, 3, 64, "items")
start = time.process_time()
time.sleep(0.3)
print(json.dumps({"libraries": [lib.name for lib in libs], "workers": _blas.last_loop["workers"],
                  "tasks": len(os.listdir("/proc/self/task")),
                  "cpu_ms": 1000 * (time.process_time() - start)}))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
def test_forked_loop_leaves_no_blas_thread_behind():
    # restoring the count on the loop's exit started the pool the fork had
    # shut down: 2 tasks, and about 120 ms of CPU in the sleep
    proc = subprocess.run([sys.executable, "-c", _FORKED_LOOP_SCRIPT],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout)
    if not found["libraries"]:
        pytest.skip("no OpenBLAS loaded with NumPy")
    assert found["workers"] == 2
    assert found["tasks"] == 1
    assert found["cpu_ms"] < 20


# Run in a fresh interpreter: an audit hook cannot be removed, and this
# process has imported SciPy long ago.
_LOOKUP_CACHE_SCRIPT = """
import json, sys
import numpy
from fermigap import _blas

first = _blas.loaded_openblas()
events = []
sys.addaudithook(lambda event, args: events.append(event)
                 if event in ("open", "ctypes.dlopen") else None)
again = _blas.loaded_openblas()
seen = list(events)
import scipy.linalg
later = _blas.loaded_openblas()
threads = _blas.threads_for(64)
used = [lib.get() for lib in later]


def rescan():
    _blas._scanned = (-1, [])
    return _blas.loaded_openblas()


print(json.dumps({"first": [lib.name for lib in first], "again": [lib.name for lib in again],
                  "events": seen, "later": [lib.name for lib in later],
                  "rescanned": [lib.name for lib in rescan()],
                  "used": used, "yielded": [t["library"] for t in threads]}))
"""


def test_openblas_lookup_cached_until_an_import():
    proc = subprocess.run([sys.executable, "-c", _LOOKUP_CACHE_SCRIPT],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout)
    if not found["first"]:
        pytest.skip("no OpenBLAS loaded with NumPy")
    # a repeat lookup reads no /proc/self/maps and opens no library
    assert found["again"] == found["first"]
    assert found["events"] == []
    # SciPy's wheels bring an OpenBLAS of their own: the import makes the
    # next lookup scan again, and the cap reaches that library too
    assert len(found["later"]) == len(found["first"]) + 1
    assert found["later"] == found["rescanned"]
    assert found["yielded"] == found["later"]
    assert found["used"] == [1] * len(found["later"])


class TestForkedChunks:
    @pytest.fixture(autouse=True)
    def three_workers(self, monkeypatch):
        monkeypatch.setattr(_blas, "loop_workers", lambda items, n, work=None: 3)

    def test_chunks_joined_in_index_order(self):
        # chunks [0, 1) and [1, 4) here, [4, 7) and [7, 10) in two workers
        chunks = _blas.forked_chunks(lambda lo, hi: (os.getpid(), list(range(lo, hi))),
                                     10, 4, "items")
        assert [items for _, items in chunks] == [[0], [1, 2, 3], [4, 5, 6], [7, 8, 9]]
        pids = [pid for pid, _ in chunks]
        assert pids[0] == pids[1] == os.getpid() and len(set(pids)) == 3

    def test_worker_exception_raised_again(self):
        def chunk(lo, hi):
            if lo >= 7:
                raise InputError(f"bad chunk [{lo}, {hi})")
            return []

        with pytest.raises(InputError, match=r"^bad chunk \[7, 10\)$"):
            _blas.forked_chunks(chunk, 10, 4, "items")

    @pytest.mark.parametrize("fails", ["fork", "pipe"])
    def test_chunk_without_a_child_computed_here(self, monkeypatch, fails):
        # the first of the two forks fails: its chunk [4, 7) runs here, in its turn
        real, calls = getattr(os, fails), []

        def first_fails(*args):
            calls.append(args)
            if len(calls) == 1:
                raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return real(*args)

        monkeypatch.setattr(os, fails, first_fails)
        fds = sorted(os.listdir("/proc/self/fd"))
        chunks = _blas.forked_chunks(lambda lo, hi: (os.getpid(), list(range(lo, hi))),
                                     10, 4, "items")
        assert sorted(os.listdir("/proc/self/fd")) == fds
        assert [items for _, items in chunks] == [[0], [1, 2, 3], [4, 5, 6], [7, 8, 9]]
        pids = [pid for pid, _ in chunks]
        assert pids[:3] == [os.getpid()] * 3 and pids[3] != os.getpid()
        assert _blas.last_loop["workers"] == 2

    def test_worker_that_dies(self):
        def chunk(lo, hi):
            if lo == 4:
                os._exit(7)
            return []

        with pytest.raises(NumericalError, match=r"^the worker for items \[4, 7\) died "
                                                 r"\(exit status 7\)$"):
            _blas.forked_chunks(chunk, 10, 4, "items")


def _floats(*words: int) -> np.ndarray:
    """The float64 array whose entries have the given bit patterns."""
    return np.array(words, dtype=np.uint64).view(np.float64)


def _pickled(value) -> bytes:
    """value as a forked chunk pickles it."""
    sent = io.BytesIO()
    _blas._Pickler(sent, pickle.HIGHEST_PROTOCOL).dump(value)
    return sent.getvalue()


def _same_bits(got, want) -> bool:
    """Whether got is want, with every array of the same type, dtype, shape and bytes."""
    if isinstance(want, (tuple, list)):
        return type(got) is type(want) and len(got) == len(want) and all(
            _same_bits(g, w) for g, w in zip(got, want))
    if isinstance(want, dict):
        return got.keys() == want.keys() and all(_same_bits(got[k], want[k]) for k in want)
    if not isinstance(want, (np.ndarray, np.generic)):
        return type(got) is type(want) and got == want
    return (type(got) is type(want) and got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


_GRID = np.arange(-6.0, 6.0).reshape(3, 4) * np.array([0.0, 1.0, 0.0, 2.0])

# Float64 arrays, each with the +0.0 entries that send it by its other
# entries, but for the ones marked none
_CROSSING = {
    "negative-zero": np.array([-0.0, 0.0, 1.0, -0.0]),
    "all-zero": np.zeros(1000),
    "no-zero": np.arange(1.0, 6.0),                                     # none
    "only-negative-zero": np.full(3, -0.0),                             # none
    "empty": np.zeros(0),                                               # none
    "empty-2d": np.zeros((0, 3)),                                       # none
    "subnormal": np.array([5e-324, 0.0, -5e-324, 2.2e-308, 0.0]),
    # quiet and signalling NaNs with payloads, either sign, beside +-inf
    "nan-payload": np.concatenate([_floats(0x7FF8000000000123, 0x7FF0000000000001,
                                           0xFFF4000000000ABC, 0), [np.inf, -np.inf, 0.0]]),
    "2d": _GRID,
    "fortran": _GRID.T,
    "strided": _GRID[:, ::2],
    "3d-slice": np.zeros((4, 3, 5))[1:3, :, ::-2],
    "0d": np.array(0.0),
}


class TestChunkArraysCrossThePipe:
    """A chunk's float64 arrays come back from a child bit for bit as the
    chunk made them, sent by their nonzeros where they hold a +0.0."""

    @staticmethod
    def two_ways(value):
        """What split_chunks returns for a chunk that returns value, on one
        process and on two (the child computing item 2)."""
        def chunk(lo, hi):
            return [(os.getpid(), value if k == 2 else None) for k in range(lo, hi)]

        here = _blas.split_chunks(chunk, 3, 1, "values")[0][0][2][1]
        (pid, forked), = _blas.split_chunks(chunk, 3, 2, "values")[0][2]
        assert pid != os.getpid()
        return here, forked

    @pytest.mark.parametrize("name", _CROSSING)
    def test_array_crosses_bit_for_bit(self, name):
        here, forked = self.two_ways(_CROSSING[name])
        assert _same_bits(forked, here)
        assert forked.flags.c_contiguous and forked.flags.writeable

    def test_nested_arrays_cross_bit_for_bit(self):
        value = (_CROSSING["negative-zero"], [_GRID, {"k": _CROSSING["nan-payload"],
                                                      "j": (_CROSSING["empty"], 1.5)}])
        here, forked = self.two_ways(value)
        assert _same_bits(forked, here)

    @pytest.mark.parametrize("array", [np.zeros(5, np.float32), np.arange(-3, 3),
                                       np.zeros(4, np.dtype(float).newbyteorder()),
                                       np.float64(0.0)],
                             ids=["float32", "int", "non-native-order", "scalar"])
    def test_other_values_pickled_untouched(self, array):
        assert _pickled(array) == pickle.dumps(array, pickle.HIGHEST_PROTOCOL)
        here, forked = self.two_ways(array)
        assert _same_bits(forked, here)

    @pytest.mark.parametrize("name", _CROSSING)
    def test_only_arrays_with_a_positive_zero_go_by_mask(self, name):
        array = _CROSSING[name]
        by_mask = _pickled(array) != pickle.dumps(array, pickle.HIGHEST_PROTOCOL)
        assert by_mask == (array.reshape(-1).view(np.uint64) == 0).any()

    def test_chunk_exception_raised_again(self):
        def chunk(lo, hi):
            if lo == 2:
                raise InputError("bad chunk", np.zeros(3))
            return [np.zeros(3)] * (hi - lo)

        with pytest.raises(InputError, match=r"^\('bad chunk', array\(\[0\., 0\., 0\.\]\)\)$"):
            _blas.split_chunks(chunk, 3, 2, "values")

    @given(words=st.lists(st.sampled_from([0, 0, 0, 1 << 63, 1, 0x7FF0000000000001])
                          | st.integers(0, 2 ** 64 - 1), max_size=40),
           shape=st.sampled_from([(-1,), (-1, 1), (1, -1, 1)]))
    @settings(max_examples=200, deadline=None)
    def test_any_bits_rebuilt_by_the_parent(self, words, shape):
        array = _floats(*words).reshape(shape)
        assert _same_bits(pickle.loads(_pickled(array)), array)


class TestForkGuard:
    """No fork while another Python thread is alive: the child would copy its locks."""

    @staticmethod
    def chunk(lo, hi):
        return os.getpid(), [float(i) ** 0.5 for i in range(lo, hi)]

    def test_loop_stays_in_one_process_while_a_thread_runs(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert _blas.loop_workers(10, 256) == 3
        forked = _blas.forked_chunks(self.chunk, 10, 256, "items")
        assert len({pid for pid, _ in forked}) == 3

        release = threading.Event()
        parked = threading.Thread(target=release.wait)
        parked.start()
        try:
            assert _blas.loop_workers(10, 256) == 1
            serial = _blas.forked_chunks(self.chunk, 10, 256, "items")
        finally:
            release.set()
            parked.join(timeout=10)
        assert not parked.is_alive()
        assert [pid for pid, _ in serial] == [os.getpid()]
        assert [v for _, part in serial for v in part] == \
            [v for _, part in forked for v in part]
        assert _blas.loop_workers(10, 256) == 3
