import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermigap import lattice as lat
from fermigap import quadform as qf
from fermigap.errors import CapacityError, InputError

from conftest import structured_specs


def random_circulant(n, seed=0):
    """Random admissible roots: reflection-symmetric a, antisymmetric b."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n)
    b = rng.standard_normal(n)
    a = (a + np.roll(a[::-1], 1)) / 2.0
    b = (b - np.roll(b[::-1], 1)) / 2.0
    return lat.TorusSpec(a, b)


def random_bccb(q, p, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((q, p))
    b = rng.standard_normal((q, p))
    a = (a + lat._reflect(a)) / 2.0
    b = (b - lat._reflect(b)) / 2.0
    return lat.TorusSpec(a, b)


def random_bc2cb(r, q, p, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((r, q, p))
    b = rng.standard_normal((r, q, p))
    a = (a + lat._reflect(a)) / 2.0
    b = (b - lat._reflect(b)) / 2.0
    return lat.TorusSpec(a, b)


def g_first_row(spec):
    """First row of G = (A+B)(A-B) of a ring, in the time domain.

    G[0, l] = sum_k c[k] c[(k - l) mod n], the circular autocorrelation of the
    root c of A + B: an O(n^2) route independent of the FFT symbol.
    """
    assert spec.root_a.ndim == 1, "the time-domain route needs a ring"
    c = spec.root_a + spec.root_b
    return np.array([np.dot(c, np.roll(c, l)) for l in range(c.shape[0])])


def g_eigenvalues_via_g_row(spec):
    """Eigenvalues of G as the DFT of its first row."""
    return np.fft.fft(g_first_row(spec)).real


class TestSpecs:
    def test_rejects_bad_a_root(self):
        with pytest.raises(InputError, match="reflection-symmetric"):
            lat.TorusSpec(np.array([0.0, 1.0, 0.0, 0.0]), np.zeros(4))

    def test_rejects_bad_b_root(self):
        with pytest.raises(InputError, match="anti"):
            lat.TorusSpec(np.zeros(4), np.array([0.0, 1.0, 0.0, 1.0]))

    def test_dims(self):
        assert random_circulant(5).dims == (5,)
        assert random_bccb(4, 3).dims == (3, 4)
        assert random_bc2cb(5, 4, 3).dims == (3, 4, 5)

    @given(spec=structured_specs(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_one_broken_root_entry_rejected(self, spec, data):
        index = data.draw(st.integers(0, spec.n - 1))
        partner = np.ravel_multi_index(
            tuple(-k % size for k, size in
                  zip(np.unravel_index(index, spec.root_a.shape), spec.root_a.shape)),
            spec.root_a.shape)
        b = spec.root_b.copy()
        b.flat[index] += 1.0   # self-partnered entries of b must be 0
        with pytest.raises(InputError, match="anti-symmetric"):
            lat.TorusSpec(spec.root_a, b)
        if partner != index:   # a self-partnered entry of a is unconstrained
            a = spec.root_a.copy()
            a.flat[index] += 1.0
            with pytest.raises(InputError, match="reflection-symmetric"):
                lat.TorusSpec(a, spec.root_b)

    def test_rejects_unequal_shapes(self):
        with pytest.raises(InputError, match="equal shape"):
            lat.TorusSpec(np.zeros(4), np.zeros((2, 2)))


class TestExpand:
    def test_circulant_rows_are_shifts(self):
        spec = random_circulant(6, seed=1)
        a = lat.expand(spec).a
        for j in range(6):
            assert np.array_equal(a[j], np.roll(spec.root_a, j))

    def test_xy_cycle_matrices(self):
        # n = 4 ring: A has 1/2 on both neighbours, B is +1/2 right, -1/2 left
        pair = lat.expand(lat.build_xy_cycle(4))
        half = 0.5
        assert np.array_equal(2 * pair.a, [[0, 1, 0, 1], [1, 0, 1, 0],
                                           [0, 1, 0, 1], [1, 0, 1, 0]])
        assert np.array_equal(2 * pair.b, [[0, 1, 0, -1], [-1, 0, 1, 0],
                                           [0, -1, 0, 1], [1, 0, -1, 0]])
        assert pair.a[0, 1] == half

    def test_bccb_block_structure(self):
        spec = random_bccb(3, 4, seed=2)
        a = lat.expand(spec).a
        p = 4
        block01 = a[0:p, p:2 * p]
        block12 = a[p:2 * p, 2 * p:3 * p]
        assert np.array_equal(block01, block12)

    def test_expand_produces_valid_pair(self):
        # CoefficientPair validation runs inside expand; no exception = valid
        lat.expand(random_bc2cb(3, 3, 3, seed=3))

    def test_site_cap_raises_before_allocating(self, monkeypatch):
        def no_expansion(root):
            raise AssertionError("expanded a spec above the cap")

        monkeypatch.setattr(lat, "_expand_root", no_expansion)
        ring = lat.TorusSpec(np.zeros(qf.MATRIX_SIZE_CAP + 1),
                             np.zeros(qf.MATRIX_SIZE_CAP + 1))
        with pytest.raises(CapacityError, match="dense-expansion cap of 4096 sites"):
            lat.expand(ring)


class TestGEigenvalues:
    def test_known_autocorrelation_row(self):
        # c = (1, 1, 0, 0): G's first row is (2, 1, 0, 1), eigenvalues 4, 2, 0, 2
        spec = lat.TorusSpec(np.array([1.0, 0.5, 0.0, 0.5]),
                             np.array([0.0, 0.5, 0.0, -0.5]))
        np.testing.assert_allclose(g_first_row(spec), [2.0, 1.0, 0.0, 1.0])
        np.testing.assert_allclose(np.sort(lat.g_eigenvalues(spec)),
                                   [0.0, 2.0, 2.0, 4.0], atol=1e-12)

    def test_xy_cycle_is_gapless_only_at_multiples_of_four(self):
        # the symbol e^{2 pi i k / n} has modulus 1 for every k
        vals = lat.g_eigenvalues(lat.build_xy_cycle(6))
        np.testing.assert_allclose(vals, np.ones(6), atol=1e-14)

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_matches_dense_singular_values_circulant(self, n):
        spec = random_circulant(n, seed=n)
        fft_vals = np.sort(lat.g_eigenvalues(spec))
        dense = np.sort(np.linalg.svd(lat.expand(spec).c, compute_uv=False)) ** 2
        np.testing.assert_allclose(fft_vals, np.sort(dense), atol=1e-10)

    def test_matches_dense_bccb(self):
        spec = random_bccb(4, 4, seed=5)
        fft_vals = np.sort(lat.g_eigenvalues(spec))
        dense = np.sort(np.linalg.svd(lat.expand(spec).c, compute_uv=False)) ** 2
        np.testing.assert_allclose(fft_vals, dense, atol=1e-10)

    def test_matches_dense_bc2cb(self):
        spec = random_bc2cb(3, 3, 3, seed=6)
        fft_vals = np.sort(lat.g_eigenvalues(spec))
        dense = np.sort(np.linalg.svd(lat.expand(spec).c, compute_uv=False)) ** 2
        np.testing.assert_allclose(fft_vals, dense, atol=1e-10)

    def test_time_domain_route_agrees(self):
        spec = random_circulant(9, seed=7)
        np.testing.assert_allclose(g_eigenvalues_via_g_row(spec),
                                   lat.g_eigenvalues(spec), atol=1e-10)


class TestSingularValues:
    @given(spec=structured_specs())
    @settings(max_examples=60, deadline=None)
    def test_ground_gap_takes_the_fft_route(self, spec):
        report = qf.ground_gap(spec)
        assert report == lat.structured_gap_report(spec, 1.0)
        # the dense SVD agrees within 1e-12 (1 + max Lambda) per singular
        # value, and n times that for the ground energy, a sum of n of them
        dense = lat.expand(spec)
        tol = 1e-12 * (1.0 + spec.singular_values().max())
        np.testing.assert_allclose(np.sort(spec.singular_values()),
                                   np.sort(dense.singular_values()), rtol=0.0, atol=tol)
        dense_report = qf.ground_gap(dense)
        assert report.num_zero_modes == dense_report.num_zero_modes
        assert abs(report.gap - dense_report.gap) <= tol
        assert abs(report.ground_energy - dense_report.ground_energy) <= spec.n * tol


class TestTorusBuilders:
    def test_2d_block_offdiagonals(self):
        site = lat.build_xy_cycle(4)
        spec = lat.build_torus_2d(4, 3, site, coupling=2.0)
        pair = lat.expand(spec)
        # A couples adjacent rows with +2 I, B with +2 I above / -2 I below
        np.testing.assert_array_equal(pair.a[0:4, 4:8], 2.0 * np.eye(4))
        np.testing.assert_array_equal(pair.b[0:4, 4:8], 2.0 * np.eye(4))
        np.testing.assert_array_equal(pair.b[4:8, 0:4], -2.0 * np.eye(4))

    def test_2d_diagonal_blocks_are_site(self):
        site = lat.build_xy_cycle(5)
        pair = lat.expand(lat.build_torus_2d(5, 3, site))
        site_pair = lat.expand(site)
        np.testing.assert_array_equal(pair.a[0:5, 0:5], site_pair.a)
        np.testing.assert_array_equal(pair.b[5:10, 5:10], site_pair.b)

    def test_3d_shapes_and_validity(self):
        plane = lat.build_torus_2d(3, 3, lat.build_xy_cycle(3))
        spec = lat.build_torus_3d(3, 3, 3, plane)
        assert spec.n == 27
        lat.expand(spec)  # must pass CoefficientPair validation

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InputError):
            lat.build_torus_2d(5, 3, lat.build_xy_cycle(4))


class TestStructuredInterpolation:
    def test_endpoint_roots(self):
        spec = random_circulant(6, seed=8)
        start = lat.interpolated_c_root(spec, 0.0)
        np.testing.assert_array_equal(start, np.eye(6)[0])
        end = lat.interpolated_c_root(spec, 1.0)
        np.testing.assert_array_equal(end, spec.root_a + spec.root_b)

    def test_structured_gap_matches_dense(self):
        spec = random_circulant(7, seed=9)
        dense = lat.expand(spec)
        for s in (0.0, 0.3, 0.7, 1.0):
            fft_rep = lat.structured_gap_report(spec, s)
            dense_rep = qf.ground_gap(qf.interpolate(dense, s))
            assert fft_rep.gap == pytest.approx(dense_rep.gap, abs=1e-10)

    def test_profile_min_tracking(self):
        spec = lat.build_xy_cycle(8)
        profile = lat.structured_gap_profile(spec, np.linspace(0, 1, 11))
        gaps = profile.gap.tolist()
        assert profile.min_gap == min(gaps)
        assert profile.s[profile.min_gap_index] == profile.min_gap_s

    def test_s_domain_enforced(self):
        with pytest.raises(InputError):
            lat.structured_gap_report(random_circulant(4, seed=10), 1.2)


def closing_ring():
    """n = 5 ring with sigma_0 = sum(a) = -2: mode 0 crosses zero at s = 1/3."""
    a = np.array([-3.0, 0.5, 0.0, 0.0, 0.5])
    b = np.array([0.0, 0.25, 0.0, 0.0, -0.25])
    return lat.TorusSpec(a, b)


class TestOneFftProfile:
    def test_profile_takes_one_fft(self, monkeypatch):
        calls = []
        fftn = np.fft.fftn

        def counting_fftn(*args, **kwargs):
            calls.append(1)
            return fftn(*args, **kwargs)

        monkeypatch.setattr(lat.np.fft, "fftn", counting_fftn)
        lat.structured_gap_profile(random_bc2cb(3, 4, 5, seed=11), np.linspace(0, 1, 50))
        assert len(calls) == 1

    @given(spec=structured_specs(), grid=st.integers(2, 7))
    @settings(max_examples=60, deadline=None)
    def test_matches_fft_of_interpolated_root(self, spec, grid):
        profile = lat.structured_gap_profile(spec, np.linspace(0, 1, grid))
        tol = 1e-12 * (1.0 + np.abs(lat.c_symbol(spec)).max())
        for s, gap, energy, zeros in zip(profile.s, profile.gap, profile.ground_energy,
                                         profile.num_zero_modes):
            lam = np.abs(np.fft.fftn(lat.interpolated_c_root(spec, s))).ravel()
            ref = qf.gap_report_from_singular_values(lam)
            assert zeros == ref.num_zero_modes
            assert abs(gap - ref.gap) <= tol
            # a sum of n singular values, each within tol
            assert abs(energy - ref.ground_energy) <= spec.n * tol

    def test_report_and_profile_agree_exactly(self):
        spec = random_bccb(3, 5, seed=12)
        grid = np.linspace(0, 1, 9)
        profile = lat.structured_gap_profile(spec, grid)
        for i, s in enumerate(grid):
            rep = lat.structured_gap_report(spec, s)
            assert profile.s[i] == s
            assert profile.gap[i] == rep.gap
            assert profile.ground_energy[i] == rep.ground_energy
            assert profile.num_zero_modes[i] == rep.num_zero_modes

    @pytest.mark.parametrize("grid", [2, 3, 4, 7, 10, 31, 101, 1000])
    def test_closing_path_found_off_grid(self, grid):
        profile = lat.structured_gap_profile(closing_ring(), np.linspace(0, 1, grid))
        minimum = profile.path_minimum
        assert minimum.closes is True
        assert minimum.s == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert minimum.gap <= profile.min_gap

    def test_open_path_minimum_is_exact(self):
        # sigma_k = exp(2 pi i k / 5); the chord to k = 2 passes closest to 0
        minimum = lat.structured_gap_profile(lat.build_xy_cycle(5), [0.0, 1.0]).path_minimum
        assert minimum.closes is False
        assert minimum.gap == pytest.approx(2.0 * math.cos(2.0 * math.pi / 5.0), abs=1e-14)
        assert minimum.s == pytest.approx(0.5, abs=1e-14)

    def test_grid_outside_unit_interval_rejected(self):
        with pytest.raises(InputError, match=r"\[0, 1\]"):
            lat.structured_gap_profile(lat.build_xy_cycle(4), [0.0, 0.5, 1.5])
