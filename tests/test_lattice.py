import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fermigap import lattice as lat
from fermigap import quadform as qf
from fermigap.errors import CapacityError, InputError, NumericalError

import oracles
from conftest import structured_specs


def random_spec(shape, seed=0):
    """Random admissible roots: reflection-symmetric a, antisymmetric b."""
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal(shape), rng.standard_normal(shape)
    return lat.TorusSpec((a + lat._reflect(a)) / 2.0, (b - lat._reflect(b)) / 2.0)


def random_circulant(n, seed=0):
    return random_spec((n,), seed)


def random_bccb(q, p, seed=0):
    return random_spec((q, p), seed)


def random_bc2cb(r, q, p, seed=0):
    return random_spec((r, q, p), seed)


def with_row_coupling(spec, coupling):
    """A 2D torus spec with its +-I couplings between neighbouring rows scaled by `coupling`."""
    a, b = spec.root_a.copy(), spec.root_b.copy()
    a[1, 0] = a[-1, 0] = coupling
    b[1, 0], b[-1, 0] = coupling, -coupling
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


@pytest.mark.parametrize("shape", [
    (1,), (2,), (7,), (1, 1), (1, 5), (4, 1), (3, 4), (1, 1, 1), (2, 1, 3), (3, 4, 5),
    (1, 2, 1, 3), (2, 3, 2, 2), (1, 1, 1, 1),
])
def test_index_maps_bit_identical_to_roll_and_block_references(shape):
    root = np.random.default_rng(sum(shape)).standard_normal(shape)
    reflected = lat._reflect(root)
    assert reflected.shape == shape
    assert reflected.tobytes() == oracles.reflect_by_roll(root).tobytes()
    assert reflected.tobytes() == oracles.reflect_by_gather(root).tobytes()
    dense = lat._expand_root(root)
    assert dense.shape == (root.size, root.size)
    assert dense.tobytes() == oracles.expand_root_by_blocks(root).tobytes()


def stored_modes(spec):
    """The stored half of sigma, flattened, and each stored mode's multiplicity."""
    half, weight = lat._half_symbol(spec)
    return half.ravel(), weight.ravel()


def test_moduli_leave_the_symbol_unwritten():
    symbol, _ = stored_modes(random_bc2cb(3, 4, 5, seed=9))
    symbol.flags.writeable = False
    full = lat._moduli(symbol, 0.3)
    assert full.tobytes() == np.abs(symbol * 0.3 + (1.0 - 0.3)).tobytes()
    modes = np.array([5, 0, 17])
    assert lat._moduli(symbol, 0.3, modes).tobytes() == full[modes].tobytes()


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
        # both unsorted, in different orders
        np.testing.assert_allclose(np.sort(g_eigenvalues_via_g_row(spec)),
                                   np.sort(lat.g_eigenvalues(spec)), atol=1e-10)


# the least subnormal root: halving the plane before adding its reflection
# rounded the mode to 0, one zero mode on the FFT route and none dense
SUBNORMAL_SPEC = lat.TorusSpec([5e-324], [0.0])


class TestSingularValues:
    @given(spec=structured_specs())
    @example(spec=SUBNORMAL_SPEC)
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

    def test_subnormal_root_is_no_zero_mode_on_either_route(self):
        fft, dense = qf.ground_gap(SUBNORMAL_SPEC), qf.ground_gap(lat.expand(SUBNORMAL_SPEC))
        assert SUBNORMAL_SPEC.singular_values().tolist() == [5e-324]
        assert fft.num_zero_modes == dense.num_zero_modes == 0
        assert fft == dense


def ring_shift(count):
    """The count x count cyclic shift S with S[j, j + 1 mod count] = 1."""
    return np.roll(np.eye(count), 1, axis=1)


class TestStack:
    @pytest.mark.parametrize("count", [0, 1, 2])
    def test_fewer_than_three_layers_rejected(self, count):
        with pytest.raises(InputError, match=f"count >= 3 layers, got {count}"):
            lat.stack(lat.build_xy_cycle(4), count)

    def test_ranks_one_to_three_expand_to_kronecker_form(self):
        # a stack of `count` layers is I (x) layer + (S + S^T) (x) I in A and
        # I (x) layer + (S - S^T) (x) I in B, with S the cyclic shift
        layer = random_circulant(5, seed=40)
        for count in (3, 4):
            spec = lat.stack(layer, count)
            assert spec.root_a.ndim == layer.root_a.ndim + 1
            assert spec.dims == (*layer.dims, count)
            dense, inner = lat.expand(spec), lat.expand(layer)
            shift, eye = ring_shift(count), np.eye(layer.n)
            np.testing.assert_array_equal(
                dense.a, np.kron(np.eye(count), inner.a) + np.kron(shift + shift.T, eye))
            np.testing.assert_array_equal(
                dense.b, np.kron(np.eye(count), inner.b) + np.kron(shift - shift.T, eye))
            layer = spec
        assert layer.root_a.ndim == 3 and layer.n == 60


class TestTorusBuilders:
    def test_2d_block_offdiagonals(self):
        site = lat.build_xy_cycle(4)
        spec = lat.stack(site, 3)
        pair = lat.expand(spec)
        # A couples adjacent rows with +I, B with +I above / -I below
        np.testing.assert_array_equal(pair.a[0:4, 4:8], np.eye(4))
        np.testing.assert_array_equal(pair.a[4:8, 0:4], np.eye(4))
        np.testing.assert_array_equal(pair.b[0:4, 4:8], np.eye(4))
        np.testing.assert_array_equal(pair.b[4:8, 0:4], -np.eye(4))

    def test_2d_diagonal_blocks_are_site(self):
        site = lat.build_xy_cycle(5)
        pair = lat.expand(lat.stack(site, 3))
        site_pair = lat.expand(site)
        np.testing.assert_array_equal(pair.a[0:5, 0:5], site_pair.a)
        np.testing.assert_array_equal(pair.b[5:10, 5:10], site_pair.b)

    def test_3d_shapes_and_validity(self):
        spec = lat.stack(lat.stack(lat.build_xy_cycle(3), 3), 3)
        assert spec.n == 27
        lat.expand(spec)  # must pass CoefficientPair validation


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
        summary = profile.summary
        assert summary["min_gap"] == min(gaps)
        assert profile.s[summary["min_gap_row"]] == summary["min_gap_s"]

    def test_s_domain_enforced(self):
        with pytest.raises(InputError):
            lat.structured_gap_report(random_circulant(4, seed=10), 1.2)


def route_rounding(spec):
    """Bound on how far the sigma route's and the FFT route's moduli differ.

    Both take one FFT of the root, so they differ by a few ulps of
    1 + max|sigma|; 4 eps leaves twice the largest difference seen.
    """
    return 4 * np.finfo(float).eps * (1.0 + np.abs(stored_modes(spec)[0]).max())


def zero_count_bracket(lam, zero_tolerance, rounding):
    """Zero-mode counts at the tolerance minus and plus the rounding bound.

    They are equal unless a modulus lies within rounding of the tolerance,
    where either route may count it.
    """
    return tuple(int(np.count_nonzero(lam <= zero_tolerance + d)) for d in (-rounding, rounding))


def closing_ring():
    """n = 5 ring with sigma_0 = sum(a) = -2: mode 0 crosses zero at s = 1/3."""
    a = np.array([-3.0, 0.5, 0.0, 0.0, 0.5])
    b = np.array([0.0, 0.25, 0.0, 0.0, -0.25])
    return lat.TorusSpec(a, b)


class TestOneFftProfile:
    def test_profile_takes_one_fft(self, monkeypatch):
        calls = []
        for name in ("fftn", "rfftn"):
            def counting(*args, _name=name, _fft=getattr(np.fft, name), **kwargs):
                calls.append(_name)
                return _fft(*args, **kwargs)

            monkeypatch.setattr(lat.np.fft, name, counting)
        lat.structured_gap_profile(random_bc2cb(3, 4, 5, seed=11), np.linspace(0, 1, 50))
        assert calls == ["rfftn"]

    @given(spec=structured_specs(), grid=st.integers(2, 7))
    # at s = 1/2 sigma = -1 -+ 1e-300 rounds to -1, so the sigma route finds two
    # zero modes; the interpolated root [0, 5e-301] gives two moduli of 5e-301
    @example(spec=lat.TorusSpec([-1.0, 1e-300], [0.0, 0.0]), grid=3)
    @example(spec=lat.build_xy_cycle(12), grid=3)
    @settings(max_examples=60, deadline=None)
    def test_matches_fft_of_interpolated_root(self, spec, grid):
        profile = lat.structured_gap_profile(spec, np.linspace(0, 1, grid))
        tol = 1e-12 * (1.0 + np.abs(stored_modes(spec)[0]).max())
        rounding = route_rounding(spec)
        for s, gap, zeros in zip(profile.s, profile.gap, profile.num_zero_modes):
            lam = np.abs(np.fft.fftn(lat.interpolated_c_root(spec, s))).ravel()
            ref = qf.gap_report_from_singular_values(lam)
            assert abs(gap - ref.gap) <= tol
            lo, hi = zero_count_bracket(lam, ref.zero_tolerance, rounding)
            if lo == hi:
                assert zeros == ref.num_zero_modes
            else:
                assert lo <= zeros <= hi

    @pytest.mark.parametrize("spec, tight, zeros", [
        (lat.TorusSpec([-1.0, 1e-300], [0.0, 0.0]), False, 2),
        (lat.build_xy_cycle(12), True, 1),
    ], ids=["pinned-rounding-case", "gapless-xy-ring"])
    def test_zero_count_bracket_at_the_midpoint(self, spec, tight, zeros):
        # the gapless ring keeps the exact count assertion above; only a
        # modulus within the routes' rounding of the tolerance loosens it
        lam = np.abs(np.fft.fftn(lat.interpolated_c_root(spec, 0.5))).ravel()
        lo, hi = zero_count_bracket(
            lam, qf.gap_report_from_singular_values(lam).zero_tolerance, route_rounding(spec))
        assert (lo == hi) == tight
        assert lat.structured_gap_profile(spec, [0.5]).num_zero_modes[0] == zeros
        assert lo <= zeros <= hi

    def test_report_and_profile_agree_exactly(self):
        spec = random_bccb(3, 5, seed=12)
        grid = np.linspace(0, 1, 9)
        profile = lat.structured_gap_profile(spec, grid)
        for i, s in enumerate(grid):
            rep = lat.structured_gap_report(spec, s)
            assert profile.s[i] == s
            assert profile.gap[i] == rep.gap
            assert profile.num_zero_modes[i] == rep.num_zero_modes

    @pytest.mark.parametrize("grid", [2, 3, 4, 7, 10, 31, 101, 1000])
    def test_closing_path_found_off_grid(self, grid):
        profile = lat.structured_gap_profile(closing_ring(), np.linspace(0, 1, grid))
        summary = profile.summary
        assert summary["closes"] is True
        assert summary["path_min_gap_s"] == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert summary["path_min_gap"] <= summary["min_gap"]

    def test_path_closing_twice_reports_the_first_crossing(self):
        # sigma = (-1, -3): both segments pass through 0 exactly, at s = 1/2
        # and s = 1/4; the least distance alone would not choose between them
        spec = lat.TorusSpec([-2.0, 1.0], [0.0, 0.0])
        assert stored_modes(spec)[0].tolist() == [-1.0, -3.0]
        summary = lat.structured_gap_profile(spec, [0.0, 1.0]).summary
        assert (summary["path_min_gap"], summary["path_min_gap_s"], summary["closes"]) \
            == (0.0, 0.25, True)

    def test_open_path_minimum_is_exact(self):
        # sigma_k = exp(2 pi i k / 5); the chord to k = 2 passes closest to 0
        summary = lat.structured_gap_profile(lat.build_xy_cycle(5), [0.0, 1.0]).summary
        assert summary["closes"] is False
        assert summary["path_min_gap"] == pytest.approx(2.0 * math.cos(2.0 * math.pi / 5.0),
                                                        abs=1e-14)
        assert summary["path_min_gap_s"] == pytest.approx(0.5, abs=1e-14)

    def test_grid_outside_unit_interval_rejected(self):
        with pytest.raises(InputError, match=r"\[0, 1\]"):
            lat.structured_gap_profile(lat.build_xy_cycle(4), [0.0, 0.5, 1.5])


# Ranks 1 to 3 with odd and even axes, and a fastest axis p of 1, 2, odd and even.
SYMBOL_SHAPES = [(1,), (2,), (7,), (4096,), (5, 1), (3, 2), (6, 7), (4, 8), (3, 4, 1),
                 (4, 3, 2), (5, 4, 6), (6, 5, 9), (16, 12, 10), (64, 64, 32)]
# The stored half (one real FFT, self-conjugate planes averaged) and
# np.fft.fftn round differently.  In units of eps * (1 + max|sigma|), the
# largest difference on SYMBOL_SHAPES measured 2.1 for the stored modes and
# 2.6 for the sorted moduli, and 1.23 and 1.83 on a 2^20-site 3D torus.
FFT_AGREEMENT_UNITS = 8


def fft_bound(reference):
    return FFT_AGREEMENT_UNITS * np.finfo(float).eps * (1.0 + np.abs(reference).max())


@pytest.mark.parametrize("shape", SYMBOL_SHAPES, ids=str)
@pytest.mark.parametrize("seed", range(3))
class TestHalfSymbol:
    def test_c_symbol_is_exactly_conjugate_symmetric(self, shape, seed):
        # the modes of C's symbol that are not stored are conjugates of stored
        # ones; on the planes k_last = 0 and p / 2 both of a pair are stored,
        # each counted once, and they must be exact conjugates, so that the
        # n moduli hold every conjugate pair's modulus twice, bitwise
        half, weight = lat._half_symbol(random_spec(shape, seed))
        p = shape[-1]
        planes = sorted({0, p // 2} if p % 2 == 0 else {0})
        assert np.flatnonzero(weight.reshape(-1, weight.shape[-1])[0] == 1).tolist() == planes
        for k in planes:
            plane = half[..., k]
            assert np.array_equal(lat._reflect(plane), np.conj(plane))

    def test_agrees_with_the_complex_fft(self, shape, seed):
        spec = random_spec(shape, seed)
        reference = np.fft.fftn(spec.root_a + spec.root_b)
        half, _ = lat._half_symbol(spec)
        assert np.abs(half - reference[..., :half.shape[-1]]).max() <= fft_bound(reference)

    def test_singular_values_agree_with_the_complex_fft(self, shape, seed):
        spec = random_spec(shape, seed)
        reference = np.fft.fftn(spec.root_a + spec.root_b)
        difference = np.sort(spec.singular_values()) - np.sort(np.abs(reference).ravel())
        assert np.abs(difference).max() <= fft_bound(reference)

    def test_stored_modes_by_multiplicity_are_the_symbol(self, shape, seed):
        spec = random_spec(shape, seed)
        half, weight = lat._half_symbol(spec)
        assert half.shape == (*shape[:-1], shape[-1] // 2 + 1)
        assert weight.sum() == spec.n
        # the n singular values are the stored moduli, each repeated by its
        # multiplicity, bitwise
        stored = np.repeat(np.abs(half).ravel(), weight.ravel())
        assert spec.singular_values().tobytes() == stored.tobytes()


def full_pass_profile(spec, grid, zero_tolerance=None):
    """Gaps and zero-mode counts from every mode at every point.

    The O(n) pass the pruned profile replaces, kept here as its reference:
    |(1-s) + s*sigma| for every stored mode, repeated by its multiplicity
    (n values), reduced by gap_report_from_singular_values.
    """
    symbol, weight = stored_modes(spec)
    reports = [qf.gap_report_from_singular_values(
                   np.repeat(np.abs(symbol * s + (1.0 - s)), weight), zero_tolerance)
               for s in grid]
    return [rep.gap for rep in reports], [rep.num_zero_modes for rep in reports]


def assert_equals_full_pass(spec, grid, zero_tolerance=None):
    grid = [float(s) for s in grid]
    profile = lat.structured_gap_profile(spec, grid, zero_tolerance)
    gaps, zeros = full_pass_profile(spec, grid, zero_tolerance)
    assert profile.s.tolist() == grid
    assert profile.gap.tobytes() == np.array(gaps).tobytes()
    assert profile.num_zero_modes.tolist() == zeros
    return profile


def nearest_neighbour_torus(dims, seed):
    """3D torus with an on-site term and seeded +-t, +-d couplings along each axis."""
    rng = np.random.default_rng(seed)
    a = np.zeros(dims[::-1])
    b = np.zeros(dims[::-1])
    a[0, 0, 0] = rng.uniform(-1.0, 1.0)
    for axis in range(3):
        plus = tuple(1 if i == axis else 0 for i in range(3))
        minus = tuple(-k for k in plus)
        t, d = rng.uniform(0.5, 1.5), rng.uniform(-1.0, 1.0)
        a[plus] = a[minus] = t
        b[plus], b[minus] = d, -d
    return lat.TorusSpec(a, b)


def ring_with_symbol(half):
    """A ring of n = 2 (len(half) - 1) sites whose symbol is, to rounding,
    half[k] for k <= n/2 and conj(half[n - k]) above; half[0] and half[-1]
    must be real."""
    sigma = np.concatenate([half, np.conj(half[-2:0:-1])])
    root = np.fft.ifft(sigma).real
    reflected = lat._reflect(root)
    return lat.TorusSpec((root + reflected) / 2.0, (root - reflected) / 2.0)


def counting_full_passes(monkeypatch):
    """The s of every point that takes the full O(n) pass, as it happens."""
    calls = []
    full_pass = lat._CandidateGaps._full_pass

    def counting(self, s):
        calls.append(s)
        return full_pass(self, s)

    monkeypatch.setattr(lat._CandidateGaps, "_full_pass", counting)
    return calls


def capturing_candidates(monkeypatch):
    """Every _CandidateGaps as it is made, and each point's candidate run
    checked against the runs counted over every stored mode: the run of
    d_k <= B where it is no longer than that of -r_k <= reach, else the
    latter, and None where the shorter holds more than the share."""
    made = []
    init, candidates = lat._CandidateGaps.__init__, lat._CandidateGaps._candidates

    def capturing(self, *args):
        init(self, *args)
        made.append(self)

    def checked(self, bound, reach):
        modes = candidates(self, bound, reach)
        runs = [np.flatnonzero(self.by_dist.key <= bound),
                np.flatnonzero(self.by_radius.key <= reach)]
        shorter = runs[len(runs[1]) < len(runs[0])]
        if len(shorter) > lat._GATHER_MAX_SHARE * self.symbol.size:
            assert modes is None
        else:
            assert np.sort(modes).tolist() == shorter.tolist()
        return modes

    monkeypatch.setattr(lat._CandidateGaps, "__init__", capturing)
    monkeypatch.setattr(lat._CandidateGaps, "_candidates", checked)
    return made


EPS = np.finfo(float).eps
# 5e-324 once made the radius threshold (1 - B) / s overflow with a RuntimeWarning
grid_points = st.one_of(st.sampled_from([0.0, 1.0, 0.5, 1.0 / 3.0, 5e-324]),
                        st.floats(0.0, 1.0))


class TestCandidateModes:
    @given(spec=structured_specs(), points=st.lists(grid_points, min_size=1, max_size=8),
           tol=st.one_of(st.none(), st.floats(0.0, 2.0)))
    @settings(max_examples=300, deadline=None)
    def test_equals_full_pass(self, spec, points, tol):
        # unsorted, with both ends and a repeated point
        assert_equals_full_pass(spec, [*points, 1.0, 0.0, points[0]], tol)

    @pytest.mark.parametrize("spec", [
        random_circulant(4096, seed=31),
        random_bccb(48, 50, seed=32),
        random_bc2cb(10, 12, 14, seed=33),
        nearest_neighbour_torus((16, 12, 10), seed=34),
        nearest_neighbour_torus((9, 7, 5), seed=35),
        lat.build_xy_cycle(4095),
        with_row_coupling(lat.stack(lat.build_xy_cycle(33), 31), 0.7),
    ], ids=["ring", "torus-2d", "torus-3d", "nn-torus", "nn-torus-odd", "xy-odd",
            "xy-torus-odd"])
    @pytest.mark.parametrize("tol", [None, 0.0, 1e-3, 0.3])
    def test_equals_full_pass_on_larger_specs(self, spec, tol):
        rng = np.random.default_rng(36)
        grid = [*np.linspace(0.0, 1.0, 101), *rng.uniform(0.0, 1.0, 40), 0.5, 1.0, 0.0,
                5e-324, 1e-300, 1e-17, np.nextafter(1.0, 0.0)]
        assert_equals_full_pass(spec, grid, tol)

    @pytest.mark.parametrize("spec", [
        lat.build_xy_cycle(8),
        lat.build_xy_cycle(1000),
        lat.build_xy_cycle(4096),
        lat.stack(lat.build_xy_cycle(64), 64),
        lat.stack(lat.stack(lat.build_xy_cycle(16), 16), 16),
    ], ids=["xy-8", "xy-1000", "xy-4096", "xy-torus-2d", "xy-torus-3d"])
    @pytest.mark.parametrize("tol", [None, 1e-9])
    def test_xy_zero_modes(self, spec, tol):
        # an XY ring's symbol is exp(-2 pi i k / n): mode n/2 is -1, and
        # (1 - s) + s * (-1) vanishes at s = 1/2, row 50 of the grid
        profile = assert_equals_full_pass(spec, np.linspace(0.0, 1.0, 101), tol)
        assert profile.num_zero_modes[50] > 0
        assert profile.gap[0] == 2.0

    @pytest.mark.parametrize("seed", range(20))
    def test_grid_at_segment_minima(self, seed):
        # at s_k the lower bound d_k of mode k is tight, and its computed
        # value can exceed the computed modulus by an ulp: without slack the
        # least mode then drops out of the candidates
        spec = random_circulant(4 + 3 * seed, seed=100 + seed)
        _, s, dist = lat._segments(stored_modes(spec)[0])
        grid = s[np.argsort(dist)[:8]]
        assert_equals_full_pass(spec, grid)
        assert_equals_full_pass(spec, grid, 1e-3)

    @pytest.mark.parametrize("tol", [None, 1e-12])
    def test_closing_path(self, tol):
        grid = [0.0, 1.0 / 3.0, np.nextafter(1.0 / 3.0, 0.0), np.nextafter(1.0 / 3.0, 1.0),
                0.3, 0.34, 1.0, 1.0 / 3.0]
        profile = assert_equals_full_pass(closing_ring(), grid, tol)
        assert profile.gap[1] < 1e-15 or profile.num_zero_modes[1] == 1

    def test_nearest_neighbour_torus_prunes_every_point_but_s0(self, monkeypatch):
        spec = nearest_neighbour_torus((32, 32, 16), seed=1201)
        calls = counting_full_passes(monkeypatch)
        assert_equals_full_pass(spec, np.linspace(0.0, 1.0, 101))
        assert calls == [0.0]

    @given(spec=structured_specs(), points=st.lists(grid_points, min_size=1, max_size=8),
           tol=st.one_of(st.none(), st.floats(0.0, 2.0)))
    @settings(max_examples=200, deadline=None)
    def test_each_run_is_the_one_counted_over_every_mode(self, spec, points, tol):
        with pytest.MonkeyPatch.context() as mp:
            capturing_candidates(mp)
            assert_equals_full_pass(spec, [*points, 1.0, 0.0, points[0]], tol)

    @pytest.mark.parametrize("spec", [
        random_circulant(4096, seed=31),
        random_bc2cb(10, 12, 14, seed=33),
        nearest_neighbour_torus((16, 12, 10), seed=34),
    ], ids=["ring", "torus-3d", "nn-torus"])
    def test_selection_grows_past_the_first(self, monkeypatch, spec):
        # the first selection holds _SEED_HEAD modes of each key; these
        # grids read more, and each point's run is the one counted over
        # every mode, as with a full sort of each key
        made = capturing_candidates(monkeypatch)
        grid = [*np.linspace(0.0, 1.0, 101), *np.random.default_rng(37).uniform(0.0, 1.0, 40)]
        assert_equals_full_pass(spec, grid)
        gaps, = made
        for least in (gaps.by_dist, gaps.by_radius):
            assert lat._SEED_HEAD < least.values.size <= gaps.most + 1
            assert least.values.tolist() == np.sort(least.key)[:least.values.size].tolist()
            assert least.key[least.modes].tolist() == least.values.tolist()

    def test_nearest_neighbour_torus_selects_under_half_of_each_key(self, monkeypatch):
        # a full sort of each key holds every stored mode
        made = capturing_candidates(monkeypatch)
        lat.structured_gap_profile(nearest_neighbour_torus((32, 32, 16), seed=1201),
                                   np.linspace(0.0, 1.0, 101))
        gaps, = made
        for least in (gaps.by_dist, gaps.by_radius):
            assert least.modes.size < gaps.symbol.size / 2

    @given(key=st.lists(st.sampled_from([-2.0, -0.5, 0.0, 0.25, 1.0, 3.0]), min_size=1,
                        max_size=40),
           size=st.integers(1, 8), share=st.floats(0.0, 1.0),
           steps=st.lists(st.tuples(st.sampled_from([-3.0, -2.0, -0.5, 0.0, 0.1, 1.0, 3.0,
                                                     np.inf]),
                                    st.integers(0, 50)), max_size=10))
    @settings(max_examples=300, deadline=None)
    def test_least_counts_up_to_the_cap(self, key, size, share, steps):
        # ties included: a head is the least values in order, whichever tied
        # modes it holds, and each count is the true one or the cap below it
        key = np.array(key)
        least = lat._Least(key, size, int(share * key.size))
        for t, need in steps:
            true = int(np.count_nonzero(key <= t))
            k, exact = least.count(t)
            assert k == true if exact else k == least.values.size <= true
            assert least.capped_count(t) == min(true, least.cap)
            least.grow(need)
            held = least.values.size
            assert held <= least.cap and least.key[least.modes].tolist() == least.values.tolist()
            assert least.values.tolist() == np.sort(key)[:held].tolist()

    def test_a_run_past_the_cap_is_counted_once(self, monkeypatch):
        least = lat._Least(np.arange(100.0), 4, 50)
        counts = []
        count_nonzero = np.count_nonzero
        monkeypatch.setattr(np, "count_nonzero", lambda *a: counts.append(a) or count_nonzero(*a))
        # the radius threshold at s = 0
        assert least.capped_count(np.inf) == least.cap == 51 and not counts
        assert least.capped_count(70.0) == 51 and least.over == 70.0 and len(counts) == 1
        assert least.capped_count(80.0) == 51 and len(counts) == 1
        assert least.capped_count(20.0) == 21

    def test_points_past_the_share_count_each_key_rarely(self, monkeypatch):
        # a grid in random order whose small s take the full pass: a count
        # over every mode comes with a head's growth or a new least threshold
        # past the cap, not with each full-pass point
        compares = []

        class Counted(np.ndarray):
            def __le__(self, t):
                compares.append(t)
                return np.asarray(self) <= t

        init = lat._CandidateGaps.__init__

        def counted(self, *args):
            init(self, *args)
            for least in (self.by_dist, self.by_radius):
                least.key = least.key.view(Counted)

        monkeypatch.setattr(lat._CandidateGaps, "__init__", counted)
        calls = counting_full_passes(monkeypatch)
        grid = [*np.linspace(0.0, 1.0, 101), *np.random.default_rng(5).uniform(0.0, 1.0, 60)]
        assert_equals_full_pass(nearest_neighbour_torus((24, 20, 18), seed=1), grid)
        assert len(calls) > 20 and len(compares) < len(calls)

    @pytest.mark.parametrize("top, value_eps, zero", [
        (2.9, 96, True),     # tol = 64 eps * 1.95: the value is a zero mode
        (1.9, 110, False),   # tol = 64 eps * 1.45: the value is the gap
    ])
    def test_value_inside_tolerance_bracket_takes_full_pass(self, monkeypatch, top,
                                                            value_eps, zero):
        # n = 64.  At s = 1/2, mode 0 sits at value_eps * eps, between the
        # largest value the candidates see (1, of sigma = -3, the widest mode)
        # times n eps and the bound ((1 - s) + s * 3) n eps = 128 eps: only the
        # modes 7..57, with sigma in [1.2, top], are larger, and they are no
        # candidates, so only the full pass can tell the side of n eps max lam.
        theta = np.arange(4) + 0.5
        half = np.concatenate([[-1.0 + 2.0 * value_eps * EPS, -2.5 + 0.1j, -2.5 + 0.2j],
                               0.5 * np.exp(1j * theta),
                               np.linspace(1.2, top, 25) + 0.01j, [-3.0]])
        spec = ring_with_symbol(half)
        calls = counting_full_passes(monkeypatch)
        profile = assert_equals_full_pass(spec, [0.5])
        assert calls == [0.5]
        assert profile.num_zero_modes[0] == int(zero)
        assert (profile.gap[0] < 1e-13) is not zero

    def test_overflowing_symbol_is_numerical_error(self):
        spec = lat.TorusSpec(np.full(4, 1e308), np.zeros(4))
        with pytest.raises(NumericalError, match="not finite"):
            lat.structured_gap_profile(spec, [0.0, 1.0])

    def test_symbol_too_large_for_segments_is_numerical_error(self):
        spec = lat.TorusSpec(np.array([1e160, 0.0, 0.0]), np.zeros(3))
        with pytest.raises(NumericalError, match="overflows"):
            lat.structured_gap_profile(spec, [0.0, 1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which", ["a", "b"])
def test_non_finite_root_rejected(bad, which):
    a = np.array([0.0, 1.0, 0.0, 1.0])
    b = np.zeros(4)
    (a if which == "a" else b)[[1, 3]] = bad
    with pytest.raises(InputError, match=f"{which} root contains non-finite"):
        lat.TorusSpec(a, b)
