import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fermigap import _blas, quadform as qf
from fermigap import spinrep as sr
from fermigap.errors import CapacityError, ConformanceError, InputError, NumericalError

from conftest import dense_ground_state, with_off_parity_term
from oracles import (anticommutator_defects, block_by_terms, fcr_check_by_gemm,
                     ising_gap_scaling, ising_min_gap, jw_operators_by_kron, kron_word,
                     pauli_terms, quasiparticle_assembly)


def dyadic_w(n, rng, scale=2 ** 20):
    return rng.integers(-scale, scale, size=(n, n)) / scale


class TestWBijection:
    def test_diagonal_w_is_diagonal_a(self):
        pair = sr.w_to_ab(np.diag([1.0, 2.0, 3.0]))
        assert np.array_equal(pair.a, np.diag([1.0, 2.0, 3.0]))
        assert np.array_equal(pair.b, np.zeros((3, 3)))

    def test_nearest_neighbour_signs(self):
        # offset m=1 keeps the sign, m=2 flips it
        w = np.zeros((3, 3))
        w[0, 1] = 2.0
        w[0, 2] = 2.0
        pair = sr.w_to_ab(w)
        assert pair.a[0, 1] == 1.0 and pair.b[0, 1] == 1.0
        assert pair.a[0, 2] == -1.0 and pair.b[0, 2] == -1.0

    def test_roundtrip_exact_on_dyadic_w(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            w = dyadic_w(6, rng)
            assert np.array_equal(sr.ab_to_w(sr.w_to_ab(w)), w)

    def test_roundtrip_close_on_general_w(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((7, 7))
        np.testing.assert_allclose(sr.ab_to_w(sr.w_to_ab(w)), w, rtol=0, atol=1e-15)

    def test_rejects_nonsquare(self):
        with pytest.raises(InputError):
            sr.w_to_ab(np.zeros((2, 3)))


def unit_w(word):
    """The W with one entry 1.0 whose one nonzero reference term is word."""
    n = len(word)
    return next(w for w in np.eye(n * n).reshape(n * n, n, n)
                if [word] == [term for coeff, term in pauli_terms(w) if coeff != 0.0])


class TestPauliAssembly:
    @pytest.mark.parametrize("word", dict.fromkeys(
        ["Z", "XX", "YY", "XZX", "YZY", "YZZY",
         *(word for _, word in pauli_terms(np.ones((4, 4))))]))
    def test_matches_kron_reference(self, word):
        # the one term's matrix, as the assembly builds it from W on every basis state
        n = len(word)
        mat = sr._block(sr._term_masks(unit_w(word)), n, np.arange(1 << n))
        np.testing.assert_array_equal(mat, kron_word(word).real)

    def test_terms_enumeration(self):
        # the masks list W's nonzero terms in the reference's word order, which
        # fixes the order of the assembly's floating-point sums
        w = np.arange(16.0).reshape(4, 4) - 5.0
        reference = [(coeff, word) for coeff, word in pauli_terms(w) if coeff != 0.0]
        masks = sr._term_masks(w)
        assert len(masks) == len(reference) == 15
        for mask, (coeff, word) in zip(masks, reference):
            mat = sr._block([mask], 4, np.arange(16))
            np.testing.assert_array_equal(mat, coeff * kron_word(word).real)

    def test_dense_hamiltonian_matches_term_sum(self):
        rng = np.random.default_rng(3)
        h = sr.PauliHamiltonian(rng.standard_normal((3, 3)))
        explicit = sum(coeff * kron_word(word).real for coeff, word in pauli_terms(h.w))
        np.testing.assert_allclose(sr.dense_hamiltonian(h), explicit, atol=1e-14)

    def test_single_site_field(self):
        vals = sr.dense_spectrum_oracle(sr.PauliHamiltonian(np.array([[1.0]])))
        np.testing.assert_array_equal(vals, [-1.0, 1.0])

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            sr.dense_hamiltonian(sr.PauliHamiltonian(np.eye(sr.DENSE_QUBIT_CAP + 1)))


def parity_block_route(h):
    """The oracle's former route, the reference: the eigenvalues of the two
    parity blocks copied out of the full matrix with np.ix_."""
    mat = sr.dense_hamiltonian(h)
    basis = np.arange(1 << h.n)
    even = sr._parity_signs(h.n) > 0.0
    _blas.threads_for(1 << (h.n - 1))
    blocks = [np.linalg.eigvalsh(mat[np.ix_(idx, idx)]) for idx in (basis[even], basis[~even])]
    return np.sort(np.concatenate(blocks))


def traced_peak(fn, *args):
    """fn(*args)'s result and the peak of the memory tracemalloc saw it allocate."""
    assert not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestParityBlockOracle:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_bit_identical_to_full_matrix_blocks(self, n):
        h = sr.PauliHamiltonian(np.random.default_rng(60 + n).standard_normal((n, n)))
        assert np.array_equal(sr.dense_spectrum_oracle(h), parity_block_route(h))

    @pytest.mark.parametrize("n", range(1, 10))
    def test_sector_spectrum_is_one_block_of_the_full_matrix(self, n):
        h = sr.PauliHamiltonian(np.random.default_rng(90 + n).standard_normal((n, n)))
        mat = sr.dense_hamiltonian(h)
        odd = sr._parity_signs(n) < 0.0
        for parity in (0, 1):
            idx = np.flatnonzero(odd == parity)
            _blas.threads_for(idx.size)
            expected = np.linalg.eigvalsh(mat[np.ix_(idx, idx)])
            assert np.array_equal(sr.sector_spectrum(h, parity), expected)

    @pytest.mark.parametrize("parity", [2, -1])
    def test_sector_parity_is_0_or_1(self, parity):
        with pytest.raises(InputError, match=r"^parity must be 0 or 1, got "):
            sr.sector_spectrum(sr.PauliHamiltonian(np.eye(2)), parity)

    def test_peak_memory_below_half_a_full_matrix(self):
        n = 10
        h = sr.PauliHamiltonian(np.random.default_rng(70).standard_normal((n, n)))
        vals, peak = traced_peak(sr.dense_spectrum_oracle, h)
        assert vals.size == 1 << n
        # one 2^n x 2^n float64 matrix is 8 MiB; one parity block is 2 MiB
        assert peak < 4 << 20

    def test_capacity_cap_before_any_allocation(self):
        h = sr.PauliHamiltonian(np.eye(sr.DENSE_QUBIT_CAP + 1))

        def oracle_raises():
            with pytest.raises(CapacityError):
                sr.dense_spectrum_oracle(h)

        # the 2^14-entry parity table alone would be 128 KiB
        assert traced_peak(oracle_raises)[1] < 64 << 10

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_full_matrix_eigvalsh(self, n):
        h = sr.PauliHamiltonian(np.random.default_rng(30 + n).standard_normal((n, n)))
        mat = sr.dense_hamiltonian(h)
        np.testing.assert_allclose(sr.dense_spectrum_oracle(h), np.linalg.eigvalsh(mat),
                                   rtol=0, atol=1e-12 * (1.0 + np.linalg.norm(mat, 2)))

    @pytest.mark.parametrize("n", range(1, 10))
    def test_each_block_holds_one_subset_parity(self, n):
        # the even-popcount block holds the energies of the even |S| exactly when
        # (-1)^n det(A + B) > 0, and the odd-popcount block those of the other |S|
        basis = np.arange(1 << n)
        subsets = (basis[:, None] >> np.arange(n)) & 1
        even = sr._parity_signs(n) > 0.0
        for seed in range(6):
            w = np.random.default_rng([80, n, seed]).standard_normal((n, n))
            pair = sr.w_to_ab(w)
            lam = pair.singular_values()
            if lam[-1] <= n * np.finfo(float).eps * lam[0]:
                continue    # det(A + B) is within rounding of 0: its sign says nothing
            energies = subsets @ (2.0 * lam) - lam.sum()
            sign = np.linalg.slogdet(pair.c)[0] * (-1) ** n
            masks = sr._term_masks(w)
            for states, size_parity in ((basis[even], sign < 0), (basis[~even], sign > 0)):
                block = np.linalg.eigvalsh(sr._block(masks, n, states))
                expected = np.sort(energies[subsets.sum(axis=1) % 2 == size_parity])
                np.testing.assert_allclose(block, expected, rtol=0,
                                           atol=1e-12 * (1.0 + lam[0]))

    @pytest.mark.parametrize("n", [1, 3])
    def test_off_parity_entry_raises(self, monkeypatch, n):
        monkeypatch.setattr(sr, "_term_masks", with_off_parity_term(sr._term_masks))
        h = sr.PauliHamiltonian(np.random.default_rng(40).standard_normal((n, n)))
        with pytest.raises(ConformanceError, match="off-parity entry 1.000e"):
            sr.dense_spectrum_oracle(h)

    @pytest.mark.parametrize("n", [1, 3])
    def test_first_of_several_off_parity_terms_named(self, n):
        # the terms are checked together, but the message names the first in order
        w = np.random.default_rng(41).standard_normal((n, n))
        masks = [*sr._term_masks(w), (2.0, 1 << (n - 1), 0), (3.0, 1, 0)]
        states = np.flatnonzero(sr._parity_signs(n) > 0.0)
        message = f"flip mask {1 << (n - 1):#b} has off-parity entry 2.000e"
        for block in (sr._block, block_by_terms):
            with pytest.raises(ConformanceError, match=message):
                block(masks, n, states)


@st.composite
def sparse_w(draw, max_n=9):
    """An n x n W, n = 1 ... max_n, with some entries (or all) exactly zero."""
    n = draw(st.integers(1, max_n))
    values = draw(st.lists(st.floats(-1e3, 1e3, allow_subnormal=False),
                           min_size=n * n, max_size=n * n))
    kept = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    return np.where(kept, values, 0.0).reshape(n, n)


class TestOneScatterBlock:
    @given(w=sparse_w(), basis=st.sampled_from(["even", "odd", "full"]))
    @example(w=np.zeros((3, 3)), basis="full")     # no terms: the zero matrix
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_adding_term_by_term(self, w, basis):
        n = w.shape[0]
        even = sr._parity_signs(n) > 0.0
        states = {"even": np.flatnonzero(even), "odd": np.flatnonzero(~even),
                  "full": np.arange(1 << n)}[basis]
        masks = sr._term_masks(w)
        assert sr._block(masks, n, states).tobytes() == block_by_terms(masks, n, states).tobytes()

    def test_cancelling_and_negative_zero_terms_give_positive_zero(self):
        # from 0.0, x + (-x) and -0.0 alone both sum to +0.0
        masks = [(1.0, 0b11, 0b01), (-1.0, 0b11, 0b01), (-0.0, 0b01, 0)]
        out = sr._block(masks, 2, np.arange(4))
        assert out.tobytes() == block_by_terms(masks, 2, np.arange(4)).tobytes()
        assert not np.signbit(out).any()


@pytest.mark.parametrize("n", range(1, 9))
def test_jw_operators_equal_kron_products(n):
    direct, kron = sr.jw_operators(n), jw_operators_by_kron(n)
    assert direct.m == kron.m == n
    assert all(np.array_equal(a, b) for a, b in zip(direct.ops, kron.ops))


def bit_parity_per_bit(values, mask, n):
    """The per-bit shift loop that the popcount table replaced, the reference."""
    masked = values & mask
    parity = np.zeros_like(values)
    for shift in range(n):
        parity ^= (masked >> shift) & 1
    return 1.0 - 2.0 * parity.astype(float)


class TestPopcountTable:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_dense_routes_bit_identical_to_per_bit_loop(self, monkeypatch, n):
        h = sr.PauliHamiltonian(np.random.default_rng(50 + n).standard_normal((n, n)))
        mat, vals = sr.dense_hamiltonian(h), sr.dense_spectrum_oracle(h)
        monkeypatch.setattr(sr, "_parity_signs", lambda n: bit_parity_per_bit(
            np.arange(1 << n), (1 << n) - 1, n))
        assert np.array_equal(sr.dense_hamiltonian(h), mat)
        assert np.array_equal(sr.dense_spectrum_oracle(h), vals)

    def test_table_is_cached_and_read_only(self):
        signs = sr._parity_signs(5)
        assert sr._parity_signs(5) is signs
        assert not signs.flags.writeable
        values = np.arange(32)
        assert np.array_equal(signs, bit_parity_per_bit(values, 31, 5))


class TestOracleAgreement:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_subset_sum_matches_dense(self, n):
        rng = np.random.default_rng(10 + n)
        h = sr.PauliHamiltonian(rng.standard_normal((n, n)))
        dense = sr.dense_spectrum_oracle(h)
        fermionic = qf.subset_sum_spectrum(h.to_pair().singular_values())
        np.testing.assert_allclose(fermionic, dense, atol=1e-10)

    def test_route_equality(self):
        # dense_hamiltonian(W) == fermionic assembly of (A, B) through JW ops
        rng = np.random.default_rng(20)
        w = rng.standard_normal((4, 4))
        h = sr.PauliHamiltonian(w)
        built = sr.fermionic_assembly(h.to_pair(), sr.jw_operators(4))
        assert np.abs(built.imag).max() <= 1e-13
        np.testing.assert_allclose(built.real, sr.dense_hamiltonian(h), atol=1e-12)

    def test_quasiparticle_route(self):
        rng = np.random.default_rng(21)
        pair = qf.symmetrize_split(rng.standard_normal((3, 3)))
        ops = sr.jw_operators(3)
        direct = sr.fermionic_assembly(pair, ops)
        quasi = quasiparticle_assembly(qf.lieb_decompose(pair), ops)
        np.testing.assert_allclose(quasi, direct, atol=1e-12)


def fcr_residual_all_pairs(ops):
    """fcr_check's residual over the full j, k double loop, the reference."""
    eye = np.eye(ops.dimension)
    worst = 0.0
    for j, cj in enumerate(ops.ops):
        for k, ck in enumerate(ops.ops):
            mixed = cj @ ck.conj().T + ck.conj().T @ cj - (j == k) * eye
            same = cj @ ck + ck @ cj
            worst = max(worst, np.linalg.norm(mixed, 2), np.linalg.norm(same, 2))
    return float(worst)


@st.composite
def operator_sets(draw):
    """Real or complex sets of m = 1..4 operators of dimension 1..8.

    Either Gaussian matrices, or Jordan-Wigner operators with per-operator
    phases (which keep the FCRs) plus noise of a drawn size, zero included.
    A Jordan-Wigner set may repeat its first operator last, a defect that
    only the pair (first, last) shows.
    """
    is_complex = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        m, dim = draw(st.integers(1, 4)), draw(st.integers(1, 8))
        base, noise = np.zeros((m, dim, dim)), 1.0
    else:
        sites = draw(st.integers(1, 3))
        base = np.array(sr.jw_operators(sites).ops[:draw(st.integers(1, sites))])
        if draw(st.booleans()):
            base[-1] = base[0]
        noise = draw(st.sampled_from([0.0, 1e-9, 1e-3]))
    shape = base.shape
    ops = base + noise * rng.standard_normal(shape)
    if is_complex:
        phases = np.exp(2j * np.pi * rng.random(shape[0]))[:, None, None]
        ops = phases * ops + 1j * noise * rng.standard_normal(shape)
    return sr.FermionOperatorSet(tuple(ops))


def last_operator_broken(phase):
    """Jordan-Wigner operators on 3 sites times phase, the last one scaled by 1.001."""
    ops = [phase * op for op in sr.jw_operators(3).ops]
    ops[-1] = 1.001 * ops[-1]
    return sr.FermionOperatorSet(tuple(ops))


def spy_norm(monkeypatch):
    """Record the arguments of every np.linalg.norm call."""
    calls = []
    real = np.linalg.norm

    def spied(x, *args, **kwargs):
        calls.append(x)
        return real(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", spied)
    return calls


@st.composite
def partial_permutation_sets(draw):
    """Sets of m = 1..4 phased partial permutations of dimension 1..16.

    The operators are Jordan-Wigner or spin-3/2 ones, or random matrices of
    at most one nonzero per row and column with empty rows and columns; each
    is multiplied by a sign (real set) or a phase (complex set).  A drawn defect may
    break the FCRs: the first operator repeated last, one operator scaled by
    1.001, or the sign of one entry flipped.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["jw", "spin32", "random"]))
    if kind == "random":
        m, dim = draw(st.integers(1, 4)), draw(st.integers(1, 16))
        ops = np.zeros((m, dim, dim))
        for op in ops:
            kept = np.flatnonzero(rng.random(dim) < rng.random())
            op[rng.permutation(dim)[kept], kept] = rng.standard_normal(kept.size)
    else:
        build, sites = ((sr.jw_operators, draw(st.integers(1, 4))) if kind == "jw"
                        else (sr.spin32_operators, draw(st.integers(1, 2))))
        ops = np.array(build(sites).ops[:draw(st.integers(1, 4))])
    m = ops.shape[0]
    if draw(st.booleans()):
        phases = np.exp(2j * np.pi * rng.random(m))
    else:
        phases = rng.choice([-1.0, 1.0], m)
    ops = phases[:, None, None] * ops
    defect, which = draw(st.sampled_from(["none", "repeat", "scale", "flip"])), rng.integers(m)
    if defect == "repeat":
        ops[-1] = ops[0]
    elif defect == "scale":
        ops[which] *= 1.001
    elif defect == "flip" and ops[which].any():
        row, col = np.argwhere(ops[which])[0]
        ops[which, row, col] *= -1.0
    return sr.FermionOperatorSet(tuple(ops))


def counting_products(ops):
    """A copy of the set whose operators count the matrix products they enter."""
    counted = []

    class Counted(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                counted.append(ufunc)
            return getattr(ufunc, method)(
                *(x.view(np.ndarray) if isinstance(x, Counted) else x for x in inputs),
                **kwargs)

    spied = sr.FermionOperatorSet(ops.ops)
    object.__setattr__(spied, "ops", tuple(op.view(Counted) for op in ops.ops))
    return spied, counted


def with_extra_nonzero(ops, shift):
    """The set with one more nonzero, shifted by (rows, columns) from the first
    nonzero of its first operator."""
    first = ops.ops[0].copy()
    row, col = np.argwhere(first)[0] + shift
    first[row % ops.dimension, col % ops.dimension] = 0.5
    return sr.FermionOperatorSet((first, *ops.ops[1:]))


def eta_set(seed):
    """The eta operators of a seeded 4-mode pair: dense and real; their FCRs hold to rounding."""
    rng = np.random.default_rng(seed)
    d = qf.lieb_decompose(qf.symmetrize_split(rng.standard_normal((4, 4))))
    return sr.unitary_fcr_transform(sr.jw_operators(4), (d.x + d.y) / 2.0, (d.x - d.y) / 2.0)


class TestFcr:
    @given(ops=operator_sets())
    @settings(max_examples=150, deadline=None)
    def test_pairs_j_le_k_match_all_pairs(self, ops):
        reference = fcr_residual_all_pairs(ops)
        assert abs(sr.fcr_check(ops) - reference) <= 1e-14 * (1.0 + reference)

    @pytest.mark.parametrize("phase", [1.0, 1j], ids=["real", "complex"])
    def test_defect_in_last_operator_fails(self, phase):
        broken = last_operator_broken(phase)
        residual = sr.fcr_check(broken)
        assert residual > 1e-12
        assert residual == pytest.approx(fcr_residual_all_pairs(broken), rel=1e-14)

    def test_exactly_zero_defects_skip_the_svd(self, monkeypatch):
        assert all(not d.any() for _, _, d in anticommutator_defects(sr.jw_operators(4)))
        calls = spy_norm(monkeypatch)
        assert sr.fcr_check(sr.jw_operators(4)) == 0.0
        assert calls == []

    @pytest.mark.parametrize("phase", [1.0, 1j], ids=["real", "complex"])
    def test_one_svd_per_nonzero_defect(self, monkeypatch, phase):
        broken = last_operator_broken(phase)
        nonzero = [d for _, _, d in anticommutator_defects(broken) if d.any()]
        calls = spy_norm(monkeypatch)
        sr.fcr_check(broken)
        assert 0 < len(calls) == len(nonzero)
        assert all(np.array_equal(x, d) for x, d in zip(calls, nonzero))

    @given(ops=partial_permutation_sets())
    @settings(max_examples=300, deadline=None)
    def test_partial_permutations_match_the_gemm_loop(self, ops):
        # the index route's residual and each defect it passes to the SVD
        # are bit-identical to the dense products' (complex sets take those)
        nonzero = [d for _, _, d in anticommutator_defects(ops) if d.any()]
        reference = fcr_check_by_gemm(ops)
        with pytest.MonkeyPatch.context() as patch:
            calls = spy_norm(patch)
            assert sr.fcr_check(ops) == reference
        assert len(calls) == len(nonzero)
        assert all(np.array_equal(x, d) for x, d in zip(calls, nonzero))

    @pytest.mark.parametrize("ops", [
        *(sr.jw_operators(n) for n in range(1, 9)),
        *(sr.spin32_operators(n) for n in range(1, 4)),
    ], ids=[*(f"jw{n}" for n in range(1, 9)), *(f"spin32_{n}" for n in range(1, 4))])
    def test_ladder_sets_take_no_gemm(self, ops):
        spied, products = counting_products(ops)
        assert sr.fcr_check(spied) == 0.0
        assert products == []

    @pytest.mark.parametrize("ops", [
        eta_set(24),
        # a second nonzero in a row only, in a column only, and in both
        with_extra_nonzero(sr.jw_operators(1), (0, 1)),
        with_extra_nonzero(sr.jw_operators(1), (1, 0)),
        with_extra_nonzero(sr.jw_operators(3), (0, 1)),
        with_extra_nonzero(sr.spin32_operators(1), (0, 1)),
        sr.FermionOperatorSet(tuple(1j * op for op in sr.jw_operators(3).ops)),
    ], ids=["eta", "jw1-extra-in-row", "jw1-extra-in-column", "jw3-extra-nonzero",
            "spin32-extra-nonzero", "jw-complex"])
    def test_other_sets_take_the_gemm_loop(self, ops):
        spied, products = counting_products(ops)
        assert sr.fcr_check(spied) == fcr_check_by_gemm(ops)
        assert len(products) == 4 * ops.m * (ops.m + 1) // 2

    def test_non_finite_entry_takes_the_gemm_loop(self):
        ops = [op.copy() for op in sr.jw_operators(2).ops]
        ops[1][0, 1] = np.inf
        spied, products = counting_products(sr.FermionOperatorSet(tuple(ops)))
        with pytest.raises(NumericalError, match="defect of operators 0 and 1 is not finite"):
            sr.fcr_check(spied)
        assert len(products) == 4 * 2  # pairs (0, 0) and (0, 1), where it stops

    @pytest.mark.parametrize("entry", [np.inf, np.nan], ids=["inf", "nan"])
    def test_non_finite_defect_raises(self, entry):
        ops = [op.copy() for op in sr.jw_operators(2).ops]
        ops[1][0, 1] = entry
        with pytest.raises(NumericalError, match="defect of operators 0 and 1 is not finite"):
            sr.fcr_check(sr.FermionOperatorSet(tuple(ops)))

    def test_defect_between_two_operators_fails(self):
        c = sr.jw_operators(2).ops[0]
        assert sr.fcr_check(sr.FermionOperatorSet((c, c))) == 1.0

    def test_operators_are_real(self):
        for ops in (*map(sr.jw_operators, range(1, 6)), sr.spin32_operators(1),
                    sr.spin32_operators(2)):
            assert ops.dtype == np.float64
            assert all(op.dtype == np.float64 for op in ops.ops)
        rng = np.random.default_rng(23)
        d = qf.lieb_decompose(qf.symmetrize_split(rng.standard_normal((3, 3))))
        ops = sr.jw_operators(3)
        etas = sr.unitary_fcr_transform(ops, (d.x + d.y) / 2.0, (d.x - d.y) / 2.0)
        assert etas.dtype == np.float64
        assert sr.fermionic_assembly(qf.symmetrize_split(d.x), ops).dtype == np.float64
        assert quasiparticle_assembly(d, ops).dtype == np.float64

    def test_complex_set_stays_complex(self):
        ops = sr.FermionOperatorSet(tuple(1j * op for op in sr.jw_operators(3).ops))
        assert ops.dtype == np.complex128
        assert sr.fcr_check(ops) <= 1e-12
        quasi = quasiparticle_assembly(
            qf.lieb_decompose(qf.symmetrize_split(np.eye(3))), ops)
        assert quasi.dtype == np.complex128

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_jw_operators_pass(self, n):
        assert sr.fcr_check(sr.jw_operators(n)) <= 1e-13

    @pytest.mark.parametrize("n", [1, 2])
    def test_spin32_operators_pass(self, n):
        ops = sr.spin32_operators(n)
        assert ops.m == 2 * n
        assert ops.dimension == 4 ** n
        assert sr.fcr_check(ops) <= 1e-12

    def test_broken_set_fails(self):
        ops = sr.jw_operators(2)
        broken = sr.FermionOperatorSet((ops.ops[0], 1.001 * ops.ops[1]))
        assert sr.fcr_check(broken) > 1e-12

    def test_transform_preserves_fcr(self):
        rng = np.random.default_rng(22)
        pair = qf.symmetrize_split(rng.standard_normal((3, 3)))
        d = qf.lieb_decompose(pair)
        etas = sr.unitary_fcr_transform(sr.jw_operators(3),
                                        (d.x + d.y) / 2.0, (d.x - d.y) / 2.0)
        assert sr.fcr_check(etas) <= 1e-12

    def test_non_orthogonal_transform_rejected(self):
        with pytest.raises(InputError, match="not orthogonal"):
            sr.unitary_fcr_transform(sr.jw_operators(2),
                                     np.eye(2), 0.1 * np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", ["u", "v"])
    def test_non_finite_transform_rejected_without_a_warning(self, bad, which):
        u, v = np.eye(2), np.zeros((2, 2))
        (u if which == "u" else v)[0, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=f"{which} contains non-finite"):
                sr.unitary_fcr_transform(sr.jw_operators(2), u, v)


class TestSmallMatrixThreads:
    """The FCR loop and the oracle's parity blocks run on one OpenBLAS thread."""

    @pytest.fixture
    def libs(self):
        libs = _blas.loaded_openblas()
        if not libs:
            pytest.skip("no OpenBLAS loaded in this process")
        _blas.restore_threads()     # the counts earlier work left owed
        return libs

    def spy(self, monkeypatch, libs, name):
        """Record the thread counts seen by every call of np.linalg.<name>."""
        seen = []
        real = getattr(np.linalg, name)

        def spied(*args, **kwargs):
            seen.append([lib.get() for lib in libs])
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spied)
        return seen

    def test_fcr_check_on_one_thread(self, libs, monkeypatch):
        # the counts before lieb_decompose, which is fermigap work of order 3 too
        before = [lib.get() for lib in libs]
        # a transformed set: Jordan-Wigner defects are exactly zero and reach no SVD
        rng = np.random.default_rng(24)
        d = qf.lieb_decompose(qf.symmetrize_split(rng.standard_normal((3, 3))))
        etas = sr.unitary_fcr_transform(sr.jw_operators(3),
                                        (d.x + d.y) / 2.0, (d.x - d.y) / 2.0)
        seen = self.spy(monkeypatch, libs, "norm")
        assert sr.fcr_check(etas) <= 1e-12
        assert seen and all(counts == [1] * len(libs) for counts in seen)
        assert [lib.get() for lib in libs] == [1] * len(libs)
        _blas.restore_threads()
        assert [lib.get() for lib in libs] == before

    def test_oracle_blocks_on_one_thread(self, libs, monkeypatch):
        before = [lib.get() for lib in libs]
        seen = self.spy(monkeypatch, libs, "eigvalsh")
        sr.dense_spectrum_oracle(sr.PauliHamiltonian(np.eye(4)))
        assert seen == [[1] * len(libs)] * 2
        assert [lib.get() for lib in libs] == [1] * len(libs)
        _blas.restore_threads()
        assert [lib.get() for lib in libs] == before

    def test_fcr_bit_identical_to_default_threads(self, monkeypatch):
        sets = [sr.jw_operators(8), sr.spin32_operators(2), eta_set(23)]
        capped = [sr.fcr_check(ops) for ops in sets]
        monkeypatch.setattr(_blas, "loaded_openblas", lambda: [])
        assert capped == [sr.fcr_check(ops) for ops in sets]


class TestClusterModel:
    @pytest.mark.parametrize("n", [4, 5, 7])
    def test_pair_is_circulant_half_offsets(self, n):
        pair = sr.build_cluster_w(n).to_pair()
        row_a = pair.a[0]
        row_b = pair.b[0]
        expect_a = np.zeros(n)
        expect_b = np.zeros(n)
        # offsets +2 and -2 coincide when n = 4 and the halves add up
        expect_a[2] += 0.5
        expect_a[n - 2] += 0.5
        expect_b[2] += 0.5
        expect_b[n - 2] -= 0.5
        np.testing.assert_array_equal(row_a, expect_a)
        np.testing.assert_array_equal(row_b, expect_b)
        for j in range(n):
            np.testing.assert_array_equal(pair.a[j], np.roll(row_a, j))
            np.testing.assert_array_equal(pair.b[j], np.roll(row_b, j))

    def test_ground_energy(self):
        # all n singular values equal 1, so E0 = -n
        h = sr.build_cluster_w(5)
        e0, _ = dense_ground_state(h)
        assert e0 == pytest.approx(-5.0, abs=1e-10)

    def test_stabilizer_expectations(self):
        n = 4
        _, psi = dense_ground_state(sr.build_cluster_w(n))
        for coeff, word in pauli_terms(sr.build_cluster_w(n).w):
            if coeff == 0.0:
                continue
            val = psi @ kron_word(word).real @ psi
            # every term sits at its minimal energy -|coeff| in the ground
            # state, i.e. the stabilizer -sign(coeff)*word has expectation +1
            assert -np.sign(coeff) * val == pytest.approx(1.0, abs=1e-10)


class TestIsingModel:
    def test_w_layout(self):
        w = sr.build_ising_w(3, 0.25).w
        np.testing.assert_array_equal(w, [[0.75, 0.25, 0.0],
                                          [0.0, 0.75, 0.25],
                                          [0.0, 0.0, 0.75]])

    def test_endpoint_gaps(self):
        # s = 0 is the pure field: sector gap 2(1+1) = 4
        sv = np.linalg.svd(sr.build_ising_w(6, 0.0).to_pair().c, compute_uv=False)
        assert 2.0 * (sv[-1] + sv[-2]) == pytest.approx(4.0)

    def test_min_gap_near_transition(self):
        gap, s_star = ising_min_gap(16)
        assert 0.4 < s_star < 0.6
        assert 0.0 < gap < 2.0

    def test_scaling_slope(self):
        mins, slope = ising_gap_scaling([8, 16, 32])
        assert np.all(np.diff(mins) < 0)
        assert -1.3 < slope < -0.7
