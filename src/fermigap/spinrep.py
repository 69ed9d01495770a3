"""Spin-operator representations and the dense brute-force oracle.

The Pauli-string Hamiltonians handled here are sums of Z_j terms, X-string
terms X_j Z ... Z X_k and Y-string terms Y_j Z ... Z Y_k, encoded by a single
real n x n coefficient matrix W (diagonal -> Z terms, upper triangle -> X
strings, lower triangle -> Y strings).  These are exactly the Hamiltonians
that the Jordan-Wigner transformation maps to quadratic fermionic form, and
the W <-> (A, B) translation is an exact linear bijection up to alternating
signs.

Also here: dense 2^n assembly (the oracle everything else is checked
against), Jordan-Wigner and spin-3/2 fermion operators as explicit matrices,
and numeric verification of the fermionic commutation relations (FCRs).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._blas import small_matrix_threads
from .errors import ConformanceError, InputError, NumericalError
from .quadform import (CoefficientPair, check_s, check_sites, check_square_finite,
                       freeze_fields)

DENSE_QUBIT_CAP = 13     # 2^13 = 8192: dense_hamiltonian's matrix is 512 MB, the
                         # oracle holds one 2^12 parity block at a time, 128 MB
SPIN32_SITE_CAP = 6      # 4^6 = 4096


# ---------------------------------------------------------------------------
# W <-> (A, B) bijection
# ---------------------------------------------------------------------------

def _alternating_signs(n: int) -> np.ndarray:
    """Sign matrix (-1)^(|j-k|+1) off the diagonal, +1 on it."""
    m = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    signs = np.where(m % 2 == 0, -1.0, 1.0)
    np.fill_diagonal(signs, 1.0)
    return signs


def w_to_ab(w) -> CoefficientPair:
    """Coefficient pair (A, B) of the Pauli-string Hamiltonian with matrix W.

    A[j, j] = W[j, j]; for offsets m >= 1,
    A[j, j+m] = A[j+m, j] = (-1)^(m+1) (W[j, j+m] + W[j+m, j]) / 2 and
    B[j, j+m] = -B[j+m, j] = (-1)^(m+1) (W[j, j+m] - W[j+m, j]) / 2.
    InputError, without a RuntimeWarning, if W[j, k] +- W[k, j] overflows.
    """
    w = check_square_finite(w, "w")
    signs = _alternating_signs(w.shape[0])
    with np.errstate(over="ignore"):
        a = signs * (w + w.T) / 2.0
        b = signs * (w - w.T) / 2.0
    np.fill_diagonal(a, np.diag(w))
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise InputError("w[j, k] + w[k, j] or w[j, k] - w[k, j] overflows: "
                         "A or B would not be finite")
    return CoefficientPair(a, b)


def ab_to_w(pair: CoefficientPair) -> np.ndarray:
    """W = signs * (A + B), the inverse of w_to_ab; InputError if A + B overflows."""
    c = pair.c
    if not np.isfinite(c).all():
        raise InputError("A + B overflows: an entry of the sum is infinite")
    return _alternating_signs(pair.n) * c


@dataclass(frozen=True)
class PauliHamiltonian:
    """Pauli-string Hamiltonian encoded by its real coefficient matrix W."""

    w: np.ndarray

    def __post_init__(self):
        freeze_fields(self, w=check_square_finite(self.w, "w"))

    @property
    def n(self) -> int:
        return self.w.shape[0]

    def to_pair(self) -> CoefficientPair:
        return w_to_ab(self.w)


# ---------------------------------------------------------------------------
# Dense 2^n assembly
# ---------------------------------------------------------------------------

@functools.cache
def _parity_signs(n: int) -> np.ndarray:
    """Read-only table of (-1)^popcount(i) for i in range(2^n)."""
    signs = np.ones(1)
    for _ in range(n):
        # setting the next higher bit flips every sign
        signs = np.concatenate([signs, -signs])
    signs.flags.writeable = False
    return signs


def _term_masks(w: np.ndarray) -> list[tuple[float, int, int]]:
    """(signed coefficient, flip mask, sign mask) of each nonzero term of W.

    A term's matrix has the entry coeff * (-1)^popcount(col & sign mask) at
    (col ^ flip mask, col), with sigma^z = diag(1, -1) and site j the bit
    n-1-j.  Z_j reads site j's bit; X_j Z...Z X_k flips the bits of sites j
    and k and reads those between them; Y_j Z...Z Y_k also reads j and k, and
    its i^2 = -1 is in the coefficient.  The order is every Z_j, then for each
    j < k the X term and the Y term: the assembly's floating-point sums follow it.
    """
    n = w.shape[0]
    bit = [1 << (n - 1 - j) for j in range(n)]
    terms = [(w[j, j], 0, bit[j]) for j in range(n)]
    for j in range(n):
        for k in range(j + 1, n):
            flip, between = bit[j] | bit[k], bit[j] - 2 * bit[k]
            terms += [(w[j, k], flip, between), (-w[k, j], flip, between | flip)]
    return [term for term in terms if term[0] != 0.0]


def _block(masks, n: int, states: np.ndarray) -> np.ndarray:
    """The Hamiltonian's matrix on the ascending basis states `states`.

    Each flip mask's terms fill their own entries: they are summed from 0.0
    in their order (Z on the diagonal, X then Y off it) and written with one
    scatter, bit-identical to adding the terms one at a time.  ConformanceError,
    naming the first such term, if a term maps a state of the set outside it.
    """
    out = np.zeros((states.size, states.size))
    if not masks:
        return out
    position = np.full(1 << n, -1)
    position[states] = np.arange(states.size)
    coeffs, flips, signs = map(np.array, zip(*masks))
    rows = position[states ^ flips[:, None]]
    if rows.min() < 0:
        coeff, flip_mask, _ = masks[(rows.min(axis=1) < 0).argmax()]
        raise ConformanceError(f"dense Hamiltonian couples the two fermion-parity "
                               f"sectors: the term with flip mask {flip_mask:#b} has "
                               f"off-parity entry {abs(coeff):.3e}")
    values = coeffs[:, None] * _parity_signs(n)[states & signs[:, None]]
    order = np.argsort(flips, kind="stable")      # mask g's terms: order[first[g]:][:count[g]]
    first = np.flatnonzero(np.diff(flips[order], prepend=-1))
    count = np.diff(first, append=order.size)
    sums = values[order[first]] + 0.0
    for r in range(1, count.max()):
        sums[count > r] += values[order[first[count > r] + r]]
    out[rows[order[first]], np.arange(states.size)] = sums
    return out


def dense_hamiltonian(h: PauliHamiltonian) -> np.ndarray:
    """Dense real symmetric 2^n x 2^n matrix of the Pauli-string Hamiltonian."""
    check_sites(h.n, "dense-matrix", DENSE_QUBIT_CAP)
    return _block(_term_masks(h.w), h.n, np.arange(1 << h.n))


def dense_spectrum_oracle(h: PauliHamiltonian) -> np.ndarray:
    """All 2^n eigenvalues by dense symmetric diagonalization, ascending.

    Every term flips an even number of bits, so the Hamiltonian conserves
    fermion parity (the parity of a basis index's popcount).  The oracle
    assembles the even sector's 2^(n-1) block, diagonalizes it, and then does
    the same for the odd sector (on one OpenBLAS thread up to order 512).  A
    term that maps a state of a sector outside it raises ConformanceError.
    """
    n = h.n
    check_sites(n, "dense-matrix", DENSE_QUBIT_CAP)
    masks = _term_masks(h.w)
    even = _parity_signs(n) > 0.0
    try:
        with small_matrix_threads(1 << (n - 1)):
            blocks = [np.linalg.eigvalsh(_block(masks, n, states))
                      for states in (np.flatnonzero(even), np.flatnonzero(~even))]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"dense eigensolver failed: {exc}") from exc
    return np.sort(np.concatenate(blocks))


# ---------------------------------------------------------------------------
# Model builders
# ---------------------------------------------------------------------------

def build_cluster_w(n: int) -> PauliHamiltonian:
    """1D cluster-state parent Hamiltonian.

    Bulk terms -X_j Z_{j+1} X_{j+2} for j = 1..n-2, plus the two boundary
    strings Y_1 Z...Z Y_{n-1} and Y_2 Z...Z Y_n with coefficient (-1)^(n-1).
    The resulting (A, B) pair is exactly circulant.
    """
    if n < 4:
        raise InputError(f"cluster chain needs n >= 4, got {n}")
    check_sites(n, "cluster chain")
    w = np.zeros((n, n))
    for j in range(n - 2):
        w[j, j + 2] = -1.0
    boundary = (-1.0) ** (n - 1)
    w[n - 2, 0] = boundary
    w[n - 1, 1] = boundary
    return PauliHamiltonian(w)


def build_ising_w(n: int, s: float) -> PauliHamiltonian:
    """Transverse-field Ising chain at interpolation parameter s.

    (1-s) sum_j Z_j + s sum_j X_j X_{j+1}, open boundaries.
    """
    if n < 2:
        raise InputError(f"Ising chain needs n >= 2, got {n}")
    check_s(s)
    check_sites(n, "Ising chain")
    w = (1.0 - s) * np.eye(n)
    for j in range(n - 1):
        w[j, j + 1] = s
    return PauliHamiltonian(w)


# ---------------------------------------------------------------------------
# Fermion operator sets and FCR verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FermionOperatorSet:
    """A set of candidate annihilation operators as dense matrices.

    The operators are stored in their common dtype, at least float64: a real
    set stays real and a complex one complex.
    """

    ops: tuple

    def __post_init__(self):
        ops = tuple(np.asarray(op) for op in self.ops)
        if not ops:
            raise InputError("operator set is empty")
        dtype = np.result_type(float, *{op.dtype for op in ops})
        ops = tuple(op.astype(dtype, copy=False) for op in ops)
        dim = ops[0].shape
        if any(op.shape != dim or op.ndim != 2 or op.shape[0] != op.shape[1]
               for op in ops):
            raise InputError("operators must be square matrices of equal dimension")
        object.__setattr__(self, "ops", ops)

    @property
    def m(self) -> int:
        return len(self.ops)

    @property
    def dimension(self) -> int:
        return self.ops[0].shape[0]

    @property
    def dtype(self) -> np.dtype:
        return self.ops[0].dtype


def _column_entries(op: np.ndarray):
    """op and op^T each as (rows, vals), rows[c] the row of column c's nonzero
    and vals[c] its value (row 0 and 0.0 for an empty column); None unless op
    is finite, not empty and holds at most one nonzero in each row and each
    column."""
    nonzero = op != 0.0
    if not (op.size and np.isfinite(op).all() and (nonzero.sum(0) <= 1).all()
            and (nonzero.sum(1) <= 1).all()):
        return None
    cols = np.arange(op.shape[0])
    rows, rows_t = nonzero.argmax(0), nonzero.argmax(1)
    return (rows, op[rows, cols]), (rows_t, op[cols, rows_t])


def _dense_anticommutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x @ y + y @ x


def _scattered_anticommutator(x, y) -> np.ndarray:
    """x @ y + y @ x as a dense array, x and y given as (rows, vals) by column.

    Column c of x @ y holds x's column rows_y[c] times vals_y[c], one entry.
    """
    out = np.zeros((x[0].size,) * 2, x[1].dtype)
    cols = np.arange(x[0].size)
    for (rows_a, vals_a), (rows_b, vals_b) in ((x, y), (y, x)):
        out[rows_a[rows_b], cols] += vals_a[rows_b] * vals_b
    return out


def fcr_check(ops: FermionOperatorSet) -> float:
    """Residual of {c_j, c_k+} = delta_jk I and {c_j, c_k} = 0, evaluated numerically.

    The residual is the largest operator 2-norm over all anticommutator defects.
    The pairs j <= k cover them all: {c_k, c_j+} = {c_j, c_k+}+ has the same
    2-norm, and {c_k, c_j} = {c_j, c_k}.  A defect whose entries are all
    exactly zero, as the Jordan-Wigner and spin-3/2 ones are, has 2-norm 0.0
    and skips the SVD.  A defect with an infinite or NaN entry raises
    NumericalError, and the products that make it warn of nothing.  Sets of
    dimension up to 512 run on one OpenBLAS thread.

    A real set whose every operator is finite with at most one nonzero in each
    row and column (every Jordan-Wigner and spin-3/2 set) forms each product
    from the operators' column entries in O(d) and scatters each defect into
    a zero d x d array; every other set multiplies dense matrices.  Both give
    bit-identical defects: an entry of such a product has one nonzero term,
    which a real GEMM returns exactly, whatever its order of summation.  A
    complex GEMM kernel may or may not fuse that term's multiply-adds, so
    complex sets take the dense products.  Jordan-Wigner on 8 sites takes
    9 ms instead of 120 ms (median of 7, 2-core x86-64 VM).
    """
    entries = [_column_entries(op) for op in ops.ops] if ops.dtype.kind == "f" else [None]
    anticommutator = _scattered_anticommutator
    if None in entries:
        entries = [(op, op.conj().T) for op in ops.ops]
        anticommutator = _dense_anticommutator
    eye = np.eye(ops.dimension)
    worst = 0.0
    with small_matrix_threads(ops.dimension), np.errstate(over="ignore", invalid="ignore"):
        for j, (cj, _) in enumerate(entries):
            for k in range(j, ops.m):
                ck, ck_adjoint = entries[k]
                mixed = anticommutator(cj, ck_adjoint)
                if j == k:
                    mixed = mixed - eye
                for defect in (mixed, anticommutator(cj, ck)):
                    if defect.any():
                        if not np.isfinite(defect).all():
                            raise NumericalError(f"anticommutator defect of operators "
                                                 f"{j} and {k} is not finite")
                        worst = max(worst, float(np.linalg.norm(defect, 2)))
    return worst


def _kron_string(n: int, j: int, string: np.ndarray, site_op: np.ndarray) -> np.ndarray:
    """The Kronecker product of string on sites before j, site_op at j, I after,
    built left to right from [[1.0]]."""
    eye = np.eye(site_op.shape[0])
    op = np.array([[1.0]])
    for k in range(n):
        op = np.kron(op, string if k < j else site_op if k == j else eye)
    return op


def jw_operators(n: int) -> FermionOperatorSet:
    """Jordan-Wigner annihilation operators on n qubits.

    c_j = (-1)^(j-1) Z_1 ... Z_{j-1} (X_j - i Y_j)/2 with site 1 leftmost.
    With site j (from 0) the bit b = 2^(n-1-j), each column col with bit b clear
    holds c_j's one nonzero: (-1)^j times the parity of col's bits above b, at row col | b.
    """
    check_sites(n, "dense-matrix", DENSE_QUBIT_CAP)
    ops = np.zeros((n, 1 << n, 1 << n))
    j, col = np.nonzero((np.arange(1 << n) >> np.arange(n - 1, -1, -1)[:, None]) & 1 == 0)
    ops[j, col | 1 << (n - 1 - j), col] = (-1.0) ** j * _parity_signs(n)[col >> (n - j)]
    return FermionOperatorSet(tuple(ops))


def _spin32_matrices() -> tuple[np.ndarray, np.ndarray]:
    """(S^z, S^-) in the standard spin-3/2 basis m = 3/2 ... -3/2."""
    # S^- lowers m by one with the factor sqrt(15/4 - m(m-1)) = sqrt(3), 2, sqrt(3)
    return np.diag([1.5, 0.5, -0.5, -1.5]), np.diag(np.sqrt([3.0, 4.0, 3.0]), -1)


def spin32_operators(n: int) -> FermionOperatorSet:
    """2n Fermi operators built from n spin-3/2 sites (dimension 4^n).

    Per site:  c_1 = (-1/sqrt(3)) S- S^z S-  and
               c_2 = (1/sqrt(3)) (1/2 + S^z)^2 S-,
    each dressed with the string factor 5/4 - (S^z_k)^2 on all earlier sites.
    Operators are returned interleaved by site: (c_{1,1}, c_{2,1}, c_{1,2}, ...).
    """
    check_sites(n, "spin-3/2", SPIN32_SITE_CAP)
    sz, sm = _spin32_matrices()
    eye4 = np.eye(4)
    string = 1.25 * eye4 - sz @ sz
    c1_site = (-1.0 / np.sqrt(3.0)) * sm @ sz @ sm
    c2_site = (1.0 / np.sqrt(3.0)) * (0.5 * eye4 + sz) @ (0.5 * eye4 + sz) @ sm
    return FermionOperatorSet(tuple(_kron_string(n, j, string, site_op)
                                    for j in range(n) for site_op in (c1_site, c2_site)))


def unitary_fcr_transform(ops: FermionOperatorSet, u, v) -> FermionOperatorSet:
    """New mode operators eta_j = sum_k U[j,k] c_k + V[j,k] c_k+.

    Requires U and V finite and the 2n x 2n block matrix T = [[U, V], [V, U]]
    to be orthogonal, ||T T^t - I|| <= 1e-12; the FCRs are then preserved.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    n = ops.m
    if u.shape != (n, n) or v.shape != (n, n):
        raise InputError(f"u and v must be {n}x{n} to match the operator set")
    for name, m in (("u", u), ("v", v)):
        if not np.isfinite(m).all():
            raise InputError(f"{name} contains non-finite entries")
    t = np.block([[u, v], [v, u]])
    defect = float(np.linalg.norm(t @ t.T - np.eye(2 * n), 2))
    if defect > 1e-12:
        raise InputError(
            f"T = [[U,V],[V,U]] is not orthogonal: ||T T^t - I|| = {defect:.3e}"
        )
    cs = np.stack(ops.ops)
    return FermionOperatorSet(tuple(np.tensordot(u, cs, 1)
                                    + np.tensordot(v, cs.conj().transpose(0, 2, 1), 1)))


def fermionic_assembly(pair: CoefficientPair, ops: FermionOperatorSet) -> np.ndarray:
    """Assemble sum A_jk (c+_j c_k - c_j c+_k) + B_jk (c+_j c+_k - c_j c_k).

    This is the second construction route for a quadratic Hamiltonian; with
    Jordan-Wigner operators it must agree entrywise with dense_hamiltonian
    applied to ab_to_w(pair).
    """
    n = pair.n
    if ops.m != n:
        raise InputError(f"operator set has {ops.m} modes, pair has {n}")
    cs = ops.ops
    ds = [op.conj().T for op in cs]
    out = np.zeros_like(cs[0])
    for j in range(n):
        for k in range(n):
            if pair.a[j, k] != 0.0:
                out = out + pair.a[j, k] * (ds[j] @ cs[k] - cs[j] @ ds[k])
            if pair.b[j, k] != 0.0:
                out = out + pair.b[j, k] * (ds[j] @ ds[k] - cs[j] @ cs[k])
    return out

