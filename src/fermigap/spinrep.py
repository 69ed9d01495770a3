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
from .errors import CapacityError, ConformanceError, InputError, NumericalError
from .quadform import (CoefficientPair, check_matrix_size, check_s, check_square_finite,
                       freeze_fields)

DENSE_QUBIT_CAP = 13     # 2^13 = 8192: dense_hamiltonian's matrix is 512 MB, the
                         # oracle holds one 2^12 parity block at a time, 128 MB
SPIN32_SITE_CAP = 6      # 4^6 = 4096


def _check_qubits(n: int):
    if n < 1:
        raise InputError(f"need at least one site, got n={n}")
    if n > DENSE_QUBIT_CAP:
        raise CapacityError(f"n={n} exceeds the dense-matrix cap of {DENSE_QUBIT_CAP} sites")


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

    @property
    def terms(self) -> list[tuple[float, str]]:
        """All n^2 (coefficient, Pauli word) pairs, zeros included."""
        n = self.n
        out = []
        for j in range(n):
            word = ["I"] * n
            word[j] = "Z"
            out.append((float(self.w[j, j]), "".join(word)))
        for j in range(n):
            for k in range(j + 1, n):
                mid = "Z" * (k - j - 1)
                pad = "I" * j, "I" * (n - 1 - k)
                out.append((float(self.w[j, k]), pad[0] + "X" + mid + "X" + pad[1]))
                out.append((float(self.w[k, j]), pad[0] + "Y" + mid + "Y" + pad[1]))
        return out

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


# A word as binary digits, site 1 the most significant: X, Y flip a bit; Z, Y read it.
_FLIP_DIGITS, _SIGN_DIGITS = str.maketrans("IXYZ", "0110"), str.maketrans("IXYZ", "0011")


def _term_masks(terms) -> list[tuple[str, float, int, int]]:
    """(word, signed coefficient, flip mask, sign mask) of each nonzero term.

    A term's matrix has the entry coeff * (-1)^popcount(col & sign mask) at
    (col ^ flip mask, col), with sigma^z = diag(1, -1), site 1 the leftmost
    factor and each Y pair's i^2 = -1 in the coefficient.
    """
    return [(word, (-1.0) ** (word.count("Y") // 2) * coeff,
             int(word.translate(_FLIP_DIGITS), 2), int(word.translate(_SIGN_DIGITS), 2))
            for coeff, word in terms if coeff != 0.0]


def _block(masks, n: int, states: np.ndarray) -> np.ndarray:
    """The Hamiltonian's matrix on the ascending basis states `states`.

    The terms are added one after another, in order.  ConformanceError if a
    term maps a state of the set outside it.
    """
    position = np.full(1 << n, -1)
    position[states] = np.arange(states.size)
    cols = np.arange(states.size)
    parity = _parity_signs(n)
    out = np.zeros((states.size, states.size))
    for word, coeff, flip_mask, sign_mask in masks:
        rows = position[states ^ flip_mask]
        if rows.min() < 0:
            raise ConformanceError(f"dense Hamiltonian couples the two fermion-parity "
                                   f"sectors: term {word} has off-parity entry {abs(coeff):.3e}")
        out[rows, cols] += coeff * parity[states & sign_mask]
    return out


def dense_hamiltonian(h: PauliHamiltonian) -> np.ndarray:
    """Dense real symmetric 2^n x 2^n matrix of the Pauli-string Hamiltonian."""
    _check_qubits(h.n)
    return _block(_term_masks(h.terms), h.n, np.arange(1 << h.n))


def dense_spectrum_oracle(h: PauliHamiltonian) -> np.ndarray:
    """All 2^n eigenvalues by dense symmetric diagonalization, ascending.

    Every term flips an even number of bits, so the Hamiltonian conserves
    fermion parity (the parity of a basis index's popcount).  The oracle
    assembles the even sector's 2^(n-1) block, diagonalizes it, and then does
    the same for the odd sector (on one OpenBLAS thread up to order 512).  A
    term that maps a state of a sector outside it raises ConformanceError.
    """
    n = h.n
    _check_qubits(n)
    masks = _term_masks(h.terms)
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
    check_matrix_size(n, "cluster chain")
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
    check_matrix_size(n, "Ising chain")
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


def fcr_check(ops: FermionOperatorSet) -> float:
    """Residual of {c_j, c_k+} = delta_jk I and {c_j, c_k} = 0, evaluated numerically.

    The residual is the largest operator 2-norm over all anticommutator defects.
    The pairs j <= k cover them all: {c_k, c_j+} = {c_j, c_k+}+ has the same
    2-norm, and {c_k, c_j} = {c_j, c_k}.  A defect whose entries are all
    exactly zero, as the Jordan-Wigner and spin-3/2 ones are, has 2-norm 0.0
    and skips the SVD.  A defect with an infinite or NaN entry raises
    NumericalError, and the products that make it warn of nothing.  Sets of
    dimension up to 512 run on one OpenBLAS thread.
    """
    eye = np.eye(ops.dimension)
    worst = 0.0
    with small_matrix_threads(ops.dimension), np.errstate(over="ignore", invalid="ignore"):
        for j, cj in enumerate(ops.ops):
            for k in range(j, ops.m):
                ck = ops.ops[k]
                mixed = cj @ ck.conj().T + ck.conj().T @ cj
                if j == k:
                    mixed = mixed - eye
                same = cj @ ck + ck @ cj
                for defect in (mixed, same):
                    if defect.any():
                        if not np.isfinite(defect).all():
                            raise NumericalError(f"anticommutator defect of operators "
                                                 f"{j} and {k} is not finite")
                        worst = max(worst, float(np.linalg.norm(defect, 2)))
    return worst


def _kron_string(n: int, j: int, string: np.ndarray, site_op: np.ndarray,
                 coeff: float = 1.0) -> np.ndarray:
    """coeff times the Kronecker product of string on sites before j, site_op at j, I after.

    The product over the n sites is built left to right from [[coeff]].
    """
    eye = np.eye(site_op.shape[0])
    op = np.array([[coeff]])
    for k in range(n):
        op = np.kron(op, string if k < j else site_op if k == j else eye)
    return op


def jw_operators(n: int) -> FermionOperatorSet:
    """Jordan-Wigner annihilation operators on n qubits.

    c_j = (-1)^(j-1) Z_1 ... Z_{j-1} (X_j - i Y_j)/2 with site 1 leftmost.
    """
    _check_qubits(n)
    z = np.array([[1.0, 0.0], [0.0, -1.0]])
    lower = np.array([[0.0, 0.0], [1.0, 0.0]])  # (X - iY)/2, real
    return FermionOperatorSet(tuple(_kron_string(n, j, z, lower, (-1.0) ** j)
                                    for j in range(n)))


def _spin32_matrices() -> tuple[np.ndarray, np.ndarray]:
    """(S^z, S^-) in the standard spin-3/2 basis m = 3/2 ... -3/2."""
    sz = np.diag([1.5, 0.5, -0.5, -1.5])
    sminus = np.zeros((4, 4))
    ms = [1.5, 0.5, -0.5]
    for i, m in enumerate(ms):
        sminus[i + 1, i] = np.sqrt(15.0 / 4.0 - m * (m - 1.0))
    return sz, sminus


def spin32_operators(n: int) -> FermionOperatorSet:
    """2n Fermi operators built from n spin-3/2 sites (dimension 4^n).

    Per site:  c_1 = (-1/sqrt(3)) S- S^z S-  and
               c_2 = (1/sqrt(3)) (1/2 + S^z)^2 S-,
    each dressed with the string factor 5/4 - (S^z_k)^2 on all earlier sites.
    Operators are returned interleaved by site: (c_{1,1}, c_{2,1}, c_{1,2}, ...).
    """
    if n < 1:
        raise InputError(f"need at least one site, got n={n}")
    if n > SPIN32_SITE_CAP:
        raise CapacityError(f"n={n} exceeds the spin-3/2 cap of {SPIN32_SITE_CAP} sites")
    sz, sm = _spin32_matrices()
    eye4 = np.eye(4)
    string = 1.25 * eye4 - sz @ sz
    c1_site = (-1.0 / np.sqrt(3.0)) * sm @ sz @ sm
    c2_site = (1.0 / np.sqrt(3.0)) * (0.5 * eye4 + sz) @ (0.5 * eye4 + sz) @ sm
    return FermionOperatorSet(tuple(_kron_string(n, j, string, site_op)
                                    for j in range(n) for site_op in (c1_site, c2_site)))


def unitary_fcr_transform(ops: FermionOperatorSet, u, v) -> FermionOperatorSet:
    """New mode operators eta_j = sum_k U[j,k] c_k + V[j,k] c_k+.

    Requires the 2n x 2n block matrix T = [[U, V], [V, U]] to be orthogonal,
    ||T T^t - I|| <= 1e-12; the FCRs are then preserved.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    n = ops.m
    if u.shape != (n, n) or v.shape != (n, n):
        raise InputError(f"u and v must be {n}x{n} to match the operator set")
    t = np.block([[u, v], [v, u]])
    defect = float(np.linalg.norm(t @ t.T - np.eye(2 * n), 2))
    if defect > 1e-12:
        raise InputError(
            f"T = [[U,V],[V,U]] is not orthogonal: ||T T^t - I|| = {defect:.3e}"
        )
    daggers = [op.conj().T for op in ops.ops]
    etas = []
    for j in range(n):
        eta = np.zeros_like(ops.ops[0])
        for k in range(n):
            eta = eta + u[j, k] * ops.ops[k] + v[j, k] * daggers[k]
        etas.append(eta)
    return FermionOperatorSet(tuple(etas))


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

