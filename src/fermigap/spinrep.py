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

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InputError, NumericalError
from .quadform import CoefficientPair, check_matrix_size, check_square_finite

DENSE_QUBIT_CAP = 13     # 2^13 = 8192; one real matrix is 512 MB
SPIN32_SITE_CAP = 6      # 4^6 = 4096


def _check_qubits(n: int, cap: int = DENSE_QUBIT_CAP):
    if n < 1:
        raise InputError(f"need at least one site, got n={n}")
    if n > cap:
        raise CapacityError(f"n={n} exceeds the dense-matrix cap of {cap} sites")


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
    """
    w = check_square_finite(w, "w")
    signs = _alternating_signs(w.shape[0])
    a = signs * (w + w.T) / 2.0
    np.fill_diagonal(a, np.diag(w))
    b = signs * (w - w.T) / 2.0
    return CoefficientPair(a, b)


def ab_to_w(pair: CoefficientPair) -> np.ndarray:
    """Inverse of w_to_ab: W = signs * (A + B), signs as in w_to_ab."""
    return _alternating_signs(pair.n) * (pair.a + pair.b)


@dataclass(frozen=True)
class PauliHamiltonian:
    """Pauli-string Hamiltonian encoded by its real coefficient matrix W."""

    w: np.ndarray

    def __post_init__(self):
        w = check_square_finite(self.w, "w").copy()
        w.flags.writeable = False
        object.__setattr__(self, "w", w)

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

def _bit_parity(values: np.ndarray, mask: int, n: int) -> np.ndarray:
    """Parity of popcount(values & mask) as +-1 floats."""
    masked = values & mask
    parity = np.zeros_like(values)
    for shift in range(n):
        parity ^= (masked >> shift) & 1
    return 1.0 - 2.0 * parity.astype(float)


def _signed_permutation(word: str, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows and phases of a real Pauli word's entries in columns `cols`.

    The word's matrix M has M[rows, cols] = phases and zeros elsewhere.
    """
    n = len(word)
    flip_mask = 0   # X and Y flip the bit
    sign_mask = 0   # Z and Y read the bit sign
    for j, ch in enumerate(word):
        bit = 1 << (n - 1 - j)
        if ch in "XY":
            flip_mask |= bit
        if ch in "ZY":
            sign_mask |= bit
    # each Y pair carries i^2 = -1
    phases = (-1.0) ** (word.count("Y") // 2) * _bit_parity(cols, sign_mask, n)
    return cols ^ flip_mask, phases


def pauli_string_matrix(word: str) -> np.ndarray:
    """Dense real matrix of a Pauli word containing an even number of Y's.

    Convention: sigma^z = diag(1, -1), site 1 is the leftmost (most
    significant) tensor factor.  A Pauli word is a signed permutation of the
    computational basis, so the matrix is assembled in O(2^n) without krons.
    Two Y factors contribute i*i = -1, keeping everything real.
    """
    n = len(word)
    _check_qubits(n)
    if any(ch not in "IXYZ" for ch in word):
        raise InputError(f"invalid Pauli word {word!r}")
    if word.count("Y") % 2:
        raise InputError(f"odd number of Y factors in {word!r}; matrix would be imaginary")
    dim = 1 << n
    cols = np.arange(dim)
    rows, phases = _signed_permutation(word, cols)
    mat = np.zeros((dim, dim))
    mat[rows, cols] = phases
    return mat


def dense_hamiltonian(h: PauliHamiltonian) -> np.ndarray:
    """Dense real symmetric 2^n x 2^n matrix of the Pauli-string Hamiltonian."""
    n = h.n
    _check_qubits(n)
    dim = 1 << n
    out = np.zeros((dim, dim))
    cols = np.arange(dim)
    for coeff, word in h.terms:
        if coeff == 0.0:
            continue
        rows, phases = _signed_permutation(word, cols)
        out[rows, cols] += coeff * phases
    return out


def dense_spectrum_oracle(h: PauliHamiltonian) -> np.ndarray:
    """All 2^n eigenvalues by dense symmetric diagonalization, ascending."""
    mat = dense_hamiltonian(h)
    try:
        return np.linalg.eigvalsh(mat)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"dense eigensolver failed: {exc}") from exc


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
    if not 0.0 <= s <= 1.0:
        raise InputError(f"s must lie in [0, 1], got {s}")
    check_matrix_size(n, "Ising chain")
    w = (1.0 - s) * np.eye(n)
    for j in range(n - 1):
        w[j, j + 1] = s
    return PauliHamiltonian(w)


def ising_min_gap(n: int, s_bounds: tuple[float, float] = (0.0, 1.0),
                  xatol: float = 1e-6) -> tuple[float, float]:
    """Minimum gap of the Ising evolution within the ground parity sector.

    The evolution conserves spin parity, and past the transition the two
    lowest levels (opposite parity) split only by an amount exponentially
    small in n.  The gap that limits adiabatic evolution is therefore the one
    above the ground doublet, 2*(lam_1 + lam_2) with lam_1 <= lam_2 the two
    smallest singular values of A + B.  Returns (min gap, argmin s).
    """
    from scipy import optimize

    def sector_gap(s: float) -> float:
        sv = np.linalg.svd(build_ising_w(n, float(s)).to_pair().c, compute_uv=False)
        return 2.0 * (sv[-1] + sv[-2])

    res = optimize.minimize_scalar(sector_gap, bounds=s_bounds, method="bounded",
                                   options={"xatol": xatol})
    return float(res.fun), float(res.x)


def ising_gap_scaling(ns) -> tuple[np.ndarray, float]:
    """Min sector gaps over the given chain lengths and their log-log slope."""
    mins = np.array([ising_min_gap(n)[0] for n in ns])
    slope = float(np.polyfit(np.log(np.asarray(ns, dtype=float)), np.log(mins), 1)[0])
    return mins, slope


# ---------------------------------------------------------------------------
# Fermion operator sets and FCR verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FermionOperatorSet:
    """A set of candidate annihilation operators as dense matrices."""

    ops: tuple

    def __post_init__(self):
        ops = tuple(np.asarray(op, dtype=complex) for op in self.ops)
        if not ops:
            raise InputError("operator set is empty")
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


@dataclass(frozen=True)
class FcrReport:
    max_residual: float
    passed: bool
    tol: float


def fcr_check(ops: FermionOperatorSet, tol: float = 1e-12) -> FcrReport:
    """Verify {c_j, c_k+} = delta_jk I and {c_j, c_k} = 0 numerically.

    Residual is the largest operator 2-norm over all anticommutator defects.
    """
    eye = np.eye(ops.dimension)
    worst = 0.0
    for j, cj in enumerate(ops.ops):
        for k, ck in enumerate(ops.ops):
            mixed = cj @ ck.conj().T + ck.conj().T @ cj
            if j == k:
                mixed = mixed - eye
            same = cj @ ck + ck @ cj
            worst = max(worst,
                        float(np.linalg.norm(mixed, 2)),
                        float(np.linalg.norm(same, 2)))
    return FcrReport(max_residual=worst, passed=worst <= tol, tol=tol)


def jw_operators(n: int) -> FermionOperatorSet:
    """Jordan-Wigner annihilation operators on n qubits.

    c_j = (-1)^(j-1) Z_1 ... Z_{j-1} (X_j - i Y_j)/2 with site 1 leftmost.
    """
    _check_qubits(n)
    z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    eye2 = np.eye(2, dtype=complex)
    lower = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # (X - iY)/2
    ops = []
    for j in range(n):
        op = np.array([[(-1.0 + 0j) ** j]])
        for k in range(n):
            factor = z if k < j else lower if k == j else eye2
            op = np.kron(op, factor)
        ops.append(op)
    return FermionOperatorSet(tuple(ops))


def _spin32_matrices() -> tuple[np.ndarray, np.ndarray]:
    """(S^z, S^-) in the standard spin-3/2 basis m = 3/2 ... -3/2."""
    sz = np.diag([1.5, 0.5, -0.5, -1.5]).astype(complex)
    sminus = np.zeros((4, 4), dtype=complex)
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
    eye4 = np.eye(4, dtype=complex)
    string = 1.25 * eye4 - sz @ sz
    c1_site = (-1.0 / np.sqrt(3.0)) * sm @ sz @ sm
    c2_site = (1.0 / np.sqrt(3.0)) * (0.5 * eye4 + sz) @ (0.5 * eye4 + sz) @ sm
    ops = []
    for j in range(n):
        for site_op in (c1_site, c2_site):
            op = np.array([[1.0 + 0j]])
            for k in range(n):
                factor = string if k < j else site_op if k == j else eye4
                op = np.kron(op, factor)
            ops.append(op)
    return FermionOperatorSet(tuple(ops))


def unitary_fcr_transform(ops: FermionOperatorSet, u, v,
                          tol: float = 1e-12) -> FermionOperatorSet:
    """New mode operators eta_j = sum_k U[j,k] c_k + V[j,k] c_k+.

    Requires the 2n x 2n block matrix T = [[U, V], [V, U]] to be orthogonal;
    the FCRs are then preserved.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    n = ops.m
    if u.shape != (n, n) or v.shape != (n, n):
        raise InputError(f"u and v must be {n}x{n} to match the operator set")
    t = np.block([[u, v], [v, u]])
    defect = float(np.linalg.norm(t @ t.T - np.eye(2 * n), 2))
    if defect > tol:
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


def quasiparticle_assembly(decomp, ops: FermionOperatorSet) -> np.ndarray:
    """Assemble sum_j 2 lam_j eta_j+ eta_j - (sum lam_j) I from a decomposition.

    The eta operators come from unitary_fcr_transform with U = (X+Y)/2 and
    V = (X-Y)/2; the result must reproduce the quadratic Hamiltonian.
    """
    u = (decomp.x + decomp.y) / 2.0
    v = (decomp.x - decomp.y) / 2.0
    etas = unitary_fcr_transform(ops, u, v)
    out = -decomp.lam.sum() * np.eye(ops.dimension, dtype=complex)
    for lam_j, eta in zip(decomp.lam, etas.ops):
        out = out + 2.0 * lam_j * (eta.conj().T @ eta)
    return out
