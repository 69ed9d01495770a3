"""Reference values the tests check fermigap against.

None of these runs in a fermigap command: each is an independent statement
of a fact the paper claims, or a second construction route that a test
compares with the package's own.  The file is named so that pytest does
not collect it; test modules import it like conftest.
"""

import math

import numpy as np
from scipy import optimize

from fermigap import spinrep as sr
from fermigap._blas import threads_for
from fermigap.errors import ConformanceError, InputError, NumericalError

# Reference kron-built Paulis for cross-checking the permutation assembly.
_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_word(word):
    """Matrix of a Pauli word as a Kronecker product, site 1 leftmost."""
    out = np.array([[1.0 + 0j]])
    for ch in word:
        out = np.kron(out, _PAULI[ch])
    return out


def pauli_terms(w) -> list[tuple[float, str]]:
    """All n^2 (coefficient, Pauli word) pairs of the Hamiltonian with matrix W, zeros included.

    Every Z_j first, then for each j < k the word X_j Z...Z X_k with W[j, k]
    and Y_j Z...Z Y_k with W[k, j]; site 1 is the leftmost letter.
    """
    n = len(w)
    out = []
    for j in range(n):
        word = ["I"] * n
        word[j] = "Z"
        out.append((float(w[j][j]), "".join(word)))
    for j in range(n):
        for k in range(j + 1, n):
            mid = "Z" * (k - j - 1)
            pad = "I" * j, "I" * (n - 1 - k)
            out.append((float(w[j][k]), pad[0] + "X" + mid + "X" + pad[1]))
            out.append((float(w[k][j]), pad[0] + "Y" + mid + "Y" + pad[1]))
    return out


def block_by_terms(masks, n: int, states: np.ndarray) -> np.ndarray:
    """spinrep._block as a loop that adds the terms one after another, in order.

    The reference the one scatter per flip mask must equal bit for bit; it
    raises the same ConformanceError at the first term that leaves the set.
    """
    position = np.full(1 << n, -1)
    position[states] = np.arange(states.size)
    cols = np.arange(states.size)
    parity = sr._parity_signs(n)
    out = np.zeros((states.size, states.size))
    for coeff, flip_mask, sign_mask in masks:
        rows = position[states ^ flip_mask]
        if rows.min() < 0:
            raise ConformanceError(f"dense Hamiltonian couples the two fermion-parity "
                                   f"sectors: the term with flip mask {flip_mask:#b} has "
                                   f"off-parity entry {abs(coeff):.3e}")
        out[rows, cols] += coeff * parity[states & sign_mask]
    return out


def jw_operators_by_kron(n: int) -> sr.FermionOperatorSet:
    """Jordan-Wigner operators as n-fold Kronecker products, site 1 leftmost:
    c_j = (-1)^(j-1) Z x ... x Z x (X - iY)/2 x I x ... x I."""
    z = np.array([[1.0, 0.0], [0.0, -1.0]])
    lower = np.array([[0.0, 0.0], [1.0, 0.0]])  # (X - iY)/2, real
    ops = []
    for j in range(n):
        op = np.array([[(-1.0) ** j]])
        for k in range(n):
            op = np.kron(op, z if k < j else lower if k == j else np.eye(2))
        ops.append(op)
    return sr.FermionOperatorSet(tuple(ops))


def reflect_by_roll(root: np.ndarray) -> np.ndarray:
    """root[-m mod n] along every axis, by a flip and a roll of each axis."""
    out = root
    for axis in range(root.ndim):
        out = np.roll(np.flip(out, axis=axis), 1, axis=axis)
    return out


def reflect_by_gather(root: np.ndarray) -> np.ndarray:
    """root[-m mod n] along every axis, by one gather through np.ix_ index arrays."""
    return root[np.ix_(*(-np.arange(m) % m for m in root.shape))]


def expand_root_by_blocks(root: np.ndarray) -> np.ndarray:
    """Dense nested circulant of a root, built block by block from its slices."""
    if root.ndim == 1:
        n = root.shape[0]
        return root[(np.arange(n)[None, :] - np.arange(n)[:, None]) % n]
    head = root.shape[0]
    blocks = [expand_root_by_blocks(root[m]) for m in range(head)]
    size = blocks[0].shape[0]
    out = np.zeros((head * size, head * size))
    for i in range(head):
        for j in range(head):
            out[i * size:(i + 1) * size, j * size:(j + 1) * size] = blocks[(j - i) % head]
    return out


def lieb_residuals(decomp, pair) -> tuple[float, float]:
    """Norms of the two equations X (A - B) = Lam Y and Y (A + B) = Lam X."""
    lam = np.diag(decomp.lam)
    r1 = np.linalg.norm(decomp.x @ (pair.a - pair.b) - lam @ decomp.y)
    r2 = np.linalg.norm(decomp.y @ (pair.a + pair.b) - lam @ decomp.x)
    return float(r1), float(r2)


def quasiparticle_assembly(decomp, ops: sr.FermionOperatorSet) -> np.ndarray:
    """Assemble sum_j 2 lam_j eta_j+ eta_j - (sum lam_j) I from a decomposition.

    The eta operators come from unitary_fcr_transform with U = (X+Y)/2 and
    V = (X-Y)/2; the result must reproduce the quadratic Hamiltonian.
    """
    u = (decomp.x + decomp.y) / 2.0
    v = (decomp.x - decomp.y) / 2.0
    etas = sr.unitary_fcr_transform(ops, u, v)
    out = -decomp.lam.sum() * np.eye(ops.dimension, dtype=ops.dtype)
    for lam_j, eta in zip(decomp.lam, etas.ops):
        out = out + 2.0 * lam_j * (eta.conj().T @ eta)
    return out


def anticommutator_defects(ops: sr.FermionOperatorSet):
    """(j, k, defect) for every defect fcr_check evaluates, by dense products:
    pairs j <= k, {c_j, c_k+} - delta_jk I before {c_j, c_k}."""
    eye = np.eye(ops.dimension)
    for j, cj in enumerate(ops.ops):
        for k in range(j, ops.m):
            ck = ops.ops[k]
            mixed = cj @ ck.conj().T + ck.conj().T @ cj
            if j == k:
                mixed = mixed - eye
            yield j, k, mixed
            yield j, k, cj @ ck + ck @ cj


def fcr_check_by_gemm(ops: sr.FermionOperatorSet) -> float:
    """fcr_check's residual with a dense matrix product (GEMM) for every set.

    This is fcr_check as it was before its index route for sets of at most
    one nonzero per row and column, the reference that route must equal.
    """
    worst = 0.0
    threads_for(ops.dimension)
    with np.errstate(over="ignore", invalid="ignore"):
        for j, k, defect in anticommutator_defects(ops):
            if defect.any():
                if not np.isfinite(defect).all():
                    raise NumericalError(f"anticommutator defect of operators "
                                         f"{j} and {k} is not finite")
                worst = max(worst, float(np.linalg.norm(defect, 2)))
    return worst


def ising_min_gap(n: int, s_bounds: tuple[float, float] = (0.0, 1.0),
                  xatol: float = 1e-6) -> tuple[float, float]:
    """Minimum gap of the Ising evolution within the ground parity sector.

    The evolution conserves spin parity, and past the transition the two
    lowest levels (opposite parity) split only by an amount exponentially
    small in n.  The gap that limits adiabatic evolution is therefore the one
    above the ground doublet, 2*(lam_1 + lam_2) with lam_1 <= lam_2 the two
    smallest singular values of A + B.  Returns (min gap, argmin s).
    """
    def sector_gap(s: float) -> float:
        sv = np.linalg.svd(sr.build_ising_w(n, float(s)).to_pair().c, compute_uv=False)
        return 2.0 * (sv[-1] + sv[-2])

    res = optimize.minimize_scalar(sector_gap, bounds=s_bounds, method="bounded",
                                   options={"xatol": xatol})
    return float(res.fun), float(res.x)


def ising_gap_scaling(ns) -> tuple[np.ndarray, float]:
    """Min sector gaps over the given chain lengths and their log-log slope."""
    mins = np.array([ising_min_gap(n)[0] for n in ns])
    slope = float(np.polyfit(np.log(np.asarray(ns, dtype=float)), np.log(mins), 1)[0])
    return mins, slope


def edelman_pdf(x: float) -> float:
    """Density (1 + sqrt(x)) / (2 sqrt(x)) * exp(-(x/2 + sqrt(x))), x > 0."""
    x = float(x)
    if x <= 0.0:
        raise InputError(f"pdf is defined for x > 0, got {x}")
    sq = math.sqrt(x)
    return (1.0 + sq) / (2.0 * sq) * math.exp(-(x / 2.0 + sq))


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
