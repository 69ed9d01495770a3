"""Quadratic fermionic Hamiltonians parametrized by an (A, B) matrix pair.

A Hamiltonian of the form

    H = sum_{jk} A_jk (c+_j c_k - c_j c+_k) + B_jk (c+_j c+_k - c_j c_k)

with A real symmetric and B real anti-symmetric decouples into free
quasiparticle modes whose single-mode energies 2*Lambda_j are twice the
singular values of A + B.  Everything spectral about H (ground energy,
ground-state gap, the full 2^n level multiset) follows from those singular
values, so all routines here work on n x n matrices, never on the 2^n space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._blas import small_matrix_threads
from .errors import CapacityError, InputError, NumericalError

# Enumerating all 2^n subset-sum energies beyond this is pointless on a desk
# machine (2^22 ~ 4M float64 energies ~ 34 MB plus the sort).
SPECTRUM_MODE_CAP = 22

# Largest n for which an n x n float64 matrix is built: 128 MiB at the cap,
# and a CoefficientPair holds two plus their copies (a 4096-site ring expands
# with a 557 MB peak).  At n = 100,000 one matrix would take 80 GB.  The
# singular values of a structured spec come from an FFT and have no cap.
MATRIX_SIZE_CAP = 4096


def check_matrix_size(n: int, what: str) -> None:
    """Raise CapacityError, before anything is allocated, if n > MATRIX_SIZE_CAP."""
    if n > MATRIX_SIZE_CAP:
        raise CapacityError(f"n={n} exceeds the {what} cap of {MATRIX_SIZE_CAP} sites")


def check_square_finite(m, name: str) -> np.ndarray:
    """m as a float array; InputError unless it is square with finite entries."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError(f"{name} must be a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InputError(f"{name} contains non-finite entries")
    return m


def first_symmetry_violation(m: np.ndarray, anti: bool = False):
    """Index pair (j, k) of the first exact (anti)symmetry violation, or None."""
    sign = -1.0 if anti else 1.0
    bad = np.argwhere(m != sign * m.T)
    if bad.size == 0:
        return None
    j, k = bad[0]
    return int(j), int(k)


@dataclass(frozen=True)
class CoefficientPair:
    """The (A, B) coefficient matrices of a quadratic fermionic Hamiltonian.

    Attributes
    ----------
    a : np.ndarray
        n x n real symmetric matrix (exactly: a[j, k] == a[k, j]).
    b : np.ndarray
        n x n real anti-symmetric matrix (exactly: b[j, k] == -b[k, j]).
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = check_square_finite(self.a, "a")
        b = check_square_finite(self.b, "b")
        if a.shape != b.shape:
            raise InputError(f"a and b shapes differ: {a.shape} vs {b.shape}")
        viol = first_symmetry_violation(a)
        if viol is not None:
            raise InputError(f"a is not symmetric at index pair {viol}")
        viol = first_symmetry_violation(b, anti=True)
        if viol is not None:
            raise InputError(f"b is not anti-symmetric at index pair {viol}")
        a = a.copy()
        b = b.copy()
        a.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def c(self) -> np.ndarray:
        """A + B, the matrix whose singular values fix the spectrum."""
        return self.a + self.b

    def singular_values(self) -> np.ndarray:
        """The singular values Lambda of A + B, descending, by a values-only SVD."""
        return _singular_values(self.c)

    @staticmethod
    def identity(n: int) -> "CoefficientPair":
        return CoefficientPair(np.eye(n), np.zeros((n, n)))


def symmetrize_split(c) -> CoefficientPair:
    """Split a square matrix C into its symmetric and anti-symmetric parts.

    Returns the pair (A, B) = ((C + C^T)/2, (C - C^T)/2).  Both parts are
    exactly (anti)symmetric; A + B reproduces C up to one rounding of each
    entry (exactly, whenever C_jk + C_kj is representable).
    """
    c = check_square_finite(c, "c")
    return CoefficientPair((c + c.T) / 2.0, (c - c.T) / 2.0)


@dataclass(frozen=True)
class LiebDecomposition:
    """Free-quasiparticle decomposition of an (A, B) pair.

    Orthogonal X, Y and non-negative lam (ascending) satisfying

        X (A - B) = diag(lam) Y,     Y (A + B) = diag(lam) X,

    so lam holds the singular values of A + B and row j of (X, Y) defines
    the j-th quasiparticle mode of energy 2*lam[j].
    """

    lam: np.ndarray
    x: np.ndarray
    y: np.ndarray

    def residuals(self, pair: CoefficientPair) -> tuple[float, float]:
        """Norms of the two defining equations, for diagnostics."""
        lam = np.diag(self.lam)
        r1 = np.linalg.norm(self.x @ (pair.a - pair.b) - lam @ self.y)
        r2 = np.linalg.norm(self.y @ (pair.a + pair.b) - lam @ self.x)
        return float(r1), float(r2)


def lieb_decompose(pair: CoefficientPair) -> LiebDecomposition:
    """Decompose the pair into decoupled quasiparticle modes.

    Computed from a real SVD of C = A + B: with C = U S V^T, the choices
    X = V^T (rows = right singular vectors) and Y = U^T satisfy both
    defining equations identically, including for zero singular values.
    """
    c = pair.c
    try:
        u, s, vh = np.linalg.svd(c)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD of A+B failed to converge: {exc}") from exc
    # numpy returns descending singular values; flip to ascending.
    order = np.arange(s.shape[0])[::-1]
    return LiebDecomposition(lam=s[order], x=vh[order], y=u.T[order])


@dataclass(frozen=True)
class GapReport:
    """Ground energy and ground-state gap of a quadratic fermionic Hamiltonian.

    ground_energy is -sum(lam).  gap is twice the least singular value above
    zero_tolerance (0 if none).  degenerate flags singular values at or below
    the tolerance; each contributes a factor of 2 to the ground-level
    multiplicity.
    """

    ground_energy: float
    gap: float
    degenerate: bool
    zero_tolerance: float
    num_zero_modes: int


def default_zero_tolerance(lam: np.ndarray) -> float:
    """Numerical-rank convention: n * eps * sigma_max."""
    n = lam.shape[0]
    smax = float(lam.max(initial=0.0))
    return n * np.finfo(float).eps * smax


def gap_report_from_singular_values(lam, zero_tolerance: float | None = None) -> GapReport:
    """Build a GapReport from the singular values of A + B, in any order."""
    lam = np.asarray(lam, dtype=float)
    if zero_tolerance is not None and not 0.0 <= zero_tolerance < np.inf:
        raise InputError(f"zero_tolerance must be finite and non-negative, got {zero_tolerance}")
    total = float(lam.sum())
    if not np.isfinite(total):
        raise NumericalError(f"singular values do not sum to a finite value: {total}")
    if zero_tolerance is None:
        zero_tolerance = default_zero_tolerance(lam)
    nonzero = lam[lam > zero_tolerance]
    num_zero = int(lam.size - nonzero.size)
    gap = 2.0 * float(nonzero.min()) if nonzero.size else 0.0
    return GapReport(
        ground_energy=-total,
        gap=gap,
        degenerate=num_zero > 0,
        zero_tolerance=float(zero_tolerance),
        num_zero_modes=num_zero,
    )


def _singular_values(c: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.svd(c, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD of A+B failed to converge: {exc}") from exc


def ground_gap(source, zero_tolerance: float | None = None) -> GapReport:
    """Ground energy and gap: twice the least (nonzero) singular value of A+B.

    source is anything with a singular_values() method: a CoefficientPair
    (dense SVD) or a lattice.TorusSpec (FFT).
    """
    return gap_report_from_singular_values(source.singular_values(), zero_tolerance)


def subset_sum_spectrum(lam, max_modes: int = SPECTRUM_MODE_CAP) -> np.ndarray:
    """All 2^n energies {-sum(lam) + sum_{j in S} 2 lam_j}, sorted ascending.

    lam holds the n singular values of A + B, in any order.  Raises
    CapacityError for n > max_modes, and for max_modes > SPECTRUM_MODE_CAP.
    """
    lam = np.asarray(lam, dtype=float)
    if max_modes > SPECTRUM_MODE_CAP:
        raise CapacityError(
            f"max_modes={max_modes} exceeds the hard cap of {SPECTRUM_MODE_CAP} modes"
        )
    if lam.size > max_modes:
        raise CapacityError(
            f"n={lam.size} exceeds the spectrum enumeration cap of {max_modes} modes"
        )
    energies = np.array([-lam.sum()])
    for lam_j in lam:
        energies = np.concatenate([energies, energies + 2.0 * lam_j])
    energies.sort()
    return energies


def interpolate(target: CoefficientPair, s: float) -> CoefficientPair:
    """Pair at parameter s of the path from (I, 0) to target: ((1-s) I + s A, s B)."""
    check_s(s)
    a = (1.0 - s) * np.eye(target.n) + s * target.a
    b = s * target.b
    return CoefficientPair(a, b)


@dataclass(frozen=True)
class PathMinimum:
    """Least value over all s in [0, 1] of twice the least singular value.

    Unlike a grid minimum this counts zero modes: closes is True when the
    gap vanishes, to rounding, somewhere along the path, at parameter s.
    """

    gap: float
    s: float
    closes: bool


@dataclass(frozen=True)
class GapProfile:
    """GapReport fields along an interpolation grid, one entry per point.

    gap[i], ground_energy[i] and num_zero_modes[i] are those of the report at
    s[i].  path_minimum is the grid-free minimum where a path has one
    (structured specs), else None.
    """

    s: np.ndarray
    gap: np.ndarray
    ground_energy: np.ndarray
    num_zero_modes: np.ndarray
    path_minimum: PathMinimum | None = None

    @property
    def min_gap_index(self) -> int:
        return int(np.argmin(self.gap))

    @property
    def min_gap_s(self) -> float:
        return float(self.s[self.min_gap_index])

    @property
    def min_gap(self) -> float:
        return float(self.gap[self.min_gap_index])


def check_s(s) -> np.ndarray:
    """s, a scalar or a nonempty grid, as a float array with entries in [0, 1]."""
    s = np.asarray(s, dtype=float)
    if s.size == 0:
        raise InputError("s_grid must be nonempty")
    outside = ~((0.0 <= s) & (s <= 1.0))
    if outside.any():
        raise InputError(f"s must lie in [0, 1], got {s[outside][0]}")
    return s


def profile_from_singular_values(s_grid: np.ndarray, singular_values,
                                 zero_tolerance: float | None = None,
                                 path_minimum: PathMinimum | None = None) -> GapProfile:
    """GapProfile over a checked grid; singular_values(s) gives those of C(s)."""
    reports = [gap_report_from_singular_values(singular_values(s), zero_tolerance)
               for s in s_grid.tolist()]
    return GapProfile(s=s_grid.copy(),
                      gap=np.array([rep.gap for rep in reports]),
                      ground_energy=np.array([rep.ground_energy for rep in reports]),
                      num_zero_modes=np.array([rep.num_zero_modes for rep in reports]),
                      path_minimum=path_minimum)


def gap_profile(target: CoefficientPair, s_grid,
                zero_tolerance: float | None = None) -> GapProfile:
    """Evaluate ground_gap along the interpolation to target at each grid point.

    C(s) is formed as interpolate and CoefficientPair.c form it, so the
    profile is bitwise that of ground_gap(interpolate(target, s)); the target
    pair is validated once, not once per point.
    """
    s_grid = check_s(s_grid)
    a, b = target.a, target.b
    eye = np.eye(target.n)
    with small_matrix_threads(target.n):
        return profile_from_singular_values(
            s_grid, lambda s: _singular_values(((1.0 - s) * eye + s * a) + s * b),
            zero_tolerance)
