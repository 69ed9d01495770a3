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

from dataclasses import InitVar, dataclass, field

import numpy as np

from ._blas import forked_chunks, threads_for
from .errors import CapacityError, InputError, NumericalError

# Enumerating all 2^n subset-sum energies beyond this is pointless on a desk
# machine (2^22 ~ 4M float64 energies ~ 34 MB plus the sort).
SPECTRUM_MODE_CAP = 22

# Largest n for which an n x n float64 matrix is built: 128 MiB at the cap,
# and a CoefficientPair holds two plus their copies (a 4096-site ring expands
# with a 557 MB peak).  At n = 100,000 one matrix would take 80 GB.  The
# singular values of a structured spec come from an FFT and have no cap.
MATRIX_SIZE_CAP = 4096


def check_sites(n: int, what: str, cap: int = MATRIX_SIZE_CAP) -> None:
    """Raise, before anything is allocated, InputError if n < 1 and CapacityError if n > cap."""
    if n < 1:
        raise InputError(f"need at least one site, got n={n}")
    if n > cap:
        raise CapacityError(f"n={n} exceeds the {what} cap of {cap} sites")


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


def freeze_fields(obj, **arrays: np.ndarray) -> None:
    """Set each field of the frozen dataclass obj to a read-only copy of its array."""
    for name, array in arrays.items():
        array = array.copy()
        array.flags.writeable = False
        object.__setattr__(obj, name, array)


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
        freeze_fields(self, a=a, b=b)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    @np.errstate(over="ignore")     # an infinite sum is named by _singular_values
    def c(self) -> np.ndarray:
        """A + B, the matrix whose singular values fix the spectrum."""
        return self.a + self.b

    def singular_values(self) -> np.ndarray:
        """The singular values Lambda of A + B, descending, by a values-only SVD."""
        threads_for(self.n)
        return _singular_values(self.c)

    @staticmethod
    def identity(n: int) -> "CoefficientPair":
        return CoefficientPair(np.eye(n), np.zeros((n, n)))


def symmetrize_split(c) -> CoefficientPair:
    """Split a square matrix C into its symmetric and anti-symmetric parts.

    Returns the pair (A, B) = ((C + C^T)/2, (C - C^T)/2).  Both parts are
    exactly (anti)symmetric; A + B reproduces C up to one rounding of each
    entry (exactly, whenever C_jk + C_kj is representable).  InputError,
    without a RuntimeWarning, if C + C^T or C - C^T overflows.
    """
    c = check_square_finite(c, "c")
    with np.errstate(over="ignore"):
        a, b = (c + c.T) / 2.0, (c - c.T) / 2.0
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise InputError("c + c^T or c - c^T overflows: A or B would not be finite")
    return CoefficientPair(a, b)


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


def lieb_decompose(pair: CoefficientPair) -> LiebDecomposition:
    """Decompose the pair into decoupled quasiparticle modes.

    Computed from a real SVD of C = A + B: with C = U S V^T, the choices
    X = V^T (rows = right singular vectors) and Y = U^T satisfy both
    defining equations identically, including for zero singular values.
    """
    c = pair.c
    threads_for(pair.n)
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
    multiplicity.  The fields are in the order of the gap command's JSON keys.
    """

    gap: float
    ground_energy: float
    degenerate: bool
    num_zero_modes: int
    zero_tolerance: float


def zero_tolerance_for(n: int, smax: float) -> float:
    """Numerical-rank convention n * eps * smax, for n values whose largest is smax.

    Rounding is monotone, so a bound on smax from either side bounds the
    tolerance from the same side.
    """
    return n * np.finfo(float).eps * smax


def check_zero_tolerance(zero_tolerance: float | None) -> None:
    """InputError unless zero_tolerance is None or finite and non-negative."""
    if zero_tolerance is not None and not 0.0 <= zero_tolerance < np.inf:
        raise InputError(f"zero_tolerance must be finite and non-negative, got {zero_tolerance}")


def _finite_total(lam: np.ndarray) -> float:
    """sum(lam); NumericalError if it is not finite, without a RuntimeWarning."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(lam.sum())
    if not np.isfinite(total):
        raise NumericalError(f"singular values do not sum to a finite value: {total}")
    return total


def gap_and_zero_modes(lam: np.ndarray, zero_tolerance: float | None = None):
    """(gap, num_zero_modes, zero_tolerance) of singular values in any order.

    gap is twice the least value above the tolerance (0 if none); the
    tolerance defaults to n * eps * max(lam).
    """
    if zero_tolerance is None:
        zero_tolerance = zero_tolerance_for(lam.shape[0], float(lam.max(initial=0.0)))
    nonzero = lam[lam > zero_tolerance]
    num_zero = int(lam.size - nonzero.size)
    gap = 2.0 * float(nonzero.min()) if nonzero.size else 0.0
    return gap, num_zero, zero_tolerance


def gap_report_from_singular_values(lam, zero_tolerance: float | None = None) -> GapReport:
    """Build a GapReport from the singular values of A + B, in any order."""
    lam = np.asarray(lam, dtype=float)
    check_zero_tolerance(zero_tolerance)
    total = _finite_total(lam)
    gap, num_zero, zero_tolerance = gap_and_zero_modes(lam, zero_tolerance)
    return GapReport(gap=gap, ground_energy=-total, degenerate=num_zero > 0,
                     num_zero_modes=num_zero, zero_tolerance=float(zero_tolerance))


def _singular_values(c: np.ndarray) -> np.ndarray:
    """Singular values of C = A + B, descending.

    NumericalError if C has an infinite entry, the overflow of a finite
    A + B, or if the SVD fails.  C is scanned before the SVD: given an
    infinite entry, OpenBLAS's LAPACK prints a DLASCL error line to stdout
    (seen from n = 3 on) and returns NaN.
    """
    if not np.isfinite(c).all():
        raise NumericalError("A + B overflows: an entry of the sum is infinite")
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


def subset_sum_spectrum(lam) -> np.ndarray:
    """All 2^n energies {-sum(lam) + sum_{j in S} 2 lam_j}, sorted ascending.

    lam holds the n singular values of A + B, in any order.  Raises
    CapacityError for n > SPECTRUM_MODE_CAP, and NumericalError, without a
    RuntimeWarning, unless 2 sum(lam) is finite: every partial sum then is.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.size > SPECTRUM_MODE_CAP:
        raise CapacityError(f"n={lam.size} exceeds the spectrum enumeration cap "
                            f"of {SPECTRUM_MODE_CAP} modes")
    total = _finite_total(lam)
    if not np.isfinite(2.0 * total):
        raise NumericalError(f"the levels of singular values summing to {total} overflow")
    energies = np.array([-total])
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
class GapProfile:
    """Gap and zero-mode count along an interpolation grid, one entry per point.

    gap[i] and num_zero_modes[i] are those of the GapReport at s[i].  summary
    holds the profile command's summary.json keys; linear and linear_defect
    read the last grid point as s = 1, as every CLI grid ends there.  Where a
    path has a grid-free minimum (structured specs), path_minimum gives it as
    (gap, s, closes) and adds the keys path_min_gap, path_min_gap_s and closes.
    """

    s: np.ndarray
    gap: np.ndarray
    num_zero_modes: np.ndarray
    path_minimum: InitVar[tuple[float, float, bool] | None] = None
    summary: dict = field(init=False)

    def __post_init__(self, path_minimum):
        row = int(np.argmin(self.gap))
        # max |gap(s) - (2(1-s) + s gap(1))|: zero, to rounding, where the gap
        # is affine in s, as on a path to B = 0 and A positive definite
        with np.errstate(over="ignore", invalid="ignore"):    # an infinite gap gives NaN
            affine = 2.0 * (1.0 - self.s) + self.s * self.gap[-1]
            defect = float(np.max(np.abs(self.gap - affine)))
        summary = {
            "min_gap": float(self.gap[row]),
            "min_gap_s": float(self.s[row]),
            "min_gap_row": row,
            "linear": bool(defect <= 1e-10 * (1.0 + self.gap.max())),
            "linear_defect": defect,
        }
        if path_minimum is not None:
            gap, s, closes = path_minimum
            summary.update(path_min_gap=gap, path_min_gap_s=s, closes=closes)
        object.__setattr__(self, "summary", summary)


def check_s(s) -> np.ndarray:
    """s, a scalar or a nonempty grid, as a float array with entries in [0, 1]."""
    s = np.asarray(s, dtype=float)
    if s.size == 0:
        raise InputError("s_grid must be nonempty")
    outside = ~((0.0 <= s) & (s <= 1.0))
    if outside.any():
        raise InputError(f"s must lie in [0, 1], got {s[outside][0]}")
    return s


def point_gaps(gap_at, points: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """The gap and num_zero_modes arrays of gap_at(s) over the points."""
    gap = np.empty(len(points))
    num_zero_modes = np.empty(len(points), dtype=int)
    for i, s in enumerate(points):
        gap[i], num_zero_modes[i] = gap_at(s)
    return gap, num_zero_modes


def _path_singular_values(target: CoefficientPair):
    """s -> Lambda(s), the singular values of C(s) on the path from (I, 0) to target.

    C(s) is formed as interpolate and CoefficientPair.c form it, so Lambda(s)
    is bitwise interpolate(target, s).singular_values(), but no pair is built
    and validated per point.  Callers loop through _blas.forked_chunks.
    """
    a, b = target.a, target.b
    eye = np.eye(target.n)
    # an infinite C(s) is named by _singular_values
    return np.errstate(over="ignore")(
        lambda s: _singular_values(((1.0 - s) * eye + s * a) + s * b))


def gap_profile(target: CoefficientPair, s_grid,
                zero_tolerance: float | None = None) -> GapProfile:
    """Evaluate ground_gap along the interpolation to target at each grid point.

    The profile is bitwise that of ground_gap(interpolate(target, s)).  The
    points are split over _blas.loop_workers processes and joined in index
    order, so it is bitwise the same for any number of workers.
    """
    s_grid = check_s(s_grid)
    check_zero_tolerance(zero_tolerance)
    lam_at = _path_singular_values(target)

    def gap_at(s):
        lam = lam_at(s)
        _finite_total(lam)
        return gap_and_zero_modes(lam, zero_tolerance)[:2]

    points = s_grid.tolist()
    chunks = forked_chunks(lambda lo, hi: point_gaps(gap_at, points[lo:hi]),
                           len(points), target.n, "points")
    gap, num_zero_modes = map(np.concatenate, zip(*chunks))
    return GapProfile(s=s_grid.copy(), gap=gap, num_zero_modes=num_zero_modes)
