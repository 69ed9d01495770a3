"""Nested-circulant coefficient matrices of any rank, with FFT spectra.

A rank-1 root vector generates a circulant matrix (a ring): row j is the
root cyclically shifted j places, M[j, k] = root[(k - j) mod n].  A rank-d
root array generates a block-circulant matrix whose blocks are the rank-(d-1)
nested circulants of its slices: rank 2 is the 2D torus (BCCB), rank 3 the
3D torus ((BC)^2CB).  One TorusSpec holds the A and B roots of any rank.
The d-dimensional DFT diagonalises every such matrix, so the eigenvalues of
G = (A+B)(A-B) are |DFT(root of A+B)|^2, which makes gaps along an
adiabatic interpolation an O(n log n) computation instead of a dense SVD.

The interpolated matrix C(s) = (1-s) I + s (A+B) is a nested circulant too,
with symbol (1-s) + s*sigma where sigma = DFT(root of A+B).  Mode k traces
the segment from 1 to sigma_k, so the exact minimum of the lowest mode over
all s in [0, 1] follows from sigma without a grid.  A gap profile takes one
FFT and two sorts of the modes per spec; each grid point then evaluates only
the few modes that can hold its gap, bit-identical to the O(n) pass over
all of them (structured_gap_profile).  The dense matrices themselves are
built only for cross-checks, up to quadform.MATRIX_SIZE_CAP sites.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .quadform import (
    CoefficientPair,
    GapProfile,
    GapReport,
    PathMinimum,
    check_matrix_size,
    check_s,
    check_zero_tolerance,
    freeze_fields,
    gap_and_zero_modes,
    gap_report_from_singular_values,
    point_gaps,
    zero_tolerance_for,
)


def _reflect(root: np.ndarray) -> np.ndarray:
    """root[-m mod n] along every axis."""
    return root[np.ix_(*(-np.arange(m) % m for m in root.shape))]


def _check_roots(a_root: np.ndarray, b_root: np.ndarray):
    if not np.array_equal(_reflect(a_root), a_root):
        raise InputError("a root is not reflection-symmetric (A would not be symmetric)")
    if not np.array_equal(_reflect(b_root), -b_root):
        raise InputError("b root is not reflection-antisymmetric (B would not be anti-symmetric)")


@dataclass(frozen=True)
class TorusSpec:
    """Nested-circulant A and B generated by two roots of equal shape.

    The root rank is the lattice rank: shape (p,) is a ring of p sites,
    (q, p) a q x p torus, (r, q, p) an r x q x p torus.  Roots are stored
    slowest axis first; dims lists the axis lengths fastest first, (p, q, r).
    """

    root_a: np.ndarray
    root_b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.root_a, dtype=float)
        b = np.asarray(self.root_b, dtype=float)
        if a.shape != b.shape or a.ndim < 1:
            raise InputError(f"roots must be arrays of equal shape and rank >= 1, "
                             f"got shapes {a.shape} and {b.shape}")
        for name, root in (("a", a), ("b", b)):
            if not np.isfinite(root).all():
                raise InputError(f"{name} root contains non-finite entries")
        _check_roots(a, b)
        freeze_fields(self, root_a=a, root_b=b)

    @property
    def n(self) -> int:
        return self.root_a.size

    @property
    def dims(self) -> tuple[int, ...]:
        return self.root_a.shape[::-1]

    def singular_values(self) -> np.ndarray:
        """The singular values of A + B, |DFT(root of A + B)|, flattened and unsorted."""
        return np.abs(c_symbol(self))


def build_xy_cycle(n: int) -> TorusSpec:
    """Nearest-neighbour XY ring: +-1/2 couplings with periodic corners."""
    if n < 3:
        raise InputError(f"XY cycle needs n >= 3, got {n}")
    a = np.zeros(n)
    b = np.zeros(n)
    a[1] = a[-1] = 0.5
    b[1], b[-1] = 0.5, -0.5
    return TorusSpec(a, b)


def stack(layer: TorusSpec, count: int) -> TorusSpec:
    """A ring of `count` >= 3 copies of `layer`, coupled by identity blocks.

    The result has one rank more than the layer: a ring of rings is a 2D
    torus, a ring of 2D tori a 3D torus.  The A part couples neighbouring
    layers with +I on both block off-diagonals; the B part uses +I above and
    -I below.
    """
    if count < 3:
        raise InputError(f"a stack needs count >= 3 layers, got {count}")
    root_a = np.zeros((count, *layer.root_a.shape))
    root_b = np.zeros_like(root_a)
    root_a[0] = layer.root_a
    root_b[0] = layer.root_b
    origin = (0,) * layer.root_a.ndim
    root_a[(1, *origin)] = root_a[(-1, *origin)] = 1.0
    root_b[(1, *origin)], root_b[(-1, *origin)] = 1.0, -1.0
    return TorusSpec(root_a, root_b)


def _expand_root(root: np.ndarray) -> np.ndarray:
    """Dense matrix of the nested circulant generated by `root`.

    Entry ((j_1..j_d), (k_1..k_d)) is root[(k_t - j_t) mod m_t for each axis
    t], rows and columns in the root's C order: one gather for any rank.
    """
    rank = root.ndim
    index = []
    for t, m in enumerate(root.shape):
        shape = [1] * (2 * rank)
        shape[t] = shape[rank + t] = m
        index.append(((np.arange(m) - np.arange(m)[:, None]) % m).reshape(shape))
    return root[tuple(index)].reshape(root.size, root.size)


def expand(spec: TorusSpec) -> CoefficientPair:
    """Dense CoefficientPair of a structured spec, for oracle cross-checks.

    Above quadform.MATRIX_SIZE_CAP sites this raises CapacityError before
    allocating.
    """
    check_matrix_size(spec.n, "dense-expansion")
    return CoefficientPair(_expand_root(spec.root_a), _expand_root(spec.root_b))


def g_eigenvalues(spec: TorusSpec) -> np.ndarray:
    """Eigenvalues of G = (A+B)(A-B) as |DFT(root of A+B)|^2, flattened."""
    return spec.singular_values() ** 2


def interpolated_c_root(spec: TorusSpec, s: float) -> np.ndarray:
    """Root array of C(s) = (1-s) I + s (A + B); I is circulant, so C(s) is."""
    check_s(s)
    root = s * (spec.root_a + spec.root_b)
    root[(0,) * root.ndim] += 1.0 - s
    return root


def c_symbol(spec: TorusSpec) -> np.ndarray:
    """sigma = DFT(root of A + B), flattened; C(s) has symbol (1-s) + s*sigma.

    NumericalError, without a RuntimeWarning, if the sum of the roots or
    their transform overflows: finite roots of about 1e308 can do either.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        symbol = np.fft.fftn(spec.root_a + spec.root_b).ravel()
    if not np.isfinite(symbol).all():
        raise NumericalError("the DFT of the root of A + B is not finite (overflow)")
    return symbol


def _moduli(symbol: np.ndarray, s: float, modes=slice(None)) -> np.ndarray:
    """|(1-s) + s*sigma_k| for the given modes (default all), unsorted; symbol is not written."""
    out = np.multiply(symbol[modes], s)
    out += 1.0 - s
    return np.abs(out)


def structured_gap_report(spec: TorusSpec, s: float,
                          zero_tolerance: float | None = None) -> GapReport:
    """GapReport at interpolation parameter s via the FFT path."""
    check_s(s)
    return gap_report_from_singular_values(_moduli(c_symbol(spec), s), zero_tolerance)


def _segments(symbol: np.ndarray):
    """Per mode: r_k = |sigma_k - 1|, and where and how near 0 its segment passes.

    Mode k of C(s) is 1 + s (sigma_k - 1), a segment from 1 to sigma_k, so
    its least modulus d_k is the distance from 0 to that segment, reached at
    s = clip(-Re(sigma_k - 1) / |sigma_k - 1|^2, 0, 1).  NumericalError when
    |sigma_k - 1|^2 overflows (|sigma_k| above about 1e154), since neither
    would then be known.
    """
    step = symbol - 1.0
    with np.errstate(over="ignore"):
        norm2 = step.real ** 2
        norm2 += step.imag ** 2
    if not np.isfinite(norm2).all():
        raise NumericalError("the DFT of the root of A + B is too large: "
                             "|sigma_k - 1|^2 overflows")
    # a mode with sigma_k == 1 stays at 1 for every s; take s = 0 for it.
    # In place where the arithmetic allows, to keep few n-sized temporaries.
    s = np.negative(step.real)
    s /= np.where(norm2 > 0.0, norm2, 1.0)
    del norm2
    np.clip(s, 0.0, 1.0, out=s)
    point = s * step
    point += 1.0
    dist = np.abs(point)
    del point
    return np.abs(step), s, dist


def _path_minimum(s: np.ndarray, dist: np.ndarray, modulus_max: float) -> PathMinimum:
    """Exact minimum over s in [0, 1] of twice the least singular value of C(s).

    The least modulus over the path is the least segment distance d_k (see
    _segments).  The path closes when that distance is within
    n * eps * max(1, max|sigma|) of zero.
    """
    k = int(np.argmin(dist))
    floor = zero_tolerance_for(dist.size, max(1.0, modulus_max))
    # "+ 0.0" turns a -0.0 from the clip into 0.0
    return PathMinimum(gap=2.0 * float(dist[k]), s=float(s[k]) + 0.0,
                       closes=bool(dist[k] <= floor))


# Rounding slack of the candidate bounds, in units of eps * (1 + max|sigma|).
# A computed modulus, segment distance or radius is within a few such units
# of its exact value (the clipped s_k of a segment distance is off by a few
# ulps, which moves |1 + s_k (sigma_k - 1)| by at most that times |sigma_k - 1|).
_SLACK_UNITS = 32
# Modes from the head of each sorted key evaluated at every point, with the
# mode of largest |sigma| and the previous point's least mode, to bound the
# least modulus from above.
_SEED_HEAD = 4


class _CandidateGaps:
    """(gap, num_zero_modes) of C(s) from the few modes that can decide them.

    Mode k's modulus at s is at least max(d_k, 1 - s r_k): d_k is the
    distance from 0 to its segment and r_k = |sigma_k - 1| (the triangle
    inequality).  The modes are sorted by each key once.  At each point the
    seed modes give an upper bound B on the least modulus above the zero
    tolerance; a mode whose lower bound exceeds B plus rounding slack is
    neither that least mode nor a zero mode.  Only the shorter of the two
    sorted runs that pass the bound is evaluated, with the full pass's
    arithmetic, so each value is bit-for-bit the full pass's.  The default
    tolerance n eps max_k lam_k is bracketed below by the largest value
    evaluated and above by (1 - s) + s max|sigma| plus slack.  A point whose
    candidates include a value inside that bracket, or where pruning would
    keep more than half the modes (s = 0 keeps all), takes the full O(n)
    pass.  The grid-free minimum over the path is .minimum.
    """

    def __init__(self, symbol: np.ndarray, zero_tolerance: float | None):
        n = symbol.size
        self.symbol = symbol
        self.zero_tolerance = zero_tolerance
        radius, s, dist = _segments(symbol)
        modulus = np.abs(symbol)
        widest = int(np.argmax(modulus))
        self.modulus_max = float(modulus[widest])
        del modulus
        self.minimum = _path_minimum(s, dist, self.modulus_max)
        del s
        index = np.int32 if n <= np.iinfo(np.int32).max else np.intp
        # a Python float, so the bounds below overflow to inf without a warning
        self.slack = float(_SLACK_UNITS * np.finfo(float).eps * (1.0 + self.modulus_max))
        self.by_dist = np.argsort(dist).astype(index)
        self.dist = dist[self.by_dist]
        self.by_radius = np.argsort(radius).astype(index)
        self.radius = radius[self.by_radius]
        self.seeds = np.unique(np.concatenate(
            [self.by_dist[:_SEED_HEAD], self.by_radius[-_SEED_HEAD:], [widest]])).astype(index)
        self.previous = self.seeds[:1]

    def __call__(self, s: float) -> tuple[float, int]:
        n = self.symbol.size
        tol_hi = tol_lo = self.zero_tolerance
        if tol_hi is None:
            tol_hi = zero_tolerance_for(n, (1.0 - s) + s * self.modulus_max + self.slack)
        seen = _moduli(self.symbol, s, np.concatenate([self.seeds, self.previous]))
        above = seen[seen > tol_hi]
        if above.size:
            bound = float(above.min()) + self.slack
            count = int(np.searchsorted(self.dist, bound, side="right"))
            # at s = 0 the radius key bounds nothing
            first = (int(np.searchsorted(self.radius, (1.0 - bound - self.slack) / s))
                     if s > 0.0 else 0)
            modes = self.by_dist[:count] if count <= n - first else self.by_radius[first:]
            # gathering half of 2^20 modes took 12.7 ms, the full pass 13.5 ms
            if 2 * modes.size <= n:
                lam = _moduli(self.symbol, s, modes)
                if tol_lo is None:
                    tol_lo = zero_tolerance_for(
                        n, max(float(lam.max(initial=0.0)), float(seen.max())))
                nonzero = lam > tol_hi
                num_zero = int(np.count_nonzero(lam <= tol_lo))
                if nonzero.any() and num_zero + int(np.count_nonzero(nonzero)) == lam.size:
                    k = int(np.argmin(np.where(nonzero, lam, np.inf)))
                    self.previous = modes[k:k + 1]
                    return 2.0 * float(lam[k]), num_zero
        return self._full_pass(s)

    def _full_pass(self, s: float) -> tuple[float, int]:
        return gap_and_zero_modes(_moduli(self.symbol, s), self.zero_tolerance)[:2]


def structured_gap_profile(spec: TorusSpec, s_grid,
                           zero_tolerance: float | None = None) -> GapProfile:
    """Gap along the adiabatic interpolation from a single FFT of the spec.

    sigma = c_symbol(spec) is computed once, with the segment of each mode
    and the grid-free minimum over the path.  Each grid point then evaluates
    |(1-s) + s*sigma_k| only for the modes that can hold its gap or a zero
    mode (_CandidateGaps), usually a small fraction of n, and falls back to
    the O(n) pass over every mode where that cannot be decided.  Every grid gap
    and zero-mode count equals structured_gap_report(spec, s)'s exactly.
    NumericalError, before the grid loop, when sigma is not finite or
    |sigma_k - 1|^2 overflows.
    """
    s_grid = check_s(s_grid)
    check_zero_tolerance(zero_tolerance)
    gaps = _CandidateGaps(c_symbol(spec), zero_tolerance)
    gap, num_zero_modes = point_gaps(gaps, s_grid.tolist())
    return GapProfile(s=s_grid.copy(), gap=gap, num_zero_modes=num_zero_modes,
                      path_minimum=gaps.minimum)
