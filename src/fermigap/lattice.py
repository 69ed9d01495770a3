"""Nested-circulant coefficient matrices of any rank, with FFT spectra.

A rank-1 root vector generates a circulant matrix (a ring): row j is the
root cyclically shifted j places, M[j, k] = root[(k - j) mod n].  A rank-d
root array generates a block-circulant matrix whose blocks are the rank-(d-1)
nested circulants of its slices: rank 2 is the 2D torus (BCCB), rank 3 the
3D torus ((BC)^2CB).  One TorusSpec holds the A and B roots of any rank.
The d-dimensional DFT diagonalises every such matrix, so the eigenvalues of
G = (A+B)(A-B) are |DFT(root of A+B)|^2, which makes gaps along an
adiabatic interpolation an O(n log n) computation instead of a dense SVD.
The root is real, so sigma_{-k} = conj(sigma_k): one real FFT per spec
(rfftn) gives the modes with k_last <= p // 2, and every other mode is the
conjugate of one of them (_half_symbol).  A conjugate mode's modulus
|(1-s) + s*sigma_k| is bitwise the stored mode's, so every spectrum here
reads only the stored modes, each counted by its multiplicity.

The interpolated matrix C(s) = (1-s) I + s (A+B) is a nested circulant too,
with symbol (1-s) + s*sigma where sigma = DFT(root of A+B).  Mode k traces
the segment from 1 to sigma_k, so the exact minimum of the lowest mode over
all s in [0, 1] follows from sigma without a grid.  A gap profile takes
one real FFT per spec, and orders the stored modes by two keys only as far
as its grid reads them (a selection, then a sort of what was selected).
At each grid point the run of either key up to its bound holds every mode
that can decide the gap, so the point evaluates the shorter run that a
held head holds whole, and counts the keys over every mode only where
neither does; each gap is bit-identical to the pass over every stored
modulus (structured_gap_profile).  The dense
matrices themselves are built only for cross-checks, up to
quadform.MATRIX_SIZE_CAP sites.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .quadform import (
    CoefficientPair,
    GapProfile,
    GapReport,
    check_s,
    check_sites,
    check_zero_tolerance,
    freeze_fields,
    gap_report_from_singular_values,
    point_gaps,
    zero_tolerance_for,
)


def _reflect(root: np.ndarray) -> np.ndarray:
    """root[-m mod n] along every axis, a new array: the flip of every axis
    rolled one place along each, one copy and no index arrays.  A 0-d
    array (the plane of a ring's symbol) is its own reflection."""
    if not root.ndim:
        return root.copy()
    return np.roll(np.flip(root), 1, axis=tuple(range(root.ndim)))


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
    Each root is held read-only.  A read-only float root that owns its memory
    is taken over, not copied (see quadform.freeze_fields); any other is copied.
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
        """The singular values of A + B, |DFT(root of A + B)|, unsorted: _symbol_moduli at s = 1."""
        return _symbol_moduli(self, 1.0)


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
    check_sites(spec.n, "dense-expansion")
    return CoefficientPair(_expand_root(spec.root_a), _expand_root(spec.root_b))


def g_eigenvalues(spec: TorusSpec) -> np.ndarray:
    """Eigenvalues of G = (A+B)(A-B) as |DFT(root of A+B)|^2, unsorted."""
    return spec.singular_values() ** 2


def interpolated_c_root(spec: TorusSpec, s: float) -> np.ndarray:
    """Root array of C(s) = (1-s) I + s (A + B); I is circulant, so C(s) is."""
    check_s(s)
    root = s * (spec.root_a + spec.root_b)
    root[(0,) * root.ndim] += 1.0 - s
    return root


def _half_symbol(spec: TorusSpec) -> tuple[np.ndarray, np.ndarray]:
    """The stored half of sigma = DFT(root of A + B), and each stored mode's multiplicity.

    The root is real, so sigma_{-k} = conj(sigma_k) and one real FFT holds
    every mode: the modes with k_last <= p // 2, shape (..., p // 2 + 1).
    The planes k_last = 0 and, for even p, k_last = p / 2 are their own
    conjugate reflections; each is averaged with its reflection, so that
    its pairs are exactly conjugate, and each of its modes counts once (half
    the difference is added: halving first would round 5e-324 to 0).
    Every other stored mode also stands for its conjugate and counts twice.
    The multiplicities sum to n.  NumericalError, without a RuntimeWarning,
    if the sum of the roots or their transform overflows: finite roots of
    about 1e308 can do either.
    """
    p = spec.root_a.shape[-1]
    planes = {0, p // 2} if p % 2 == 0 else {0}
    with np.errstate(over="ignore", invalid="ignore"):
        half = np.fft.rfftn(spec.root_a + spec.root_b)
        for k in planes:
            plane = half[..., k]
            plane += 0.5 * (np.conj(_reflect(plane)) - plane)
    weight = np.full(half.shape, 2, dtype=np.int8)
    weight[..., list(planes)] = 1
    if not np.isfinite(half).all():
        raise NumericalError("the DFT of the root of A + B is not finite (overflow)")
    return half, weight


def _moduli(symbol: np.ndarray, s: float, modes=slice(None)) -> np.ndarray:
    """|(1-s) + s*sigma_k| for the given modes (default all), unsorted; symbol is not written."""
    out = np.multiply(symbol[modes], s)
    out += 1.0 - s
    return np.abs(out)


def _symbol_moduli(spec: TorusSpec, s: float) -> np.ndarray:
    """The n moduli |(1-s) + s*sigma_k| of C(s), unsorted: each stored mode's
    modulus, repeated by its multiplicity.  NumericalError as for _half_symbol."""
    half, weight = _half_symbol(spec)
    return np.repeat(_moduli(half.ravel(), s), weight.ravel())


def structured_gap_report(spec: TorusSpec, s: float,
                          zero_tolerance: float | None = None) -> GapReport:
    """GapReport at interpolation parameter s via the FFT path."""
    check_s(s)
    return gap_report_from_singular_values(_symbol_moduli(spec, s), zero_tolerance)


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
        norm2 = np.square(step.real)
        dist = np.square(step.imag)
        norm2 += dist
    if not np.isfinite(norm2).all():
        raise NumericalError("the DFT of the root of A + B is too large: "
                             "|sigma_k - 1|^2 overflows")
    # a mode with sigma_k == 1 stays at 1 for every s; take s = 0 for it.
    # In place, to keep few n-sized temporaries: norm2's buffer becomes
    # r_k's, step's the point of each segment nearest 0, and dist is written
    # over the square it held.
    s = np.negative(step.real)
    np.divide(s, norm2, out=s, where=norm2 > 0.0)
    np.clip(s, 0.0, 1.0, out=s)
    radius = np.abs(step, out=norm2)
    point = np.multiply(s, step, out=step)
    point += 1.0
    return radius, s, np.abs(point, out=dist)


def _path_minimum(s: np.ndarray, dist: np.ndarray, modulus_max: float, n: int) -> tuple:
    """Exact minimum over s in [0, 1] of twice the least singular value of C(s): (gap, s, closes).

    The least modulus over the path is the least segment distance d_k (see
    _segments) over the stored modes, since a conjugate mode's segment is the
    mirror image.  The path closes when that distance is within
    n * eps * max(1, max|sigma|) of zero.  A closing path reports the least
    s at which a mode comes that close, so that rounding does not choose
    between crossings.
    """
    floor = zero_tolerance_for(n, max(1.0, modulus_max))
    k = int(np.argmin(dist))
    closes = bool(dist[k] <= floor)
    if closes:
        crossings = np.flatnonzero(dist <= floor)
        k = int(crossings[np.argmin(s[crossings])])
    # "+ 0.0" turns a -0.0 from the clip into 0.0
    return 2.0 * float(dist[k]), float(s[k]) + 0.0, closes


# Rounding slack of the candidate bounds, in units of eps * (1 + max|sigma|).
# A computed modulus, segment distance or radius is within a few such units
# of its exact value (the clipped s_k of a segment distance is off by a few
# ulps, which moves |1 + s_k (sigma_k - 1)| by at most that times |sigma_k - 1|).
_SLACK_UNITS = 32
# Largest share of the stored modes a point's pruned route gathers, below
# the crossover with the full pass inside structured_gap_profile's own point
# loop.  A 2^20-site torus (the benchmark's dims, seed 0, couplings halved,
# on-site term -3; 532,480 stored modes) gathers 20-60% of them at
# s = 0.81-0.91.  ms per point over 61 consecutive points (medians of 9
# loops, 2-core x86-64 VM, 300 MiB L3), every point through each route:
#
#     share       0.30   0.35   0.40   0.45   0.50   0.55   0.60
#     gather      2.2    2.5    2.8    3.1    3.5    3.6    4.0
#     full pass   3.6    3.6    3.7    3.6    3.7    3.6    3.5
#
# With the symbol pushed out of cache before each call instead, the gather
# of 40-50% took 4.7-6.0 ms against 4.7 ms for the full pass; inside the
# loop the symbol stays in cache.
_GATHER_MAX_SHARE = 0.5
# Modes from the head of each key's order evaluated at every point, with
# the mode of largest |sigma| and the previous point's least mode, to bound
# the least modulus from above; also the size of each first selection.
_SEED_HEAD = 4


class _Least:
    """The modes of the least values of key, in ascending order, and those values.

    Only a head of the order is held: argpartition selects it and a sort of
    the head orders it, so a grid that reads a small share of the modes
    pays for no full sort.  A head holds no more than most + 1 values.
    .over is the least threshold known to pass more than most modes (inf
    at first), so that a count at or above it needs no pass over the key.
    """

    def __init__(self, key: np.ndarray, size: int, most: int):
        self.key = key
        self.most = most
        self.over = np.inf
        self._select(min(size, most + 1))

    def _select(self, size: int):
        head = np.argpartition(self.key, size - 1)[:size]
        self.modes = head[np.argsort(self.key[head])]
        self.values = self.key[self.modes]

    def run(self, t: float):
        """The modes of the values at most t, in ascending order, where the
        head holds them whole (a value above t is held); else None."""
        k = int(np.searchsorted(self.values, t, side="right"))
        return self.modes[:k] if k < self.values.size else None

    def count(self, t: float) -> int:
        """The number of values at most t over every mode, or most + 1 where it is more."""
        if t >= self.over:
            return self.most + 1
        k = int(np.count_nonzero(self.key <= t))
        if k > self.most:
            self.over = t
        return min(k, self.most + 1)

    def hold(self, k: int):
        """Hold the least 2k + 1 values, but no more than most + 1: a run of
        k <= most modes is then held whole."""
        self._select(min(2 * k + 1, self.most + 1))


class _CandidateGaps:
    """(gap, num_zero_modes) of C(s) from the few modes that can decide them.

    Only the modes _half_symbol stores are read, as by _symbol_moduli: the
    least modulus and the largest are theirs, and a zero count sums their
    multiplicities (a conjugate mode's modulus is bitwise its stored mode's).
    Mode k's modulus at s is at least max(d_k, 1 - s r_k): d_k is the
    distance from 0 to its segment and r_k = |sigma_k - 1| (the triangle
    inequality).  At each point the seed modes give an upper bound B on the
    least modulus above the zero tolerance, rounding slack included; a mode
    whose lower bound exceeds B is neither that least mode nor a zero mode.
    So each of two runs holds every mode that can decide the point: the
    head of the ascending order of d_k up to B, and the head of the
    descending order of r_k down to (1 - B) / s.  Each order is held only
    as far as the grid reads it (_Least), from _SEED_HEAD modes on.  A point
    evaluates the shorter of the runs its heads hold whole (d_k on a tie),
    with the full pass's arithmetic, so each value is bit-for-bit the full
    pass's.  Only where neither head holds its run are both keys counted
    over every mode; the shorter run is then read, and its key's head is
    re-selected to hold twice that run, but no more than one past
    _GATHER_MAX_SHARE of the stored modes.  The default tolerance
    n eps max_k lam_k is bracketed below by the largest value evaluated and
    above by (1 - s) + s max|sigma| plus slack.  A point whose candidates
    include a value inside that bracket, or whose runs both hold more than
    _GATHER_MAX_SHARE of the stored modes (s = 0 holds all), takes the full
    pass over the stored modes.  The grid-free minimum over the path is
    .minimum.
    """

    def __init__(self, spec: TorusSpec, zero_tolerance: float | None):
        half, weight = _half_symbol(spec)
        self.symbol = symbol = half.ravel()
        self.weight = weight.ravel()
        self.n = spec.n
        self.zero_tolerance = zero_tolerance
        modulus = np.abs(symbol)
        widest = int(np.argmax(modulus))
        self.modulus_max = float(modulus[widest])
        del modulus     # before _segments, which can take its memory
        radius, s, dist = _segments(symbol)
        self.minimum = _path_minimum(s, dist, self.modulus_max, self.n)
        del s
        # a Python float, so the bounds below overflow to inf without a warning
        self.slack = float(_SLACK_UNITS * np.finfo(float).eps * (1.0 + self.modulus_max))
        self.most = int(_GATHER_MAX_SHARE * symbol.size)
        self.by_dist = _Least(dist, _SEED_HEAD, self.most)
        # the largest radii are the least of their negatives
        self.by_radius = _Least(np.negative(radius, out=radius), _SEED_HEAD, self.most)
        # sorted without duplicates; np.unique would import numpy.ma
        self.seeds = np.array(sorted({*self.by_dist.modes[:_SEED_HEAD].tolist(),
                                      *self.by_radius.modes[:_SEED_HEAD].tolist(), widest}))
        self.previous = self.seeds[:1]

    def _candidates(self, bound: float, reach: float):
        """The modes with d_k <= bound or those with -r_k <= reach: the
        shorter of the runs the heads hold whole (d_k on a tie), else the
        shorter run counted over every mode, or None where both hold more
        than _GATHER_MAX_SHARE of the stored modes."""
        held = [run for run in (self.by_dist.run(bound), self.by_radius.run(reach))
                if run is not None]
        if held:
            return min(held, key=len)
        count, size = self.by_dist.count(bound), self.by_radius.count(reach)
        least, k = (self.by_dist, count) if count <= size else (self.by_radius, size)
        if k > self.most:
            return None
        least.hold(k)
        return least.modes[:k]

    def __call__(self, s: float) -> tuple[float, int]:
        tol_hi = tol_lo = self.zero_tolerance
        if tol_hi is None:
            tol_hi = zero_tolerance_for(self.n, (1.0 - s) + s * self.modulus_max + self.slack)
        seen = _moduli(self.symbol, s, np.concatenate([self.seeds, self.previous]))
        above = seen[seen > tol_hi]
        if above.size:
            bound = float(above.min()) + self.slack
            # 1 - s r_k <= bound; bound holds the rounding slack of both
            # keys, and at s = 0 the radius key bounds nothing
            reach = (bound - 1.0) / s if s > 0.0 else np.inf
            modes = self._candidates(bound, reach)
            if modes is not None:
                lam = _moduli(self.symbol, s, modes)
                if tol_lo is None:
                    tol_lo = zero_tolerance_for(
                        self.n, max(float(lam.max(initial=0.0)), float(seen.max())))
                nonzero = lam > tol_hi
                zero = lam <= tol_lo
                num_zero = int(np.count_nonzero(zero))
                if nonzero.any() and num_zero + int(np.count_nonzero(nonzero)) == lam.size:
                    k = int(np.argmin(np.where(nonzero, lam, np.inf)))
                    self.previous = modes[k:k + 1]
                    return 2.0 * float(lam[k]), int(self.weight[modes[zero]].sum())
        return self._full_pass(s)

    def _full_pass(self, s: float) -> tuple[float, int]:
        lam = _moduli(self.symbol, s)
        tol = self.zero_tolerance
        if tol is None:
            tol = zero_tolerance_for(self.n, float(lam.max()))
        nonzero = lam > tol
        gap = 2.0 * float(lam[nonzero].min()) if nonzero.any() else 0.0
        return gap, int(self.weight[~nonzero].sum())


def structured_gap_profile(spec: TorusSpec, s_grid,
                           zero_tolerance: float | None = None) -> GapProfile:
    """Gap along the adiabatic interpolation from a single real FFT of the spec.

    The stored half of sigma (_half_symbol) is computed once, with the
    segment of each mode and the grid-free minimum over the path.  Each
    grid point then evaluates |(1-s) + s*sigma_k| only for the stored modes
    that can hold its gap or a zero mode (_CandidateGaps), usually a small
    fraction of n, and falls back to the pass over every stored mode where
    that cannot be decided.  Every grid gap and zero-mode count equals
    structured_gap_report(spec, s)'s, the pass over all n moduli, exactly.
    NumericalError, before the grid loop, when sigma is not finite or
    |sigma_k - 1|^2 overflows.
    """
    s_grid = check_s(s_grid)
    check_zero_tolerance(zero_tolerance)
    gaps = _CandidateGaps(spec, zero_tolerance)
    gap, num_zero_modes = point_gaps(gaps, s_grid.tolist())
    return GapProfile(s=s_grid.copy(), gap=gap, num_zero_modes=num_zero_modes,
                      path_minimum=gaps.minimum)
