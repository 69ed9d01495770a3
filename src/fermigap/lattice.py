"""Circulant, BCCB and (BC)^2CB coefficient matrices with FFT spectra.

A circulant matrix is generated by a single root vector: row j is the root
cyclically shifted j places, M[j, k] = root[(k - j) mod n].  Block-circulant
matrices with circulant blocks (2D torus) and the doubly nested 3D variant
are generated the same way by 2D/3D root arrays.  The eigenvalues of
G = (A+B)(A-B) are then |DFT(root of A+B)|^2, which makes gaps along an
adiabatic interpolation an O(n log n) computation instead of a dense SVD.

The interpolated matrix C(s) = (1-s) I + s (A+B) is circulant too, with
symbol (1-s) + s*sigma where sigma = DFT(root of A+B).  A gap profile
therefore takes one FFT per spec and O(n) work per grid point, and the
exact minimum of the lowest mode over all s in [0, 1] follows from sigma
without a grid: mode k traces the segment from 1 to sigma_k.
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
    gap_report_from_singular_values,
)

# |DFT|^2 values are mathematically >= 0; anything below this is treated as
# a numerical-noise floor, anything more negative as an error.
NEGATIVE_CLAMP = -1e-12


def _reflect(root: np.ndarray) -> np.ndarray:
    """root[-m mod n] along every axis."""
    out = root
    for axis in range(root.ndim):
        out = np.roll(np.flip(out, axis=axis), 1, axis=axis)
    return out


def _check_roots(a_root: np.ndarray, b_root: np.ndarray):
    if not np.array_equal(_reflect(a_root), a_root):
        raise InputError("a root is not reflection-symmetric (A would not be symmetric)")
    if not np.array_equal(_reflect(b_root), -b_root):
        raise InputError("b root is not reflection-antisymmetric (B would not be anti-symmetric)")


@dataclass(frozen=True)
class CirculantSpec:
    """1D ring: circulant A and B generated by their first rows."""

    a_col: np.ndarray
    b_col: np.ndarray

    def __post_init__(self):
        a = np.array(self.a_col, dtype=float, ndmin=1)
        b = np.array(self.b_col, dtype=float, ndmin=1)
        if a.shape != b.shape or a.ndim != 1:
            raise InputError("a_col and b_col must be 1D arrays of equal length")
        _check_roots(a, b)
        a.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "a_col", a)
        object.__setattr__(self, "b_col", b)

    @property
    def n(self) -> int:
        return self.a_col.shape[0]

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.n,)


@dataclass(frozen=True)
class BccbSpec:
    """2D torus: block circulant with circulant blocks, root shape (q, p)."""

    root_a: np.ndarray
    root_b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.root_a, dtype=float)
        b = np.asarray(self.root_b, dtype=float)
        if a.shape != b.shape or a.ndim != 2:
            raise InputError("roots must be 2D arrays of equal shape (q, p)")
        _check_roots(a, b)
        a = a.copy()
        b = b.copy()
        a.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "root_a", a)
        object.__setattr__(self, "root_b", b)

    @property
    def q(self) -> int:
        return self.root_a.shape[0]

    @property
    def p(self) -> int:
        return self.root_a.shape[1]

    @property
    def n(self) -> int:
        return self.p * self.q

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.p, self.q)


@dataclass(frozen=True)
class Bc2cbSpec:
    """3D torus: block circulant with BCCB blocks, root shape (r, q, p)."""

    root_a: np.ndarray
    root_b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.root_a, dtype=float)
        b = np.asarray(self.root_b, dtype=float)
        if a.shape != b.shape or a.ndim != 3:
            raise InputError("roots must be 3D arrays of equal shape (r, q, p)")
        _check_roots(a, b)
        a = a.copy()
        b = b.copy()
        a.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "root_a", a)
        object.__setattr__(self, "root_b", b)

    @property
    def n(self) -> int:
        return int(np.prod(self.root_a.shape))

    @property
    def dims(self) -> tuple[int, ...]:
        r, q, p = self.root_a.shape
        return (p, q, r)


StructuredSpec = CirculantSpec | BccbSpec | Bc2cbSpec


def build_xy_cycle(n: int) -> CirculantSpec:
    """Nearest-neighbour XY ring: +-1/2 couplings with periodic corners."""
    if n < 3:
        raise InputError(f"XY cycle needs n >= 3, got {n}")
    a = np.zeros(n)
    b = np.zeros(n)
    a[1] = a[-1] = 0.5
    b[1], b[-1] = 0.5, -0.5
    return CirculantSpec(a, b)


def build_torus_2d(p: int, q: int, site: CirculantSpec, coupling: float = 1.0) -> BccbSpec:
    """2D torus: rows of q sites from `site`, identity inter-row couplings.

    The A part couples neighbouring rows with +coupling*I on both block
    off-diagonals; the B part uses +coupling*I above and -coupling*I below.
    """
    if p < 3 or q < 3:
        raise InputError(f"torus needs p, q >= 3, got p={p}, q={q}")
    if site.n != p:
        raise InputError(f"site spec has n={site.n}, expected p={p}")
    root_a = np.zeros((q, p))
    root_b = np.zeros((q, p))
    root_a[0] = site.a_col
    root_b[0] = site.b_col
    root_a[1, 0] = root_a[-1, 0] = coupling
    root_b[1, 0], root_b[-1, 0] = coupling, -coupling
    return BccbSpec(root_a, root_b)


def build_torus_3d(p: int, q: int, r: int, plane: BccbSpec, coupling: float = 1.0) -> Bc2cbSpec:
    """3D torus: stack of r planes from `plane`, identity inter-plane couplings."""
    if r < 3:
        raise InputError(f"torus needs r >= 3, got r={r}")
    if plane.p != p or plane.q != q:
        raise InputError(f"plane spec is {plane.q}x{plane.p} blocks, expected q={q}, p={p}")
    root_a = np.zeros((r, q, p))
    root_b = np.zeros((r, q, p))
    root_a[0] = plane.root_a
    root_b[0] = plane.root_b
    root_a[1, 0, 0] = root_a[-1, 0, 0] = coupling
    root_b[1, 0, 0], root_b[-1, 0, 0] = coupling, -coupling
    return Bc2cbSpec(root_a, root_b)


def _expand_root(root: np.ndarray) -> np.ndarray:
    """Dense matrix of the nested circulant generated by `root`."""
    if root.ndim == 1:
        n = root.shape[0]
        idx = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
        return root[idx]
    head = root.shape[0]
    blocks = [_expand_root(root[m]) for m in range(head)]
    size = blocks[0].shape[0]
    out = np.zeros((head * size, head * size))
    for i in range(head):
        for j in range(head):
            out[i * size:(i + 1) * size, j * size:(j + 1) * size] = blocks[(j - i) % head]
    return out


# Uniform access to the nD root arrays regardless of spec flavour.
def _root_a(spec: StructuredSpec) -> np.ndarray:
    return spec.a_col if isinstance(spec, CirculantSpec) else spec.root_a


def _root_b(spec: StructuredSpec) -> np.ndarray:
    return spec.b_col if isinstance(spec, CirculantSpec) else spec.root_b


def expand(spec: StructuredSpec) -> CoefficientPair:
    """Dense CoefficientPair of a structured spec, for oracle cross-checks."""
    return CoefficientPair(_expand_root(_root_a(spec)), _expand_root(_root_b(spec)))


def _clamp_squared(vals: np.ndarray) -> np.ndarray:
    if vals.min(initial=0.0) < NEGATIVE_CLAMP:
        raise NumericalError(
            f"squared eigenvalue below clamp: {vals.min()} < {NEGATIVE_CLAMP}"
        )
    return np.maximum(vals, 0.0)


def g_eigenvalues_from_roots(root_a: np.ndarray, root_b: np.ndarray) -> np.ndarray:
    """Eigenvalues of G = (A+B)(A-B) as |DFT(root of A+B)|^2, flattened."""
    symbol = np.fft.fftn(root_a + root_b)
    return np.abs(symbol).ravel() ** 2


def circulant_g_eigenvalues(spec: CirculantSpec) -> np.ndarray:
    """Eigenvalues Lambda_k^2 of G for a circulant spec (order k = 0..n-1)."""
    return _clamp_squared(g_eigenvalues_from_roots(spec.a_col, spec.b_col))


def bccb_g_eigenvalues(spec: BccbSpec) -> np.ndarray:
    """Eigenvalues of G for a BCCB spec via the 2D DFT of the root array."""
    return _clamp_squared(g_eigenvalues_from_roots(spec.root_a, spec.root_b))


def bc2cb_g_eigenvalues(spec: Bc2cbSpec) -> np.ndarray:
    """Eigenvalues of G for a (BC)^2CB spec via the 3D DFT of the root array."""
    return _clamp_squared(g_eigenvalues_from_roots(spec.root_a, spec.root_b))


def g_eigenvalues(spec: StructuredSpec) -> np.ndarray:
    return _clamp_squared(g_eigenvalues_from_roots(_root_a(spec), _root_b(spec)))


def g_first_row(spec: CirculantSpec) -> np.ndarray:
    """First row of G computed in the time domain (circular autocorrelation).

    Independent route for cross-checking circulant_g_eigenvalues: the DFT of
    this row reproduces the |symbol|^2 eigenvalues.  O(n^2); test-scale only.
    """
    c = spec.a_col + spec.b_col
    n = c.shape[0]
    # G[0, l] = sum_k C[0, k] C[l, k] = sum_k c[k] c[(k - l) mod n]
    return np.array([np.dot(c, np.roll(c, l)) for l in range(n)])


def g_eigenvalues_via_g_row(spec: CirculantSpec) -> np.ndarray:
    """Alternate eigenvalue route: DFT of G's first row."""
    vals = np.fft.fft(g_first_row(spec))
    return _clamp_squared(vals.real)


def _check_s(s) -> None:
    s = np.atleast_1d(s)
    outside = ~((0.0 <= s) & (s <= 1.0))
    if outside.any():
        raise InputError(f"s must lie in [0, 1], got {s[outside][0]}")


def interpolated_c_root(spec: StructuredSpec, s: float) -> np.ndarray:
    """Root array of C(s) = (1-s) I + s (A + B); I is circulant, so C(s) is."""
    _check_s(s)
    root = s * (_root_a(spec) + _root_b(spec))
    root[(0,) * root.ndim] += 1.0 - s
    return root


def c_symbol(spec: StructuredSpec) -> np.ndarray:
    """sigma = DFT(root of A + B), flattened; C(s) has symbol (1-s) + s*sigma."""
    return np.fft.fftn(_root_a(spec) + _root_b(spec)).ravel()


def _singular_values_at(symbol: np.ndarray, s: float, work: np.ndarray,
                        out: np.ndarray) -> np.ndarray:
    """|(1-s) + s*sigma| into `out`, unsorted; `work` is complex scratch."""
    np.multiply(symbol, s, out=work)
    work += 1.0 - s
    return np.abs(work, out=out)


def structured_gap_report(spec: StructuredSpec, s: float,
                          zero_tolerance: float | None = None) -> GapReport:
    """GapReport at interpolation parameter s via the FFT path."""
    _check_s(s)
    symbol = c_symbol(spec)
    lam = _singular_values_at(symbol, s, np.empty_like(symbol), np.empty(symbol.shape))
    return gap_report_from_singular_values(lam, zero_tolerance)


def path_minimum(symbol: np.ndarray) -> PathMinimum:
    """Exact minimum over s in [0, 1] of twice the least singular value of C(s).

    Mode k of C(s) is 1 + s (sigma_k - 1), a segment from 1 to sigma_k, so
    its least modulus is the distance from 0 to that segment, reached at
    s = clip(-Re(sigma_k - 1) / |sigma_k - 1|^2, 0, 1).  The path closes when
    that distance is within n * eps * max(1, max|sigma|) of zero.
    """
    step = symbol - 1.0
    norm2 = step.real ** 2 + step.imag ** 2
    # a mode with sigma_k == 1 stays at 1 for every s; take s = 0 for it
    s = np.clip(-step.real / np.where(norm2 > 0.0, norm2, 1.0), 0.0, 1.0)
    dist = np.abs(1.0 + s * step)
    k = int(np.argmin(dist))
    floor = symbol.size * np.finfo(float).eps * max(1.0, float(np.abs(symbol).max()))
    # "+ 0.0" turns a -0.0 from the clip into 0.0
    return PathMinimum(gap=2.0 * float(dist[k]), s=float(s[k]) + 0.0,
                       closes=bool(dist[k] <= floor))


def structured_gap_profile(spec: StructuredSpec, s_grid,
                           zero_tolerance: float | None = None) -> GapProfile:
    """Gap along the adiabatic interpolation from a single FFT of the spec.

    sigma = c_symbol(spec) is computed once; each grid point is then the O(n)
    modulus |(1-s) + s*sigma| in preallocated buffers, reduced by
    gap_report_from_singular_values without sorting.  Every grid gap equals
    structured_gap_report(spec, s).gap exactly.  The profile also carries
    the grid-free path_minimum(sigma).
    """
    s_grid = np.asarray(s_grid, dtype=float)
    if s_grid.size == 0:
        raise InputError("s_grid must be nonempty")
    _check_s(s_grid)
    symbol = c_symbol(spec)
    # before the buffers exist, so its temporaries are never live alongside them
    minimum = path_minimum(symbol)
    work = np.empty_like(symbol)
    lam = np.empty(symbol.shape)
    points = tuple(
        (float(s), gap_report_from_singular_values(
            _singular_values_at(symbol, float(s), work, lam), zero_tolerance))
        for s in s_grid
    )
    gaps = [rep.gap for _, rep in points]
    return GapProfile(points=points, min_gap_index=int(np.argmin(gaps)),
                      path_minimum=minimum)
