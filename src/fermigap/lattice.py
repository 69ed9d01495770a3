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
with symbol (1-s) + s*sigma where sigma = DFT(root of A+B).  A gap profile
therefore takes one FFT per spec and O(n) work per grid point, and the
exact minimum of the lowest mode over all s in [0, 1] follows from sigma
without a grid: mode k traces the segment from 1 to sigma_k.  The dense
matrices themselves are built only for cross-checks, up to
quadform.MATRIX_SIZE_CAP sites.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .quadform import (
    CoefficientPair,
    GapProfile,
    GapReport,
    PathMinimum,
    check_matrix_size,
    check_s,
    gap_report_from_singular_values,
    profile_from_singular_values,
)


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
        _check_roots(a, b)
        a = a.copy()
        b = b.copy()
        a.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "root_a", a)
        object.__setattr__(self, "root_b", b)

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


def _stack(layer: TorusSpec, count: int, coupling: float) -> TorusSpec:
    """A ring of `count` copies of `layer`, coupled by identity blocks.

    The A part couples neighbouring layers with +coupling*I on both block
    off-diagonals; the B part uses +coupling*I above and -coupling*I below.
    """
    root_a = np.zeros((count, *layer.root_a.shape))
    root_b = np.zeros_like(root_a)
    root_a[0] = layer.root_a
    root_b[0] = layer.root_b
    origin = (0,) * layer.root_a.ndim
    root_a[(1, *origin)] = root_a[(-1, *origin)] = coupling
    root_b[(1, *origin)], root_b[(-1, *origin)] = coupling, -coupling
    return TorusSpec(root_a, root_b)


def build_torus_2d(p: int, q: int, site: TorusSpec, coupling: float = 1.0) -> TorusSpec:
    """2D torus: q rows of the p-site ring `site`, identity inter-row couplings."""
    if p < 3 or q < 3:
        raise InputError(f"torus needs p, q >= 3, got p={p}, q={q}")
    if site.dims != (p,):
        raise InputError(f"site spec has dims {site.dims}, expected ({p},)")
    return _stack(site, q, coupling)


def build_torus_3d(p: int, q: int, r: int, plane: TorusSpec, coupling: float = 1.0) -> TorusSpec:
    """3D torus: stack of r planes from `plane`, identity inter-plane couplings."""
    if r < 3:
        raise InputError(f"torus needs r >= 3, got r={r}")
    if plane.dims != (p, q):
        raise InputError(f"plane spec has dims {plane.dims}, expected ({p}, {q})")
    return _stack(plane, r, coupling)


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
    """sigma = DFT(root of A + B), flattened; C(s) has symbol (1-s) + s*sigma."""
    return np.fft.fftn(spec.root_a + spec.root_b).ravel()


def _singular_values_at(symbol: np.ndarray, s: float, work: np.ndarray,
                        out: np.ndarray) -> np.ndarray:
    """|(1-s) + s*sigma| into `out`, unsorted; `work` is complex scratch."""
    np.multiply(symbol, s, out=work)
    work += 1.0 - s
    return np.abs(work, out=out)


def structured_gap_report(spec: TorusSpec, s: float,
                          zero_tolerance: float | None = None) -> GapReport:
    """GapReport at interpolation parameter s via the FFT path."""
    check_s(s)
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


def structured_gap_profile(spec: TorusSpec, s_grid,
                           zero_tolerance: float | None = None) -> GapProfile:
    """Gap along the adiabatic interpolation from a single FFT of the spec.

    sigma = c_symbol(spec) is computed once; each grid point is then the O(n)
    modulus |(1-s) + s*sigma| in preallocated buffers, reduced by
    gap_report_from_singular_values without sorting.  Every grid gap equals
    structured_gap_report(spec, s).gap exactly.  The profile also carries
    the grid-free path_minimum(sigma).
    """
    s_grid = check_s(s_grid)
    symbol = c_symbol(spec)
    # before the buffers exist, so its temporaries are never live alongside them
    minimum = path_minimum(symbol)
    work = np.empty_like(symbol)
    lam = np.empty(symbol.shape)
    return profile_from_singular_values(
        s_grid, lambda s: _singular_values_at(symbol, s, work, lam), zero_tolerance, minimum)
