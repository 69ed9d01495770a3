import math

import numpy as np
from hypothesis import strategies as st

from fermigap import _blas, lattice as lat, spinrep as sr


@st.composite
def structured_specs(draw):
    """Rank-1/2/3 TorusSpecs with axis lengths 1..5, odd lengths included."""
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)))
    entries = st.lists(st.floats(-2.0, 2.0), min_size=math.prod(shape),
                       max_size=math.prod(shape))
    a = np.array(draw(entries)).reshape(shape)
    b = np.array(draw(entries)).reshape(shape)
    a = (a + lat._reflect(a)) / 2.0
    b = (b - lat._reflect(b)) / 2.0
    return lat.TorusSpec(a, b)


def dense_ground_state(h):
    """Lowest eigenvalue and eigenvector of the dense Hamiltonian."""
    vals, vecs = np.linalg.eigh(sr.dense_hamiltonian(h))
    return float(vals[0]), vecs[:, 0]


def with_off_parity_term(term_masks):
    """spinrep._term_masks plus one X_1 term, whose one flipped bit changes the fermion parity."""
    return lambda w: [*term_masks(w), (1.0, 1 << (w.shape[0] - 1), 0)]


def fake_openblas(monkeypatch, count):
    """One fake OpenBLAS on count threads, the only library _blas finds, with
    no count owed; returns the list of its set() calls."""
    calls = []

    def set_(k):
        nonlocal count
        calls.append(k)
        count = k

    lib = _blas.OpenBlas("libfake_openblas.so", lambda: count, set_)
    monkeypatch.setattr(_blas, "loaded_openblas", lambda: [lib])
    monkeypatch.setattr(_blas, "_owed", {})
    return calls
