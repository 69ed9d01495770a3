"""One OpenBLAS thread for loops over many small independent matrices.

On small matrices OpenBLAS spends more time handing work to its threads than
the threads save, and a second thread that has to wait for a busy core makes
the whole call wait.  The cap is scoped to a block, not set for the process:
the spin oracle's parity blocks above order 512 (n >= 11) run faster on all
threads.
Only OpenBLAS libraries already loaded into the process are touched; with
none loaded (not Linux, or MKL/Accelerate) a capped block runs unchanged.
"""

from __future__ import annotations

import contextlib
import os
from typing import Callable, NamedTuple

# Largest matrix order whose loops run on one thread.  Per call, one thread
# against two on a 2-core x86-64 VM (numpy 2.4 and scipy 1.17 wheels), ms:
#
#     n      QR             values-only SVD
#     128    1.16 vs 2.53   1.35 vs 2.75
#     256    4.8  vs 6.3    6.7  vs 8.2
#     512    26.5 vs 27.5   39.8 vs 41.0
#     1024   159  vs 145    360  vs 277
SINGLE_THREAD_MAX_N = 512

# Thread-count entry points, in lookup order: scipy-openblas wheels built
# with 64-bit integers (numpy's), scipy-openblas wheels, plain OpenBLAS.
_SYMBOL_FORMS = ("scipy_openblas_{}_num_threads64_",
                 "scipy_openblas_{}_num_threads",
                 "openblas_{}_num_threads")


class OpenBlas(NamedTuple):
    name: str                          # file name of the shared library
    get: Callable[[], int]
    set: Callable[[int], None]


def loaded_openblas() -> list[OpenBlas]:
    """The OpenBLAS libraries mapped into this process, in path order."""
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(maxsplit=5) for line in fh if "openblas" in line]
    except OSError:
        return []
    import ctypes

    found = []
    for path in sorted({f[5].rstrip("\n") for f in fields if len(f) == 6}):
        name = os.path.basename(path)
        if "openblas" not in name or ".so" not in name:
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for form in _SYMBOL_FORMS:
            get = getattr(lib, form.format("get"), None)
            set_ = getattr(lib, form.format("set"), None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                found.append(OpenBlas(name, get, set_))
                break
    return found


@contextlib.contextmanager
def small_matrix_threads(n: int):
    """Run the block with every loaded OpenBLAS on one thread when n is small.

    n is the order of the matrices the block factors, one after another.
    Above SINGLE_THREAD_MAX_N the block runs on the default threads.  Each
    library's previous count is restored on exit, also when the block raises.
    The counts are per process, so blocks must not overlap in several threads.
    """
    libs = loaded_openblas() if n <= SINGLE_THREAD_MAX_N else []
    before = [lib.get() for lib in libs]
    try:
        for lib in libs:
            lib.set(1)
        yield
    finally:
        for lib, count in zip(libs, before):
            lib.set(count)


def thread_counts(n: int | None) -> list[dict] | None:
    """Threads found in each loaded OpenBLAS, and the threads a loop runs on.

    n is the matrix order of a loop run under small_matrix_threads, or None
    for a loop that is not; "used" is read back from inside such a block.
    Returns None when no OpenBLAS is loaded.
    """
    libs = loaded_openblas()
    if not libs:
        return None
    found = [lib.get() for lib in libs]
    with contextlib.nullcontext() if n is None else small_matrix_threads(n):
        used = [lib.get() for lib in libs]
    return [{"library": lib.name, "found": f, "used": u}
            for lib, f, u in zip(libs, found, used)]
