"""How a loop over many small independent matrices uses the machine.

Two rules.  One OpenBLAS thread per process while the matrices are small
(small_matrix_threads), and one process per CPU once the loop's work pays
for the forks (loop_workers, forked_chunks).

On small matrices OpenBLAS spends more time handing work to its threads than
the threads save, and a second thread that has to wait for a busy core makes
the whole call wait.  The cap is scoped to a block, not set for the process:
the spin oracle's parity blocks above order 512 (n >= 11) run faster on all
threads.
Only OpenBLAS libraries already loaded into the process are touched; with
none loaded (not Linux, or MKL/Accelerate) a capped block runs unchanged.
The lookup (loaded_openblas) scans the process's mappings again only after
an import, which is when a library (SciPy's OpenBLAS, say) can appear.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import sys
import threading
from typing import Callable, NamedTuple

from .errors import NumericalError

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


_scanned: tuple[int, list[OpenBlas]] = (-1, [])   # (len(sys.modules) after a scan, its libraries)


def loaded_openblas() -> list[OpenBlas]:
    """The OpenBLAS libraries mapped into this process, in path order; scanned
    again only after an import, which may have loaded one (SciPy's, say)."""
    global _scanned
    if _scanned[0] == len(sys.modules):
        return list(_scanned[1])
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
    _scanned = (len(sys.modules), found)    # counted after the first scan imported ctypes
    return list(found)


@contextlib.contextmanager
def small_matrix_threads(n: int):
    """Run the block with every loaded OpenBLAS on one thread when n is small.

    n is the order of the matrices the block factors, one after another.
    Above SINGLE_THREAD_MAX_N the block runs on the default threads.  Each
    library's previous count is restored on exit, also when the block raises.
    The counts are per process, so blocks must not overlap in several threads.
    Yields the threads each library had before the block and runs it on,
    [{"library": name, "found": count, "used": count}], or None when no
    OpenBLAS is loaded.
    """
    libs = loaded_openblas()
    found = [lib.get() for lib in libs]
    capped = libs if n <= SINGLE_THREAD_MAX_N else []
    try:
        for lib in capped:
            lib.set(1)
        yield [{"library": lib.name, "found": f, "used": lib.get()}
               for lib, f in zip(libs, found)] or None
    finally:
        for lib, count in zip(capped, found):
            lib.set(count)


# Least work left after item 0, (items - 1) x n^3, that pays for one more
# process: the fork, the copy-on-write faults it causes and the join cost
# about 5-20 ms.  A loop in a fresh process, one process against two, with
# forked_chunks's chunks, on a 2-core x86-64 VM, ms (medians of 5):
#
#     loop              n      items   (items - 1) n^3   one vs two
#     gaussian          64     20      5.0e6             38.4 vs 50.2
#     bounded_uniform   32     200     6.5e6             140  vs 154
#     gaussian          128    10      1.9e7             48.2 vs 48.1
#     profile           128    11      2.1e7             20.1 vs 16.9
#     profile           64     101     2.6e7             33.2 vs 30.6
#     profile           256    3       3.4e7             24.2 vs 22.5
#     bounded_uniform   64     200     5.2e7             365  vs 237
#     gaussian          128    200     4.2e8             537  vs 290
#     profile           256    101     1.7e9             918  vs 468
#
# The n^3 count leaves out the Python cost of an item, most of what a small
# one costs: 2000 samples at n = 8 stay in one process, though two took 562
# vs 411 ms (bounded_uniform) and 306 vs 243 ms (gaussian).
WORK_PER_WORKER = 10 ** 7


def loop_workers(items: int, n: int) -> int:
    """Processes a loop of items factorizations of order n runs on, the caller's included.

    The caller computes item 0 before it forks, so the work the processes
    share is that of the other items, (items - 1) x n^3.  One process per
    usable CPU, each with at least WORK_PER_WORKER of that work and at least
    one of those items.  A single process above SINGLE_THREAD_MAX_N, whose
    factorizations already run on every BLAS thread; without
    os.sched_getaffinity (macOS, Windows: no fork, or none that is safe once
    system frameworks are loaded); and while another Python thread is alive,
    since the child would hold only a copy of the locks that thread may hold
    (the reason Python 3.12 warns about such forks).
    """
    if (n > SINGLE_THREAD_MAX_N or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    rest = items - 1
    return max(1, min(len(os.sched_getaffinity(0)), rest, rest * n ** 3 // WORK_PER_WORKER))


# What the last forked_chunks loop of this process ran on: blas_threads, as
# small_matrix_threads yields them, the processes that ran its chunks
# (workers) and, once it forked, worker_peak_rss_mb.  Per process, like the
# RUSAGE_CHILDREN reading behind the latter.
last_loop: dict = {}


def forked_chunks(chunk: Callable[[int, int], object], items: int, n: int, what: str) -> list:
    """chunk(lo, hi) over contiguous chunks of range(items), in index order.

    The loop runs under small_matrix_threads(n) on loop_workers(items, n)
    processes, and last_loop records what it ran on.  The caller computes
    item 0, forks one child per chunk after its own, and then computes the
    rest of its chunk: the children inherit warm LAPACK buffers along with
    the thread cap and the heap settings.  A chunk whose pipe or fork fails
    with OSError is computed here in its turn.  Each child sends back its
    result, or the exception its chunk raised, which is raised again here.
    A child that sends neither gives NumericalError "the worker for <what>
    [lo, hi) died".  Every child is reaped before this returns or raises; on
    the way out of a failure, the read ends are closed and the children
    still running are killed first, so none is left blocked on a full pipe.
    """
    last_loop.clear()
    workers = loop_workers(items, n)
    children = []           # (lo, hi, pid, read end); pid None where no child took the chunk
    live = set()            # the pids not yet reaped
    with small_matrix_threads(n) as threads:
        last_loop.update(blas_threads=threads, workers=1)
        if workers == 1:
            return [chunk(0, items)]
        # item 0 and an even share of the rest here, the other shares in the children
        bounds = [0, *(1 + k * (items - 1) // workers for k in range(1, workers + 1))]
        results = [chunk(0, 1)]
        try:
            for lo, hi in zip(bounds[1:-1], bounds[2:]):
                pid, read_end = _fork(chunk, lo, hi, [c[3] for c in children if c[2]])
                children.append((lo, hi, pid, read_end))
                if pid:
                    live.add(pid)
            results.append(chunk(1, bounds[1]))
            for lo, hi, pid, read_end in children:
                if not pid:
                    results.append(chunk(lo, hi))
                    continue
                with open(read_end, "rb", closefd=False) as fh:
                    sent = fh.read()
                status = os.waitpid(pid, 0)[1]
                live.discard(pid)
                results.append(_received(sent, status, f"the worker for {what} [{lo}, {hi})"))
        finally:
            for _, _, pid, read_end in children:
                if pid:
                    os.close(read_end)
            if live:
                import signal

                for pid in live:
                    os.kill(pid, signal.SIGKILL)
                for pid in live:
                    os.waitpid(pid, 0)
    forked = sum(1 for child in children if child[2])
    if forked:
        import resource

        last_loop.update(workers=1 + forked, worker_peak_rss_mb=resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)
    return results


def _fork(chunk, lo: int, hi: int, inherited: list[int]) -> tuple[int | None, int | None]:
    """Fork a child that pickles (True, chunk(lo, hi)) or (False, its exception) to a pipe.

    Returns the child's pid and the pipe's read end, or (None, None), with
    the pipe closed, when os.pipe or os.fork fails with OSError.  The child
    closes the read ends it inherits, so each pipe has one reader, and
    leaves only through os._exit: status 0 once its message is written, 1
    otherwise.
    """
    fds = []
    try:
        fds.extend(os.pipe())
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return None, None
    read_end, write_end = fds
    if pid:
        os.close(write_end)
        return pid, read_end
    status = 1
    try:
        for fd in (read_end, *inherited):
            os.close(fd)
        try:
            message = (True, chunk(lo, hi))
        except Exception as exc:
            message = (False, exc)
        with open(write_end, "wb") as fh:
            pickle.dump(message, fh, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _received(sent: bytes, status: int, worker: str):
    """The result a child sent, or the exception it sent raised again."""
    code = os.waitstatus_to_exitcode(status)
    if code or not sent:
        how = f"signal {-code}" if code < 0 else f"exit status {code}"
        raise NumericalError(f"{worker} died ({how})")
    ok, value = pickle.loads(sent)
    if not ok:
        raise value
    return value
