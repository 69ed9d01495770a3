"""How a loop over many small independent matrices uses the machine.

Two rules.  One OpenBLAS thread per process while the matrices are small
(threads_for), and one process per CPU once the loop's work pays for the
forks (loop_workers, forked_chunks).

On small matrices OpenBLAS spends more time handing work to its threads than
the threads save, and a second thread that has to wait for a busy core makes
the whole call wait.  So fermigap's work on matrices of order up to
SINGLE_THREAD_MAX_N first takes every loaded library down to one thread and
leaves it there: the count it had is owed, and only work above that order
(the spin oracle's parity blocks at n >= 11, a large pair's SVD), or a
caller's restore_threads(), puts it back.  Nothing is set back on the way
out of the work: os.fork shuts OpenBLAS's thread pool down, in the parent
too, and any set_num_threads after it starts the pool again, even to set one
thread, with a thread that spins on the other core.  A library already on
one thread is never set, and every fork takes the libraries down first,
while the pool is up, which starts nothing; a forked chunk then starts no
thread either.
Only OpenBLAS libraries already loaded into the process are touched; with
none loaded (not Linux, or MKL/Accelerate) the work runs unchanged.
The lookup (loaded_openblas) scans the process's mappings again only after
an import, which is when a library (SciPy's OpenBLAS, say) can appear.
"""

from __future__ import annotations

import os
import pickle
import sys
import threading
from typing import Callable, NamedTuple

from .errors import NumericalError

# Largest matrix order whose loops run on one thread: on a 2-core VM one
# thread beat two on QR and values-only SVD up to order 512, and lost at
# 1024 (the per-call table is in README "Threads").
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


# The counts this process took its libraries down from, by library name:
# only restore_threads puts them back.
_owed: dict[str, int] = {}


def restore_threads() -> None:
    """Put every library fermigap left on one thread back on its own count.

    This starts the library's thread pool again, so call it only before
    work that uses the pool: factorizations above SINGLE_THREAD_MAX_N.
    """
    for lib in loaded_openblas():
        if lib.name in _owed:
            lib.set(_owed.pop(lib.name))


def threads_for(n: int) -> list[dict] | None:
    """Set every loaded OpenBLAS for work on matrices of order n.

    Up to SINGLE_THREAD_MAX_N each library not on one thread is set to one,
    its count owed until restore_threads; above it, restore_threads.  The
    counts are per process, so the work must not run in several threads.
    Returns the threads each library had (an owed count counts) and now
    runs on, [{"library": name, "found": count, "used": count}], or None
    when no OpenBLAS is loaded.
    """
    if n > SINGLE_THREAD_MAX_N:
        restore_threads()
    libs = loaded_openblas()
    for lib in libs:
        if n <= SINGLE_THREAD_MAX_N and lib.get() != 1:
            _owed[lib.name] = lib.get()
            lib.set(1)
    return [{"library": lib.name, "found": _owed.get(lib.name) or lib.get(),
             "used": lib.get()} for lib in libs] or None


# Least work left after item 0, (items - 1) x n^3, that pays for one more
# process: the fork, the copy-on-write faults it causes and the join cost
# about 5-20 ms.  Set from the break-even tables in README "Processes", one
# process against two for loops and loads in fresh processes on a 2-core VM.
# The n^3 count leaves out the Python cost of an item, most of what a small
# one costs: 2000 samples at n = 8 stay in one process, though two took 562
# vs 411 ms (bounded_uniform) and 306 vs 243 ms (gaussian).
WORK_PER_WORKER = 10 ** 7


def loop_workers(items: int, n: int, work: int | None = None) -> int:
    """Processes a loop of items factorizations of order n runs on, the caller's included.

    The caller computes item 0 before it forks, so the work the processes
    share is that of the other items: (items - 1) x n^3, or work, in the
    same unit (a values-only SVD of order n costs n^3), for a loop whose
    items differ in size or kind, n then being their largest order.  One
    process per usable CPU, each with at least WORK_PER_WORKER of that work
    and at least one of those items.  A single process above
    SINGLE_THREAD_MAX_N, whose factorizations already run on every BLAS
    thread; without os.sched_getaffinity (macOS, Windows: no fork, or none
    that is safe once system frameworks are loaded); and while another
    Python thread is alive, since the child would hold only a copy of the
    locks that thread may hold (the reason Python 3.12 warns about such
    forks).
    """
    if (n > SINGLE_THREAD_MAX_N or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    rest = items - 1
    if work is None:
        work = rest * n ** 3
    return max(1, min(len(os.sched_getaffinity(0)), rest, work // WORK_PER_WORKER))


# What the last forked_chunks loop of this process ran on: blas_threads, as
# threads_for returns them, the processes that ran its chunks (workers) and,
# once it forked, worker_peak_rss_mb.  Per process, like the RUSAGE_CHILDREN
# reading behind the latter.
last_loop: dict = {}


def forked_chunks(chunk: Callable[[int, int], object], items: int, n: int, what: str,
                  work: int | None = None) -> list:
    """chunk(lo, hi) over contiguous chunks of range(items), in index order.

    The loop runs after threads_for(n) on loop_workers(items, n, work)
    processes (split_chunks), and last_loop records what it ran on.
    """
    last_loop.clear()
    last_loop.update(blas_threads=threads_for(n), workers=1)
    results, forked = split_chunks(chunk, items, loop_workers(items, n, work), what)
    if forked:
        import resource

        last_loop.update(workers=1 + forked, worker_peak_rss_mb=resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)
    return results


def split_chunks(chunk: Callable[[int, int], object], items: int, workers: int,
                 what: str) -> tuple[list, int]:
    """chunk(lo, hi) over contiguous chunks of range(items) on workers
    processes, in index order, and the number of children forked.

    The caller computes item 0, forks one child per chunk after its own, and
    then computes the rest of its chunk: the children inherit warm LAPACK
    buffers along with the thread counts and the heap settings.  A chunk whose
    pipe or fork fails with OSError is computed here in its turn.  Each child
    sends back its result, or the exception its chunk raised, which is
    raised again here.  A child that sends neither gives NumericalError "the
    worker for <what> [lo, hi) died".  Every child is reaped before this
    returns or raises; on the way out of a failure, the read ends are closed
    and the children still running are killed first, so none is left
    blocked on a full pipe.
    """
    if workers == 1:
        return [chunk(0, items)], 0
    children = []           # (lo, hi, pid, read end); pid None where no child took the chunk
    live = set()            # the pids not yet reaped
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
    return results, sum(1 for child in children if child[2])


def _fork(chunk, lo: int, hi: int, inherited: list[int]) -> tuple[int | None, int | None]:
    """Fork a child that pickles (True, chunk(lo, hi)) or (False, its exception) to a pipe.

    Returns the child's pid and the pipe's read end, or (None, None), with
    the pipe closed, when os.pipe or os.fork fails with OSError.  Each
    library still on several threads goes down to one first, threads_for(0),
    while its pool is up.  The child closes the read ends it inherits,
    so each pipe has one reader, and leaves only through os._exit: status 0
    once its message is written, 1 otherwise.
    """
    fds = []
    try:
        fds.extend(os.pipe())
        threads_for(0)
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
