"""The exit-code contract of every command, fuzzed.

Each run of cli.main on a small pair, W or structured document with hostile
scalars in its slots exits 0, 2, 3 or 4, and no exception escapes (pytest
turns warnings into errors, so a numpy RuntimeWarning fails the run too).
An exit of 2 to 4 prints exactly one stderr line and nothing on stdout, an
exit 0 prints strict JSON (a profile's summary after its CSV), and a failed
--out run leaves no directory.  Nothing reaches file descriptors 1 and 2
below Python, as an error line of OpenBLAS's LAPACK would.  The commands
that read no file (ensemble, cluster, ising, verify) keep the same contract
over hostile numeric options, with exit 1 exactly when an integer option
holds a value that is no integer, which argparse rejects as a usage error.
"""

import contextlib
import copy
import ctypes
import io
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fermigap import _blas, cli, ensembles as ens

HUGE = 10 ** 400

# finite floats, at both ends of the range too
NUMBERS = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 1e308, -1e308, 5e-324, -5e-324]),
                    st.floats(-4.0, 4.0))
# integers beyond the float range, and what is not a number.  Each draw is a
# fresh copy: _poke writes into a drawn list in place, so a shared sample
# could be written into itself, or changed for every later example.
NON_NUMBERS = st.sampled_from([HUGE, -HUGE, True, False, None, "1", [], [1.0], [[0.0]],
                               {}]).map(copy.deepcopy)
SCALARS = st.one_of(NUMBERS, NON_NUMBERS)
BAD_COUNTS = st.sampled_from([0, -1, True, 2.0, None, "2", [2], HUGE]).map(copy.deepcopy)
# one draw in four is not a usable count
COUNTS = st.one_of(*[st.integers(1, 3)] * 3, BAD_COUNTS)
MOSTLY = st.sampled_from([True, True, True, False])

COMMANDS = [["gap"], ["spectrum"], ["profile"], ["jw"], ["lattice", "expand"]]
OVERFLOWING_PAIR = {"n": 2, "a": [0.0, 1e308, 1e308, 0.0], "b": [0.0, 1e308, -1e308, 0.0]}
# A + B overflows at n = 3, where an SVD of the infinite sum makes LAPACK print
OVERFLOWING_PAIR_3 = {"n": 3, "a": [0.0, 0.0, 1.0, 0.0, 1.0, 1e308, 1.0, 1e308, 1e308],
                      "b": [0.0, 1.0, 0.0, -1.0, 0.0, 1e308, 0.0, -1e308, 0.0]}


class RawText(str):
    """A document given as its JSON text: json.dumps cannot write a list
    nested too deep, nor an integer of more digits than Python converts."""


# the C library, to flush its stdio buffers
LIBC = ctypes.CDLL(None)
LIBC.fflush.argtypes, LIBC.fflush.restype = [ctypes.c_void_p], ctypes.c_int


def _small_counts(counts) -> bool:
    return bool(counts) and all(type(c) is int and 0 < c <= 4 for c in counts)


def _size(counts) -> int:
    """Entries a document with these counts should hold; 1 unless all are small counts."""
    return math.prod(counts) if _small_counts(counts) else 1


@st.composite
def entry_lists(draw, size):
    """Mostly a flat list of size entries; else a wrong size, a nested list or a scalar."""
    shape = draw(st.sampled_from(["flat"] * 5 + ["short", "long", "nested", "scalar"]))
    if shape == "scalar":
        return draw(SCALARS)
    count = size + {"short": -1, "long": 1}.get(shape, 0)
    values = draw(st.lists(st.one_of(NUMBERS, NUMBERS, SCALARS), min_size=count, max_size=count))
    return [values] if shape == "nested" else values


@st.composite
def symmetric_pairs(draw, shape, matrix):
    """Flat a and b with a[r(i)] == a[i] and b[r(i)] == -b[i], entries from NUMBERS.

    r swaps the two indices of a matrix, and reverses every axis of a
    structured root modulo its length.  Such a document passes the input
    checks and reaches the numerical routes.
    """
    a, b = np.empty(shape, dtype=object), np.empty(shape, dtype=object)
    for index in np.ndindex(*shape):
        mirror = index[::-1] if matrix else tuple(-i % d for i, d in zip(index, shape))
        if a[index] is None:
            a[index] = a[mirror] = draw(NUMBERS)
            value = 0.0 if mirror == index else draw(NUMBERS)
            b[index], b[mirror] = value, -value
    return a.ravel().tolist(), b.ravel().tolist()


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_no_two_draws_share_a_mutable_sample(data):
    drawn = [data.draw(strategy) for strategy in (SCALARS, BAD_COUNTS) for _ in range(12)]
    mutable = [value for value in drawn if isinstance(value, (list, dict))]
    assert len({id(value) for value in mutable}) == len(mutable)


def _poke(draw, doc: dict) -> dict:
    """The document, maybe with one key dropped or one entry made hostile."""
    action = draw(st.sampled_from(["keep"] * 4 + ["drop", "poke"]))
    key = draw(st.sampled_from(sorted(doc)))
    if action == "drop":
        del doc[key]
    elif action == "poke" and isinstance(doc[key], list) and doc[key]:
        doc[key][draw(st.integers(0, len(doc[key]) - 1))] = draw(SCALARS)
    return doc


@st.composite
def pair_documents(draw):
    n = draw(COUNTS)
    if _small_counts([n]) and draw(MOSTLY):
        a, b = draw(symmetric_pairs((n, n), matrix=True))
    else:
        a, b = draw(entry_lists(_size([n, n]))), draw(entry_lists(_size([n, n])))
    return _poke(draw, {"n": n, "a": a, "b": b})


@st.composite
def w_documents(draw):
    n = draw(COUNTS)
    return _poke(draw, {"n": n, "w": draw(entry_lists(_size([n, n])))})


@st.composite
def structured_documents(draw):
    kind = draw(st.sampled_from(["circulant", "bccb", "bc2cb"] * 2 + ["torus", None, 1]))
    rank = {"bccb": 2, "bc2cb": 3}.get(kind, 1)
    if draw(st.integers(0, 4)):
        dims = draw(st.lists(st.integers(1, 4 if rank == 1 else 2), min_size=rank,
                             max_size=rank))
    else:
        dims = draw(st.lists(st.one_of(st.integers(1, 2), BAD_COUNTS), max_size=4))
    if _small_counts(dims) and draw(MOSTLY):
        a, b = draw(symmetric_pairs(tuple(reversed(dims)), matrix=False))
    else:
        a, b = draw(entry_lists(_size(dims))), draw(entry_lists(_size(dims)))
    return _poke(draw, {"kind": kind, "dims": dims, "a_root": a, "b_root": b})


DOCUMENTS = st.one_of(pair_documents(), w_documents(), structured_documents(),
                      st.sampled_from([[], 1, None, "pair"]))


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


@contextlib.contextmanager
def file_descriptor_output():
    """Bytes written to descriptors 1 and 2 in the block, filled in at its end."""
    written = bytearray()
    with tempfile.TemporaryFile() as sink:
        saved = [os.dup(fd) for fd in (1, 2)]
        try:
            for fd in (1, 2):
                os.dup2(sink.fileno(), fd)
            yield written
        finally:
            LIBC.fflush(None)     # what LAPACK's printf left in stdout's buffer
            for fd, copy in zip((1, 2), saved):
                os.dup2(copy, fd)
                os.close(copy)
            sink.seek(0)
            written += sink.read()


def run_cli(argv):
    """cli.main(argv)'s exit code, stdout, stderr and output below Python."""
    out, err = io.StringIO(), io.StringIO()
    with file_descriptor_output() as below_python:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:    # argparse's usage error
                code = exc.code
    return code, out.getvalue(), err.getvalue(), bytes(below_python)


@example(doc={"n": 1, "a": [HUGE], "b": [0]}, command=["gap"], tol=None, grid=3,
         out=False)
@example(doc={"n": 1, "w": [HUGE]}, command=["jw"], tol=None, grid=3, out=False)
@example(doc=RawText("[" * 200_000 + "]" * 200_000), command=["gap"], tol=None, grid=3,
         out=False)
@example(doc=RawText('{"n": 1, "w": [%s]}' % ("9" * 5000)), command=["jw"], tol=None, grid=3,
         out=False)
@example(doc=RawText('{"n": %s, "a": [1.0], "b": [0]}' % ("9" * 5000)), command=["gap"],
         tol=None, grid=3, out=False)
@example(doc=OVERFLOWING_PAIR, command=["gap"], tol=None, grid=3, out=False)
@example(doc=OVERFLOWING_PAIR, command=["spectrum"], tol=None, grid=3, out=False)
@example(doc=OVERFLOWING_PAIR, command=["profile"], tol=None, grid=3, out=True)
@example(doc=OVERFLOWING_PAIR, command=["jw"], tol=None, grid=3, out=False)
@example(doc=OVERFLOWING_PAIR_3, command=["gap"], tol=None, grid=3, out=False)
@example(doc=OVERFLOWING_PAIR_3, command=["profile"], tol=None, grid=3, out=False)
@settings(max_examples=300, deadline=None)
@given(doc=DOCUMENTS, command=st.sampled_from(COMMANDS),
       tol=st.sampled_from([None] * 4 + ["0", "1e-3", "-1", "nan", "inf", "5e-324"]),
       grid=st.sampled_from([3, 3, 2, 1, -1]), out=st.booleans())
def test_exit_code_contract(doc, command, tol, grid, out):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(doc if isinstance(doc, RawText) else json.dumps(doc))
        out_dir = Path(tmp) / "run"
        argv = [*command, str(path)]
        if command[0] in ("gap", "profile") and tol is not None:
            argv.append(f"--tol={tol}")
        if command[0] == "profile":
            argv += [f"--grid={grid}", *(["--out", str(out_dir)] if out else [])]
        code, stdout, stderr, below_python = run_cli(argv)
        assert code in (0, 2, 3, 4), (argv, code, stderr)
        assert below_python == b""
        if code:
            assert stdout == ""
            assert stderr.startswith("fermigap: ") and stderr.count("\n") == 1, stderr
            assert stderr.endswith("\n")
            assert not out_dir.exists()
        elif command[0] == "profile" and out:
            assert stdout == stderr == ""
            for name in ("summary.json", "manifest.json"):
                strict_json((out_dir / name).read_text())
        else:
            assert stderr == ""
            tail = stdout[stdout.index("\n{") + 1:] if command[0] == "profile" else stdout
            strict_json(tail)


# numeric option values at and past every edge, as they would be typed
HOSTILE_OPTIONS = ["0", "-1", str(HUGE), "1000000000000", "nan", "inf", "1e308", "5e-324"]


@st.composite
def option_commands(draw):
    """(argv, usage): a run of a command that reads no file, small three values in four.

    usage is True when an integer option holds what int() cannot parse.
    OUT stands for the run directory of an ensemble.
    """
    usage = False

    def option(name, small, integer=True):
        nonlocal usage
        value = draw(st.one_of(*[st.sampled_from(small)] * 3, st.sampled_from(HOSTILE_OPTIONS)))
        if integer:
            usage |= not value.lstrip("-").isdigit()
        return f"--{name}={value}"

    command = draw(st.sampled_from(["ensemble", "cluster", "ising", "verify"]))
    if command == "ensemble":
        experiment = draw(st.sampled_from(sorted(ens.EXPERIMENTS)))
        argv = ["ensemble", f"--experiment={experiment}", option("n", ["2", "3"]),
                option("samples", ["1", "2", "3"]), "--out", "OUT"]
        if draw(st.booleans()):
            argv.append(option("x", ["0.5", "1"], integer=False))
    elif command == "cluster":
        argv = ["cluster", option("n", ["4", "5", "6"])]
    elif command == "ising":
        argv = ["ising", option("n", ["2", "3"]), option("s", ["0", "0.5", "1"], False)]
    else:
        argv = ["verify", option("n-max", ["1", "2", "3"]), option("trials", ["1", "2"])]
    if command in ("cluster", "ising") and draw(st.booleans()):
        argv.append("--as-pair")
    if command in ("ensemble", "verify") and draw(st.booleans()):
        # the seed is read as text, so a non-integer is bad input (exit 2)
        argv.append(option("seed", ["0", "7"], integer=False))
    return argv, usage


@example(case=(["ensemble", "--experiment=figure1", "--n=2", "--samples=1000000000000",
                "--out", "OUT"], False))
@example(case=(["ensemble", "--experiment=survival", "--n=2", "--samples=1000000000000",
                "--out", "OUT"], False))
@example(case=(["ensemble", "--experiment=edelman", "--n=2", "--samples=1000000000000",
                "--out", "OUT"], False))
@example(case=(["verify", "--n-max=1", "--trials=100000000000"], False))
@settings(max_examples=150, deadline=None)
@given(case=option_commands())
def test_option_exit_code_contract(case):
    argv, usage = case
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "run"
        argv = [str(out_dir) if arg == "OUT" else arg for arg in argv]
        code, stdout, stderr, below_python = run_cli(argv)
        assert (code == 1) == usage, (argv, code, stderr)
        assert code in (0, 1, 2, 3, 4), (argv, code, stderr)
        assert below_python == b""
        if code:
            assert stdout == ""
            assert stderr.endswith("\n")
            assert not out_dir.exists()
        if code == 1:
            assert ": error: argument --" in stderr.splitlines()[-1], stderr
        elif code:
            assert stderr.startswith("fermigap: ") and stderr.count("\n") == 1, stderr
        else:
            assert stderr == ""
            strict_json(stdout)
            if argv[0] == "ensemble":
                for name in ("summary.json", "manifest.json"):
                    strict_json((out_dir / name).read_text())


# Memory can run out below every cap: the caps bound what a request may ask
# for, not what the machine has.  No RLIMIT_AS is needed to reach the handler.
@pytest.mark.parametrize("argv, command, name", [
    (["gap", "pair.json"], "cmd_gap", "gap"),
    (["lattice", "expand", "spec.json"], "cmd_lattice", "lattice expand"),
])
def test_memory_error_exit_2_with_one_line(monkeypatch, capsys, argv, command, name):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, command, exhausted)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"fermigap: out of memory in {name}\n"


def test_memory_error_of_a_forked_chunk_exit_2_with_one_line(monkeypatch, capsys):
    parent = os.getpid()

    def chunk(lo, hi):
        if os.getpid() != parent:
            np.empty(1 << 58)   # 2 EiB: refused at once, nothing is touched
        return list(range(lo, hi))

    def gap_in_chunks(args):
        _blas.split_chunks(chunk, 3, 2, "the test chunks")
        return cli.EXIT_OK, "{}\n"

    monkeypatch.setattr(cli, "cmd_gap", gap_in_chunks)
    assert cli.main(["gap", "pair.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("fermigap: out of memory in gap: Unable to allocate 2.00 EiB for an "
                            "array with shape (288230376151711744,) and data type float64\n")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
