"""JSON file formats for coefficient pairs, structured specs and W matrices.

Pair document:        {"n": int, "a": [n*n reals, row-major], "b": [...]}
Structured document:  {"kind": "circulant"|"bccb"|"bc2cb",
                       "dims": [p] | [p, q] | [p, q, r],
                       "a_root": [...], "b_root": [...]}   (row-major roots)
W document:           {"n": int, "w": [n*n reals, row-major]}

A reader takes each list out of the document it is given as it converts
it, so that the list can be freed before the next one is read: a document
is read once.

A file above INPUT_BYTE_CAP is refused before it is read, a stream (a pipe,
a FIFO) once it yields more; its bytes are decoded as UTF-8 (RFC 8259).  A
short walk over the top-level object (_walk) finds the flat lists under the
pair, root and W keys: each runs from its '[' to the next ']' and holds no
nesting, string or literal, none of '[', '{', '"', 'r' or 'l' (true, false
and null hold 'r' or 'l'; numbers, NaN and Infinity neither).  json's own
scanner parses the rest of the object, so a list holding a literal stays
the Python list the readers reject.  Each flat list becomes a float array,
bit for bit what the readers convert it to: it is read in pieces of about
PIECE_CHARS characters cut at commas (_floats_at), so that no whole list is
ever held as Python floats.  A NumPy scan of each piece's bytes finds its
tokens; one that is exactly 0 or 0.0 stays the +0.0 of a zeroed array, so
the zeros of a sparse list (a lattice's roots, an expanded pair) reach no
parser, and json's scanner parses the others.  A list that is refused (a
token json rejects, a blank token, whitespace inside a token) is re-read
alone by json's scanner.  The object and the lists run on one process or
two, as the worker rule gives them (_blas.split_chunks), by the same code.
One json.loads of the whole text runs only where the walk or a re-read
raises, so that every message stays json's and the readers'.
"""

from __future__ import annotations

import array
import json
import math
import os
import sys

import numpy as np

from . import _blas
from .errors import CapacityError, InputError
from .lattice import TorusSpec
from .quadform import CoefficientPair
from .spinrep import PauliHamiltonian


# the JSON values that array.array("d", ...) rejects as entries
_NOT_NUMBERS = {str: "a string", type(None): "null", list: "a list", dict: "an object"}


def _flat_floats(data, size: int, name: str) -> np.ndarray:
    """A flat list of size numbers as a float array; booleans, strings and null are not numbers.

    A float array that load_document made of a list is taken as it is.
    """
    try:
        arr = data if isinstance(data, np.ndarray) else np.frombuffer(array.array("d", data))
    except OverflowError:
        raise InputError(f"{name} holds an integer beyond the float range") from None
    except TypeError:   # an entry that is no number, or no flat list
        if isinstance(data, list) and len(data) == size:
            kind = next(_NOT_NUMBERS[type(x)] for x in data if type(x) in _NOT_NUMBERS)
            raise InputError(f"{name} holds {kind}; entries must be numbers") from None
        arr = np.array(data, dtype=object)
    if arr.shape != (size,):
        depth, inner = 0, data     # numpy stops at 64 axes; the lists can go deeper
        while isinstance(inner, list):
            depth, inner = depth + 1, inner[0] if inner else None
        got = f"an array of shape {arr.shape}" if depth <= 2 else f"a list nested {depth} deep"
        raise InputError(f"{name} must hold {size} values in a flat list, got {got}")
    if not isinstance(data, np.ndarray) and bool in set(map(type, data)):
        raise InputError(f"{name} holds a boolean; entries must be numbers")
    return arr


def _count(value, name: str) -> int:
    """A JSON integer; booleans and floats such as 2.0 are not counts."""
    if type(value) is not int:
        raise InputError(f"{name} must be a JSON integer, got {value!r}")
    return value


def _square_matrices(doc: dict, what: str, *names: str) -> list[np.ndarray]:
    """The n x n matrices `names`, flat row-major lists taken out of a pair or W document."""
    matrices = []
    try:
        n = _count(doc["n"], "n")
        for name in names:
            data = doc.pop(name)    # a missing first matrix is named before a bad n
            if n < 1:
                raise InputError(f"n must be positive, got {n}")
            matrices.append(_flat_floats(data, n * n, name).reshape(n, n))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed {what} document: {exc}") from exc
    return matrices


def pair_to_dict(pair: CoefficientPair) -> dict:
    return {"n": pair.n, "a": pair.a.ravel().tolist(), "b": pair.b.ravel().tolist()}


def pair_from_dict(doc: dict) -> CoefficientPair:
    """The pair of a pair document; takes "a" and "b" out of doc."""
    return CoefficientPair(*_square_matrices(doc, "pair", "a", "b"))


# The kind of a structured document names the rank of its roots: rank
# _KINDS.index(kind) + 1.
_KINDS = ("circulant", "bccb", "bc2cb")


def structured_to_dict(spec: TorusSpec) -> dict:
    rank = spec.root_a.ndim
    if rank > len(_KINDS):
        raise InputError(f"no structured document kind for rank {rank} roots")
    return {
        "kind": _KINDS[rank - 1],
        "dims": list(spec.dims),
        "a_root": spec.root_a.ravel().tolist(),
        "b_root": spec.root_b.ravel().tolist(),
    }


def structured_from_dict(doc: dict) -> TorusSpec:
    """The spec of a structured document; takes "a_root" and "b_root" out of doc."""
    try:
        kind = doc["kind"]
        dims = [_count(d, "dims entry") for d in doc["dims"]]
        a_root, b_root = doc.pop("a_root"), doc.pop("b_root")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed structured document: {exc}") from exc
    # a membership test, not a dict lookup: a JSON list or object is unhashable
    if kind not in _KINDS:
        raise InputError(f"unknown structured kind {kind!r}")
    rank = _KINDS.index(kind) + 1
    if len(dims) != rank:
        raise InputError(f"kind {kind!r} needs {rank} dims, got {dims}")
    if min(dims) < 1:
        raise InputError(f"dims must be positive, got {dims}")
    size = math.prod(dims)
    try:
        # rebinding each name frees its list before the next is converted
        a_root = _flat_floats(a_root, size, "a_root")
        b_root = _flat_floats(b_root, size, "b_root")
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed structured document: {exc}") from exc
    # dims are listed (p[, q[, r]]); root arrays are stored slowest-axis first.
    shape = tuple(reversed(dims))
    return TorusSpec(a_root.reshape(shape), b_root.reshape(shape))


def w_to_dict(h: PauliHamiltonian) -> dict:
    return {"n": h.n, "w": h.w.ravel().tolist()}


def w_from_dict(doc: dict) -> PauliHamiltonian:
    """The W matrix of a W document; takes "w" out of doc."""
    return PauliHamiltonian(*_square_matrices(doc, "W", "w"))


# Largest input file in bytes, 1 GiB.  The largest document another cap
# admits is lattice expand's output at quadform.MATRIX_SIZE_CAP sites: with
# every root entry a 24-character repr, 998,076,458 bytes (at most 30 bytes
# an entry, 1.007e9, on any spec).
INPUT_BYTE_CAP = 1 << 30

# Work of parsing one character of list text, in the unit of
# _blas.WORK_PER_WORKER: two processes from 1 MB of list text.  Set from
# the load table in README "Processes".
PARSE_WORK_PER_CHAR = 20

# Characters of list text parsed at a time (_floats_at).  A parsed number
# costs a 32-byte float object and list slot against about 5 characters of
# text, so a piece holds about 0.4 MB of Python floats whatever the list's
# length.
PIECE_CHARS = 1 << 16

# The keys whose lists the readers convert to float arrays.
_NUMBER_LISTS = {"a", "b", "a_root", "b_root", "w"}
_WS = json.decoder.WHITESPACE.match
_SCAN = json.scanner.make_scanner(json.JSONDecoder())


def _walk(text: str):
    """The top-level object in text with its flat lists of _NUMBER_LISTS
    (no nesting, string or literal; see the module docstring) left out
    (None), and the (key, start, end) of each in text order, from its '['
    to its ']'; ValueError where the text is no object, repeats a key or has
    trailing data, and what json's scanner raises on a malformed value."""
    doc, lists = {}, []
    i = _WS(text, 0).end()
    if not text.startswith("{", i):
        raise ValueError("no object")
    i = _WS(text, i + 1).end()
    while True:
        if not text.startswith('"', i):
            raise ValueError("no key")
        key, i = json.decoder.scanstring(text, i + 1)
        i = _WS(text, i).end()
        if key in doc or not text.startswith(":", i):
            raise ValueError("a repeated key or no colon")
        i = _WS(text, i + 1).end()
        end = text.find("]", i) if key in _NUMBER_LISTS and text.startswith("[", i) else -1
        if end >= 0 and all(text.find(c, i + 1, end) < 0 for c in '[{"rl'):
            doc[key] = None
            lists.append((key, i, end))
            i = end + 1
        else:
            doc[key], i = _SCAN(text, i)
        i = _WS(text, i).end()
        if not text.startswith(",", i):
            break
        i = _WS(text, i + 1).end()
    if not text.startswith("}", i) or _WS(text, i + 1).end() != len(text):
        raise ValueError("no closing brace, or trailing data")
    return doc, lists


def _floats_at(text: str, start: int, end: int):
    """The flat list text[start:end + 1] that _walk found, as a float array;
    None where a piece is refused (_nonzero_runs) or json or array.array
    rejects its other tokens (malformed text, an integer beyond the float
    range), and _split_load re-reads it.

    The list is read in pieces of about PIECE_CHARS characters cut at
    commas.  A token that is exactly 0 or 0.0 stays the +0.0 of the zeroed
    output; json's scanner parses the other tokens of a piece as one list,
    so that only one piece is ever held as Python floats, and array.array
    converts them for the scatter to their places.  So every value is what
    json and array.array make of its token, `-0`, `-0.0` and `0e0` included.
    A piece longer than 2 * PIECE_CHARS, which only a token longer than
    PIECE_CHARS can make, goes to json's scanner whole, without the scan,
    whose bytes and byte masks of the piece's length would hold 5 times
    the file for a list of one such token.
    """
    commas = text.count(",", start, end)
    if not commas and not text[start + 1:end].strip(" \t\n\r"):
        return np.zeros(0)      # `[]`, the one list whose blank token is no refusal
    out = np.zeros(commas + 1)
    i, filled = start + 1, 0
    try:
        while True:
            cut = text.find(",", i + PIECE_CHARS, end)
            cut = end if cut < 0 else cut
            if cut - i > 2 * PIECE_CHARS:
                values = array.array("d", _SCAN("[" + text[i:cut] + "]", 0)[0])
                out[filled:filled + len(values)] = values
                filled += len(values)
            else:
                tokens, nonzero, runs = _nonzero_runs(text[i:cut])
                if len(nonzero):
                    out[filled + nonzero] = array.array("d", _SCAN("[" + runs + "]", 0)[0])
                filled += tokens
            if cut == end:
                return out
            i = cut + 1
    # a character beyond ASCII raises UnicodeEncodeError, a ValueError;
    # json's scanner raises StopIteration where a value is missing
    except (ValueError, OverflowError, StopIteration):
        return None


def _nonzero_runs(piece: str):
    """The tokens of piece, list text cut at commas: their count, the
    indices of those that are not exactly 0 or 0.0 between JSON whitespace,
    and the text of these, each run of consecutive ones with its commas,
    joined by commas.  ValueError for a character beyond ASCII, which no
    number holds; and, where a zero token may stand in the piece, unless
    each token holds one stretch of bytes that are neither whitespace nor
    commas (a blank token holds none, one with whitespace inside it two or
    more), since a zero token never reaches json to be refused."""
    data = ("," + piece + ",  ").encode("ascii")    # two bytes past the last comma
    byte = np.frombuffer(data, np.uint8)
    if not ((byte[:-1] == 48) & (byte[1:] <= 44)).any():
        # no 0 before whitespace or a comma (all at most 44), so no token is 0
        # or 0.0: the piece is one run, and json checks every token of it
        tokens = np.count_nonzero(byte == 44) - 1
        return tokens, np.arange(tokens), piece
    inner = byte != 44      # in place below, as zero is, to hold two byte masks at a time
    for space in b" \t\n\r":
        inner &= byte != space
    commas = np.flatnonzero(byte == 44)     # token k lies between commas k and k + 1
    starts = np.flatnonzero(inner[1:] > inner[:-1])
    starts += 1     # the first byte of each stretch
    if len(starts) != len(commas) - 1 or not (
            (commas[:-1] < starts) & (starts < commas[1:])).all():
        raise ValueError("a blank token, or whitespace inside one")
    # zero[p]: the stretch from byte p is 0 or 0.0
    zero = byte[1:-2] == 46
    zero &= byte[2:-1] == 48
    zero &= ~inner[3:]
    zero |= ~inner[1:-2]
    zero &= byte[:-3] == 48
    zero = zero[starts]
    # run j of the other tokens is tokens edge[2j] to edge[2j + 1] - 1
    edge = np.flatnonzero(np.diff(~zero, prepend=False, append=False))
    # piece[k] is data[k + 1]
    runs = ",".join([piece[lo:hi] for lo, hi in zip((starts[edge[::2]] - 1).tolist(),
                                                    (commas[edge[1::2]] - 1).tolist())])
    return len(starts), np.flatnonzero(~zero), runs


def _split_load(text: str, path) -> dict:
    """The document in text with its flat number lists as float arrays,
    parsed on the processes the worker rule gives; a list that _floats_at
    refuses is re-read alone by json's scanner.  What the walk or a re-read
    raises goes to load_document, whose json.loads then parses the text."""
    doc, lists = _walk(text)
    workers = _blas.loop_workers(1 + len(lists), 0,
                                 sum(end - start for _, start, end in lists) * PARSE_WORK_PER_CHAR)
    parts, _ = _blas.split_chunks(
        lambda lo, hi: [_floats_at(text, *lists[k - 1][1:]) if k else doc for k in range(lo, hi)],
        1 + len(lists), workers, f"the lists of {path}")
    arrays = [arr for part in parts for arr in part][1:]
    for (key, start, _), arr in zip(lists, arrays):
        doc[key] = _SCAN(text, start)[0] if arr is None else arr
    return doc


def _read_text(fh, path) -> str:
    """The text of the binary file fh, read in 1 MiB pieces and decoded
    once as UTF-8; CapacityError once it holds more than INPUT_BYTE_CAP
    bytes, which bounds a stream (a pipe, a FIFO) whose fstat size is 0
    and a file that grew after its fstat."""
    pieces, held = [], 0
    while piece := fh.read(1 << 20):
        held += len(piece)
        if held > INPUT_BYTE_CAP:
            raise CapacityError(f"{path} holds more than the input cap of "
                                f"{INPUT_BYTE_CAP} bytes")
        pieces.append(piece)
    data = b"".join(pieces)
    del pieces
    return data.decode("utf-8")


def load_document(path) -> dict:
    """The top-level JSON object in the file at path.

    CapacityError for a file above INPUT_BYTE_CAP bytes, before it is read,
    and for a stream (a pipe, a FIFO) once it yields more bytes than that.
    """
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size > INPUT_BYTE_CAP:
                raise CapacityError(f"{path} holds {size} bytes, above the input cap "
                                    f"of {INPUT_BYTE_CAP}")
            text = _read_text(fh, path)
        try:
            doc = _split_load(text, path)
        except (ValueError, StopIteration, RecursionError):
            doc = json.loads(text)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"cannot read JSON document {path}: {exc}") from exc
    # what else json raises is int()'s refusal of a literal beyond Python's
    # digit limit, whose advice to raise the limit a CLI user cannot follow
    except ValueError as exc:
        raise InputError(f"cannot read JSON document {path}: it holds an integer literal "
                         f"longer than {sys.get_int_max_str_digits()} digits") from exc
    if not isinstance(doc, dict):
        raise InputError(f"top level of {path} must be a JSON object")
    return doc


def load_pair_or_structured(path) -> CoefficientPair | TorusSpec:
    """Dispatch on the document shape: structured specs carry a 'kind' key."""
    doc = load_document(path)
    return structured_from_dict(doc) if "kind" in doc else pair_from_dict(doc)


def load_pair_or_w(path) -> CoefficientPair | PauliHamiltonian:
    """Dispatch on the document shape: W documents carry a 'w' key."""
    doc = load_document(path)
    return w_from_dict(doc) if "w" in doc else pair_from_dict(doc)
