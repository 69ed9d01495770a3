"""JSON file formats for coefficient pairs, structured specs and W matrices.

Pair document:        {"n": int, "a": [n*n reals, row-major], "b": [...]}
Structured document:  {"kind": "circulant"|"bccb"|"bc2cb",
                       "dims": [p] | [p, q] | [p, q, r],
                       "a_root": [...], "b_root": [...]}   (row-major roots)
W document:           {"n": int, "w": [n*n reals, row-major]}

A reader takes each list out of the document it is given as it converts
it, so that the list can be freed before the next one is read: a document
is read once.  load_document also reports whether the file's text holds a
`true` or `false` literal anywhere; where it does not, no list can hold a
JSON boolean, and the readers skip the scan of every entry for one.

A file above INPUT_BYTE_CAP is refused before it is read, a stream (a pipe,
a FIFO) once it yields more.  Where the text holds no boolean literal, a
short walk over the top-level object (_walk) finds its flat lists under the
pair and root keys: each runs from its '[' to the next ']' with no '[', '{'
or '"' between.  Where the worker rule gives them two processes
(_blas.split_chunks), json's own scanner parses the rest of the object
before the fork and the two longest lists on either side of it, and each
list arrives as a float array, bit for bit what its list converts to.
Anything else, and any list json would not read or array.array would not
convert, is parsed by one json.loads of the whole text, so that every
message stays json's and the readers'.
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


def _flat_floats(data, size: int, name: str, booleans: bool) -> np.ndarray:
    """A flat list of size numbers as a float array; booleans, strings and null are not numbers.

    booleans is False for a list from a text with no boolean literal, which
    needs no scan for one.
    """
    try:
        arr = (data.astype(float, copy=False) if isinstance(data, np.ndarray)   # a worker's
               else np.frombuffer(array.array("d", data)))
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
    if booleans and bool in set(map(type, data)):
        raise InputError(f"{name} holds a boolean; entries must be numbers")
    return arr


def _count(value, name: str) -> int:
    """A JSON integer; booleans and floats such as 2.0 are not counts."""
    if type(value) is not int:
        raise InputError(f"{name} must be a JSON integer, got {value!r}")
    return value


def _square_matrices(doc: dict, booleans: bool, what: str, *names: str) -> list[np.ndarray]:
    """The n x n matrices `names`, flat row-major lists taken out of a pair or W document."""
    matrices = []
    try:
        n = _count(doc["n"], "n")
        for name in names:
            data = doc.pop(name)    # a missing first matrix is named before a bad n
            if n < 1:
                raise InputError(f"n must be positive, got {n}")
            matrices.append(_flat_floats(data, n * n, name, booleans).reshape(n, n))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed {what} document: {exc}") from exc
    return matrices


def pair_to_dict(pair: CoefficientPair) -> dict:
    return {"n": pair.n, "a": pair.a.ravel().tolist(), "b": pair.b.ravel().tolist()}


def pair_from_dict(doc: dict, booleans: bool = True) -> CoefficientPair:
    """The pair of a pair document; takes "a" and "b" out of doc."""
    return CoefficientPair(*_square_matrices(doc, booleans, "pair", "a", "b"))


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


def structured_from_dict(doc: dict, booleans: bool = True) -> TorusSpec:
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
        a_root = _flat_floats(a_root, size, "a_root", booleans)
        b_root = _flat_floats(b_root, size, "b_root", booleans)
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed structured document: {exc}") from exc
    # dims are listed (p[, q[, r]]); root arrays are stored slowest-axis first.
    shape = tuple(reversed(dims))
    return TorusSpec(a_root.reshape(shape), b_root.reshape(shape))


def w_to_dict(h: PauliHamiltonian) -> dict:
    return {"n": h.n, "w": h.w.ravel().tolist()}


def w_from_dict(doc: dict, booleans: bool = True) -> PauliHamiltonian:
    """The W matrix of a W document; takes "w" out of doc."""
    return PauliHamiltonian(*_square_matrices(doc, booleans, "W", "w"))


# Largest input file in bytes, 1 GiB.  The largest document another cap
# admits is lattice expand's output at quadform.MATRIX_SIZE_CAP sites: with
# every root entry a 24-character repr, 998,076,458 bytes (at most 30 bytes
# an entry, 1.007e9, on any spec).
INPUT_BYTE_CAP = 1 << 30

# Work of parsing one character of list text, in the unit of
# _blas.WORK_PER_WORKER: two processes from 1 MB of list text.  Set from
# the load rows of the break-even table in _blas.
PARSE_WORK_PER_CHAR = 20

# The keys whose lists the readers convert to float arrays.
_NUMBER_LISTS = {"a", "b", "a_root", "b_root"}
_WS = json.decoder.WHITESPACE.match
_SCAN = json.scanner.make_scanner(json.JSONDecoder())


def _walk(text: str):
    """The top-level object in text with its two longest flat lists of
    _NUMBER_LISTS left out (None), and the (length, start, key) of each in
    text order; or None where the text is no object, repeats a key or has
    trailing data.

    Raises what json's scanner raises on a malformed object.
    """
    doc, lists = {}, []
    i = _WS(text, 0).end()
    if not text.startswith("{", i):
        return None
    i = _WS(text, i + 1).end()
    while True:
        if not text.startswith('"', i):
            return None
        key, i = json.decoder.scanstring(text, i + 1)
        i = _WS(text, i).end()
        if key in doc or not text.startswith(":", i):
            return None
        i = _WS(text, i + 1).end()
        end = text.find("]", i) + 1 if key in _NUMBER_LISTS and text.startswith("[", i) else 0
        if end and all(text.find(c, i + 1, end) < 0 for c in '[{"'):
            doc[key] = None
            lists.append((end - i, i, key))
            i = end
        else:
            doc[key], i = _SCAN(text, i)
        i = _WS(text, i).end()
        if not text.startswith(",", i):
            break
        i = _WS(text, i + 1).end()
    if not text.startswith("}", i) or _WS(text, i + 1).end() != len(text):
        return None
    lists.sort()
    for _, start, key in lists[:-2]:
        doc[key] = _SCAN(text, start)[0]
    return doc, sorted(lists[-2:], key=lambda item: item[1])


def _floats_at(text: str, start: int):
    """The flat list at text[start] as a float array; None if json or
    array.array rejects it."""
    try:
        return np.frombuffer(array.array("d", _SCAN(text, start)[0]))
    except (ValueError, TypeError, OverflowError, StopIteration):
        return None


def _split_load(text: str, path) -> dict | None:
    """The document in text, its two longest flat lists parsed in two
    processes; None where one json.loads is to parse it (see the module
    docstring)."""
    try:
        walked = _walk(text)
    except (ValueError, StopIteration, RecursionError):
        return None
    if walked is None:
        return None
    doc, lists = walked
    workers = _blas.loop_workers(1 + len(lists), 0,
                                 sum(length for length, _, _ in lists) * PARSE_WORK_PER_CHAR)
    if workers == 1:
        return None
    parts, _ = _blas.split_chunks(
        lambda lo, hi: [_floats_at(text, lists[k - 1][1]) if k else doc for k in range(lo, hi)],
        1 + len(lists), workers, f"the lists of {path}")
    arrays = [arr for part in parts for arr in part][1:]
    if any(arr is None for arr in arrays):
        return None
    for (_, _, key), arr in zip(lists, arrays):
        doc[key] = arr
    return doc


def _read_text(fh, path) -> str:
    """The text of the open file fh, read as bytes in 1 MiB pieces and
    decoded once; CapacityError once it holds more than INPUT_BYTE_CAP
    bytes, which bounds a stream (a pipe, a FIFO) whose fstat size is 0
    and a file that grew after its fstat."""
    pieces, held = [], 0
    while piece := fh.buffer.read(1 << 20):
        held += len(piece)
        if held > INPUT_BYTE_CAP:
            raise CapacityError(f"{path} holds more than the input cap of "
                                f"{INPUT_BYTE_CAP} bytes")
        pieces.append(piece)
    data = b"".join(pieces)
    del pieces
    return data.decode(fh.encoding)


def load_document(path) -> tuple[dict, bool]:
    """The top-level JSON object in the file at path, and whether its text
    holds a boolean literal (a string such as "true" counts too).

    CapacityError for a file above INPUT_BYTE_CAP bytes, before it is read,
    and for a stream (a pipe, a FIFO) once it yields more bytes than that.
    """
    try:
        with open(path) as fh:
            size = os.fstat(fh.fileno()).st_size
            if size > INPUT_BYTE_CAP:
                raise CapacityError(f"{path} holds {size} bytes, above the input cap "
                                    f"of {INPUT_BYTE_CAP}")
            text = _read_text(fh, path)
        booleans = "true" in text or "false" in text
        doc = None if booleans else _split_load(text, path)
        if doc is None:
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
    return doc, booleans


def _load_by_key(path, key: str, with_key, without_key):
    """The document at path, read by with_key if it has the key, else by without_key."""
    doc, booleans = load_document(path)
    return (with_key if key in doc else without_key)(doc, booleans)


def load_pair_or_structured(path) -> CoefficientPair | TorusSpec:
    """Dispatch on the document shape: structured specs carry a 'kind' key."""
    return _load_by_key(path, "kind", structured_from_dict, pair_from_dict)


def load_pair_or_w(path) -> CoefficientPair | PauliHamiltonian:
    """Dispatch on the document shape: W documents carry a 'w' key."""
    return _load_by_key(path, "w", w_from_dict, pair_from_dict)
