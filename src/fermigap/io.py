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
"""

from __future__ import annotations

import array
import json
import math
import sys

import numpy as np

from .errors import InputError
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
        arr = np.frombuffer(array.array("d", data))
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


def load_document(path) -> tuple[dict, bool]:
    """The top-level JSON object in the file at path, and whether its text
    holds a boolean literal (a string such as "true" counts too)."""
    try:
        with open(path) as fh:
            text = fh.read()
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
    return doc, "true" in text or "false" in text


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
