"""JSON file formats for coefficient pairs, structured specs and W matrices.

Pair document:        {"n": int, "a": [n*n reals, row-major], "b": [...]}
Structured document:  {"kind": "circulant"|"bccb"|"bc2cb",
                       "dims": [p] | [p, q] | [p, q, r],
                       "a_root": [...], "b_root": [...]}   (row-major roots)
W document:           {"n": int, "w": [n*n reals, row-major]}
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import InputError
from .lattice import TorusSpec
from .quadform import CoefficientPair
from .spinrep import PauliHamiltonian


def _flat_floats(data, size: int, name: str) -> np.ndarray:
    """A flat list of size numbers as a float array; JSON booleans are not numbers."""
    try:
        arr = np.asarray(data, dtype=float)
    except OverflowError:
        raise InputError(f"{name} holds an integer beyond the float range") from None
    if arr.shape != (size,):
        raise InputError(f"{name} must hold {size} values in a flat list, "
                         f"got an array of shape {arr.shape}")
    if bool in set(map(type, data)):
        raise InputError(f"{name} holds a boolean; entries must be numbers")
    return arr


def _count(value, name: str) -> int:
    """A JSON integer; booleans and floats such as 2.0 are not counts."""
    if type(value) is not int:
        raise InputError(f"{name} must be a JSON integer, got {value!r}")
    return value


def _square_matrices(doc: dict, what: str, *names: str) -> list[np.ndarray]:
    """n and the n x n matrices `names`, flat row-major lists, of a pair or W document."""
    matrices = []
    try:
        n = _count(doc["n"], "n")
        for name in names:
            data = doc[name]    # a missing first matrix is named before a bad n
            if n < 1:
                raise InputError(f"n must be positive, got {n}")
            matrices.append(_flat_floats(data, n * n, name).reshape(n, n))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed {what} document: {exc}") from exc
    return matrices


def pair_to_dict(pair: CoefficientPair) -> dict:
    return {"n": pair.n, "a": pair.a.ravel().tolist(), "b": pair.b.ravel().tolist()}


def pair_from_dict(doc: dict) -> CoefficientPair:
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
    try:
        kind = doc["kind"]
        dims = [_count(d, "dims entry") for d in doc["dims"]]
        a_root, b_root = doc["a_root"], doc["b_root"]
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
    return PauliHamiltonian(*_square_matrices(doc, "W", "w"))


def load_document(path) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read JSON document {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"top level of {path} must be a JSON object")
    return doc


def load_pair_or_structured(path) -> CoefficientPair | TorusSpec:
    """Dispatch on the document shape: structured specs carry a 'kind' key."""
    doc = load_document(path)
    if "kind" in doc:
        return structured_from_dict(doc)
    return pair_from_dict(doc)
