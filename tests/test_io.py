import array
import errno
import json
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fermigap import _blas, cli, io as fio, lattice as lat, quadform as qf, spinrep as sr
from fermigap.errors import FermigapError, InputError, NumericalError

from conftest import structured_specs


class TestPairDocuments:
    def test_roundtrip(self):
        pair = qf.symmetrize_split(np.random.default_rng(0).standard_normal((4, 4)))
        again = fio.pair_from_dict(fio.pair_to_dict(pair))
        assert np.array_equal(again.a, pair.a)
        assert np.array_equal(again.b, pair.b)

    def test_reports_violation_index(self):
        doc = fio.pair_to_dict(qf.CoefficientPair.identity(3))
        doc["b"][5] = 1.0  # b[1, 2], partner stays 0
        with pytest.raises(InputError, match=r"\(1, 2\)"):
            fio.pair_from_dict(doc)

    def test_empty_matrix_rejected(self):
        with pytest.raises(InputError, match="n must be positive"):
            fio.pair_from_dict({"n": 0, "a": [], "b": []})

    def test_wrong_length_rejected(self):
        with pytest.raises(InputError, match="4 values"):
            fio.pair_from_dict({"n": 2, "a": [0.0] * 3, "b": [0.0] * 4})


class TestStructuredDocuments:
    @pytest.mark.parametrize("spec", [
        lat.build_xy_cycle(5),
        lat.stack(lat.build_xy_cycle(4), 3),
        lat.stack(lat.stack(lat.build_xy_cycle(3), 3), 3),
    ])
    def test_roundtrip(self, spec):
        again = fio.structured_from_dict(fio.structured_to_dict(spec))
        assert type(again) is type(spec)
        dense_a = lat.expand(spec).a
        assert np.array_equal(lat.expand(again).a, dense_a)

    @given(spec=structured_specs())
    @settings(max_examples=100, deadline=None)
    def test_json_roundtrip_is_bit_identical(self, spec):
        again = fio.structured_from_dict(json.loads(json.dumps(fio.structured_to_dict(spec))))
        assert again.dims == spec.dims
        assert again.root_a.tobytes() == spec.root_a.tobytes()
        assert again.root_b.tobytes() == spec.root_b.tobytes()

    def test_unknown_kind(self):
        with pytest.raises(InputError, match="unknown structured kind"):
            fio.structured_from_dict({"kind": "toeplitz", "dims": [4],
                                      "a_root": [0.0] * 4, "b_root": [0.0] * 4})

    @pytest.mark.parametrize("kind", [[1], {"rank": 1}, 1, True, None])
    def test_non_string_kind(self, kind):
        with pytest.raises(InputError, match="unknown structured kind"):
            fio.structured_from_dict({"kind": kind, "dims": [4],
                                      "a_root": [0.0] * 4, "b_root": [0.0] * 4})

    def test_rank_without_kind_rejected(self):
        spec = lat.TorusSpec(np.zeros((1, 1, 1, 1)), np.zeros((1, 1, 1, 1)))
        with pytest.raises(InputError, match="rank 4"):
            fio.structured_to_dict(spec)

    def test_dims_mismatch(self):
        with pytest.raises(InputError, match="dims"):
            fio.structured_from_dict({"kind": "bccb", "dims": [4],
                                      "a_root": [0.0] * 4, "b_root": [0.0] * 4})


@pytest.mark.parametrize("read, doc, message", [
    (fio.pair_from_dict, {"n": 1, "a": ["2.5"], "b": [0.0]}, "a holds a string"),
    (fio.structured_from_dict, {"kind": "circulant", "dims": [3], "a_root": ["1", 0.5, 0.5],
                                "b_root": [0.0] * 3}, "a_root holds a string"),
    (fio.w_from_dict, {"n": 1, "w": [" 3 "]}, "w holds a string"),
    (fio.pair_from_dict, {"n": 1, "a": [None], "b": [0.0]}, "a holds null"),
    (fio.pair_from_dict, {"n": 1, "a": [0.0], "b": [{}]}, "b holds an object"),
    (fio.pair_from_dict, {"n": 2, "a": [[1.0], 0.0, 0.0, 1.0], "b": [0.0] * 4},
     "a holds a list"),
    (fio.pair_from_dict, {"n": 1, "a": [True], "b": [0.0]}, "a holds a boolean"),
    (fio.structured_from_dict, {"kind": "circulant", "dims": [3], "a_root": [0.0] * 3,
                                "b_root": [0.0, False, 0.0]}, "b_root holds a boolean"),
    (fio.w_from_dict, {"n": 1, "w": [True]}, "w holds a boolean"),
], ids=["pair-string", "root-string", "w-padded-string", "null", "object", "ragged-list",
        "pair-boolean", "root-boolean", "w-boolean"])
def test_entries_that_are_no_numbers_rejected(read, doc, message):
    # strings such as "2.5" were once parsed as numbers, and null read as NaN;
    # array.array reads a boolean as 1.0, so a list is scanned for one
    with pytest.raises(InputError, match=f"^{message}; entries must be numbers$"):
        read(doc)


class TestWDocuments:
    def test_roundtrip(self):
        h = sr.build_ising_w(4, 0.3)
        again = fio.w_from_dict(fio.w_to_dict(h))
        assert np.array_equal(again.w, h.w)


class TestLoadDispatch:
    def test_kind_key_selects_structured(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(fio.structured_to_dict(lat.build_xy_cycle(4))))
        assert isinstance(fio.load_pair_or_structured(path), lat.TorusSpec)
        path.write_text(json.dumps(fio.pair_to_dict(qf.CoefficientPair.identity(2))))
        assert isinstance(fio.load_pair_or_structured(path), qf.CoefficientPair)

    def test_w_key_selects_w(self, tmp_path):
        path = tmp_path / "doc.json"
        h = sr.build_ising_w(3, 0.5)
        path.write_text(json.dumps(fio.w_to_dict(h)))
        loaded = fio.load_pair_or_w(path)
        assert isinstance(loaded, sr.PauliHamiltonian) and np.array_equal(loaded.w, h.w)
        path.write_text(json.dumps(fio.pair_to_dict(qf.CoefficientPair.identity(2))))
        assert isinstance(fio.load_pair_or_w(path), qf.CoefficientPair)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(InputError, match="cannot read"):
            fio.load_document(path)

    def test_undecodable_bytes(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe\x00 not text")
        with pytest.raises(InputError, match="cannot read"):
            fio.load_document(path)

    def test_non_object_top_level(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(InputError, match="JSON object"):
            fio.load_document(path)

    @pytest.mark.parametrize("text, cause", [
        ("[" * 200_000 + "]" * 200_000, "maximum recursion depth"),
        ('{"n": 1, "a": [%s], "b": [0]}' % ("9" * 5000), "4300 digits"),
        ('{"n": %s, "a": [1.0], "b": [0]}' % ("9" * 5000), "4300 digits"),
    ], ids=["nested-too-deep", "long-integer-entry", "long-integer-count"])
    def test_text_python_cannot_parse_is_input_error(self, tmp_path, text, cause):
        # a RecursionError and a ValueError of the integer digit limit, each
        # once a traceback with exit 1
        path = tmp_path / "hostile.json"
        path.write_text(text)
        with pytest.raises(InputError, match=f"cannot read JSON document .*{cause}"):
            fio.load_document(path)

    @pytest.mark.parametrize("data, code, err", [
        ('{"n": 1, "a": [1.5], "b": [0], "note": "caf\u00e9"}'.encode(), 0, ""),
        (b'\xef\xbb\xbf{"n": 1, "a": [1.5], "b": [0]}', 2,
         "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    ], ids=["non-ascii-note", "bom"])
    @pytest.mark.parametrize("env", [{}, {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
                                          "LC_ALL": "C"}], ids=["default", "c-locale"])
    def test_documents_are_utf8_whatever_the_locale(self, tmp_path, data, code, err, env):
        # RFC 8259 8.1: JSON text is UTF-8.  The C locale once decoded it as
        # ASCII, so a non-ASCII note exited 2
        path = tmp_path / "doc.json"
        path.write_bytes(data)
        proc = subprocess.run([sys.executable, "-m", "fermigap.cli", "gap", str(path)],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, **env})
        assert proc.returncode == code
        if code:
            assert proc.stderr == f"fermigap: input error: cannot read JSON document {path}: {err}\n"
            assert proc.stdout == ""
        else:
            assert proc.stderr == "" and json.loads(proc.stdout)["gap"] == 3.0

    def test_true_inside_a_string_still_loads(self, tmp_path):
        doc = fio.structured_to_dict(lat.build_xy_cycle(4))
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({**doc, "note": "true"}))
        assert fio.load_document(path)["note"] == "true"
        spec = fio.load_pair_or_structured(path)
        assert spec.root_a.tolist() == doc["a_root"]
        assert spec.root_b.tolist() == doc["b_root"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
class TestStreamInput:
    """A FIFO or pipe reads size 0 from fstat: the read itself holds the byte cap."""

    PAIR = fio.pair_to_dict(qf.CoefficientPair.identity(1))
    # The UTF-8 bytes written: a document read in one piece; one whose note
    # is 24 bytes but 8 characters, so a count of characters would admit it
    # under a cap of its bytes less one; one padded to four 1 MiB pieces.
    DATA = {"ascii": json.dumps(PAIR).encode(),
            "non-ascii": json.dumps({**PAIR, "note": "\u20ac" * 8}, ensure_ascii=False).encode(),
            "several-pieces": json.dumps(PAIR).encode() + b" " * (3 << 20)}

    @staticmethod
    def fifo(tmp_path, data: bytes):
        """A FIFO in tmp_path and the thread that writes data into it."""
        path = tmp_path / "doc.fifo"
        os.mkfifo(path)

        def write():
            try:
                with open(path, "wb") as fh:
                    fh.write(data)
            except BrokenPipeError:
                pass

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        return str(path), writer

    @pytest.mark.parametrize("kind", list(DATA))
    @pytest.mark.parametrize("over", [1, 0], ids=["one-byte-over", "at-the-cap"])
    def test_fifo_over_the_cap_exit_2(self, tmp_path, monkeypatch, capsys, over, kind):
        data = self.DATA[kind]
        monkeypatch.setattr(fio, "INPUT_BYTE_CAP", len(data) - over)
        path, writer = self.fifo(tmp_path, data)
        code = cli.main(["gap", path])
        writer.join(timeout=10)
        assert not writer.is_alive()
        captured = capsys.readouterr()
        if over:
            assert code == 2
            assert captured.err == (f"fermigap: input error: {path} holds more than the "
                                    f"input cap of {fio.INPUT_BYTE_CAP} bytes\n")
            assert captured.out == ""
        else:
            assert code == 0
            assert json.loads(captured.out)["gap"] == 2.0


# The loaders' tracemalloc peak over the file size, in the process that
# reads the file.  The text stays held while its lists are parsed, and the
# float64 arrays take 8 bytes an entry of about 5 characters of "0.0, ", so
# the text and both arrays make 2.6 times the file; the scan of one piece
# (io.PIECE_CHARS characters: its text, bytes, byte masks and token
# positions, about 0.5 MB) adds the rest, as its zeros become no Python
# floats.  Measured 3.43 times the file in one process and 3.41 on two,
# with or without a literal beside the lists (3.57 and 3.42 when every
# token was parsed into a Python float, 0.4 MB a piece; 7.5 on one or two
# when such a literal, or each list parsed whole into Python floats, sent
# the text to json.loads); the bound leaves 17% above the larger.  A
# document whose one number is 4,000,000 characters long peaks at 3.00
# times the file in one process and on two, as json's scanner reads its
# piece whole (5.00 when the scan held that piece's bytes and byte masks).
LOAD_PEAK_PER_FILE_BYTE = 4.0


def _torus_2_16():
    return fio.structured_to_dict(lat.stack(lat.stack(lat.build_xy_cycle(64), 32), 32))


def _pair_256():
    return fio.pair_to_dict(lat.expand(lat.stack(lat.build_xy_cycle(16), 16)))


# valid JSON: a number may have any number of digits
_LONG_TOKEN = "0." + "1" * 3_999_998


def _one_long_token():
    """A pair of n = 1 whose "a" holds one number of 4,000,000 characters
    (_peak_text writes it in place of the string)."""
    return {"n": 1, "a": ["a long token"], "b": [0]}


def _peak_text(doc, extra) -> str:
    return json.dumps({**extra, **doc()}).replace('"a long token"', _LONG_TOKEN)


# Each document alone and with a literal beside its lists, which once sent
# the whole text to json.loads (a true or false anywhere in it).
_PEAK_DOCS = pytest.mark.parametrize("doc, extra", [
    (doc, extra) for extra in ({}, {"note": "true"}, {"checked": False}, {"comment": None})
    for doc in (_torus_2_16, _pair_256, _one_long_token)], ids=[
    name + tag for tag in ("", "-note-true", "-checked-false", "-comment-null")
    for name in ("torus-2^16-sites", "pair-256-sites", "one-long-token")])


def _load_peak(path) -> int:
    tracemalloc.start()
    try:
        fio.load_pair_or_structured(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@_PEAK_DOCS
def test_load_peak_is_held_to_a_multiple_of_the_file(tmp_path, doc, extra):
    path = tmp_path / "doc.json"
    path.write_text(_peak_text(doc, extra))
    assert _load_peak(path) <= LOAD_PEAK_PER_FILE_BYTE * path.stat().st_size


@_PEAK_DOCS
def test_two_process_load_peak_is_held_to_a_multiple_of_the_file(tmp_path, monkeypatch, doc,
                                                                 extra):
    path = tmp_path / "doc.json"
    path.write_text(_peak_text(doc, extra))
    monkeypatch.setattr(_blas, "loop_workers", lambda items, n, work=None: 2)
    assert _split(path)
    assert _load_peak(path) <= LOAD_PEAK_PER_FILE_BYTE * path.stat().st_size


@_PEAK_DOCS
def test_no_whole_text_parse_of_a_readable_document(tmp_path, monkeypatch, doc, extra):
    path = tmp_path / "doc.json"
    path.write_text(_peak_text(doc, extra))
    parsed, loads = [], json.loads
    monkeypatch.setattr(json, "loads", lambda text, **kw: parsed.append(text) or loads(text, **kw))
    fio.load_pair_or_structured(path)
    assert parsed == []


def test_zero_tokens_reach_no_parser(tmp_path, monkeypatch):
    # json's scanner costs about 100 ns a number, and a lattice's lists are
    # nearly all zeros: those must stay the zeros of the output array
    doc = _torus_2_16()
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    received, scan = [], fio._SCAN

    def spy(s, i):
        if i == 0:      # a list piece; the walk scans the document's other values at i > 0
            received.append(s)
        return scan(s, i)

    monkeypatch.setattr(fio, "_SCAN", spy)
    monkeypatch.setattr(_blas, "loop_workers", lambda items, n, work=None: 1)
    spec = fio.load_pair_or_structured(path)
    assert spec.root_a.tobytes() == np.array(doc["a_root"]).tobytes()
    assert spec.root_b.tobytes() == np.array(doc["b_root"]).tobytes()
    tokens = [t.strip() for s in received for t in s[1:-1].split(",")]
    nonzero = [repr(x) for key in ("a_root", "b_root") for x in doc[key] if x != 0]
    assert sorted(tokens) == sorted(nonzero)
    assert sum(map(len, received)) <= sum(len(t) + 2 for t in nonzero) + 2 * len(received)


def _outcome(path, workers: int | None, read=fio.load_pair_or_structured):
    """What load_document and read make of path with the worker rule faked
    to workers, or with workers None by one json.loads of the whole text:
    the document's keys, each value's bits (a list converted as the readers
    convert it) and the arrays read; or the type and text of the error each
    raised."""
    found = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_blas, "loop_workers", lambda items, n, work=None: workers)
        if workers is None:
            mp.setattr(fio, "_split_load", _refuse)
        for load in (fio.load_document, read):
            try:
                found.append(load(path))
            except FermigapError as exc:
                found.append((type(exc).__name__, str(exc)))
    loaded, source = found
    if isinstance(loaded, dict):
        loaded = [(key, _bits(value)) for key, value in loaded.items()]
    if not isinstance(source, tuple):
        source = [arr.tobytes() for arr in vars(source).values()]
    return loaded, source


def _refuse(text, path):
    raise ValueError("parsed by json.loads alone")


def _bits(value):
    if isinstance(value, np.ndarray):
        return value.tobytes()
    try:
        return np.frombuffer(array.array("d", value)).tobytes()
    except (TypeError, OverflowError):
        return repr(value)


def _split(path, workers: int = 2) -> bool:
    """Whether load_document, on workers processes, hands back its lists as
    arrays: some list, and every list of numbers under a number key."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_blas, "loop_workers", lambda items, n, work=None: workers)
        try:
            doc = fio.load_document(path)
        except InputError:
            return False
    left = [key for key, value in doc.items() if key in fio._NUMBER_LISTS
            and isinstance(value, list) and all(type(x) in (int, float) for x in value)]
    return any(isinstance(value, np.ndarray) for value in doc.values()) and not left


_PAIR = '{"n": 1, "a": [1.5], "b": [0]}'
_RING = json.dumps(fio.structured_to_dict(lat.build_xy_cycle(5)))
# Three number lists, the shortest first: no documented format has more than two.
_THREE_LISTS = '{"n": 1, "b": [0], "a": [1.5], "w": [2.5]}'


class TestTwoProcessLoad:
    """load_document's list route, on one process or two, reads what one
    json.loads reads."""

    @pytest.mark.parametrize("text, split", [
        (_PAIR, True),
        (_RING, True),
        (_THREE_LISTS, True),
        (_RING[:-1] + ', "a": [0.5, -0]}', True),
        (_THREE_LISTS.replace('"n": 1', '"n": 2'), True),
        (_THREE_LISTS.replace("[0]", "[0, ]"), False),
        (_THREE_LISTS.replace("[0]", '[0, "x"]'), True),
        ('{ "n" : 1 ,\t"a" : [ 1.5 ]\r\n, "b":[\n0\n] }\n', True),
        ('{"b": [0], "a": [2.5], "n": 1}', True),
        ('{"n": 1, "a": [1.0], "a": [2.0], "b": [0]}', False),
        ('{"n": 1, "note": "x]y", "a": [1.0], "b": [0]}', True),
        ('{"n": 1, "a": [1.0, "]"], "b": [0]}', True),
        ('{"n": 2, "a": [[1.0, 0.0], [0.0, 1.0]], "b": [0, 0, 0, 0]}', True),
        ('{"n": 1, "a": [1.0], "b": [0], "meta": {"x": [1]}}', True),
        ('{"n": 1, "a": [true], "b": [0]}', True),
        ('{"n": 1, "a": [1.5], "b": [0], "note": "false"}', True),
        ('{"n": 1, "a": [NaN], "b": [0]}', True),
        ('{"n": 1, "a": [-Infinity], "b": [0]}', True),
        ('{"n": 1, "a": [null], "b": [0]}', True),
        ('{"n": 1, "a": [1%s], "b": [0]}' % ("0" * 400), False),
        ('{"n": 1, "a": [%s], "b": [0]}' % ("9" * 5000), False),
        ('{"n": 1, "a": [1.0,], "b": [0]}', False),
        ('{"n": 1, "a": [1.0, "b": [0]}', False),
        ('{"n": 0, "a": [], "b": []}', True),
        ('{"n": 1, "a": [1.0], "b": [0],}', False),
        ("\ufeff" + _PAIR, False),
        (_PAIR + " x", False),
        ("[[1.0], [0]]", False),
    ], ids=["pair", "ring", "three-lists", "ring-with-a", "three-lists-wrong-n",
            "three-lists-trailing-comma", "three-lists-string-entry", "whitespace", "key-order",
            "duplicate-key", "bracket-in-string", "string-entry", "nested-list", "object-value",
            "boolean", "boolean-in-string", "nan", "infinity", "null", "int-beyond-float",
            "int-over-4300-digits", "trailing-comma", "unclosed-list", "empty-lists",
            "trailing-comma-in-object", "bom", "trailing-data", "top-level-list"])
    def test_reads_what_one_process_reads(self, tmp_path, text, split):
        path = tmp_path / "doc.json"
        path.write_text(text, encoding="utf-8")
        for read in (fio.load_pair_or_structured, fio.load_pair_or_w):
            assert (_outcome(path, 2, read) == _outcome(path, 1, read)
                    == _outcome(path, None, read))
        assert _split(path) is split

    @given(text=st.data())
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_drawn_documents_read_alike(self, tmp_path, text):
        path = tmp_path / "doc.json"
        path.write_text(text.draw(_document_texts()), encoding="utf-8")
        assert _outcome(path, 2) == _outcome(path, 1) == _outcome(path, None)

    def test_w_document_reads_alike(self, tmp_path):
        path = tmp_path / "doc.json"
        w = np.arange(-4.0, 5.0).reshape(3, 3) / 7
        path.write_text(json.dumps(fio.w_to_dict(sr.PauliHamiltonian(w))))
        assert _split(path)
        assert (_outcome(path, 2, fio.load_pair_or_w) == _outcome(path, 1, fio.load_pair_or_w)
                == _outcome(path, None, fio.load_pair_or_w))

    @pytest.mark.parametrize("piece", [1, 2, 3, 5, 7])
    @pytest.mark.parametrize("text, split", [
        *(('{"n": 1, "a": %s, "b": [0]}' % entries, split) for entries, split in [
            ("[]", True), ("[ ]", True), ("[1, ]", False), ("[, 1]", False),
            ("[1,,2]", False), ("[1, , 2]", False), ("[-0]", True), ("[1e400]", True),
            ("[NaN]", True), ("[Infinity]", True), ("[1%s]" % ("0" * 400), False),
            ("[true]", True), ("[null]", True), ("[0]", True), ("[0.0]", True),
            ("[-0.0]", True), ("[00]", False), ("[0.00]", True), ("[0e0]", True),
            ("[0 .0]", False), ("[0.0.0]", False), ("[0.0 1]", False), ("[0, ]", False),
            ("[, 0.0]", False), ("[0,0.0, 0 ,\n 0.0]", True),
            ("[%s]" % ", ".join(["0", "0.0"] * 20), True)]),
        (json.dumps(fio.pair_to_dict(lat.expand(lat.build_xy_cycle(5))), indent=2), True),
        (_THREE_LISTS.replace("[2.5]", "[2.5, -0, 1e400]"), True),
    ], ids=["empty", "blank", "trailing-comma", "leading-comma", "doubled-comma",
            "blank-between-commas", "minus-zero", "overflowing-float", "nan", "infinity",
            "int-beyond-float", "boolean", "null", "zero", "zero-point-zero",
            "minus-zero-point-zero", "double-zero", "zero-point-double-zero", "zero-exponent",
            "space-inside-zero", "two-points", "zero-then-number", "zero-trailing-comma",
            "leading-comma-zero", "zeros-in-whitespace", "zeros-alone", "indent-2",
            "three-lists"])
    def test_piece_cuts_change_nothing(self, tmp_path, monkeypatch, piece, text, split):
        path = tmp_path / "doc.json"
        path.write_text(text)
        monkeypatch.setattr(fio, "PIECE_CHARS", piece)
        assert _outcome(path, 1) == _outcome(path, None)
        assert _split(path, 1) is split

    def test_zero_lookalikes_reach_the_scan_at_small_pieces(self, tmp_path, monkeypatch):
        # at 5 characters a piece no piece of these short tokens is longer
        # than 2 * 5, so each takes the byte scan, not json's scanner whole
        entries = "0,0.0, 0 ,\n 0.0,-0,-0.0,0.00,0e0,1.5,0"
        path = tmp_path / "doc.json"
        path.write_text('{"n": 1, "a": [%s], "b": [0]}' % entries)
        monkeypatch.setattr(fio, "PIECE_CHARS", 5)
        scanned, scan = [], fio._nonzero_runs

        def spying(piece):
            scanned.append(piece)
            return scan(piece)

        monkeypatch.setattr(fio, "_nonzero_runs", spying)
        assert _outcome(path, 1) == _outcome(path, None)
        # each of the two readers scans a's pieces, cut at commas, then b's "0"
        half = len(scanned) // 2
        assert scanned[:half] == scanned[half:] and len(scanned) == 2 * half
        assert ",".join(scanned[:half - 1]) == entries and scanned[half - 1] == "0"

    @pytest.mark.parametrize("refused", ["[0, true]", "[1%s]" % ("0" * 400)],
                             ids=["boolean", "int-beyond-float"])
    def test_a_refused_list_leaves_the_others_arrays(self, tmp_path, refused):
        # the refused list alone is json's list; the long one is parsed in pieces
        long = np.random.default_rng(0).standard_normal(20_000).tolist()
        path = tmp_path / "doc.json"
        path.write_text('{"kind": "circulant", "dims": [20000], "a_root": %s, "b_root": %s}'
                        % (json.dumps(long), refused))
        doc = fio.load_document(path)
        assert isinstance(doc["a_root"], np.ndarray) and doc["a_root"].tolist() == long
        assert doc["b_root"] == json.loads(refused)
        assert _outcome(path, 2) == _outcome(path, 1) == _outcome(path, None)

    def test_leaves_the_loop_record_alone(self, tmp_path, monkeypatch):
        path = tmp_path / "doc.json"
        path.write_text(_RING)
        monkeypatch.setattr(_blas, "last_loop", {"workers": 7})
        assert _split(path)
        assert _blas.last_loop == {"workers": 7}

    def test_failed_fork_parses_here(self, tmp_path, monkeypatch):
        path = tmp_path / "doc.json"
        path.write_text(_RING)

        def no_fork():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        assert _split(path)
        assert _outcome(path, 2) == _outcome(path, 1) == _outcome(path, None)

    def test_dead_worker_exit_3_with_one_line(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "doc.json"
        path.write_text(_RING)
        parent, floats_at = os.getpid(), fio._floats_at

        def dying(text, start, end):
            if os.getpid() != parent:
                os._exit(1)
            return floats_at(text, start, end)

        monkeypatch.setattr(fio, "_floats_at", dying)
        monkeypatch.setattr(_blas, "loop_workers", lambda items, n, work=None: 2)
        with pytest.raises(NumericalError, match=r"the worker for the lists of .* \[2, 3\) died"):
            fio.load_document(path)
        assert cli.main(["gap", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"fermigap: numerical error: the worker for the lists of {path} "
                                "[2, 3) died (exit status 1)\n")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


_WHITESPACE = st.sampled_from(["", " ", "\n", "\t", " \r\n  "])
# Zero lookalikes and entries that are no plain number, each read or refused
# alike by both routes.
_ODD_ENTRIES = st.sampled_from(["0", "0.0", "-0", "-0.0", "00", "0.00", "0e0", "0 .0", "0.0.0",
                                "0.0 1", "1E5", "2.5e-3", "1e400", "NaN", "Infinity", "-Infinity",
                                "1" + "0" * 400, "9" * 5000, "true", "false", "null", '"]"',
                                "[1]", "[]", "{}", ""])


@st.composite
def _document_texts(draw):
    """The text of a valid 2-site pair or ring document in drawn whitespace and
    key order, now and then with an odd entry, a trailing comma, an empty
    list, an extra key (a literal, a string with a literal or ']', a nested
    list) or a repeated one, a BOM or trailing data."""
    number = st.floats(-2.0, 2.0).map(repr) | st.integers(-3, 3).map(str)
    if draw(st.booleans()):
        m = draw(st.integers(1, 5))
        half, w = (draw(st.lists(number, min_size=m, max_size=m)) for _ in range(2))
        lists = {"a_root": [half[min(k, m - k)] for k in range(m)],
                 "b_root": [w[k] if k < m - k else "-" + w[m - k] if k > m - k else "0"
                            for k in range(m)]}
        fields = {"kind": '"circulant"', "dims": f"[{m}]"}
    else:
        x, y, z, w = (draw(number) for _ in range(4))
        lists = {"a": [x, y, y, z], "b": ["0", w, "-" + w, "0"]}
        fields = {"n": "2"}
    lists = {key: [entry.replace("--", "") for entry in entries]
             for key, entries in lists.items()}
    if draw(st.integers(0, 3)) == 0:
        entries = lists[draw(st.sampled_from(sorted(lists)))]
        entries[draw(st.integers(0, len(entries) - 1))] = draw(_ODD_ENTRIES)
    for key, entries in lists.items():
        sep = draw(_WHITESPACE) + "," + draw(_WHITESPACE)
        tail = "," if draw(st.integers(0, 7)) == 0 else ""
        body = sep.join(entries) + tail if draw(st.integers(0, 9)) else ""
        fields[key] = "[" + draw(_WHITESPACE) + body + draw(_WHITESPACE) + "]"
    items = draw(st.permutations(list(fields.items())))
    extra = draw(st.sampled_from([None, None, ("note", '"a ] b"'), ("grid", "[[1, 2], [3]]"),
                                  ("checked", "true"), ("checked", "false"), ("comment", "null"),
                                  ("note", '"true ] false"'), "repeat"]))
    if extra == "repeat":
        items.append(items[0])
    elif extra:
        items.insert(draw(st.integers(0, len(items))), extra)
    ws = draw(_WHITESPACE)
    text = "{" + ws + ("," + ws).join(f'"{key}"{ws}:{ws}{value}' for key, value in items) + "}"
    bom = "\ufeff" if draw(st.integers(0, 7)) == 0 else ""
    return bom + text + draw(st.sampled_from(["", "", "\n", "\n", " x"]))
