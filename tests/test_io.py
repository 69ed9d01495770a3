import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from fermigap import io as fio, lattice as lat, quadform as qf, spinrep as sr
from fermigap.errors import InputError

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
], ids=["pair-string", "root-string", "w-padded-string", "null", "object", "ragged-list"])
def test_entries_that_are_no_numbers_rejected(read, doc, message):
    # strings such as "2.5" were once parsed as numbers, and null read as NaN
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

    def test_true_inside_a_string_still_loads(self, tmp_path):
        doc = fio.structured_to_dict(lat.build_xy_cycle(4))
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({**doc, "note": "true"}))
        assert fio.load_document(path)[1] is True
        spec = fio.load_pair_or_structured(path)
        assert spec.root_a.tolist() == doc["a_root"]
        assert spec.root_b.tolist() == doc["b_root"]


# The loaders' tracemalloc peak over the file size.  Parsed, a JSON number
# takes a float object and a list slot, 32 bytes against about 5 for the
# text of "0.0, ", so both lists cost about 6.5 times the file.  Converting
# one list while the other and the first array (8 bytes an entry) are held
# measured 7.5 times the file for both documents; holding both lists until
# both arrays and the validated pair exist, 9.7 and 9.8 times.
LOAD_PEAK_PER_FILE_BYTE = 8.5


@pytest.mark.parametrize("doc", [
    lambda: fio.structured_to_dict(
        lat.stack(lat.stack(lat.build_xy_cycle(64), 32), 32)),
    lambda: fio.pair_to_dict(lat.expand(lat.stack(lat.build_xy_cycle(16), 16))),
], ids=["torus-2^16-sites", "pair-256-sites"])
def test_load_peak_is_held_to_a_multiple_of_the_file(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc()))
    tracemalloc.start()
    try:
        fio.load_pair_or_structured(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= LOAD_PEAK_PER_FILE_BYTE * path.stat().st_size
