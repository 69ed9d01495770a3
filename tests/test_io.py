import json

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
