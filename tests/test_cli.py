import ast
import dataclasses
import errno
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fermigap
from fermigap import _blas, cli, ensembles as ens, io as fio, lattice as lat, quadform as qf, \
    spinrep as sr
from fermigap.errors import CapacityError

from conftest import fake_openblas, with_off_parity_term


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def pair_doc(pair):
    return fio.pair_to_dict(pair)


def no_singular_values(monkeypatch):
    """Make the dense SVD and the stored half of a symbol fail if called."""
    def called(*args):
        raise AssertionError("a singular value was computed")

    monkeypatch.setattr(qf, "_singular_values", called)
    monkeypatch.setattr(lat, "_half_symbol", called)


@pytest.fixture
def identity_pair_file(tmp_path):
    return write_json(tmp_path / "pair.json", pair_doc(qf.CoefficientPair.identity(4)))


@pytest.fixture
def xy_spec_file(tmp_path):
    return write_json(tmp_path / "spec.json",
                      fio.structured_to_dict(lat.build_xy_cycle(6)))


class TestGapAndSpectrum:
    def test_gap_json(self, identity_pair_file, capsys):
        assert cli.main(["gap", identity_pair_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gap"] == 2.0
        assert doc["ground_energy"] == -4.0
        assert doc["degenerate"] is False

    def test_gap_accepts_structured_input(self, xy_spec_file, capsys):
        assert cli.main(["gap", xy_spec_file]) == 0
        assert json.loads(capsys.readouterr().out)["gap"] == pytest.approx(2.0)

    @pytest.mark.parametrize("input_file", ["identity_pair_file", "xy_spec_file"])
    def test_gap_json_key_order(self, input_file, request, capsys):
        assert cli.main(["gap", request.getfixturevalue(input_file)]) == 0
        assert list(json.loads(capsys.readouterr().out)) == [
            "gap", "ground_energy", "degenerate", "num_zero_modes", "zero_tolerance"]

    def test_spectrum(self, tmp_path, capsys):
        path = write_json(tmp_path / "p.json",
                          pair_doc(qf.CoefficientPair.identity(2)))
        assert cli.main(["spectrum", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["energies"] == [-2.0, 0.0, 0.0, 2.0]

    def test_invalid_input_exit_2(self, tmp_path, capsys):
        doc = pair_doc(qf.CoefficientPair.identity(2))
        doc["a"][1] = 5.0  # breaks symmetry
        path = write_json(tmp_path / "bad.json", doc)
        assert cli.main(["gap", path]) == 2
        assert "(0, 1)" in capsys.readouterr().err

    def test_missing_file_exit_2(self, capsys):
        assert cli.main(["gap", "/nonexistent.json"]) == 2

    @pytest.mark.parametrize("command", ["gap", "profile"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1e-3"])
    def test_bad_tolerance_exit_2(self, identity_pair_file, xy_spec_file, capsys,
                                  command, tol):
        for path in (identity_pair_file, xy_spec_file):
            assert cli.main([command, path, f"--tol={tol}"]) == 2
            captured = capsys.readouterr()
            assert "zero_tolerance" in captured.err
            assert captured.out == ""

    @pytest.mark.parametrize("n, entry", [(1, 1e308), (3, 1.7e308)])
    def test_overflow_exit_3_without_json_constants(self, tmp_path, capsys, n, entry):
        # n = 1: the gap 2e308 overflows; n = 3: the singular values do
        path = write_json(tmp_path / "big.json",
                          {"n": n, "a": [entry] * (n * n), "b": [0.0] * (n * n)})
        assert cli.main(["gap", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "numerical error" in captured.err

    def test_negative_dims_exit_2(self, tmp_path, capsys):
        path = write_json(tmp_path / "spec.json",
                          {"kind": "bccb", "dims": [-2, -3],
                           "a_root": [0.0] * 6, "b_root": [0.0] * 6})
        assert cli.main(["gap", path]) == 2
        assert "dims must be positive" in capsys.readouterr().err

    def test_nested_matrix_exit_2_names_shape(self, tmp_path, capsys):
        path = write_json(tmp_path / "nested.json",
                          {"n": 2, "a": [[1.0, 0.0], [0.0, 1.0]], "b": [0.0] * 4})
        assert cli.main(["gap", path]) == 2
        assert "shape (2, 2)" in capsys.readouterr().err

    def test_list_nested_deeper_than_numpy_exit_2_names_depth(self, tmp_path, capsys):
        # the message once gave numpy's shape of it: 64 axes, all of length 1
        path = tmp_path / "deep.json"
        path.write_text('{"n": 2, "a": %s0%s, "b": [0, 0, 0, 0]}' % ("[" * 900, "]" * 900))
        for command in ("gap", "jw"):
            assert cli.main([command, str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == ("fermigap: input error: a must hold 4 values in a flat "
                                    "list, got a list nested 900 deep\n")

    def test_spectrum_mode_cap_exit_2(self, tmp_path, capsys, monkeypatch):
        path = write_json(tmp_path / "p.json", pair_doc(qf.CoefficientPair.identity(23)))
        no_singular_values(monkeypatch)     # refused from n alone
        assert cli.main(["spectrum", path]) == 2
        captured = capsys.readouterr()
        assert "n=23 exceeds the spectrum enumeration cap of 22 modes" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command, doc, message", [
        ("spectrum", {"kind": "circulant", "dims": [3], "a_root": [1e308, 0, 0],
                      "b_root": [0, 0, 0]},
         "singular values do not sum to a finite value: inf"),
        ("spectrum", {"n": 1, "a": [1e308], "b": [0.0]},
         "the levels of singular values summing to 1e+308 overflow"),
        ("profile", {"n": 1, "a": [1e308], "b": [0.0]},
         "non-finite value in JSON output"),
    ], ids=["spectrum-sum", "spectrum-levels", "profile-gap"])
    def test_overflow_exit_3_with_one_line(self, tmp_path, capsys, command, doc, message):
        # in process, so a numpy RuntimeWarning fails the test as an error
        assert cli.main([command, write_json(tmp_path / "big.json", doc)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"fermigap: numerical error: {message}")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command, doc", [
        ("gap", {"n": 2, "a": [1.0, 0.0, 0.0, True], "b": [0.0] * 4}),
        ("gap", {"kind": "circulant", "dims": [3], "a_root": [0.0, 1.0, 1.0],
                 "b_root": [False, 0.0, 0.0]}),
        ("gap", {"kind": "circulant", "dims": [3], "a_root": [0.0, 1.0, 1.0],
                 "b_root": [0.0, 0.0, True]}),
        ("jw", {"n": 2, "w": [1.0, False, 0.0, 1.0]}),
        ("jw", {"n": 2, "a": [1.0, 0.0, 0.0, 1.0], "b": [0.0, True, 0.0, 0.0]}),
    ], ids=["doc0", "doc1", "doc2", "jw-w", "jw-pair"])
    def test_boolean_entries_exit_2(self, tmp_path, capsys, command, doc):
        # the error names the one list that holds the boolean
        name = next(key for key, value in doc.items()
                    if isinstance(value, list) and any(isinstance(x, bool) for x in value))
        path = write_json(tmp_path / "bool.json", doc)
        assert cli.main([command, path]) == 2
        assert f"{name} holds a boolean" in capsys.readouterr().err

    @pytest.mark.parametrize("command, doc, name", [
        ("gap", {"n": 1, "a": ["2.5"], "b": [0.0]}, "a"),
        ("gap", {"kind": "circulant", "dims": [3], "a_root": ["1", 0.5, 0.5],
                 "b_root": [0, 0, 0]}, "a_root"),
        ("jw", {"n": 1, "w": [" 3 "]}, "w"),
    ], ids=["pair", "root", "w"])
    def test_string_entries_exit_2(self, tmp_path, capsys, command, doc, name):
        # once parsed as numbers: the pair printed gap 5.0 with exit 0
        assert cli.main([command, write_json(tmp_path / "doc.json", doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"fermigap: input error: {name} holds a string; "
                                f"entries must be numbers\n")

    @pytest.mark.parametrize("command, text", [
        ("gap", '{"n": %s, "a": [1.0], "b": [0]}' % ("9" * 5000)),
        ("jw", '{"n": 1, "w": [%s]}' % ("9" * 5000)),
    ], ids=["gap", "jw"])
    def test_over_long_integer_exit_2_without_python_advice(self, tmp_path, capsys, command,
                                                            text):
        # Python's message ended "use sys.set_int_max_str_digits() to
        # increase the limit", which a CLI user cannot do
        path = tmp_path / "long.json"
        path.write_text(text)
        assert cli.main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "set_int_max_str_digits" not in captured.err
        assert captured.err == (f"fermigap: input error: cannot read JSON document {path}: "
                                f"it holds an integer literal longer than 4300 digits\n")

    @pytest.mark.parametrize("count", [True, 2.7, 2.0])
    @pytest.mark.parametrize("command, doc", [
        ("gap", lambda c: {"n": c, "a": [1.0, 0.0, 0.0, 1.0], "b": [0.0] * 4}),
        ("gap", lambda c: {"kind": "bccb", "dims": [2, c],
                           "a_root": [1.0, 0.0, 0.0, 0.0], "b_root": [0.0] * 4}),
        ("jw", lambda c: {"n": c, "w": [1.0, 0.0, 0.0, 1.0]}),
    ], ids=["pair", "structured", "w"])
    def test_non_integer_count_exit_2(self, tmp_path, capsys, command, doc, count):
        path = write_json(tmp_path / "count.json", doc(count))
        assert cli.main([command, path]) == 2
        captured = capsys.readouterr()
        assert "must be a JSON integer" in captured.err
        assert captured.out == ""

    def test_non_string_kind_exit_2(self, tmp_path, capsys):
        path = write_json(tmp_path / "k.json", {"kind": [1], "dims": [3],
                                                "a_root": [0, 0, 0], "b_root": [0, 0, 0]})
        assert cli.main(["gap", path]) == 2
        captured = capsys.readouterr()
        assert "unknown structured kind" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv, message", [
        (["lattice", "expand", "PATH"], "dense-expansion cap of 4096 sites"),
        (["spectrum", "PATH"], "n=4097 exceeds the spectrum enumeration cap of 22 modes"),
    ], ids=["lattice-expand", "spectrum"])
    def test_structured_spec_above_caps_exit_2(self, tmp_path, capsys, monkeypatch,
                                               argv, message):
        def no_expansion(spec):
            raise AssertionError("spectrum expanded a spec above its cap")

        n = qf.MATRIX_SIZE_CAP + 1
        path = write_json(tmp_path / "ring.json", {"kind": "circulant", "dims": [n],
                                                   "a_root": [0.0] * n, "b_root": [0.0] * n})
        if argv[0] == "spectrum":
            monkeypatch.setattr(lat, "expand", no_expansion)
            no_singular_values(monkeypatch)
        assert cli.main([path if arg == "PATH" else arg for arg in argv]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_gap_of_structured_spec_never_expands(self, tmp_path, capsys, monkeypatch):
        def no_expansion(spec):
            raise AssertionError("gap expanded a structured spec")

        monkeypatch.setattr(lat, "expand", no_expansion)
        spec = lat.build_xy_cycle(qf.MATRIX_SIZE_CAP + 1)
        path = write_json(tmp_path / "ring.json", fio.structured_to_dict(spec))
        assert cli.main(["gap", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == dataclasses.asdict(lat.structured_gap_report(spec, 1.0))

    @pytest.mark.parametrize("shape", [(4099,), (65, 66), (17, 16, 17)], ids=str)
    def test_gap_of_each_rank_is_the_fft_report(self, tmp_path, capsys, monkeypatch, shape):
        # above the dense-expansion cap, so only the stored half can answer
        monkeypatch.setattr(lat, "expand", None)
        rng = np.random.default_rng(len(shape))
        a, b = rng.standard_normal(shape), rng.standard_normal(shape)
        spec = lat.TorusSpec((a + lat._reflect(a)) / 2.0, (b - lat._reflect(b)) / 2.0)
        path = write_json(tmp_path / "spec.json", fio.structured_to_dict(spec))
        assert cli.main(["gap", path]) == 0
        report = qf.ground_gap(spec)
        assert report == lat.structured_gap_report(spec, 1.0)
        assert json.loads(capsys.readouterr().out) == dataclasses.asdict(report)

    def test_spectrum_accepts_structured_input(self, tmp_path, capsys):
        spec = lat.build_xy_cycle(4)
        path = write_json(tmp_path / "ring.json", fio.structured_to_dict(spec))
        assert cli.main(["spectrum", path]) == 0
        energies = json.loads(capsys.readouterr().out)["energies"]
        assert energies == qf.subset_sum_spectrum(spec.singular_values()).tolist()

    def test_structured_spectrum_matches_dense_oracle(self, tmp_path, capsys):
        rng = np.random.default_rng(23)
        a, b = rng.standard_normal(6), rng.standard_normal(6)
        spec = lat.TorusSpec((a + lat._reflect(a)) / 2.0, (b - lat._reflect(b)) / 2.0)
        path = write_json(tmp_path / "ring.json", fio.structured_to_dict(spec))
        assert cli.main(["spectrum", path]) == 0
        energies = np.array(json.loads(capsys.readouterr().out)["energies"])
        oracle = sr.dense_spectrum_oracle(sr.PauliHamiltonian(sr.ab_to_w(lat.expand(spec))))
        # each of the n singular values within 1e-12 (1 + max Lambda)
        tol = spec.n * 1e-12 * (1.0 + spec.singular_values().max())
        assert np.max(np.abs(energies - oracle)) <= tol

    def test_usage_error_exit_1(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["gap"])
        assert exc.value.code == 1


class TestProfile:
    def test_csv_and_summary_files(self, xy_spec_file, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["profile", xy_spec_file, "--grid", "11",
                         "--out", str(out)]) == 0
        rows = (out / "profile.csv").read_text().strip().splitlines()
        assert rows[0] == "s,gap,degenerate"
        assert len(rows) == 12
        summary = json.loads((out / "summary.json").read_text())
        assert 0.0 <= summary["min_gap_s"] <= 1.0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "profile"
        assert "profile.csv" in manifest["outputs"]

    def test_structured_summary_reports_path_minimum(self, tmp_path):
        # sigma_0 = sum(a) = -2: the gap closes at s = 1/3, between grid points
        spec = lat.TorusSpec(np.array([-3.0, 0.5, 0.0, 0.0, 0.5]),
                             np.array([0.0, 0.25, 0.0, 0.0, -0.25]))
        path = write_json(tmp_path / "spec.json", fio.structured_to_dict(spec))
        out = tmp_path / "out"
        assert cli.main(["profile", path, "--grid", "11", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["closes"] is True
        assert summary["path_min_gap"] <= summary["min_gap"]
        assert summary["path_min_gap_s"] == pytest.approx(1.0 / 3.0)

    def test_manifest_records_no_seed_and_blas_threads(self, identity_pair_file,
                                                        xy_spec_file, tmp_path):
        # a dense profile loops under the one-thread cap, a structured one runs no BLAS loop
        for path, dense in ((identity_pair_file, True), (xy_spec_file, False)):
            out = tmp_path / ("dense" if dense else "structured")
            assert cli.main(["profile", path, "--grid", "3", "--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["seed"] is None
            assert ("blas_threads" in manifest["parameters"]) == dense
        threads = manifest_of(tmp_path / "dense")["parameters"]["blas_threads"]
        assert threads is None or all(t["used"] == 1 <= t["found"] for t in threads)

    def test_dense_summary_has_no_path_minimum(self, identity_pair_file, capsys):
        assert cli.main(["profile", identity_pair_file, "--grid", "3"]) == 0
        out = capsys.readouterr().out
        summary = json.loads(out[out.index("{"):])
        assert summary["min_gap"] == 2.0
        assert not {"path_min_gap", "path_min_gap_s", "closes"} & summary.keys()

    @pytest.mark.parametrize("scale", [1.0, 3.7e3, 3.7e6])
    def test_linear_flag_scales_with_the_path(self, scale, tmp_path, capsys):
        # B = 0 and A positive definite: the gap 2((1-s) + s lambda_min(A)) is
        # affine in s, and its rounding grows with the scale of A
        m = np.random.default_rng(5).standard_normal((5, 5))
        affine = qf.CoefficientPair(scale * (m @ m.T + np.eye(5)), np.zeros((5, 5)))
        for pair, linear in ((affine, True), (qf.symmetrize_split(scale * m), False)):
            assert cli.main(["profile", write_json(tmp_path / "p.json", pair_doc(pair))]) == 0
            out = capsys.readouterr().out
            assert json.loads(out[out.index("{"):])["linear"] is linear

    def test_csv_round_trips_floats(self, xy_spec_file, tmp_path):
        out = tmp_path / "out"
        cli.main(["profile", xy_spec_file, "--grid", "5", "--out", str(out)])
        rows = (out / "profile.csv").read_text().strip().splitlines()[1:]
        spec = lat.build_xy_cycle(6)
        for row in rows:
            s, gap, _ = row.split(",")
            expected = lat.structured_gap_report(spec, float(s)).gap
            assert float(gap) == expected


class TestProfileWorkCap:
    @pytest.mark.parametrize("grid, n, dense", [
        (101, 2 ** 20, False),      # the benchmark's torus
        (101, 256, True),           # the benchmark's dense pair
        (10 ** 6, 2, False),
        (10 ** 6, 2, True),
        (10 ** 6, 100, True),
    ])
    def test_admitted(self, grid, n, dense):
        cli._check_profile_work(grid, n, dense)

    @pytest.mark.parametrize("grid, n, dense", [
        (10 ** 6, 2 ** 20, False),
        (101, 4096, True),
        (10 ** 6, 101, True),
    ])
    def test_refused(self, grid, n, dense):
        with pytest.raises(CapacityError, match="above the cap"):
            cli._check_profile_work(grid, n, dense)

    @pytest.mark.parametrize("dense", [False, True], ids=["structured", "dense"])
    def test_exit_2_before_the_grid_loop(self, tmp_path, capsys, monkeypatch, dense):
        def no_loop(*args, **kwargs):
            raise AssertionError("the grid loop started")

        if dense:     # 10^6 x 101^3 > 10^12
            monkeypatch.setattr(qf, "gap_profile", no_loop)
            doc = pair_doc(qf.CoefficientPair.identity(101))
        else:         # 10^6 x 50,000 > 4 x 10^10
            monkeypatch.setattr(lat, "structured_gap_profile", no_loop)
            doc = fio.structured_to_dict(lat.build_xy_cycle(50_000))
        out = tmp_path / "out"
        path = write_json(tmp_path / "in.json", doc)
        assert cli.main(["profile", path, "--grid", str(10 ** 6), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "above the cap" in captured.err
        assert captured.out == ""
        assert not out.exists()


def _run_cli(*argv):
    return subprocess.run([sys.executable, "-m", "fermigap.cli", *argv],
                          capture_output=True, text=True, timeout=120)


class TestNonFiniteStructured:
    @pytest.mark.parametrize("root", ["[0, Infinity, 0, Infinity]", "[0, -Infinity, 0, -Infinity]",
                                      "[0, NaN, 0, NaN]"])
    @pytest.mark.parametrize("command", ["gap", "spectrum", "profile"])
    def test_non_finite_root_exit_2(self, tmp_path, root, command):
        path = tmp_path / "spec.json"
        path.write_text('{"kind": "circulant", "dims": [4], "a_root": %s, '
                        '"b_root": [0, 0, 0, 0]}' % root)
        proc = _run_cli(command, str(path))
        assert proc.returncode == 2
        assert proc.stderr == "fermigap: input error: a root contains non-finite entries\n"
        assert proc.stdout == ""

    @pytest.mark.parametrize("command", ["gap", "spectrum", "profile"])
    def test_overflowing_fft_exit_3_with_one_line(self, tmp_path, command):
        # every entry finite, but sigma_0 = 4e308 overflows
        path = write_json(tmp_path / "spec.json",
                          {"kind": "circulant", "dims": [4], "a_root": [1e308] * 4,
                           "b_root": [0.0] * 4})
        out = tmp_path / "out"
        proc = _run_cli(command, path, *(["--out", str(out)] if command == "profile" else []))
        assert proc.returncode == 3
        assert proc.stderr == ("fermigap: numerical error: the DFT of the root of A + B "
                               "is not finite (overflow)\n")
        assert proc.stdout == ""
        assert not out.exists()

    def test_symbol_too_large_for_the_path_exit_3(self, tmp_path):
        path = write_json(tmp_path / "spec.json",
                          {"kind": "circulant", "dims": [3], "a_root": [1e160, 0.0, 0.0],
                           "b_root": [0.0] * 3})
        proc = _run_cli("profile", path)
        assert proc.returncode == 3
        assert proc.stderr.startswith("fermigap: numerical error: the DFT of the root of "
                                      "A + B is too large")
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stdout == ""


class TestProfileText:
    """The CSV rows are f"{s!r},{gap!r},{degenerate}" of Python floats."""

    @staticmethod
    def rows(tmp_path, doc):
        path = write_json(tmp_path / "in.json", doc)
        out = tmp_path / "out"
        assert cli.main(["profile", path, "--grid", "11", "--out", str(out)]) == 0
        return (out / "profile.csv").read_text().splitlines()[1:]

    @staticmethod
    def expected(reports):
        return [f"{s!r},{rep.gap!r},{str(rep.degenerate).lower()}" for s, rep in reports]

    def test_dense_rows(self, tmp_path):
        pair = qf.symmetrize_split(np.random.default_rng(8).standard_normal((8, 8)))
        grid = np.linspace(0.0, 1.0, 11).tolist()
        assert self.rows(tmp_path, pair_doc(pair)) == self.expected(
            (s, qf.ground_gap(qf.interpolate(pair, s))) for s in grid)

    def test_structured_rows(self, tmp_path):
        spec = lat.build_xy_cycle(8)
        grid = np.linspace(0.0, 1.0, 11).tolist()
        rows = self.rows(tmp_path, fio.structured_to_dict(spec))
        # sigma_4 = -1 gives a zero mode at s = 1/2
        assert rows[5].startswith("0.5,") and rows[5].endswith(",true")
        assert rows == self.expected((s, lat.structured_gap_report(spec, s)) for s in grid)


class TestLatticeExpand:
    def test_expand_matches_library(self, xy_spec_file, capsys):
        assert cli.main(["lattice", "expand", xy_spec_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        pair = fio.pair_from_dict(doc)
        expected = lat.expand(lat.build_xy_cycle(6))
        assert np.array_equal(pair.a, expected.a)
        assert np.array_equal(pair.b, expected.b)

    def test_pair_input_rejected(self, identity_pair_file, capsys):
        assert cli.main(["lattice", "expand", identity_pair_file]) == 2


# 1 followed by 400 zeros: a JSON integer that no float can hold
_HUGE = "1" + "0" * 400


class TestHostileNumbers:
    @pytest.mark.parametrize("command, text, field", [
        ("gap", '{"n": 1, "a": [%s], "b": [0]}', "a"),
        ("gap", '{"n": 1, "a": [0], "b": [-%s]}', "b"),
        ("jw", '{"n": 1, "w": [%s]}', "w"),
        ("gap", '{"kind": "circulant", "dims": [1], "a_root": [%s], "b_root": [0]}',
         "a_root"),
        ("profile", '{"kind": "circulant", "dims": [1], "a_root": [0], "b_root": [%s]}',
         "b_root"),
    ], ids=["pair-a", "pair-b", "w", "a-root", "b-root"])
    def test_integer_beyond_float_range_exit_2(self, tmp_path, capsys, command, text, field):
        path = tmp_path / "huge.json"
        path.write_text(text % _HUGE)
        assert cli.main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"fermigap: input error: {field} holds an integer "
                                f"beyond the float range\n")

    # finite entries whose sum A + B overflows: C[0, 1] = 2e308
    OVERFLOWING_PAIR = {"n": 2, "a": [0.0, 1e308, 1e308, 0.0], "b": [0.0, 1e308, -1e308, 0.0]}
    OVERFLOW = "fermigap: numerical error: A + B overflows: an entry of the sum is infinite\n"

    @pytest.mark.parametrize("argv", [["gap"], ["spectrum"], ["profile", "--grid", "3"],
                                      ["profile", "--grid", "3", "--out", "OUT"]])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_dense_sum_overflow_exit_3(self, tmp_path, capsys, monkeypatch, argv, workers):
        # in process, so a numpy RuntimeWarning, in the caller or in a forked
        # worker, fails the test as an error
        monkeypatch.setattr(_blas, "loop_workers", lambda items, n, work=None: workers)
        path = write_json(tmp_path / "pair.json", self.OVERFLOWING_PAIR)
        out = tmp_path / "out"
        argv = [str(out) if arg == "OUT" else arg for arg in argv]
        assert cli.main([argv[0], path, *argv[1:]]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == self.OVERFLOW
        assert not out.exists()

    def test_w_whose_pair_overflows_exit_2(self, tmp_path, capsys):
        path = write_json(tmp_path / "w.json", {"n": 2, "w": [0.0, 1e308, 1e308, 0.0]})
        assert cli.main(["jw", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("fermigap: input error: w[j, k] + w[k, j] or w[j, k] - "
                                "w[k, j] overflows: A or B would not be finite\n")

    def test_jw_on_a_pair_whose_sum_overflows_exit_2(self, tmp_path, capsys):
        path = write_json(tmp_path / "pair.json", self.OVERFLOWING_PAIR)
        assert cli.main(["jw", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("fermigap: input error: A + B overflows: an entry of the "
                                "sum is infinite\n")

    @pytest.mark.parametrize("command, doc, code, cause", [
        ("gap", OVERFLOWING_PAIR, 3, "A + B overflows"),
        ("jw", {"n": 2, "w": [0.0, 1e308, 1e308, 0.0]}, 2, "w[j, k] + w[k, j]"),
        ("gap", {"n": 1, "a": [10 ** 400], "b": [0]}, 2, "beyond the float range"),
        ("jw", OVERFLOWING_PAIR, 2, "A + B overflows"),
        # at n = 3 an SVD of the infinite sum made LAPACK print to stdout
        ("gap", {"n": 3, "a": [0.0, 0.0, 1.0, 0.0, 1.0, 1e308, 1.0, 1e308, 1e308],
                 "b": [0.0, 1.0, 0.0, -1.0, 0.0, 1e308, 0.0, -1e308, 0.0]}, 3, "A + B overflows"),
    ], ids=["sum", "w", "huge-integer", "jw-sum", "sum-n3"])
    def test_one_stderr_line_in_a_subprocess(self, tmp_path, command, doc, code, cause):
        # a fresh interpreter with the default warning filters: a RuntimeWarning
        # or a traceback would add lines
        proc = _run_cli(command, write_json(tmp_path / "doc.json", doc))
        assert proc.returncode == code
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("fermigap: ")
        assert cause in proc.stderr


# sha256 of stdout on fixed inputs.  These outputs come from correctly rounded
# elementwise IEEE arithmetic with no BLAS or LAPACK call, so they hold on any
# platform, down to the sign of each zero.
JW_W_DOC = {"n": 3, "w": [0.5, -1.0, 0.0, 1.0, 0.0, 0.25, 0.0, -0.25, -2.0]}
JW_PAIR_DOC = {"n": 3, "a": [1.0, 0.0, 0.0, 0.0, -1.0, 0.25, 0.0, 0.25, 0.0],
               "b": [0.0, 0.5, 0.0, -0.5, 0.0, 0.75, 0.0, -0.75, 0.0]}
PINNED_STDOUT = [
    (["cluster", "--n", "8"],
     "0fea7f00883a1fff4e66e02476b6dfe65b853cb2372ebaba82d27519f3db4213"),
    (["cluster", "--n", "8", "--as-pair"],
     "0b722b939cd3a2402bbd2164d40e3a217110ead64d99dc26597d722811cb1e81"),
    (["ising", "--n", "6", "--s", "0.3"],
     "cd0cefda8e7fea38839e99d6bfae044bcecf985c5ea0399aaf2adcd2ef46bb8f"),
    (["ising", "--n", "6", "--s", "0.3", "--as-pair"],
     "69ddae600aa766d5e105f1608c28509242ad88bcdc85d35a73f60f4b4e08b990"),
    (["jw", JW_W_DOC], "15e583f28859d42b787b4ad7208f1546764f459db7a31cf86d9236c52ac5e2f0"),
    (["jw", JW_PAIR_DOC], "041b95e92b908de0ea67a612d61e4ea67a48413392c6403ffc02a280d6f8382d"),
]


class TestModelBuilders:
    def test_cluster_roundtrip_through_jw(self, tmp_path, capsys):
        assert cli.main(["cluster", "--n", "5"]) == 0
        w_doc = json.loads(capsys.readouterr().out)
        path = write_json(tmp_path / "w.json", w_doc)
        assert cli.main(["jw", path]) == 0
        pair = fio.pair_from_dict(json.loads(capsys.readouterr().out))
        expected = sr.build_cluster_w(5).to_pair()
        assert np.array_equal(pair.a, expected.a)
        assert np.array_equal(pair.b, expected.b)

    def test_ising_as_pair(self, capsys):
        assert cli.main(["ising", "--n", "4", "--s", "0.5", "--as-pair"]) == 0
        pair = fio.pair_from_dict(json.loads(capsys.readouterr().out))
        expected = sr.build_ising_w(4, 0.5).to_pair()
        assert np.array_equal(pair.a, expected.a)

    def test_jw_inverse_direction(self, tmp_path, capsys):
        pair = sr.build_ising_w(3, 0.25).to_pair()
        path = write_json(tmp_path / "p.json", pair_doc(pair))
        assert cli.main(["jw", path]) == 0
        w_doc = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(np.array(w_doc["w"]).reshape(3, 3),
                                   sr.build_ising_w(3, 0.25).w, atol=1e-15)

    @pytest.mark.parametrize("argv, digest", PINNED_STDOUT, ids=[
        "cluster", "cluster-pair", "ising", "ising-pair", "jw-w", "jw-pair"])
    def test_lapack_free_stdout_is_pinned(self, argv, digest, tmp_path, capsys):
        argv = [write_json(tmp_path / "doc.json", arg) if isinstance(arg, dict) else arg
                for arg in argv]
        assert cli.main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


class TestEnsembleCommand:
    def test_figure2_outputs(self, tmp_path, capsys):
        out = tmp_path / "fig2"
        assert cli.main(["ensemble", "--experiment", "figure2", "--n", "4",
                        "--seed", "5", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] is True
        assert summary["max_linearity_defect"] <= 1e-10
        rows = (out / "figure2.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 101 * 2 ** 4

    def test_survival_csv(self, tmp_path, capsys):
        out = tmp_path / "surv"
        assert cli.main(["ensemble", "--experiment", "survival", "--kind",
                         "bounded_uniform", "--n", "16", "--samples", "100",
                         "--seed", "7", "--x", "1.0", "--out", str(out)]) == 0
        rows = (out / "survival.csv").read_text().strip().splitlines()
        assert rows[0] == "x,threshold,empirical,std_error,limit"
        assert len(rows) == 2

    def test_zero_samples_exit_2_before_output(self, tmp_path, capsys):
        out = tmp_path / "none"
        assert cli.main(["ensemble", "--experiment", "survival", "--samples", "0",
                         "--out", str(out)]) == 2
        assert "samples >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_mismatching_kind_exit_2(self, tmp_path, capsys):
        out = tmp_path / "mismatch"
        assert cli.main(["ensemble", "--experiment", "survival", "--kind", "gaussian",
                         "--n", "8", "--samples", "5", "--out", str(out)]) == 2
        assert "bounded_uniform" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_records_resolved_run(self, tmp_path, capsys):
        out = tmp_path / "surv"
        assert cli.main(["ensemble", "--experiment", "survival", "--n", "8",
                         "--samples", "20", "--seed", "3", "--out", str(out)]) == 0
        config = json.loads((out / "summary.json").read_text())["config"]
        parameters = json.loads((out / "manifest.json").read_text())["parameters"]
        # the summary holds the run alone; what it ran on goes into the manifest
        assert list(config) == ["kind", "n", "samples", "x", "seed"]
        assert list(parameters) == ["kind", "n", "samples", "x", "blas_threads", "workers"]
        for doc in (config, parameters):
            assert doc["kind"] == "bounded_uniform"
            assert doc["x"] == [0.5, 1.0, 2.0]
        threads = parameters["blas_threads"]
        assert threads is None or all(t["used"] == 1 <= t["found"] for t in threads)
        out = tmp_path / "fig2"
        assert cli.main(["ensemble", "--experiment", "figure2", "--n", "3",
                         "--out", str(out)]) == 0
        config = json.loads((out / "summary.json").read_text())["config"]
        assert config["kind"] == "wishart"
        assert config["x"] is None
        assert config["samples"] == 1
        parameters = manifest_of(out)["parameters"]
        assert parameters["samples"] == 1
        threads = parameters["blas_threads"]
        assert threads is None or all(t["used"] == 1 <= t["found"] for t in threads)

    @pytest.mark.parametrize("x", ["nan", "inf", "0", "-1"])
    def test_bad_survival_x_exit_2_before_output(self, tmp_path, capsys, x):
        out = tmp_path / "bad-x"
        assert cli.main(["ensemble", "--experiment", "survival", "--n", "8",
                         "--samples", "5", "--x", "1.0", x, "--out", str(out)]) == 2
        assert "x values must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n, x, threshold", [
        ("2", "1e308", 1e308),        # 2x overflows, 2x/n does not
        ("3", "5e-324", 5e-324),      # 2x/n rounded once; 2 * (x/n) would give 0
    ])
    def test_survival_threshold_is_2x_over_n_rounded_once(self, tmp_path, capsys, n, x,
                                                          threshold):
        out = tmp_path / "d"
        assert cli.main(["ensemble", "--experiment", "survival", "--n", n, "--samples", "3",
                         "--x", x, "--out", str(out)]) == 0
        header, row = (out / "survival.csv").read_text().splitlines()
        assert header.split(",")[:2] == ["x", "threshold"]
        assert float(row.split(",")[1]) == threshold

    @pytest.mark.parametrize("experiment", ["edelman", "figure1", "figure2"])
    def test_x_outside_survival_exit_2_before_output(self, tmp_path, capsys, experiment):
        out = tmp_path / "d"
        assert cli.main(["ensemble", "--experiment", experiment, "--n", "4",
                         "--samples", "5", "--x", "3", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "--x applies to the survival experiment only" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("experiment", ["survival", "edelman"])
    def test_x_without_values_is_a_usage_error(self, tmp_path, capsys, experiment):
        # for survival, a bare --x once ran x = 0.5, 1, 2 with exit 0
        out = tmp_path / "d"
        with pytest.raises(SystemExit) as exc:
            cli.main(["ensemble", "--experiment", experiment, "--n", "4", "--samples", "5",
                      "--out", str(out), "--x"])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert "--x: expected at least one argument" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("experiment", ["edelman", "figure1"])
    def test_x_recorded_as_null_without_survival(self, tmp_path, capsys, experiment):
        out = tmp_path / "d"
        assert cli.main(["ensemble", "--experiment", experiment, "--n", "4",
                         "--samples", "5", "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["config"]["x"] is None
        assert json.loads((out / "manifest.json").read_text())["parameters"]["x"] is None

    @pytest.mark.parametrize("experiment", ["figure1", "figure2"])
    def test_enumeration_cap_exit_2_before_output(self, tmp_path, capsys, experiment):
        out = tmp_path / "d"
        assert cli.main(["ensemble", "--experiment", experiment, "--n", "13",
                         "--samples", "1", "--out", str(out)]) == 2
        assert "cap 12" in capsys.readouterr().err
        assert not out.exists()


def manifest_of(out):
    return json.loads((out / "manifest.json").read_text())


def _ensemble_run(out, experiment, n, samples, seed=4):
    assert cli.main(["ensemble", "--experiment", experiment, "--n", str(n),
                     "--samples", str(samples), "--seed", str(seed), "--out", str(out)]) == 0
    return (json.loads((out / "summary.json").read_text()),
            json.loads((out / "manifest.json").read_text()))


# Runs cli.main in a fresh interpreter whose index-parallel loops use two
# processes, after PATCH.  The last stderr line is JSON: the modules loaded
# and whether the CLI left a child process behind.
_FORKED_CLI = """
import json, os, sys
import fermigap._blas as blas, fermigap.cli as cli, fermigap.ensembles as ens
import fermigap.quadform as qf
from fermigap.errors import NumericalError
blas.loop_workers = lambda items, n, work=None: 2
parent = os.getpid()
PATCH
code = cli.main(sys.argv[1:])
try:
    os.waitpid(-1, os.WNOHANG)
    child_left = True
except ChildProcessError:
    child_left = False
print(json.dumps({"modules": sorted(sys.modules), "child_left": child_left}), file=sys.stderr)
sys.exit(code)
"""

# sample_pair and the SVD run FAULT in the forked workers only.
_FAULTY_WORKER = """
def in_worker(f):
    def faulty(*args):
        if os.getpid() != parent:
            FAULT
        return f(*args)
    return faulty
ens.sample_pair = in_worker(ens.sample_pair)
qf._singular_values = in_worker(qf._singular_values)
"""

# The CLI process's own second SVD fails: point 1 of a profile, after the fork.
_FAULTY_CALLER = """
svd, calls = qf._singular_values, []
def faulty(c):
    if os.getpid() == parent:
        calls.append(c)
        if len(calls) == 2:
            raise NumericalError("SVD of A+B failed to converge: injected")
    return svd(c)
qf._singular_values = faulty
"""


def _forked_cli(argv, patch="", timeout=120):
    """(exit code, stderr lines but the last, the last one's JSON) of a forked CLI run."""
    proc = subprocess.run([sys.executable, "-c", _FORKED_CLI.replace("PATCH", patch),
                           *map(str, argv)],
                          capture_output=True, text=True, timeout=timeout)
    *lines, last = proc.stderr.splitlines()
    return proc.returncode, lines, json.loads(last), proc.stdout


class TestEnsembleWorkers:
    @pytest.mark.parametrize("experiment", ["survival", "edelman", "figure1", "figure2"])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_outputs_bit_identical_for_any_worker_count(self, tmp_path, capsys, monkeypatch,
                                                        experiment, workers):
        n = 8 if experiment.startswith("figure") else 16      # figures enumerate 2^n levels
        runs = {}
        for count in (1, workers):
            monkeypatch.setattr(_blas, "loop_workers",
                                lambda items, n, work=None, count=count: count)
            out = tmp_path / str(count)
            _, manifest = _ensemble_run(out, experiment, n, 61)
            assert manifest["parameters"]["workers"] == count
            assert ("worker_peak_rss_mb" in manifest) == (count > 1)
            stdout = capsys.readouterr().out
            runs[count] = [stdout, *((out / name).read_bytes() for name in manifest["outputs"])]
            assert runs[count][0].encode() == runs[count][-1]   # stdout is summary.json
        assert runs[1] == runs[workers]

    def test_summary_identical_on_one_cpu_and_two(self, tmp_path, capsys, monkeypatch):
        # the run forks on two usable CPUs and not on one; only the manifest says so
        n = 64
        samples = 1 + -(-2 * _blas.WORK_PER_WORKER // n ** 3)      # fewest samples for 2
        runs = []
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            out = tmp_path / str(len(cpus))
            _, manifest = _ensemble_run(out, "survival", n, samples)
            assert manifest["parameters"]["workers"] == len(cpus)
            runs.append([(out / name).read_bytes() for name in manifest["outputs"]])
        assert runs[0] == runs[1]

    def test_pooled_run_records_workers_and_their_memory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        n = 64
        samples = 1 + -(-2 * _blas.WORK_PER_WORKER // n ** 3)      # fewest samples for 2
        summary, manifest = _ensemble_run(tmp_path / "d", "edelman", n, samples)
        assert manifest["parameters"]["workers"] == 2
        assert manifest["worker_peak_rss_mb"] > 0.0
        assert not {"workers", "blas_threads", "worker_peak_rss_mb"} & summary["config"].keys()
        assert "worker_peak_rss_mb" not in json.dumps(summary)

    @pytest.mark.parametrize("experiment, cpus, samples", [
        ("survival", {0}, 200),             # one usable CPU
        ("edelman", {0, 1}, 199),           # too little work
        ("figure1", {0, 1}, 200),
        ("figure2", {0, 1}, 200),
    ])
    def test_single_process_run_records_one_worker(self, tmp_path, capsys, monkeypatch,
                                                   experiment, cpus, samples):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        _, manifest = _ensemble_run(tmp_path / "d", experiment, 4, samples)
        assert manifest["parameters"]["workers"] == 1
        assert "worker_peak_rss_mb" not in manifest

    def test_small_n_records_one_worker(self, tmp_path, capsys, monkeypatch):
        # 2000 samples at n = 8 are too little work by the n^3 rule
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        _, manifest = _ensemble_run(tmp_path / "d", "survival", 8, 2000)
        assert manifest["parameters"]["workers"] == 1
        assert "worker_peak_rss_mb" not in manifest

    def test_large_n_records_one_worker(self, tmp_path, capsys, monkeypatch):
        # the loop above SINGLE_THREAD_MAX_N already runs on every BLAS thread
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        n = _blas.SINGLE_THREAD_MAX_N + 1
        _, manifest = _ensemble_run(tmp_path / "d", "survival", n, 3)
        parameters = manifest["parameters"]
        assert parameters["workers"] == 1
        assert "worker_peak_rss_mb" not in manifest
        threads = parameters["blas_threads"]
        assert threads is None or all(t["used"] == t["found"] for t in threads)

    @pytest.mark.parametrize("fails", ["fork", "pipe"])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_failed_fork_computed_here(self, tmp_path, capsys, monkeypatch, fails, workers):
        # no child is forked: the chunks run in this process, in index order
        out = tmp_path / "serial"
        _ensemble_run(out, "survival", 8, 10)
        serial = capsys.readouterr().out, *((out / name).read_bytes()
                                            for name in ("survival.csv", "summary.json"))
        monkeypatch.setattr(_blas, "loop_workers", lambda items, n, work=None: workers)

        def unavailable(*args):
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, fails, unavailable)
        fds = sorted(os.listdir("/proc/self/fd"))
        out = tmp_path / "forked"
        _, manifest = _ensemble_run(out, "survival", 8, 10)
        assert sorted(os.listdir("/proc/self/fd")) == fds
        captured = capsys.readouterr()
        assert captured.err == ""
        assert (captured.out, *((out / name).read_bytes()
                                for name in ("survival.csv", "summary.json"))) == serial
        assert manifest["parameters"]["workers"] == 1
        assert "worker_peak_rss_mb" not in manifest

    @pytest.mark.parametrize("command, fault, message", [
        ("survival", "raise NumericalError('SVD of A+B failed to converge: injected')",
         "fermigap: numerical error: SVD of A+B failed to converge: injected"),
        ("survival", "os._exit(1)",
         "fermigap: numerical error: the worker for samples [5, 10) died"),
        ("profile", "raise NumericalError('SVD of A+B failed to converge: injected')",
         "fermigap: numerical error: SVD of A+B failed to converge: injected"),
        ("profile", "os._exit(1)",
         "fermigap: numerical error: the worker for points [5, 10) died"),
    ], ids=["numerical-error", "worker-died", "profile-numerical-error", "profile-worker-died"])
    def test_worker_failure_exit_3_without_output(self, tmp_path, command, fault, message):
        out = tmp_path / "out"
        if command == "profile":
            pair = write_json(tmp_path / "pair.json",
                              pair_doc(qf.symmetrize_split(np.arange(9.0).reshape(3, 3))))
            argv = ["profile", pair, "--grid", "10"]
        else:
            argv = ["ensemble", "--experiment", "survival", "--n", "8", "--samples", "10"]
        code, lines, state, stdout = _forked_cli(
            [*argv, "--out", out], patch=_FAULTY_WORKER.replace("FAULT", fault))
        assert code == 3, lines
        assert len(lines) == 1 and lines[0].startswith(message)
        assert not state["child_left"]
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["ensemble", "--experiment", "survival", "--n", "8", "--samples", "10", "--out", "OUT"],
        ["profile", "PAIR", "--grid", "10", "--out", "OUT"],
    ], ids=["ensemble", "profile"])
    def test_forked_run_loads_no_pool_and_leaves_no_child(self, identity_pair_file, tmp_path,
                                                           argv):
        out = tmp_path / "out"
        code, lines, state, _ = _forked_cli(
            [{"OUT": out, "PAIR": identity_pair_file}.get(a, a) for a in argv])
        assert code == 0, lines
        assert not state["child_left"]
        assert not {"concurrent", "multiprocessing"} & {m.split(".")[0] for m in state["modules"]}
        assert json.loads((out / "manifest.json").read_text())["parameters"]["workers"] == 2


class TestProfileWorkers:
    def test_caller_failure_with_a_full_pipe_exits_3_and_reaps(self, tmp_path):
        # the worker's 20,000 points pickle to about 320 kB, beyond a 64 KiB pipe
        # buffer, so it blocks writing until its pipe is closed or it is killed
        pair = write_json(tmp_path / "pair.json", pair_doc(qf.CoefficientPair.identity(2)))
        out = tmp_path / "out"
        code, lines, state, stdout = _forked_cli(
            ["profile", pair, "--grid", "40000", "--out", out], patch=_FAULTY_CALLER,
            timeout=60)
        assert code == 3, lines
        assert lines == ["fermigap: numerical error: SVD of A+B failed to converge: injected"]
        assert not state["child_left"]
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_outputs_bit_identical_and_manifest_records_workers(self, tmp_path, monkeypatch,
                                                                workers):
        c = np.random.default_rng(3).standard_normal((24, 24))
        pair = write_json(tmp_path / "pair.json", pair_doc(qf.symmetrize_split(c)))
        runs = {}
        for count in (1, workers):
            monkeypatch.setattr(_blas, "loop_workers",
                                lambda items, n, work=None, count=count: count)
            out = tmp_path / str(count)
            assert cli.main(["profile", pair, "--grid", "31", "--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["parameters"]["workers"] == count
            assert ("worker_peak_rss_mb" in manifest) == (count > 1)
            runs[count] = [(out / name).read_bytes() for name in ("profile.csv", "summary.json")]
        assert runs[1] == runs[workers]

    def test_structured_manifest_records_no_workers(self, xy_spec_file, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["profile", xy_spec_file, "--grid", "5", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert "workers" not in manifest["parameters"]
        assert "worker_peak_rss_mb" not in manifest

    def test_structured_after_dense_records_no_loop(self, identity_pair_file, xy_spec_file,
                                                    tmp_path, monkeypatch):
        # the dense run's loop record must not reach the structured run's manifest
        monkeypatch.setattr(_blas, "loop_workers", lambda items, n, work=None: 2)
        for name, path in (("dense", identity_pair_file), ("structured", xy_spec_file)):
            assert cli.main(["profile", path, "--grid", "5", "--out", str(tmp_path / name)]) == 0
        dense, structured = (manifest_of(tmp_path / name) for name in ("dense", "structured"))
        assert dense["parameters"]["workers"] == 2 and "worker_peak_rss_mb" in dense
        assert list(structured["parameters"]) == ["input", "grid", "tol"]
        assert "worker_peak_rss_mb" not in structured


class TestCsvOutput:
    @pytest.mark.parametrize("argv, name", [
        (["ensemble", "--experiment", "figure1", "--n", "4", "--samples", "20"], "figure1.csv"),
        (["ensemble", "--experiment", "figure2", "--n", "3"], "figure2.csv"),
        (["ensemble", "--experiment", "edelman", "--n", "8", "--samples", "20"], "edelman.csv"),
        (["ensemble", "--experiment", "survival", "--n", "8", "--samples", "20"], "survival.csv"),
        (["profile", "DENSE", "--grid", "5"], "profile.csv"),
        (["profile", "STRUCTURED", "--grid", "5"], "profile.csv"),
    ], ids=["figure1", "figure2", "edelman", "survival", "profile-dense",
            "profile-structured"])
    def test_every_cell_is_a_number_or_boolean(self, identity_pair_file, xy_spec_file,
                                               tmp_path, capsys, argv, name):
        inputs = {"DENSE": identity_pair_file, "STRUCTURED": xy_spec_file}
        out = tmp_path / "out"
        assert cli.main([inputs.get(a, a) for a in argv] + ["--out", str(out)]) == 0
        rows = (out / name).read_text().splitlines()[1:]
        assert rows
        for row in rows:
            for cell in row.split(","):
                if cell not in ("true", "false"):
                    float(cell)


class TestVerify:
    def test_all_checks_pass(self, capsys):
        assert cli.main(["verify", "--n-max", "4", "--trials", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        names = {c["check"] for c in doc["checks"]}
        assert names == {"subset-sum-vs-dense", "route-equality",
                         "fcr-suites", "structured-vs-dense"}

    def test_case_counts(self, capsys):
        assert cli.main(["verify", "--n-max", "4", "--trials", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert {c["check"]: c["cases"] for c in doc["checks"]} == {
            "subset-sum-vs-dense": 4, "route-equality": 1, "fcr-suites": 6,
            "structured-vs-dense": 3}

    def test_off_parity_oracle_exit_4(self, capsys, monkeypatch):
        monkeypatch.setattr(sr, "_term_masks", with_off_parity_term(sr._term_masks))
        assert cli.main(["verify", "--n-max", "3", "--trials", "1"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("fermigap: conformance error: dense Hamiltonian "
                                       "couples the two fermion-parity sectors")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_injected_fault_detected(self, capsys, monkeypatch):
        real = sr.fermionic_assembly

        def flipped_coupling(pair, ops):
            # negative control: one B coupling with its sign flipped
            b = pair.b.copy()
            b[0, 1] *= -1.0
            b[1, 0] *= -1.0
            return real(qf.CoefficientPair(pair.a, b), ops)

        monkeypatch.setattr(sr, "fermionic_assembly", flipped_coupling)
        assert cli.main(["verify", "--n-max", "4", "--trials", "1"]) == 4
        doc = json.loads(capsys.readouterr().out)
        failed = {c["check"] for c in doc["checks"] if not c["passed"]}
        assert failed == {"route-equality"}

    def test_checks_draw_from_their_documented_streams(self, capsys, monkeypatch):
        keys = []
        real = ens.seeded_rng

        def spied(seed, *key):
            keys.append((seed, *key))
            return real(seed, *key)

        monkeypatch.setattr(ens, "seeded_rng", spied)
        assert cli.main(["verify", "--n-max", "2", "--trials", "2", "--seed", "7"]) == 0
        assert keys == [(7, 0, t, n) for t in range(2) for n in (1, 2)] + [(7, 1), (7, 2)]

    @pytest.mark.parametrize("flag", ["--trials", "--n-max"])
    def test_zero_count_exit_2(self, capsys, flag):
        assert cli.main(["verify", flag, "0"]) == 2
        captured = capsys.readouterr()
        assert flag in captured.err
        assert captured.out == ""

    # check -> (module, function, index of the call that goes wrong).  A fault
    # in a later case: a running maximum starts from the first case's residual,
    # so a NaN there would have reached the output.
    _FAULTS = {
        "subset-sum-vs-dense": (sr, "sector_spectrum", 1),
        "route-equality": (sr, "fermionic_assembly", 0),
        "fcr-suites": (sr, "fcr_check", 1),
        "structured-vs-dense": (lat, "g_eigenvalues", 1),
    }

    @pytest.mark.parametrize("fault", ["nan", "linalg-error"])
    @pytest.mark.parametrize("check", list(_FAULTS))
    def test_faulty_check_exit_3_without_output(self, capsys, monkeypatch, check, fault):
        module, name, bad_call = self._FAULTS[check]
        real = getattr(module, name)
        calls = []

        def faulty(*args):
            calls.append(args)
            out = real(*args)
            if len(calls) - 1 != bad_call:
                return out
            if fault == "linalg-error":
                raise np.linalg.LinAlgError("SVD did not converge")
            if np.ndim(out) == 0:
                return float("nan")
            out = np.array(out)
            out.flat[0] = np.nan
            return out

        monkeypatch.setattr(module, name, faulty)
        assert cli.main(["verify", "--n-max", "3", "--trials", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        if fault == "nan":
            assert captured.err.startswith(f"fermigap: numerical error: {check}: residual nan")
        else:
            assert captured.err == ("fermigap: numerical error: conformance suite: "
                                    "SVD did not converge\n")

    def test_every_check_replays_its_worst_case(self, capsys):
        assert cli.main(["verify", "--n-max", "4", "--trials", "1"]) == 0
        replays = {c["check"]: c["replay"] for c in json.loads(capsys.readouterr().out)["checks"]}
        assert replays["route-equality"] == {"n": 4}
        assert replays["subset-sum-vs-dense"]["trial"] == 0
        assert replays["fcr-suites"] in [{"set": "jw", "n": n} for n in range(1, 5)] + [
            {"set": "spin32", "n": 2}, {"set": "eta", "n": 4}]
        assert replays["structured-vs-dense"] in [
            {"spec": "xy_cycle", "n": 12}, {"spec": "torus_2d", "n": 16},
            {"spec": "torus_3d", "n": 27}]

    @pytest.mark.parametrize("worst, replay", [
        ([2], {"set": "jw", "n": 3}),
        ([4, 5], {"set": "spin32", "n": 2}),    # a tie goes to the first case
        ([5], {"set": "eta", "n": 4}),
    ])
    def test_fcr_replay_is_the_first_largest_residual(self, capsys, monkeypatch, worst,
                                                      replay):
        calls = []

        def residual(ops):
            calls.append(ops)
            return 1e-3 if len(calls) - 1 in worst else 0.0

        monkeypatch.setattr(sr, "fcr_check", residual)
        assert cli.main(["verify", "--n-max", "4", "--trials", "1"]) == 4
        check = next(c for c in json.loads(capsys.readouterr().out)["checks"]
                     if c["check"] == "fcr-suites")
        assert (check["max_residual"], check["replay"], check["cases"]) == (1e-3, replay, 6)

    @pytest.mark.parametrize("spec", [0, 1, 2])
    def test_structured_replay_names_the_spec(self, capsys, monkeypatch, spec):
        real = lat.g_eigenvalues
        names = [("xy_cycle", 12), ("torus_2d", 16), ("torus_3d", 27)]

        def shifted(s):
            return real(s) + (1e-3 if s.n == names[spec][1] else 0.0)

        monkeypatch.setattr(lat, "g_eigenvalues", shifted)
        assert cli.main(["verify", "--n-max", "2", "--trials", "1"]) == 4
        check = next(c for c in json.loads(capsys.readouterr().out)["checks"]
                     if c["check"] == "structured-vs-dense")
        assert check["replay"] == {"spec": names[spec][0], "n": names[spec][1]}
        assert not check["passed"]


# The child's odd block of n = 9 runs FAULT: with --n-max 10 --trials 1 the
# CLI process computes the even blocks and the child the odd ones.
_FAULTY_ODD_BLOCK = """
import numpy as np
import fermigap.spinrep as sr
sector_spectrum = sr.sector_spectrum
def faulty(h, parity):
    if (h.n, parity) == (9, 1) and os.getpid() != parent:
        FAULT
    return sector_spectrum(h, parity)
sr.sector_spectrum = faulty
"""


class TestForkedVerify:
    """The subset-sum check's parity blocks on two processes."""

    @staticmethod
    def verify(capsys, monkeypatch, workers, *argv):
        if workers is not None:
            monkeypatch.setattr(_blas, "loop_workers",
                                lambda items, n, work=None: workers)
        assert cli.main(["verify", *argv]) == 0
        return capsys.readouterr().out, _blas.last_loop["workers"]

    @pytest.mark.parametrize("argv", [("--n-max", "7", "--trials", "3", "--seed", "5"),
                                      ("--n-max", "10", "--trials", "1")])
    def test_stdout_equals_one_process(self, capsys, monkeypatch, argv):
        forked, workers = self.verify(capsys, monkeypatch, 2, *argv)
        assert workers == 2
        assert self.verify(capsys, monkeypatch, 1, *argv) == (forked, 1)

    def test_rule_forks_at_n_max_10_on_two_cpus(self, capsys, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        forked, workers = self.verify(capsys, monkeypatch, None, "--n-max", "10",
                                      "--trials", "1")
        assert workers == 2
        assert self.verify(capsys, monkeypatch, 1, "--n-max", "10", "--trials", "1") == \
            (forked, 1)

    @pytest.mark.parametrize("n_max, trials", [(8, 1), (9, 1), (8, 3)])
    def test_rule_keeps_small_runs_in_one_process(self, capsys, monkeypatch, n_max, trials):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        _, workers = self.verify(capsys, monkeypatch, None, "--n-max", str(n_max),
                                 "--trials", str(trials))
        assert workers == 1

    def test_blocks_run_even_first_in_case_order(self, capsys, monkeypatch):
        # item 0 is the order-1 even block of trial 0, and the even half and
        # the odd half hold the same block sizes
        blocks = []
        real = sr.sector_spectrum

        def spied(h, parity):
            blocks.append((parity, h.n))
            return real(h, parity)

        monkeypatch.setattr(sr, "sector_spectrum", spied)
        self.verify(capsys, monkeypatch, 1, "--n-max", "3", "--trials", "2")
        assert blocks == [(parity, n) for parity in (0, 1) for _ in range(2) for n in (1, 2, 3)]

    @pytest.mark.parametrize("bound, batches", [(64, [56, 56, 28]), (8, [14] * 10)])
    def test_batches_hold_at_most_the_bound(self, capsys, monkeypatch, bound, batches):
        # a trial at --n-max 3 holds 2 + 4 + 8 = 14 levels; a bound below that
        # gives one trial a batch
        unbatched, _ = self.verify(capsys, monkeypatch, None, "--n-max", "3", "--trials", "10")
        held = []
        real = _blas.forked_chunks

        def spied(*args, **kwargs):
            chunks = real(*args, **kwargs)
            held.append(sum(block.size for chunk in chunks for block in chunk))
            return chunks

        monkeypatch.setattr(_blas, "forked_chunks", spied)
        monkeypatch.setattr(cli, "VERIFY_BATCH_LEVELS", bound)
        assert self.verify(capsys, monkeypatch, 2, "--n-max", "3", "--trials", "10")[0] == \
            unbatched
        assert held == batches

    @pytest.mark.parametrize("fault, message", [
        ("raise NumericalError('dense eigensolver failed: injected')",
         "fermigap: numerical error: dense eigensolver failed: injected"),
        ("raise np.linalg.LinAlgError('Eigenvalues did not converge')",
         "fermigap: numerical error: conformance suite: Eigenvalues did not converge"),
        ("os._exit(1)",
         "fermigap: numerical error: the worker for parity blocks [10, 20) died "
         "(exit status 1)"),
    ], ids=["numerical-error", "linalg-error", "worker-died"])
    def test_fault_in_a_child_block_exit_3_without_output(self, fault, message):
        code, lines, state, stdout = _forked_cli(
            ["verify", "--n-max", "10", "--trials", "1"],
            patch=_FAULTY_ODD_BLOCK.replace("FAULT", fault))
        assert code == 3, lines
        assert lines == [message]
        assert not state["child_left"]
        assert stdout == ""


class TestForkedLoad:
    """profile and gap on a document whose lists were parsed in two processes."""

    @pytest.fixture(params=["torus", "pair"])
    def document(self, request, tmp_path):
        if request.param == "torus":
            spec = lat.stack(lat.stack(lat.build_xy_cycle(8), 8), 4)
            return write_json(tmp_path / "torus.json", fio.structured_to_dict(spec))
        pair = qf.symmetrize_split(np.random.default_rng(3).standard_normal((24, 24)))
        return write_json(tmp_path / "pair.json", pair_doc(pair))

    @staticmethod
    def run(capsys, monkeypatch, tmp_path, workers, argv):
        """stdout and the run directory's files, the load's rule (the one
        call with n = 0) faked to workers and every loop's to one."""
        monkeypatch.setattr(_blas, "loop_workers",
                            lambda items, n, work=None: workers if n == 0 else 1)
        out = tmp_path / f"out{workers}"
        argv = [str(out) if arg == "OUT" else arg for arg in argv]
        assert cli.main(argv) == 0
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
        return capsys.readouterr().out, files

    @pytest.mark.parametrize("argv", [["profile", "DOC", "--grid", "21", "--out", "OUT"],
                                      ["profile", "DOC", "--grid", "21"], ["gap", "DOC"]],
                             ids=["profile-out", "profile-stdout", "gap"])
    def test_output_equals_one_process(self, capsys, monkeypatch, tmp_path, document, argv):
        argv = [document if arg == "DOC" else arg for arg in argv]
        split = []
        real = _blas.split_chunks

        def spied(chunk, items, workers, what):
            results, forked = real(chunk, items, workers, what)
            split.append((what.startswith("the lists of"), forked))
            return results, forked

        monkeypatch.setattr(_blas, "split_chunks", spied)
        two = self.run(capsys, monkeypatch, tmp_path, 2, argv)
        assert split[0] == (True, 1)
        assert two == self.run(capsys, monkeypatch, tmp_path, 1, argv)


class TestOneThreadRule:
    """The CLI process sets a library on two threads to one once, and back
    only for work above order 512, whether its loops fork or not."""

    @pytest.fixture
    def calls(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        return fake_openblas(monkeypatch, 2)

    @pytest.mark.parametrize("n_max, trials, workers", [(8, 1, 1), (10, 3, 2)])
    def test_verify_sets_one_thread_once(self, capsys, calls, n_max, trials, workers):
        assert cli.main(["verify", "--n-max", str(n_max), "--trials", str(trials)]) == 0
        assert _blas.last_loop["workers"] == workers
        assert calls == [1]

    def test_figure2_sets_one_thread_once(self, capsys, tmp_path, calls):
        assert cli.main(["ensemble", "--experiment", "figure2", "--out",
                         str(tmp_path / "out")]) == 0
        assert calls == [1]

    def test_large_gap_after_a_forked_load_restores(self, capsys, monkeypatch, tmp_path,
                                                     calls):
        # gap runs no work of order <= 512: the set(1) is the load's fork
        pair = qf.CoefficientPair.identity(_blas.SINGLE_THREAD_MAX_N + 1)
        path = write_json(tmp_path / "pair.json", pair_doc(pair))
        monkeypatch.setattr(_blas, "loop_workers",
                            lambda items, n, work=None: 2 if n == 0 else 1)
        assert cli.main(["gap", path]) == 0
        assert calls == [1, 2]


# A dense profile whose load forked: the CLI process's tasks at each of its
# SVDs and after the run, the thread counts found before it and those the
# manifest records.
_FORKED_LOAD_PROFILE = """
import json, os, sys
import fermigap._blas as blas, fermigap.cli as cli, fermigap.quadform as qf

def tasks():
    return len(os.listdir("/proc/self/task"))

blas.loop_workers = lambda items, n, work=None: 2
found = [lib.get() for lib in blas.loaded_openblas()]
parent, seen, svd = os.getpid(), [], qf._singular_values

def spied(c):
    if os.getpid() == parent:
        seen.append(tasks())
    return svd(c)

qf._singular_values = spied
code = cli.main(["profile", sys.argv[1], "--grid", "21", "--out", sys.argv[2]])
manifest = json.load(open(os.path.join(sys.argv[2], "manifest.json")))
print(json.dumps({"code": code, "found": found, "tasks": seen, "after": tasks(),
                  "threads": manifest["parameters"]["blas_threads"]}))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
def test_profile_after_a_forked_load_starts_no_blas_thread(tmp_path):
    # the load's fork shut the pool down, and the loop's set(1) started it
    # again: 2 tasks at the SVDs, and a thread spinning on the other core
    pair = qf.symmetrize_split(np.random.default_rng(5).standard_normal((64, 64)))
    path = write_json(tmp_path / "pair.json", pair_doc(pair))
    proc = subprocess.run([sys.executable, "-c", _FORKED_LOAD_PROFILE, path,
                           str(tmp_path / "out")], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout)
    if not found["found"]:
        pytest.skip("no OpenBLAS loaded with NumPy")
    assert found["code"] == 0
    assert set(found["tasks"]) == {1}
    assert found["after"] == 1
    assert [t["found"] for t in found["threads"]] == found["found"]


class TestHostileArguments:
    def test_seed_env_ignored_without_seed_option(self, identity_pair_file, capsys,
                                                  monkeypatch):
        monkeypatch.setenv("FERMIGAP_SEED", "abc")
        assert cli.main(["gap", identity_pair_file]) == 0
        assert json.loads(capsys.readouterr().out)["gap"] == 2.0

    @pytest.mark.parametrize("argv, env", [
        (["ensemble", "--experiment", "figure2", "--n", "3", "--out", "OUT"], "abc"),
        (["verify", "--n-max", "2", "--trials", "1"], "abc"),
        (["ensemble", "--experiment", "figure2", "--n", "3", "--seed=-1", "--out", "OUT"], None),
        (["verify", "--n-max", "2", "--trials", "1", "--seed=-1"], None),
        (["ensemble", "--experiment", "figure2", "--n", "3", "--seed", "1.5", "--out", "OUT"],
         None),
    ], ids=["ensemble-env", "verify-env", "ensemble-negative", "verify-negative",
            "ensemble-non-integer"])
    def test_bad_seed_exit_2(self, tmp_path, capsys, monkeypatch, argv, env):
        if env is not None:
            monkeypatch.setenv("FERMIGAP_SEED", env)
        out = tmp_path / "out"
        assert cli.main([str(out) if arg == "OUT" else arg for arg in argv]) == 2
        captured = capsys.readouterr()
        assert "seed must be a non-negative integer" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv, out", [
        (["profile", "PAIR", "--out", "OUT"], "file"),
        (["ensemble", "--experiment", "figure2", "--n", "3", "--out", "OUT"], "file/sub"),
    ], ids=["profile-existing-file", "ensemble-below-a-file"])
    def test_out_not_a_directory_exit_2(self, identity_pair_file, tmp_path, capsys,
                                        argv, out):
        (tmp_path / "file").write_text("kept\n")
        out = str(tmp_path / out)
        assert cli.main([{"OUT": out, "PAIR": identity_pair_file}.get(a, a) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"fermigap: input error: cannot write the run directory {out!r}: ")
        assert captured.err.count("\n") == 1
        assert (tmp_path / "file").read_text() == "kept\n"

    @pytest.mark.parametrize("argv, blocked", [
        (["profile", "PAIR", "--out", "OUT"], "profile.csv"),
        (["ensemble", "--experiment", "survival", "--n", "4", "--samples", "10",
          "--out", "OUT"], "summary.json"),
    ], ids=["profile", "ensemble"])
    def test_failed_write_exit_2(self, identity_pair_file, tmp_path, capsys, argv, blocked):
        # a directory where an output goes: the write once ended in a traceback, exit 1
        out = tmp_path / "run"
        (out / blocked).mkdir(parents=True)
        argv = [{"OUT": str(out), "PAIR": identity_pair_file}.get(a, a) for a in argv]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"fermigap: input error: cannot write the run directory {str(out)!r}: ")
        assert captured.err.count("\n") == 1
        assert not (out / "manifest.json").exists()

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
    @pytest.mark.parametrize("argv, message", [
        (["ensemble", "--experiment", "survival", "--n", "100000", "--out", "OUT"],
         "n=100000 exceeds the ensemble matrix cap of 4096 sites"),
        (["cluster", "--n", "100000"], "n=100000 exceeds the cluster chain cap of 4096 sites"),
        (["ising", "--n", "100000"], "n=100000 exceeds the Ising chain cap of 4096 sites"),
        (["profile", "PAIR", "--grid", "1000000000", "--out", "OUT"],
         "grid size must lie in [2, 1000000]"),
        *((["ensemble", "--experiment", experiment, "--n", "2", "--samples", "1000000000000",
            "--out", "OUT"], "samples=1000000000000 exceeds the sample cap of 1000000")
          for experiment in ("figure1", "survival", "edelman")),
        (["verify", "--n-max", "1", "--trials", "100000000000"],
         "--trials must lie in [1, 10000], got 100000000000"),
    ], ids=["ensemble", "cluster", "ising", "profile-grid", "figure1-samples",
            "survival-samples", "edelman-samples", "verify-trials"])
    def test_oversized_request_exit_2_before_allocating(self, identity_pair_file, tmp_path,
                                                         argv, message):
        # under a 2 GiB address-space limit an n x n matrix at n = 100,000
        # (75 GiB), a 10^9-point grid (7.5 GiB) or 10^12 samples fail to
        # allocate; 20 s of CPU ends a loop that grows a list instead, in
        # the process and in any worker it forks
        code = ("import resource, sys; "
                "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
                "resource.setrlimit(resource.RLIMIT_CPU, (20, 20)); "
                "import fermigap.cli as cli; sys.exit(cli.main(sys.argv[1:]))")
        out = tmp_path / "out"
        argv = [{"OUT": str(out), "PAIR": identity_pair_file}.get(arg, arg) for arg in argv]
        proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                              text=True, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
        assert proc.returncode == 2, proc.stderr
        assert message in proc.stderr
        assert proc.stderr.count("\n") == 1
        assert proc.stdout == ""
        assert not out.exists()

    def test_input_over_the_byte_cap_exit_2_before_reading(self, tmp_path):
        # a sparse file one byte over the cap: under a 2 GiB address-space
        # limit its text (1 GiB of bytes, then 1 GiB of str) cannot be read
        big = tmp_path / "big.json"
        with open(big, "wb") as fh:
            fh.truncate(fio.INPUT_BYTE_CAP + 1)
        code = ("import resource, sys; "
                "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
                "import fermigap.cli as cli; sys.exit(cli.main(sys.argv[1:]))")
        proc = subprocess.run([sys.executable, "-c", code, "gap", str(big)], capture_output=True,
                              text=True, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == (f"fermigap: input error: {big} holds {fio.INPUT_BYTE_CAP + 1} "
                               f"bytes, above the input cap of {fio.INPUT_BYTE_CAP}\n")
        assert proc.stdout == ""


def _buffered_env():
    """This environment without PYTHONUNBUFFERED, for a test to set or leave out.

    Unbuffered, Python's text layer writes straight to the raw file and drops
    the rest of a write that a closing reader cuts short, without an error.
    main's writer checks every count, so both modes must fail alike.
    """
    return {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}


class _TrickleRaw(io.RawIOBase):
    """A raw stream that takes at most 7 bytes per write."""

    def __init__(self):
        self.writes = []

    def writable(self):
        return True

    def write(self, data):
        self.writes.append(bytes(data[:7]))
        return len(self.writes[-1])


class TestStdoutFailures:
    # a failing stdout once ended in a traceback with exit 1

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_reader_closing_early_exit_2(self, unbuffered):
        # unbuffered, this once exited 0 with nothing on stderr
        env = {**_buffered_env(), **({"PYTHONUNBUFFERED": "1"} if unbuffered else {})}
        with subprocess.Popen([sys.executable, "-m", "fermigap.cli", "cluster", "--n", "1000"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=env) as proc:
            head = proc.stdout.read(10)
            proc.stdout.close()
            err = proc.stderr.read().decode()
        assert proc.returncode == 2, err
        assert head == b'{\n  "n": 1'
        # one line: no "Exception ignored" from the interpreter's flush at exit
        assert err.startswith("fermigap: cannot write to stdout: [Errno 32] Broken pipe")
        assert err.count("\n") == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [
        ["gap", "PAIR"], ["spectrum", "PAIR"], ["profile", "PAIR", "--grid", "3"],
        ["lattice", "expand", "SPEC"], ["jw", "PAIR"], ["cluster", "--n", "4"],
        ["ising", "--n", "3"], ["verify", "--n-max", "2", "--trials", "1"],
        ["ensemble", "--experiment", "figure2", "--n", "3", "--out", "OUT"],
    ], ids=lambda argv: "-".join(argv[:2]) if argv[0] == "lattice" else argv[0])
    def test_full_device_exit_2(self, identity_pair_file, xy_spec_file, tmp_path, argv,
                                unbuffered):
        env = {**_buffered_env(), **({"PYTHONUNBUFFERED": "1"} if unbuffered else {})}
        argv = [{"PAIR": identity_pair_file, "SPEC": xy_spec_file,
                 "OUT": str(tmp_path / "out")}.get(arg, arg) for arg in argv]
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "fermigap.cli", *argv], stdout=full,
                                  stderr=subprocess.PIPE, text=True, env=env, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == ("fermigap: cannot write to stdout: "
                               "[Errno 28] No space left on device\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_write_leaves_fd_1_as_it_was(self):
        # main once pointed fd 1 at os.devnull after a failed write
        code = ("import os, sys; import fermigap.cli as cli; "
                "ident = lambda st: (st.st_dev, st.st_ino, st.st_rdev); "
                "before = ident(os.fstat(1)); rc = cli.main(['cluster', '--n', '4']); "
                "print('fd 1 unchanged:', ident(os.fstat(1)) == before, file=sys.stderr); "
                "sys.exit(rc)")
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-c", code], stdout=full,
                                  stderr=subprocess.PIPE, text=True, env=_buffered_env(),
                                  timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.splitlines() == [
            "fermigap: cannot write to stdout: [Errno 28] No space left on device",
            "fd 1 unchanged: True"]

    @pytest.mark.parametrize("argv, code, err", [
        (["cluster", "--n", "4"], 2,
         "fermigap: cannot write to stdout: [Errno 9] stdout is closed\n"),
        (["profile", "PAIR", "--grid", "3", "--out", "OUT"], 0, ""),
    ], ids=["cluster", "profile-out"])
    def test_closed_fd_1(self, identity_pair_file, tmp_path, argv, code, err):
        # a closed fd 1 (sys.stdout is None) once ended in a traceback with exit 1
        argv = [{"PAIR": identity_pair_file, "OUT": str(tmp_path / "out")}.get(arg, arg)
                for arg in argv]
        proc = subprocess.run(["sh", "-c", 'exec "$0" -m fermigap.cli "$@" >&-',
                               sys.executable, *argv], stderr=subprocess.PIPE, text=True,
                              timeout=120)
        assert (proc.returncode, proc.stderr) == (code, err)

    def test_short_writes_deliver_every_byte_in_order(self, monkeypatch):
        raw = _TrickleRaw()
        stdout = io.TextIOWrapper(io.BufferedWriter(raw), encoding="utf-8")
        stdout.write("already buffered\n")
        monkeypatch.setattr(sys, "stdout", stdout)
        text = "".join(f"{i},\u00fc\n" for i in range(300))
        cli._write_stdout(text)
        assert b"".join(raw.writes) == ("already buffered\n" + text).encode()
        assert max(map(len, raw.writes)) == 7


class TestConsoleScript:
    def test_import_loads_no_scipy(self):
        code = ("import sys, fermigap, fermigap.cli; "
                "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_structured_profile_imports_no_numpy_ma(self, tmp_path):
        # np.unique imports numpy.ma, 17-38 ms of a fresh run's wall time
        spec = tmp_path / "torus.json"
        spec.write_text(json.dumps(fio.structured_to_dict(
            lat.stack(lat.stack(lat.build_xy_cycle(4), 4), 3))))
        code = ("import sys, fermigap.cli as cli; "
                "rc = cli.main(sys.argv[1:]); "
                "print(rc, 'numpy.ma' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code, "profile", str(spec), "--grid",
                               "11", "--out", str(tmp_path / "out")],
                              capture_output=True, text=True)
        assert proc.stdout.split() == ["0", "False"], proc.stderr

    def test_no_module_imports_scipy(self):
        # every import statement, function-local ones included, which an
        # import of the package alone would not run
        imported = []
        for path in sorted(Path(fermigap.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    imported += [(path.name, alias.name) for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    imported.append((path.name, node.module))
        assert imported
        assert [(name, module) for name, module in imported
                if module.split(".")[0] == "scipy"] == []

    def test_runtime_dependencies_are_numpy_only(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        project = tomllib.loads(pyproject.read_text())["project"]
        assert project["dependencies"] == ["numpy>=1.24"]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap only")
    def test_sample_loop_reuses_freed_heap(self, tmp_path):
        # without fixed thresholds this run takes about 39k minor page faults;
        # the faults of the forked workers count too (RUSAGE_CHILDREN), as a
        # difference because the interpreter may inherit its launcher's children
        code = ("import resource, sys, fermigap.cli as cli; "
                "faults = lambda: sum(resource.getrusage(who).ru_minflt for who in "
                "(resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)); "
                "before = faults(); "
                "rc = cli.main(sys.argv[1:]); "
                "print(rc, faults() - before, file=sys.stderr)")
        out = tmp_path / "surv"
        proc = subprocess.run([sys.executable, "-c", code, "ensemble", "--experiment",
                               "survival", "--n", "128", "--samples", "200",
                               "--out", str(out)],
                              capture_output=True, text=True)
        rc, faults = map(int, proc.stderr.split())
        assert rc == 0
        assert faults < 5000
        workers = json.loads((out / "manifest.json").read_text())["parameters"]["workers"]
        assert workers == (2 if len(os.sched_getaffinity(0)) >= 2 else 1)

    def test_entry_point_runs(self):
        proc = subprocess.run([sys.executable, "-m", "fermigap.cli", "cluster",
                               "--n", "4"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["n"] == 4

    def test_seed_env_default(self, tmp_path):
        out = tmp_path / "fig2"
        proc = subprocess.run(
            [sys.executable, "-m", "fermigap.cli", "ensemble", "--experiment",
             "figure2", "--n", "3", "--out", str(out)],
            capture_output=True, text=True,
            env={**os.environ, "FERMIGAP_SEED": "5"},
        )
        assert proc.returncode == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 5
