import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from fermigap import _blas, cli, ensembles as ens, io as fio, lattice as lat, quadform as qf, \
    spinrep as sr

from conftest import with_off_parity_term


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def pair_doc(pair):
    return fio.pair_to_dict(pair)


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

    def test_spectrum_mode_cap_exit_2(self, tmp_path, capsys):
        path = write_json(tmp_path / "p.json", pair_doc(qf.CoefficientPair.identity(2)))
        assert cli.main(["spectrum", path, "--max-modes", "23"]) == 2
        captured = capsys.readouterr()
        assert "hard cap of 22" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("doc", [
        {"n": 2, "a": [1.0, 0.0, 0.0, True], "b": [0.0] * 4},
        {"kind": "circulant", "dims": [3], "a_root": [0.0, 1.0, 1.0],
         "b_root": [False, 0.0, 0.0]},
    ])
    def test_boolean_entries_exit_2(self, tmp_path, capsys, doc):
        path = write_json(tmp_path / "bool.json", doc)
        assert cli.main(["gap", path]) == 2
        assert "boolean" in capsys.readouterr().err

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
        (["spectrum", "PATH", "--max-modes", "5000"], "hard cap of 22"),
    ], ids=["lattice-expand", "spectrum", "spectrum-max-modes"])
    def test_structured_spec_above_caps_exit_2(self, tmp_path, capsys, monkeypatch,
                                               argv, message):
        def no_expansion(spec):
            raise AssertionError("spectrum expanded a spec above its cap")

        n = qf.MATRIX_SIZE_CAP + 1
        path = write_json(tmp_path / "ring.json", {"kind": "circulant", "dims": [n],
                                                   "a_root": [0.0] * n, "b_root": [0.0] * n})
        if argv[0] == "spectrum":
            monkeypatch.setattr(lat, "expand", no_expansion)
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
        assert doc == cli._gap_report_dict(lat.structured_gap_report(spec, 1.0))

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
        # a dense profile loops under the one-thread cap, a structured one does not
        for path, capped in ((identity_pair_file, True), (xy_spec_file, False)):
            out = tmp_path / ("dense" if capped else "structured")
            assert cli.main(["profile", path, "--grid", "3", "--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["seed"] is None
            threads = manifest["parameters"]["blas_threads"]
            assert threads is None or all(
                t["used"] == (1 if capped else t["found"]) for t in threads)

    def test_dense_summary_has_no_path_minimum(self, identity_pair_file, capsys):
        assert cli.main(["profile", identity_pair_file, "--grid", "3"]) == 0
        out = capsys.readouterr().out
        summary = json.loads(out[out.index("{"):])
        assert summary["min_gap"] == 2.0
        assert not {"path_min_gap", "path_min_gap_s", "closes"} & summary.keys()

    def test_csv_round_trips_floats(self, xy_spec_file, tmp_path):
        out = tmp_path / "out"
        cli.main(["profile", xy_spec_file, "--grid", "5", "--out", str(out)])
        rows = (out / "profile.csv").read_text().strip().splitlines()[1:]
        spec = lat.build_xy_cycle(6)
        for row in rows:
            s, gap, _ = row.split(",")
            expected = lat.structured_gap_report(spec, float(s)).gap
            assert float(gap) == expected


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
        for doc in (config, parameters):
            assert doc["kind"] == "bounded_uniform"
            assert doc["x"] == [0.5, 1.0, 2.0]
            threads = doc["blas_threads"]
            assert threads is None or all(t["used"] == 1 <= t["found"] for t in threads)
        out = tmp_path / "fig2"
        assert cli.main(["ensemble", "--experiment", "figure2", "--n", "3",
                         "--out", str(out)]) == 0
        config = json.loads((out / "summary.json").read_text())["config"]
        assert config["kind"] == "wishart"
        assert config["x"] is None
        assert config["samples"] == 1
        assert json.loads((out / "manifest.json").read_text())["parameters"]["samples"] == 1
        threads = config["blas_threads"]
        assert threads is None or all(t["used"] == 1 <= t["found"] for t in threads)

    @pytest.mark.parametrize("x", ["nan", "inf", "0", "-1"])
    def test_bad_survival_x_exit_2_before_output(self, tmp_path, capsys, x):
        out = tmp_path / "bad-x"
        assert cli.main(["ensemble", "--experiment", "survival", "--n", "8",
                         "--samples", "5", "--x", "1.0", x, "--out", str(out)]) == 2
        assert "x values must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("experiment", ["edelman", "figure1", "figure2"])
    def test_x_outside_survival_exit_2_before_output(self, tmp_path, capsys, experiment):
        out = tmp_path / "d"
        assert cli.main(["ensemble", "--experiment", experiment, "--n", "4",
                         "--samples", "5", "--x", "3", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "--x applies to the survival experiment only" in captured.err
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


def _ensemble_run(out, experiment, n, samples, seed=4):
    assert cli.main(["ensemble", "--experiment", experiment, "--n", str(n),
                     "--samples", str(samples), "--seed", str(seed), "--out", str(out)]) == 0
    return (json.loads((out / "summary.json").read_text()),
            json.loads((out / "manifest.json").read_text()))


# Runs cli.main in a fresh interpreter whose ensemble_gaps uses two processes
# and whose sample_pair runs FAULT in the forked worker only.
_FAULTY_WORKER = """
import os, sys
import fermigap.cli as cli, fermigap.ensembles as ens
from fermigap.errors import NumericalError
parent, sample_pair = os.getpid(), ens.sample_pair
def faulty(config, index):
    if os.getpid() != parent:
        FAULT
    return sample_pair(config, index)
ens.sample_pair = faulty
ens.gap_workers = lambda n, samples: 2
sys.exit(cli.main(sys.argv[1:]))
"""


class TestEnsembleWorkers:
    @pytest.mark.parametrize("experiment", ["survival", "edelman"])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_outputs_bit_identical_for_any_worker_count(self, tmp_path, capsys, monkeypatch,
                                                        experiment, workers):
        runs = {}
        for count in (1, workers):
            monkeypatch.setattr(ens, "gap_workers", lambda n, samples, count=count: count)
            out = tmp_path / str(count)
            summary, manifest = _ensemble_run(out, experiment, 16, 61)
            assert summary["config"]["workers"] == manifest["parameters"]["workers"] == count
            stdout = json.loads(capsys.readouterr().out)
            assert stdout == summary
            del summary["config"]["workers"]
            runs[count] = (summary, (out / f"{experiment}.csv").read_bytes())
        assert runs[1] == runs[workers]

    def test_pooled_run_records_workers_and_their_memory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        summary, manifest = _ensemble_run(tmp_path / "d", "edelman", 8,
                                          2 * ens.MIN_SAMPLES_PER_WORKER)
        assert summary["config"]["workers"] == manifest["parameters"]["workers"] == 2
        assert manifest["worker_peak_rss_mb"] > 0.0
        assert "worker_peak_rss_mb" not in json.dumps(summary)

    @pytest.mark.parametrize("experiment, cpus, samples", [
        ("survival", {0}, 2 * ens.MIN_SAMPLES_PER_WORKER),              # one usable CPU
        ("edelman", {0, 1}, 2 * ens.MIN_SAMPLES_PER_WORKER - 1),       # too few samples
        ("figure1", {0, 1}, 2 * ens.MIN_SAMPLES_PER_WORKER),           # serial loop
        ("figure2", {0, 1}, 2 * ens.MIN_SAMPLES_PER_WORKER),
    ])
    def test_single_process_run_records_one_worker(self, tmp_path, capsys, monkeypatch,
                                                   experiment, cpus, samples):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        summary, manifest = _ensemble_run(tmp_path / "d", experiment, 4, samples)
        assert summary["config"]["workers"] == manifest["parameters"]["workers"] == 1
        assert "worker_peak_rss_mb" not in manifest

    def test_large_n_records_one_worker(self, tmp_path, capsys, monkeypatch):
        # the loop above SINGLE_THREAD_MAX_N already runs on every BLAS thread
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        calls = []
        monkeypatch.setattr(ens, "ensemble_gaps", lambda config: calls.append(config)
                            or np.ones(config.samples))
        n = _blas.SINGLE_THREAD_MAX_N + 1
        summary, manifest = _ensemble_run(tmp_path / "d", "survival", n, 10 ** 4)
        assert [c.n for c in calls] == [n]
        assert summary["config"]["workers"] == manifest["parameters"]["workers"] == 1

    @pytest.mark.parametrize("fault, message", [
        ("raise NumericalError('SVD of A+B failed to converge: injected')",
         "fermigap: numerical error: SVD of A+B failed to converge: injected"),
        ("os._exit(1)", "fermigap: numerical error: the worker for samples [5, 10) died"),
    ], ids=["numerical-error", "worker-died"])
    def test_worker_failure_exit_3_without_output(self, tmp_path, fault, message):
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-c", _FAULTY_WORKER.replace("FAULT", fault), "ensemble",
             "--experiment", "survival", "--n", "8", "--samples", "10", "--out", str(out)],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith(message)
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stdout == ""
        assert not out.exists()


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
        monkeypatch.setattr(sr, "dense_hamiltonian", with_off_parity_term(sr.dense_hamiltonian))
        assert cli.main(["verify", "--n-max", "3", "--trials", "1"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("fermigap: conformance error: dense Hamiltonian "
                                       "couples the two fermion-parity sectors")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_injected_fault_detected(self, capsys):
        assert cli.main(["verify", "--n-max", "4", "--trials", "1",
                         "--inject-fault", "route-equality"]) == 4
        doc = json.loads(capsys.readouterr().out)
        failed = {c["check"] for c in doc["checks"] if not c["passed"]}
        assert failed == {"route-equality"}

    @pytest.mark.parametrize("flag", ["--trials", "--n-max"])
    def test_zero_count_exit_2(self, capsys, flag):
        assert cli.main(["verify", flag, "0"]) == 2
        captured = capsys.readouterr()
        assert flag in captured.err
        assert captured.out == ""


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

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
    @pytest.mark.parametrize("argv, message", [
        (["ensemble", "--experiment", "survival", "--n", "100000", "--out", "OUT"],
         "n=100000 exceeds the ensemble matrix cap of 4096 sites"),
        (["cluster", "--n", "100000"], "n=100000 exceeds the cluster chain cap of 4096 sites"),
        (["ising", "--n", "100000"], "n=100000 exceeds the Ising chain cap of 4096 sites"),
        (["profile", "PAIR", "--grid", "1000000000", "--out", "OUT"],
         "grid size must lie in [2, 1000000]"),
    ], ids=["ensemble", "cluster", "ising", "profile-grid"])
    def test_oversized_request_exit_2_before_allocating(self, identity_pair_file, tmp_path,
                                                         argv, message):
        # under a 2 GiB address-space limit an n x n matrix at n = 100,000
        # (75 GiB) or a 10^9-point grid (7.5 GiB) fails to allocate
        code = ("import resource, sys; "
                "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
                "import fermigap.cli as cli; sys.exit(cli.main(sys.argv[1:]))")
        out = tmp_path / "out"
        argv = [{"OUT": str(out), "PAIR": identity_pair_file}.get(arg, arg) for arg in argv]
        proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                              text=True, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
        assert proc.returncode == 2, proc.stderr
        assert message in proc.stderr
        assert proc.stdout == ""
        assert not out.exists()


class TestConsoleScript:
    def test_import_loads_no_scipy(self):
        code = ("import sys, fermigap, fermigap.cli; "
                "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

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
