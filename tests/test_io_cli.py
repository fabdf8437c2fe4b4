"""Tests for file formats and the command-line interface."""

import inspect
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from kersize.cli import main
from kersize.core import DataError, FeasibleSet, FeasibleSetCollection, NormSpec
from kersize.io import (
    read_collection,
    read_vectors_csv,
    write_collection,
    write_vectors_csv,
)


def sample_config(tmp_path, seed=7, out="coll", generate=4):
    cfg = {
        "model": {
            "variant": "linear_additive",
            "matrix": [[0.5, 0.5]],
            "noise": {"kind": "additive", "eps_additive": 0.2},
            "signal_bounds": [[-1, 1], [-1, 1]],
        },
        "sampler": {"kind": "rejection", "n_max": 8, "seed": seed, "budget": 5000},
        "norm": {"p": 2, "q": 2, "mask": None},
        "paths": {"input": None, "output": out},
        "options": {"generate": generate},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return path


def two_point_collection_dir(tmp_path):
    c = FeasibleSetCollection(
        d1=2, d2=1,
        entries=(FeasibleSet(id="m0", measurement=[1.0], members=[[0, 0], [0, 2]]),),
    )
    d = tmp_path / "twopoint"
    write_collection(d, c, NormSpec(p=2, q=2))
    return d


def run_fresh(*args, **env):
    """Run ``python *args`` in a fresh interpreter with this checkout's src on
    the path, so that imports made by other tests do not count; ``env`` sets
    more environment variables."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])), **env)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


def dir_bytes(root):
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(Path(root).rglob("*"))
        if p.is_file()
    }


EDGE_VALUES = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 1e-5, 1e22, 0.1]


class TestVectorCsv:
    def test_roundtrip_exact(self, tmp_path):
        rows = np.array([[0.1, -2.5e-17, 3.0], [1 / 3, np.pi, -0.0]])
        path = tmp_path / "v.csv"
        write_vectors_csv(path, rows)
        np.testing.assert_array_equal(read_vectors_csv(path), rows)

    def test_lf_endings_no_header(self, tmp_path):
        path = tmp_path / "v.csv"
        write_vectors_csv(path, [[1.5, 2.0]])
        raw = path.read_bytes()
        assert raw == b"1.5,2.0\n"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "v.csv"
        write_vectors_csv(path, np.zeros((0, 3)))
        assert read_vectors_csv(path).shape == (0, 0)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n\n3\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:3: the number of columns changed"):
            read_vectors_csv(path)

    @pytest.mark.parametrize(
        "rows",
        [
            [EDGE_VALUES, EDGE_VALUES[::-1]],
            np.random.default_rng(1).normal(size=(3000, 6))
            * 10.0 ** np.random.default_rng(2).integers(-20, 21, size=(3000, 6)),
            np.random.default_rng(3).normal(size=(1, 2304)),
        ],
        ids=["edge_values", "tall_3000x6", "wide_1x2304"],
    )
    def test_bytes_match_per_value_repr(self, tmp_path, rows):
        path = tmp_path / "v.csv"
        write_vectors_csv(path, rows)
        expected = "".join(",".join(repr(float(v)) for v in row) + "\n"
                           for row in np.asarray(rows, dtype=np.float64))
        assert path.read_bytes() == expected.encode()

    def test_reads_bitwise_like_float(self, tmp_path):
        """Every token parses to the bits float() gives; every value other
        than NaN (written as 'nan') round-trips bit for bit."""
        bits = np.random.default_rng(4).integers(0, 2**64, size=9_989, dtype=np.uint64)
        values = np.concatenate([bits.view(np.float64), EDGE_VALUES, [-5e-324, 2.2e-308]])
        rows = values.reshape(-1, 8)
        path = tmp_path / "v.csv"
        write_vectors_csv(path, rows)
        got = read_vectors_csv(path)
        oracle = np.array([[float(tok) for tok in line.split(",")]
                           for line in path.read_text().splitlines()])
        np.testing.assert_array_equal(got.view(np.uint64), oracle.view(np.uint64))
        finite = ~np.isnan(rows)
        np.testing.assert_array_equal(got.view(np.uint64)[finite], rows.view(np.uint64)[finite])
        assert np.isnan(got[~finite]).all()

    def test_blank_lines_crlf_and_spaces_accepted(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_bytes(b"\n1.5, 2\r\n  \r\n\t-3 ,4.25 \r\n\n\n")
        np.testing.assert_array_equal(read_vectors_csv(path), [[1.5, 2.0], [-3.0, 4.25]])

    @pytest.mark.parametrize("content", [b"", b"\n \n\r\n\t\n"], ids=["empty", "blank_only"])
    def test_no_rows_is_empty_without_warning(self, tmp_path, content):
        path = tmp_path / "v.csv"
        path.write_bytes(content)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert read_vectors_csv(path).shape == (0, 0)

    def test_loadtxt_error_that_names_no_row_keeps_its_message(self, tmp_path, monkeypatch):
        """numpy's messages for a line it cannot split (an embedded carriage
        return, which text mode never passes on) name no row: the path and
        the message are reported as they are."""
        def fail(*args, **kwargs):
            raise ValueError("Found an unquoted embedded newline within a single line")

        monkeypatch.setattr(np, "loadtxt", fail)
        path = tmp_path / "a.csv"
        path.write_text("1,2\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: Found an unquoted"):
            read_vectors_csv(path)

    def test_bad_token_names_file_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n\n  \n3,abc\n5,6\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:4: could not convert string 'abc'"):
            read_vectors_csv(path)


class TestCollectionRoundtrip:
    def test_write_read_write_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        entries = tuple(
            FeasibleSet(id=f"m{i}", measurement=rng.normal(size=2),
                        members=rng.normal(size=(i, 3)))
            for i in range(3)
        )
        c = FeasibleSetCollection(d1=3, d2=2, entries=entries)
        norm = NormSpec(p=1, q=np.inf, mask=[1, 1, 0])
        d1, d2 = tmp_path / "a", tmp_path / "b"
        write_collection(d1, c, norm)
        c2, norm2 = read_collection(d1)
        write_collection(d2, c2, norm2)
        assert dir_bytes(d1) == dir_bytes(d2)

    def test_malformed_manifest(self, tmp_path):
        d = tmp_path / "c"
        d.mkdir()
        (d / "manifest.json").write_text("{\"version\": 1}")
        with pytest.raises(DataError):
            read_collection(d)

    def test_manifest_that_is_no_json_is_data_error(self, tmp_path):
        d = tmp_path / "c"
        d.mkdir()
        (d / "manifest.json").write_text("{\"version\": 1")
        with pytest.raises(DataError, match=re.escape(f"{d / 'manifest.json'}: invalid JSON")):
            read_collection(d)

    @pytest.mark.parametrize("ident", ["a/b", "../escaped", "", ".", "..", "a\\b", "a\0b", 3])
    def test_id_that_is_not_a_file_name_writes_nothing(self, tmp_path, ident):
        good = FeasibleSet(id="m0", measurement=[1.0], members=[[0, 0]])
        bad = FeasibleSet(id=ident, measurement=[1.0], members=[[0, 2]])
        c = FeasibleSetCollection(d1=2, d2=1, entries=(good, bad))
        (tmp_path / "out").mkdir()
        with pytest.raises(DataError, match="is not a plain file name|expected a string"):
            write_collection(tmp_path / "out" / "c", c, NormSpec())
        assert [p.name for p in tmp_path.rglob("*")] == ["out"]


class TestAtomicWrite:
    def test_failed_rename_keeps_old_bytes_and_no_temp(self, tmp_path, monkeypatch):
        path = tmp_path / "v.csv"
        write_vectors_csv(path, [[1.0, 2.0]])

        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="rename failed"):
            write_vectors_csv(path, [[3.0, 4.0]])
        assert path.read_bytes() == b"1.0,2.0\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["v.csv"]

    @pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
    def test_collection_files_are_0600_without_temps(self, tmp_path):
        d = two_point_collection_dir(tmp_path)
        write_collection(d, read_collection(d)[0], NormSpec(p=2, q=2))  # over existing files
        names = sorted(p.name for p in d.iterdir())
        assert names == ["fs_m0.csv", "manifest.json", "y_m0.csv"]
        assert {(d / n).stat().st_mode & 0o777 for n in names} == {0o600}

    def test_table_csv_is_utf8_in_any_locale(self, tmp_path):
        """A non-ASCII id is written as UTF-8 even where the locale's
        encoding is ASCII."""
        path = tmp_path / "t.csv"
        code = ("import sys; from kersize.io import write_table_csv; "
                "write_table_csv(sys.argv[1], ['id', 'v'], [['m\\u00e9\\u4e00', 0.5]])")
        done = run_fresh("-c", code, str(path), LC_ALL="C", LANG="C",
                         PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
        assert done.returncode == 0, done.stderr
        assert path.read_bytes() == "id,v\nm\u00e9\u4e00,0.5\n".encode("utf-8")


class TestCliSample:
    def test_determinism_byte_identical(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = sample_config(tmp_path)
        assert main(["sample", "--config", str(cfg), "--out", "c1"]) == 0
        assert main(["sample", "--config", str(cfg), "--out", "c2"]) == 0
        assert dir_bytes(tmp_path / "c1") == dir_bytes(tmp_path / "c2")
        out = capsys.readouterr().out
        assert "K=4" in out

    def test_seed_flag_changes_output(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = sample_config(tmp_path)
        main(["sample", "--config", str(cfg), "--out", "c1"])
        main(["sample", "--config", str(cfg), "--out", "c2", "--seed", "8"])
        assert dir_bytes(tmp_path / "c1") != dir_bytes(tmp_path / "c2")

    def test_unknown_config_key_is_schema_error(self, tmp_path):
        cfg = json.loads(sample_config(tmp_path).read_text())
        cfg["extra"] = 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert main(["sample", "--config", str(path), "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize(
        "edit",
        [
            lambda cfg: cfg.update(model={"variant": "downsample_additive", "height": 4,
                                          "width": 4, "factor": 2, "r_max": 1.0}),
            lambda cfg: cfg.update(model={
                "variant": "microscopy", "pixels": [2, 2], "pixel_size": "abc",
                "psf_sigma0": 150.0, "psf_z0": 400.0, "c_max": 10.0, "h_max": 400.0,
                "exposure": 1.0, "volume": [[100, 300], [100, 300], [-50, 50]],
            }),
            lambda cfg: cfg["model"]["noise"].update(eps_additive="x"),
            lambda cfg: cfg["model"].update(noise=3),
            lambda cfg: cfg["model"].update(matrix=[[0.5, 0.5], [1.0]]),
            lambda cfg: cfg["sampler"].update(n_max="x"),
            lambda cfg: cfg.update(sampler=5),
            lambda cfg: cfg["sampler"].update(n_max=float("inf")),
            lambda cfg: cfg["sampler"].update(kind="grid", grid_resolution=[1e20, 2]),
            lambda cfg: cfg["sampler"].update(kind="grid", grid_resolution=[2.5, 2]),
            lambda cfg: cfg["sampler"].update(kind="random_walk", burn_in=1.5),
            lambda cfg: cfg.update(model={
                "variant": "microscopy", "pixels": [4.7, 4], "pixel_size": 100.0,
                "psf_sigma0": 150.0, "psf_z0": 400.0, "c_max": 10.0, "h_max": 400.0,
                "exposure": 1.0, "volume": [[100, 300], [100, 300], [-50, 50]],
            }),
            lambda cfg: cfg.update(model={"variant": "downsample_additive", "bands": 1,
                                          "height": 4, "width": 4, "factor": 2.5,
                                          "r_max": 1.0}),
            lambda cfg: cfg["model"]["noise"].update(eps_additive=10**400),
        ],
        ids=["missing_bands", "pixel_size_abc", "eps_additive_x", "noise_3",
             "ragged_matrix", "n_max_x", "sampler_5", "n_max_inf", "grid_resolution_1e20",
             "grid_resolution_2.5", "burn_in_1.5", "pixels_4.7", "factor_2.5",
             "eps_additive_10^400"],
    )
    def test_malformed_config_exits_2(self, tmp_path, capsys, edit):
        cfg = json.loads(sample_config(tmp_path).read_text())
        edit(cfg)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert main(["sample", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize(
        "edit",
        [
            lambda cfg: cfg["norm"].update(mask=[1]),
            lambda cfg: cfg["sampler"].update(kind="random_walk", step_scale=[0.1, 0.1, 0.1]),
            lambda cfg: cfg["sampler"].update(kind="random_walk", step_scale=-0.1),
            lambda cfg: cfg["sampler"].update(kind="random_walk",
                                              step_scale=[float("nan"), 1]),
            lambda cfg: cfg["sampler"].update(kind="random_walk", step_scale=float("inf")),
            lambda cfg: cfg["sampler"].update(kind="grid", grid_resolution=[2**32, 2**32]),
            lambda cfg: cfg["model"].update(signal_bounds=[[-1, float("nan")], [-1, 1]]),
            lambda cfg: cfg["model"].update(signal_bounds=[[-1, float("inf")], [-1, 1]]),
        ],
        ids=["mask_length", "step_scale_length", "step_scale_negative", "step_scale_nan",
             "step_scale_inf", "lattice_2^64", "signal_bounds_nan", "signal_bounds_inf"],
    )
    def test_config_dimension_mismatch_exits_1(self, tmp_path, capsys, edit):
        cfg = json.loads(sample_config(tmp_path).read_text())
        edit(cfg)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert main(["sample", "--config", str(path), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not (tmp_path / "x" / "manifest.json").exists()

    @pytest.mark.parametrize(
        "noise",
        [
            {"kind": "additive", "eps_additive": float("nan")},
            {"kind": "additive", "eps_additive": float("inf")},
            {"kind": "multiplicative", "eps_multiplicative": float("nan")},
            {"kind": "multiplicative", "eps_multiplicative": float("inf")},
        ],
        ids=["additive_nan", "additive_inf", "multiplicative_nan", "multiplicative_inf"],
    )
    def test_non_finite_noise_radius_exits_1(self, tmp_path, capsys, noise):
        cfg = json.loads(sample_config(tmp_path).read_text())
        cfg["model"]["noise"] = noise
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))  # NaN / Infinity literals
        assert main(["sample", "--config", str(path), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: eps_")
        assert "must be finite and nonnegative" in err[0]

    @pytest.mark.parametrize("ball", ["inf", "l2"])
    def test_noise_radius_beyond_half_the_float_range_exits_1(self, tmp_path, capsys, ball):
        """[-eps, eps] is wider than the largest float: one error line, no
        traceback or overflow warning, nothing written."""
        cfg = json.loads(sample_config(tmp_path).read_text())
        cfg["model"]["noise"] = {"kind": "additive", "eps_additive": 1e308, "ball": ball}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(cfg))
        assert main(["sample", "--config", str(path), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: eps_additive = 1e+308 is too large")
        assert not (tmp_path / "x" / "manifest.json").exists()

    def test_l2_noise_radius_with_overflowing_squares_samples(self, tmp_path, capsys):
        """At eps = 1e200 the squared l2 norm of a draw overflows; the norm
        itself does not, so every draw lies in the noise set."""
        cfg = json.loads(sample_config(tmp_path).read_text())
        cfg["model"]["noise"] = {"kind": "additive", "eps_additive": 1e200, "ball": "l2"}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(cfg))
        assert main(["sample", "--config", str(path), "--out", str(tmp_path / "x")]) == 0
        c, _ = read_collection(tmp_path / "x")
        assert c.counts == (8,) * 4

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        cfg = sample_config(tmp_path)
        assert main(["sample", "--config", str(cfg), "--out", str(tmp_path / "x"),
                     "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0\n"

    @pytest.mark.parametrize("content", ["", "0.1\n0.2\n"], ids=["empty", "two_rows"])
    def test_input_measurement_needs_one_row(self, tmp_path, capsys, content):
        cfg = json.loads(sample_config(tmp_path).read_text())
        cfg["paths"]["input"] = "meas"
        cfg["options"]["generate"] = None
        path = tmp_path / "in.json"
        path.write_text(json.dumps(cfg))
        (tmp_path / "meas").mkdir()
        y = tmp_path / "meas" / "y_a.csv"
        y.write_text(content)
        assert main(["sample", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {y}: expected exactly one measurement row"]

    def test_matrix_csv_path_is_read_relative_to_the_config(self, tmp_path, monkeypatch):
        """A linear model's "matrix" may name a CSV file, read from the
        config's directory, not the working one; it samples as the inline
        matrix does."""
        cfg = json.loads(sample_config(tmp_path).read_text())
        (tmp_path / "run").mkdir()
        (tmp_path / "run" / "A.csv").write_text("0.5,0.5\n")
        cfg["model"]["matrix"] = "A.csv"
        (tmp_path / "run" / "run.json").write_text(json.dumps(cfg))
        monkeypatch.chdir(tmp_path)
        assert main(["sample", "--config", "run/run.json", "--out", "by_path"]) == 0
        assert main(["sample", "--config", "run.json", "--out", "inline"]) == 0
        assert dir_bytes(tmp_path / "by_path") == dir_bytes(tmp_path / "inline")

    def test_measurements_from_the_input_directory(self, tmp_path, capsys):
        """``paths.input`` gives one feasible set per y_*.csv file, in file
        name order, each of members that reach its measurement."""
        cfg = json.loads(sample_config(tmp_path).read_text())
        cfg["paths"]["input"] = "meas"
        cfg["options"]["generate"] = None
        path = tmp_path / "in.json"
        path.write_text(json.dumps(cfg))
        (tmp_path / "meas").mkdir()
        (tmp_path / "meas" / "y_b.csv").write_text("0.25\n")
        (tmp_path / "meas" / "y_a.csv").write_text("-0.5\n")
        assert main(["sample", "--config", str(path), "--out", str(tmp_path / "x")]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "K=2 N=[8, 8] uniform=True"
        c, _ = read_collection(tmp_path / "x")
        assert [e.measurement.tolist() for e in c.entries] == [[-0.5], [0.25]]
        for e in c.entries:
            assert np.all(np.abs(e.members.mean(axis=1) - e.measurement[0]) <= 0.2)

    @pytest.mark.parametrize("edit, flags, code, message", [
        (lambda cfg: cfg["paths"].update(output=None), [], 1,
         "no output directory (set paths.output or --out)"),
        (lambda cfg: (cfg["paths"].update(input="meas"), cfg["options"].update(generate=None)),
         ["--out", "x"], 2, "no y_*.csv measurement files in {}"),
        (lambda cfg: cfg["options"].update(generate=None), ["--out", "x"], 2,
         "config needs options.generate or paths.input"),
    ], ids=["no-output", "no-measurement-files", "no-input"])
    def test_config_without_output_or_input_is_refused(self, tmp_path, capsys, monkeypatch,
                                                       edit, flags, code, message):
        cfg = json.loads(sample_config(tmp_path).read_text())
        edit(cfg)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        (tmp_path / "meas").mkdir()
        (tmp_path / "meas" / "x_a.csv").write_text("0.25\n")
        monkeypatch.chdir(tmp_path)
        assert main(["sample", "--config", str(path), *flags]) == code
        assert capsys.readouterr().err.splitlines() == [
            "error: " + message.format(tmp_path / "meas")]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json", "meas", "run.json"]

    def test_singleton_warning_printed(self, tmp_path, capsys):
        cfg = json.loads(sample_config(tmp_path).read_text())
        cfg["model"]["matrix"] = [[1.0, 0.0], [0.0, 1.0]]
        cfg["model"]["noise"]["eps_additive"] = 0.0
        cfg["sampler"]["budget"] = 200
        path = tmp_path / "inj.json"
        path.write_text(json.dumps(cfg))
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["sample", "--config", str(path), "--out", str(tmp_path / "c")])
        assert code == 0
        assert "singleton" in capsys.readouterr().out


class TestCliKersize:
    def test_prints_worked_values(self, tmp_path, capsys):
        d = two_point_collection_dir(tmp_path)
        assert main(["kersize", str(d)]) == 0
        out = capsys.readouterr().out
        assert "kersize=1.41421356" in out
        assert "half_kersize=0.70710678" in out
        payload = json.loads((d / "bounds.json").read_text())
        assert payload["kersize"] == pytest.approx(np.sqrt(2), rel=1e-12)
        assert (d / "per_measurement.csv").read_text().splitlines()[0] == (
            "id,n_k,half_kersize_single"
        )

    def test_p_flag(self, tmp_path, capsys):
        d = two_point_collection_dir(tmp_path)
        # add a singleton set to mirror the two-set p=1 example
        c, norm = read_collection(d)
        entries = c.entries + (
            FeasibleSet(id="m1", measurement=[2.0], members=[[1.0, 1.0]]),
        )
        write_collection(d, FeasibleSetCollection(d1=2, d2=1, entries=entries), norm)
        assert main(["kersize", str(d), "--p", "1"]) == 0
        out = capsys.readouterr().out
        assert "kersize=0.50000000" in out and "half_kersize=0.25000000" in out

    def test_report_at_another_norm_starts_a_fresh_file(self, tmp_path, capsys):
        """kersize keeps validate's bounds.json only at the same p, q and
        mask; at another norm no value of the old norm is left beside the new."""
        d = two_point_collection_dir(tmp_path)
        assert main(["validate", str(d)]) == 0
        validated = json.loads((d / "bounds.json").read_text())
        assert (validated["p"], validated["q"], validated["mask"]) == (2.0, 2.0, None)
        assert main(["kersize", str(d)]) == 0
        kept = json.loads((d / "bounds.json").read_text())
        assert kept["theta_loss"] == validated["theta_loss"]
        assert kept["per_measurement"] == validated["per_measurement"]

        for flags, norm in [(["--p", "1"], (1.0, 2.0, None)),
                            (["--mask", "1"], (2.0, 2.0, [0, 1]))]:
            assert main(["kersize", str(d), *flags]) == 0
            payload = json.loads((d / "bounds.json").read_text())
            assert (payload["p"], payload["q"], payload["mask"]) == norm
            assert set(payload) == {"p", "q", "mask", "kersize", "half_kersize", "uniform"}

    @pytest.mark.parametrize(
        "edit",
        [
            lambda m: m.update(d1="x"),
            lambda m: m["entries"][0].update(count="x"),
            lambda m: m.update(entries=5),
            lambda m: (m.update(d1=-1),
                       m["entries"][0].update(count=0, feasible="fs_empty.csv")),
            lambda m: m["entries"][0].update(id=["a"]),
            *(lambda m, i=i: m["entries"][0].update(id=i)
              for i in ["a/b", "../../escaped", "", ".", "..", "a\\b", "a\0b"]),
            lambda m: m.update(version=2),
            lambda m: m["entries"][0].update(count=3),
            lambda m: m.update(d1=3),
            lambda m: m.update(d2=2),
        ],
        ids=["d1_x", "count_x", "entries_5", "d1_negative_empty_set", "id_list",
             "id_slash", "id_escaping", "id_empty", "id_dot", "id_dotdot", "id_backslash",
             "id_nul", "version_2", "count_3", "d1_3", "d2_2"],
    )
    def test_malformed_manifest_exits_2(self, tmp_path, capsys, edit):
        d = two_point_collection_dir(tmp_path)
        (d / "fs_empty.csv").write_text("")
        manifest = json.loads((d / "manifest.json").read_text())
        edit(manifest)
        (d / "manifest.json").write_text(json.dumps(manifest))
        assert main(["kersize", str(d)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_malformed_collection_exit_2(self, tmp_path):
        d = tmp_path / "nope"
        d.mkdir()
        assert main(["kersize", str(d)]) == 2

    def test_singleton_collection_prints_zero(self, tmp_path, capsys):
        c = FeasibleSetCollection(
            d1=2, d2=1,
            entries=(FeasibleSet(id="m0", measurement=[1.0], members=[[3, 4]]),),
        )
        d = tmp_path / "single"
        write_collection(d, c, NormSpec())
        main(["kersize", str(d)])
        assert "kersize=0.00000000" in capsys.readouterr().out


class TestCliLoss:
    def test_three_worked_cases(self, tmp_path, capsys):
        d = two_point_collection_dir(tmp_path)
        pred = tmp_path / "preds"
        pred.mkdir()
        (pred / "pred_m0.csv").write_text("0.0,1.0\n")
        assert main(["loss", str(d), str(pred), "--name", "mid"]) == 0
        assert "loss[mid]=1.00000000" in capsys.readouterr().out

        (pred / "pred_m0.csv").write_text("0.0,0.0\n")
        main(["loss", str(d), str(pred), "--name", "origin", "--p", "1"])
        assert "loss[origin]=1.00000000" in capsys.readouterr().out

        # the p = 1 loss starts a fresh file: the p = 2 loss of "mid" goes
        payload = json.loads((d / "bounds.json").read_text())
        assert payload["losses"] == {"origin": pytest.approx(1.0)}
        assert (payload["p"], payload["q"], payload["mask"]) == (1.0, 2.0, None)

        main(["loss", str(d), str(pred), "--name", "origin2", "--p", "1"])
        payload = json.loads((d / "bounds.json").read_text())
        assert set(payload["losses"]) == {"origin", "origin2"}

    def test_perfect_predictions(self, tmp_path, capsys):
        c = FeasibleSetCollection(
            d1=2, d2=1,
            entries=(FeasibleSet(id="m0", measurement=[1.0], members=[[2.0, 3.0]]),),
        )
        d = tmp_path / "c"
        write_collection(d, c, NormSpec())
        pred = tmp_path / "preds"
        pred.mkdir()
        (pred / "pred_m0.csv").write_text("2.0,3.0\n")
        main(["loss", str(d), str(pred)])
        assert "=0.00000000" in capsys.readouterr().out

    def test_missing_prediction_exit_2(self, tmp_path):
        d = two_point_collection_dir(tmp_path)
        pred = tmp_path / "empty"
        pred.mkdir()
        assert main(["loss", str(d), str(pred)]) == 2

    @pytest.mark.parametrize("arg", [".", "sub/.."])
    def test_map_is_named_after_the_directory_it_stands_for(self, tmp_path, capsys,
                                                            monkeypatch, arg):
        d = two_point_collection_dir(tmp_path)
        pred = tmp_path / "preds"
        (pred / "sub").mkdir(parents=True)
        (pred / "pred_m0.csv").write_text("0.0,1.0\n")
        monkeypatch.chdir(pred)
        assert main(["loss", str(d), arg, "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().out == "loss[preds]=1.00000000\n"

    @pytest.mark.parametrize("argv", [["median"], ["p", "--name", "median"]],
                             ids=["directory", "name-flag"])
    def test_built_in_map_name_is_renamed(self, tmp_path, capsys, argv):
        """After validate, a map named median, by its directory or by --name,
        joins bounds.json as median_ext, as in validate, and leaves the
        built-in median's loss and flags as they were."""
        d = two_point_collection_dir(tmp_path)
        assert main(["validate", str(d)]) == 0
        before = json.loads((d / "bounds.json").read_text())
        pred = tmp_path / argv[0]
        pred.mkdir()
        (pred / "pred_m0.csv").write_text("0.0,7.0\n")
        assert main(["loss", str(d), str(pred), *argv[1:]]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "loss[median_ext]=6.08276253"
        after = json.loads((d / "bounds.json").read_text())
        assert after["losses"] == {**before["losses"], "median_ext": pytest.approx(37**0.5)}
        assert after["losses"]["median"] == 1.0
        assert after["inequality_flags"] == before["inequality_flags"]

    def test_root_directory_names_no_map(self, tmp_path, capsys):
        """The root has no name: exit 1 before any file is read, unless
        --name gives one (then its missing prediction file is exit 2)."""
        d = two_point_collection_dir(tmp_path)
        assert main(["loss", str(d), "/"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: prediction directory / has no name for its map"]
        assert main(["loss", str(d), "/", "--name", "root"]) == 2
        assert not (d / "bounds.json").exists()


class TestCliValidate:
    def test_correct_collection_exits_zero(self, tmp_path, capsys):
        d = two_point_collection_dir(tmp_path)
        assert main(["validate", str(d), "--strict"]) == 0
        out = capsys.readouterr().out
        assert "lower_ok=True" in out
        scatter = (d / "scatter.csv").read_text().splitlines()
        assert scatter[0].startswith("id,half_kersize_single,theta_loss")

    def test_external_predictions_joined(self, tmp_path, capsys):
        d = two_point_collection_dir(tmp_path)
        pred = tmp_path / "ext"
        pred.mkdir()
        (pred / "pred_m0.csv").write_text("0.0,1.0\n")
        assert main(["validate", str(d), str(pred)]) == 0
        payload = json.loads((d / "bounds.json").read_text())
        assert "ext" in payload["losses"]

    @pytest.mark.parametrize("dirs, clash", [
        (["r1/p", "r2/p", "r3/p"], ("r1/p", "r2/p", "p")),
        (["s1/median", "s2/median"], ("s1/median", "s2/median", "median_ext")),
        (["median", "x/median_ext"], ("median", "x/median_ext", "median_ext")),
    ], ids=["repeated", "repeated-built-in", "renamed-onto-taken"])
    def test_prediction_name_taken_twice_exits_1(self, tmp_path, capsys, dirs, clash):
        """Two directories that give one map name are refused, naming both,
        before any prediction file is read (these directories hold none)."""
        d = two_point_collection_dir(tmp_path)
        paths = [tmp_path / name for name in dirs]
        for path in paths:
            path.mkdir(parents=True)
        assert main(["validate", str(d), *map(str, paths), "--strict"]) == 1
        first, second, name = clash
        assert capsys.readouterr().err.splitlines() == [
            f"error: prediction directories {tmp_path / first} and {tmp_path / second} "
            f"both name the map {name!r}"]
        assert not (d / "bounds.json").exists()

    @pytest.mark.parametrize("arg", [".", "sub/..", "link"])
    def test_map_is_named_after_the_directory_it_stands_for(self, tmp_path, monkeypatch, arg):
        """"." and "sub/.." name the map after the predictions directory; a
        symlink to it keeps its own name."""
        d = two_point_collection_dir(tmp_path)
        pred = tmp_path / "preds"
        (pred / "sub").mkdir(parents=True)
        (pred / "pred_m0.csv").write_text("0.0,1.0\n")
        (pred / "link").symlink_to(pred)
        monkeypatch.chdir(pred)
        assert main(["validate", str(d), arg]) == 0
        name = "link" if arg == "link" else "preds"
        assert set(json.loads((d / "bounds.json").read_text())["losses"]) == {
            "median", "zero", name}
        header = (d / "scatter.csv").read_text().splitlines()[0].split(",")
        assert f"{name}_loss" in header and "_loss" not in header

    def test_root_directory_names_no_map(self, tmp_path, capsys):
        d = two_point_collection_dir(tmp_path)
        assert main(["validate", str(d), "/"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: prediction directory / has no name for its map"]
        assert not (d / "bounds.json").exists()

    def test_built_in_map_names_are_renamed(self, tmp_path):
        """A directory named theta, median or zero joins as <name>_ext, so
        --strict checks every map it is given."""
        d = two_point_collection_dir(tmp_path)
        for name, value in [("theta", "0.0,1.0"), ("median", "0.0,2.0"), ("zero", "0.0,0.5")]:
            (tmp_path / name).mkdir()
            (tmp_path / name / "pred_m0.csv").write_text(value + "\n")
        assert main(["validate", str(d), *(str(tmp_path / n) for n in ("theta", "median", "zero")),
                     "--strict"]) == 0
        payload = json.loads((d / "bounds.json").read_text())
        assert payload["losses"] == {"median": 1.0, "zero": 1.4142135623730951,
                                     "theta_ext": 1.0, "median_ext": 1.4142135623730951,
                                     "zero_ext": 1.118033988749895}

    def test_wrong_width_prediction_exit_1(self, tmp_path, capsys):
        """A prediction of the wrong length is a usage error, as in ``loss``."""
        d = two_point_collection_dir(tmp_path)
        pred = tmp_path / "wide"
        pred.mkdir()
        (pred / "pred_m0.csv").write_text("0.0,1.0,2.0\n")
        assert main(["loss", str(d), str(pred)]) == 1
        assert main(["validate", str(d), str(pred)]) == 1
        assert "has shape (3,)" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "1e309"])
    @pytest.mark.parametrize("argv", [["validate"], ["validate", "--strict"], ["loss"]],
                             ids=["validate", "strict", "loss"])
    def test_non_finite_prediction_exits_2(self, tmp_path, capsys, argv, value):
        """A non-finite prediction is malformed input, not a bound violation,
        and leaves no NaN or Infinity in bounds.json."""
        d = two_point_collection_dir(tmp_path)
        pred = tmp_path / "pred"
        pred.mkdir()
        (pred / "pred_m0.csv").write_text(f"0.0,{value}\n")
        assert main([argv[0], str(d), str(pred), *argv[1:]]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: prediction for 'm0' from map 'pred' is not finite"]
        assert not (d / "bounds.json").exists()

    @pytest.mark.parametrize("p", [1, 2])
    def test_huge_finite_prediction(self, tmp_path, capsys, p):
        """A prediction 1e200 from both members: its q = 2 distance is
        measured past the overflowing squares, so p = 1 writes a finite loss;
        at p = 2 the square overflows, which exits 2 with one error line and
        writes no Infinity into bounds.json."""
        d = two_point_collection_dir(tmp_path)
        pred = tmp_path / "pred"
        pred.mkdir()
        (pred / "pred_m0.csv").write_text("0.0,1e200\n")
        code = main(["validate", str(d), str(pred), "--strict", "--p", str(p), "--q", "2"])
        err = capsys.readouterr().err.splitlines()
        if p == 2:
            assert code == 2
            assert err == ["error: loss of the prediction for 'm0' from map 'pred' "
                           "overflows float64"]
            assert not (d / "bounds.json").exists()
        else:
            assert code == 0
            assert json.loads((d / "bounds.json").read_text())["losses"]["pred"] == 1e200

    def test_general_norm_theta_certificate_without_scipy_optimize(self, tmp_path):
        """``validate --p 2 --q 1`` runs the interior-point theta solver,
        writes its certificate to bounds.json and never imports
        scipy.optimize (whose import alone adds about 23 MB of resident
        memory). Run in a fresh interpreter so other tests' imports do not
        count."""
        rng = np.random.default_rng(3)
        c = FeasibleSetCollection(
            d1=3, d2=1,
            entries=tuple(FeasibleSet(id=f"m{k}", measurement=[float(k)],
                                      members=rng.normal(size=(5, 3))) for k in range(2)),
        )
        d = tmp_path / "l1"
        write_collection(d, c, NormSpec())
        script = ("import sys; from kersize import cli; "
                  f"code = cli.main(['validate', {str(d)!r}, '--p', '2', '--q', '1']); "
                  "print(code, 'scipy.optimize' in sys.modules)")
        done = run_fresh("-c", script)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split()[-2:] == ["0", "False"]
        for row in json.loads((d / "bounds.json").read_text())["per_measurement"]:
            assert row["theta_iterations"] > 0
            assert 0.0 <= row["theta_gap"] <= 1e-9 * row["theta_objective"]

    def test_strict_violation_exit_3(self, tmp_path):
        """Unequal set sizes let a per-set-optimal map undercut the aggregate
        half kernel size; --strict must flag it."""
        big = np.column_stack([np.full(60, 5.0), np.linspace(0, 1e-9, 60)])
        c = FeasibleSetCollection(
            d1=2, d2=1,
            entries=(
                FeasibleSet(id="m0", measurement=[1.0], members=[[0, 0], [0, 1]]),
                FeasibleSet(id="m1", measurement=[9.0], members=big),
            ),
        )
        d = tmp_path / "skewed"
        write_collection(d, c, NormSpec(p=1, q=2))
        assert main(["validate", str(d)]) == 0
        assert main(["validate", str(d), "--strict"]) == 3


class TestCliSkersize:
    def test_worked_example(self, tmp_path, capsys):
        d = tmp_path / "pairs"
        c = FeasibleSetCollection(
            d1=2, d2=1,
            entries=(FeasibleSet(id="m0", measurement=[2.0], members=[[1.0, 3.0]]),),
        )
        write_collection(d, c, NormSpec())
        mat = tmp_path / "A.csv"
        mat.write_text("0.5,0.5\n")
        assert main(["skersize", str(d), "--matrix", str(mat)]) == 0
        assert "skersize=1.41421356" in capsys.readouterr().out
        sym, _ = read_collection(d / "symmetrized")
        assert sym.counts == (2,)
        np.testing.assert_allclose(sym.entries[0].members[1], [3.0, 1.0], atol=1e-9)

    def test_row_space_dataset_zero(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(2, 3))
        x = rng.normal(size=(4, 2)) @ A
        y = x @ A.T
        entries = tuple(
            FeasibleSet(id=f"m{i}", measurement=y[i], members=x[i][None, :])
            for i in range(4)
        )
        d = tmp_path / "rows"
        write_collection(d, FeasibleSetCollection(d1=3, d2=2, entries=entries), NormSpec())
        mat = tmp_path / "A.csv"
        write_vectors_csv(mat, A)
        main(["skersize", str(d), "--matrix", str(mat), "--eps-additive", "1e-6"])
        assert "skersize=0.00000000" in capsys.readouterr().out

    @pytest.mark.parametrize("mode", ["signal", "joint"])
    def test_matrix_is_a_linear_model_with_no_signal_box(self, tmp_path, mode):
        """--matrix A.csv --eps-additive E is the linear model of A with noise
        E and no signal box: it writes the kernel norms and reflections of
        --model with the same A and noise and the box [-1, 1]², byte for
        byte, and flags no reflection, where the model flags pair 0's."""
        A = np.array([[0.5, 0.5]])
        x = np.array([[1e6, -1e6], [0.2, 0.4]])  # pair 0 reflects to (-1e6, 1e6)
        entries = tuple(FeasibleSet(id=f"m{i}", measurement=A @ x[i] + 0.05, members=x[i:i + 1])
                        for i in range(2))
        d = tmp_path / "pairs"
        write_collection(d, FeasibleSetCollection(d1=2, d2=1, entries=entries), NormSpec())
        mat, model_path = tmp_path / "A.csv", tmp_path / "model.json"
        write_vectors_csv(mat, A)
        from kersize.forward import LinearModel, NoiseSpec

        model = LinearModel(A, NoiseSpec(kind="additive", eps_additive=0.1), [[-1, 1]] * 2)
        model_path.write_text(json.dumps(model.to_dict()))
        outs = {operator: tmp_path / operator for operator in ("matrix", "model")}
        assert main(["skersize", str(d), "--matrix", str(mat), "--eps-additive", "0.1",
                     "--mode", mode, "--out", str(outs["matrix"])]) == 0
        assert main(["skersize", str(d), "--model", str(model_path), "--mode", mode,
                     "--out", str(outs["model"])]) == 0
        matrix_files, model_files = dir_bytes(outs["matrix"]), dir_bytes(outs["model"])
        assert matrix_files.keys() == model_files.keys()
        assert [k for k in matrix_files if matrix_files[k] != model_files[k]] == ["skersize.json"]
        docs = {k: json.loads((out / "skersize.json").read_text()) for k, out in outs.items()}
        assert (docs["matrix"].pop("bounds_violations"), docs["model"].pop("bounds_violations")
                ) == ([], [0])
        assert docs["matrix"] == docs["model"]

    def test_downsample_model_reflections_preserve_measurements(self, tmp_path):
        from kersize.forward import DownsampleModel, NoiseSpec

        rng = np.random.default_rng(3)
        model = DownsampleModel(bands=3, height=32, width=32, factor=4, r_max=1.0,
                                noise=NoiseSpec(kind="additive", eps_additive=0.01))
        x = rng.uniform(0.3, 0.7, size=(3, model.d1))
        e = rng.uniform(-0.01, 0.01, size=(3, model.d2))
        y = model.noiseless_batch(x) + e
        entries = tuple(
            FeasibleSet(id=f"m{i}", measurement=y[i], members=x[i][None, :])
            for i in range(3)
        )
        d = tmp_path / "imgs"
        write_collection(d, FeasibleSetCollection(d1=model.d1, d2=model.d2,
                                                  entries=entries), NormSpec())
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model.to_dict()))
        assert main(["skersize", str(d), "--model", str(model_path)]) == 0
        sym, _ = read_collection(d / "symmetrized")
        for i, e_entry in enumerate(sym.entries):
            reflected = e_entry.members[1]
            resid = model.noiseless_batch(reflected[None, :])[0] + e[i] - y[i]
            assert np.max(np.abs(resid)) < 1e-8

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_non_finite_eps_additive_exits_1(self, tmp_path, capsys, eps):
        mat = tmp_path / "A.csv"
        mat.write_text("0.5,0.5\n")
        assert main(["skersize", str(two_point_collection_dir(tmp_path)), "--matrix", str(mat),
                     "--eps-additive", eps]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: eps_additive must be finite and nonnegative, got {eps}"]

    def test_model_matrix_csv_path_is_read_relative_to_the_model(self, tmp_path, monkeypatch):
        """--model's "matrix" may name a CSV file beside the model document;
        the bound is that of the inline matrix."""
        from kersize.forward import LinearModel, NoiseSpec

        d = two_point_collection_dir(tmp_path)
        doc = LinearModel([[0.5, 0.5]], NoiseSpec(kind="additive", eps_additive=1.0),
                          [[-5, 5], [-5, 5]]).to_dict()
        (tmp_path / "inline.json").write_text(json.dumps(doc))
        (tmp_path / "models").mkdir()
        (tmp_path / "models" / "A.csv").write_text("0.5,0.5\n")
        (tmp_path / "models" / "model.json").write_text(json.dumps({**doc, "matrix": "A.csv"}))
        monkeypatch.chdir(tmp_path)
        assert main(["skersize", str(d), "--model", "models/model.json", "--out", "by_path"]) == 0
        assert main(["skersize", str(d), "--model", "inline.json", "--out", "inline"]) == 0
        assert dir_bytes(tmp_path / "by_path") == dir_bytes(tmp_path / "inline")

    def test_eps_additive_beside_a_model_exits_1(self, tmp_path, capsys):
        """A model brings its own noise; --eps-additive would be ignored."""
        from kersize.forward import LinearModel, NoiseSpec

        model = LinearModel([[0.5, 0.5]], NoiseSpec(kind="additive", eps_additive=1.0),
                            [[-5, 5], [-5, 5]])
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model.to_dict()))
        d = two_point_collection_dir(tmp_path)
        assert main(["skersize", str(d), "--model", str(path), "--eps-additive", "5"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: --eps-additive sets the noise of --matrix; a model has its own"]
        assert not (d / "symmetrized").exists()
        assert main(["skersize", str(d), "--model", str(path)]) == 0

    def test_tiny_matrix_exits_2(self, tmp_path, capsys):
        """1/sigma overflows: one error line naming the operator, no warning."""
        mat = tmp_path / "A.csv"
        mat.write_text("1e-320,0.0\n")
        assert main(["skersize", str(two_point_collection_dir(tmp_path)), "--matrix", str(mat),
                     "--eps-additive", "1"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: operator is too small to invert")

    def test_microscopy_model_exits_1(self, tmp_path, capsys):
        from kersize.forward import MicroscopyModel, NoiseSpec

        model = MicroscopyModel(pixels=(2, 2), pixel_size=100.0, psf_sigma0=150.0,
                                psf_z0=400.0, c_max=10.0, h_max=1000.0, exposure=1.0,
                                volume=[[0, 200], [0, 200], [-100, 100]],
                                noise=NoiseSpec(kind="additive", eps_additive=1.0))
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model.to_dict()))
        assert main(["skersize", str(two_point_collection_dir(tmp_path)),
                     "--model", str(model_path)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: the model must be a LinearModel or a DownsampleModel, not MicroscopyModel"]

    @pytest.mark.parametrize("operator, mode, message", [
        ("model", "signal", "operator has 16 columns, pairs have d1=2"),
        ("matrix", "signal", "operator has 2 rows, pairs have d2=1"),
        ("matrix", "joint", "operator has 2 rows, pairs have d2=1"),
    ], ids=["d1", "d2-signal", "d2-joint"])
    def test_model_of_wrong_size_exits_1(self, tmp_path, capsys, operator, mode, message):
        """A 4 x 16 model for pairs of d1 = 2, or a 2 x 2 matrix for pairs of
        d2 = 1: one error line, exit 1."""
        from kersize.forward import DownsampleModel, NoiseSpec

        path = tmp_path / "operator"
        if operator == "model":
            model = DownsampleModel(bands=1, height=4, width=4, factor=2, r_max=1.0,
                                    noise=NoiseSpec(kind="additive"))
            path.write_text(json.dumps(model.to_dict()))
        else:
            path.write_text("0.5,0.5\n0.5,0.5\n")
        assert main(["skersize", str(two_point_collection_dir(tmp_path)), f"--{operator}",
                     str(path), "--mode", mode]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


class TestCliDemo:
    def test_superres_deterministic(self, tmp_path, capsys):
        out1, out2 = tmp_path / "d1", tmp_path / "d2"
        assert main(["demo", "superres", "--out", str(out1), "--seed", "3"]) == 0
        assert main(["demo", "superres", "--out", str(out2), "--seed", "3"]) == 0
        assert dir_bytes(out1) == dir_bytes(out2)
        text = capsys.readouterr().out
        assert "lower_ok=True" in text
        assert "upscalers_within_2x=True" in text

    def test_microscopy_small_scale(self, tmp_path, capsys):
        out = tmp_path / "micro"
        assert main(["demo", "microscopy", "--out", str(out), "--seed", "2",
                     "--k", "2", "--n-max", "25"]) == 0
        text = capsys.readouterr().out
        assert text.count("lower_ok=True") == 4
        assert (out / "summary.csv").exists()
        assert (out / "A1" / "scatter.csv").exists()

    def test_microscopy_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "m1", tmp_path / "m2"
        for out in (out1, out2):
            assert main(["demo", "microscopy", "--out", str(out), "--seed", "5",
                         "--k", "2", "--n-max", "20"]) == 0
        assert dir_bytes(out1) == dir_bytes(out2)

    @pytest.mark.parametrize("name", ["microscopy", "superres"])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, name):
        out = tmp_path / "x"
        assert main(["demo", name, "--out", str(out), "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_nonpositive_k_is_usage_error(self, tmp_path, capsys, k):
        out = tmp_path / "x"
        assert main(["demo", "microscopy", "--out", str(out), "--k", k]) == 1
        assert capsys.readouterr().err == "error: k must be >= 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--k", "5"], ["--n-max", "3"], ["--k", "0"],
                                       ["--k", "5", "--n-max", "3"]])
    def test_superres_refuses_microscopy_sizes(self, tmp_path, capsys, flags):
        out = tmp_path / "x"
        assert main(["demo", "superres", "--out", str(out), *flags]) == 1
        assert capsys.readouterr().err == "error: demo superres takes no --k or --n-max\n"
        assert not out.exists()

    def test_unknown_demo_exit_1(self):
        assert main(["demo", "nosuch"]) == 1

    @pytest.mark.parametrize("argv, seed", [([], 1), (["--seed", "0"], 0), (["--seed", "4"], 4)])
    def test_seed_passed_through(self, monkeypatch, tmp_path, argv, seed):
        calls = []
        monkeypatch.setattr(
            "kersize.demo.microscopy_demo",
            lambda **kw: calls.append(kw) or {"setups": []},
        )
        assert main(["demo", "microscopy", "--out", str(tmp_path), *argv]) == 0
        assert calls[0]["seed"] == seed

    @pytest.mark.parametrize("argv, sizes", [
        ([], {}), (["--k", "3"], {"k": 3}), (["--k", "3", "--n-max", "7"], {"k": 3, "n_max": 7}),
    ])
    def test_microscopy_sizes_passed_through(self, monkeypatch, tmp_path, argv, sizes):
        """Only the sizes given reach the demo, which keeps its defaults
        (k = 10, n_max = 200) for the others."""
        from kersize import demo

        params = inspect.signature(demo.microscopy_demo).parameters
        assert (params["k"].default, params["n_max"].default) == (10, 200)
        calls = []
        monkeypatch.setattr(
            "kersize.demo.microscopy_demo",
            lambda **kw: calls.append(kw) or {"setups": []},
        )
        assert main(["demo", "microscopy", "--out", str(tmp_path), *argv]) == 0
        assert calls == [{"out_dir": tmp_path, "seed": 1, **sizes}]


class TestExitCodes:
    def test_missing_subcommand_is_usage(self, capsys):
        assert main([]) == 1
        assert main(["kersize"]) == 1

    def test_usage_error_from_flags(self, tmp_path):
        d = two_point_collection_dir(tmp_path)
        assert main(["kersize", str(d), "--mask", "7"]) == 1

    @pytest.mark.parametrize("flags", [["--q", "abc"], ["--mask", "a,b"]])
    def test_unparsable_norm_flag_is_usage(self, tmp_path, capsys, flags):
        d = two_point_collection_dir(tmp_path)
        assert main(["kersize", str(d), *flags]) == 1
        assert f"argument {flags[0]}" in capsys.readouterr().err

    def test_q_flag_reads_inf(self, tmp_path, capsys):
        d = two_point_collection_dir(tmp_path)
        assert main(["kersize", str(d), "--q", "inf"]) == 0
        assert json.loads((d / "bounds.json").read_text())["q"] == "inf"

    @pytest.mark.parametrize("command", ["kersize", "loss", "validate", "skersize"])
    def test_seed_flag_only_on_sample_and_demo(self, tmp_path, command):
        d = str(two_point_collection_dir(tmp_path))
        extra = {"loss": [d], "skersize": ["--matrix", "A.csv"]}.get(command, [])
        assert main([command, d, *extra, "--seed", "3"]) == 1

    @pytest.mark.parametrize(
        "target, content, command",
        [
            ("twopoint/fs_m0.csv", b"0.0,0.0\n\xff,2.0\n", "kersize"),
            ("twopoint/fs_m0.csv", None, "kersize"),
            ("twopoint/manifest.json", b"{\"version\": \"\xff\"}", "kersize"),
            ("twopoint/manifest.json", None, "kersize"),
            ("run.json", b"{\"model\": \"\xff\"}", "sample"),
            ("pred/pred_m0.csv", b"\xff,1.0\n", "validate"),
        ],
        ids=["csv_undecodable", "csv_is_directory", "manifest_undecodable",
             "manifest_is_directory", "config_undecodable", "prediction_undecodable"],
    )
    def test_unreadable_file_exits_2(self, tmp_path, capsys, target, content, command):
        """A file that is not UTF-8 text, or is a directory, is a data error
        reported on one line, not a traceback."""
        d = two_point_collection_dir(tmp_path)
        cfg = sample_config(tmp_path)
        (tmp_path / "pred").mkdir()
        (tmp_path / "pred" / "pred_m0.csv").write_text("0.0,1.0\n")
        path = tmp_path / target
        path.unlink()
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        argv = {
            "kersize": ["kersize", str(d)],
            "sample": ["sample", "--config", str(cfg), "--out", str(tmp_path / "out")],
            "validate": ["validate", str(d), str(tmp_path / "pred")],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(path) in err[0]


    OPPOSITE = [[1e200, -1e200], [-1e200, 1e200]]

    @pytest.mark.parametrize(
        "members, argv, kersize",
        [
            (OPPOSITE, ["kersize"], None),
            (OPPOSITE, ["kersize", "--p", "2", "--q", "1"], None),
            (OPPOSITE, ["validate"], None),
            (OPPOSITE, ["skersize", "--matrix", "A.csv"], None),
            ([[1e308], [-1e308]], ["kersize", "--p", "1", "--q", "1"], None),
            ([[1e308], [1e308]], ["kersize"], 0.0),
            ([[1e308], [1e308]], ["kersize", "--p", "1", "--q", "1"], 0.0),
            ([[1e308], [1e308]], ["validate"], None),
        ],
        ids=["pair_sum", "pair_power", "validate", "kernel_component", "closed_form_l1",
             "equal_huge", "equal_huge_l1", "validate_equal_huge"],
    )
    def test_values_past_float64_exit_2(self, tmp_path, capsys, members, argv, kersize):
        """A pair distance, kernel component or sum beyond float64 exits 2 on
        one error line and writes no report; finite members whose mean alone
        would overflow give the exact kernel size. No warning is raised."""
        members = np.array(members)
        d = tmp_path / "huge"
        write_collection(d, FeasibleSetCollection(d1=members.shape[1], d2=1, entries=(
            FeasibleSet(id="m0", measurement=[0.0], members=members),)), NormSpec())
        (tmp_path / "A.csv").write_text("0.5,0.5\n")
        command, *flags = argv
        out = tmp_path / "out"
        flags = [str(tmp_path / f) if f.endswith(".csv") else f for f in flags]
        code = main([command, str(d), *flags, "--out", str(out)])
        reports = [p.read_text() for p in out.glob("*.json")] if out.exists() else []
        assert not any("Infinity" in text or "NaN" in text for text in reports)
        if kersize is None:
            err = capsys.readouterr().err.splitlines()
            assert code == 2 and len(err) == 1 and err[0].startswith("error: ")
            assert reports == []
        else:
            assert code == 0
            assert json.loads((out / "bounds.json").read_text())["kersize"] == kersize


class TestFreshInterpreter:
    def test_non_demo_commands_never_import_scipy(self, tmp_path):
        """Importing kersize and kersize.cli, then running sample (from
        measurement files), validate, kersize, loss and skersize --model on a
        linear model loads numpy only: scipy, about 0.3 s of start-up per
        process, is left to the microscopy model, predictors.upscale and the
        demos."""
        cfg = json.loads(sample_config(tmp_path, out="coll", generate=None).read_text())
        cfg["paths"]["input"] = "meas"
        (tmp_path / "run.json").write_text(json.dumps(cfg))
        (tmp_path / "model.json").write_text(json.dumps(cfg["model"]))
        (tmp_path / "meas").mkdir()
        (tmp_path / "pred").mkdir()
        for i, y in enumerate([0.1, -0.3]):
            write_vectors_csv(tmp_path / "meas" / f"y_{'ab'[i]}.csv", [[y]])
            write_vectors_csv(tmp_path / "pred" / f"pred_m0{i}.csv", [[y, y]])
        d = str(tmp_path)
        script = (
            "import sys, kersize, kersize.cli; from kersize import cli; "
            f"d = {d!r}; "
            "codes = [cli.main(argv) for argv in ("
            "['sample', '--config', d + '/run.json', '--out', d + '/coll'], "
            "['validate', d + '/coll'], ['kersize', d + '/coll'], "
            "['loss', d + '/coll', d + '/pred'], "
            "['skersize', d + '/coll', '--model', d + '/model.json'])]; "
            "print(codes, [m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        )
        done = run_fresh("-W", "error", "-c", script)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0] []"
        assert "K=2" in done.stdout and "loss[pred]=" in done.stdout and "skersize=" in done.stdout

    def test_python_m_kersize_runs_the_cli(self, tmp_path):
        done = run_fresh("-m", "kersize", "kersize", str(two_point_collection_dir(tmp_path)))
        assert done.returncode == 0, done.stderr
        assert "kersize=" in done.stdout
