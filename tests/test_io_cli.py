"""Tests for file formats and the command-line interface."""

import json
from pathlib import Path

import numpy as np
import pytest

from kersize.cli import main
from kersize.core import FeasibleSet, FeasibleSetCollection, NormSpec
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


def dir_bytes(root):
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(Path(root).rglob("*"))
        if p.is_file()
    }


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
        path.write_text("1,2\n3\n")
        from kersize.core import DataError

        with pytest.raises(DataError):
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
        from kersize.core import DataError

        with pytest.raises(DataError):
            read_collection(d)


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
        ],
        ids=["missing_bands", "pixel_size_abc", "eps_additive_x", "noise_3",
             "ragged_matrix", "n_max_x", "sampler_5"],
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
        ],
        ids=["mask_length", "step_scale_length"],
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

    def test_negative_seed_is_usage_error(self, tmp_path):
        cfg = sample_config(tmp_path)
        assert main(["sample", "--config", str(cfg), "--out", str(tmp_path / "x"),
                     "--seed", "-1"]) == 1

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

    @pytest.mark.parametrize(
        "edit",
        [
            lambda m: m.update(d1="x"),
            lambda m: m["entries"][0].update(count="x"),
            lambda m: m.update(entries=5),
        ],
        ids=["d1_x", "count_x", "entries_5"],
    )
    def test_malformed_manifest_exits_2(self, tmp_path, capsys, edit):
        d = two_point_collection_dir(tmp_path)
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

        payload = json.loads((d / "bounds.json").read_text())
        assert payload["losses"]["mid"] == pytest.approx(1.0)
        assert payload["losses"]["origin"] == pytest.approx(1.0)

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

    def test_wrong_width_prediction_exit_1(self, tmp_path, capsys):
        """A prediction of the wrong length is a usage error, as in ``loss``."""
        d = two_point_collection_dir(tmp_path)
        pred = tmp_path / "wide"
        pred.mkdir()
        (pred / "pred_m0.csv").write_text("0.0,1.0,2.0\n")
        assert main(["loss", str(d), str(pred)]) == 1
        assert main(["validate", str(d), str(pred)]) == 1
        assert "has shape (3,)" in capsys.readouterr().err

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

    def test_model_of_wrong_size_exits_1(self, tmp_path, capsys):
        from kersize.forward import DownsampleModel, NoiseSpec

        model = DownsampleModel(bands=1, height=4, width=4, factor=2, r_max=1.0,
                                noise=NoiseSpec(kind="additive"))
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model.to_dict()))
        assert main(["skersize", str(two_point_collection_dir(tmp_path)),
                     "--model", str(model_path)]) == 1
        assert "error: operator has 16 columns" in capsys.readouterr().err


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

    def test_unknown_demo_exit_1(self):
        assert main(["demo", "nosuch"]) == 1

    @pytest.mark.parametrize("argv, seed", [([], 1), (["--seed", "0"], 0), (["--seed", "4"], 4)])
    def test_seed_passed_through(self, monkeypatch, tmp_path, argv, seed):
        calls = []
        monkeypatch.setattr(
            "kersize.cli.microscopy_demo",
            lambda **kw: calls.append(kw) or {"setups": []},
        )
        assert main(["demo", "microscopy", "--out", str(tmp_path), *argv]) == 0
        assert calls[0]["seed"] == seed


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
