"""End-to-end checks of the command-line interface.

Most tests drive cli.main() in process for speed; a couple go through
``python -m corrseg`` to pin the argparse usage exit code.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corrseg
from corrseg import icm
from corrseg.autodiff import no_grad
from corrseg.checkpoint import load_checkpoint, load_model_state
from corrseg.cli import _KEY_ORDER, main
from corrseg.model import ModelConfig, PanopticModel
from corrseg.rng import SplitMix64
from corrseg.synth import load_pgm, load_scene, parse_keyvalue, scene_dir
from corrseg.train import scene_image
from oracles import per_harmonic_profile

SMALL = "height=32\nwidth=32\nchannels=4\nn_fourier=2\ns_ref=2\ngrid_size=2\n"


def read_resolved(out_dir):
    return parse_keyvalue((out_dir / "resolved.cfg").read_text())


def read_report(out_dir):
    lines = (out_dir / "report.csv").read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


@pytest.fixture(scope="module")
def small_cfg(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "small.cfg"
    path.write_text(SMALL)
    return str(path)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory, small_cfg):
    out = tmp_path_factory.mktemp("data") / "plain"
    rc = main(["gen", "--config", small_cfg, "--out", str(out),
               "--count", "4", "--seed", "7"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def padded_dataset(tmp_path_factory, dataset):
    """The plain dataset with scene 7's directory renamed to 007."""
    padded = tmp_path_factory.mktemp("data") / "padded"
    shutil.copytree(dataset, padded)
    (padded / "scenes" / "7").rename(padded / "scenes" / "007")
    return padded


@pytest.fixture(scope="module")
def trained(tmp_path_factory, dataset, small_cfg):
    out = tmp_path_factory.mktemp("run") / "train"
    rc = main(["train", "--config", small_cfg, "--data", str(dataset),
               "--out", str(out), "--epochs", "2", "--lr", "0.005"])
    assert rc == 0
    return out


class TestGen:
    def test_writes_consecutive_scene_dirs(self, dataset):
        names = sorted(p.name for p in (dataset / "scenes").iterdir())
        assert names == ["10", "7", "8", "9"]
        manifest = parse_keyvalue((dataset / "dataset.meta").read_text())
        assert manifest["count"] == "4"
        assert manifest["first_seed"] == "7"
        assert manifest["height"] == "32"

    def test_resolved_cfg_echoes_everything(self, dataset):
        resolved = read_resolved(dataset)
        assert resolved["command"] == "gen"
        assert resolved["count"] == "4"
        assert resolved["seed"] == "7"
        assert resolved["height"] == "32"
        assert resolved["lr"] == "0.01"
        assert resolved["lambda"] == "0.5"
        assert resolved["use_scm"] == "0"

    def test_deterministic(self, tmp_path, small_cfg):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["gen", "--config", small_cfg, "--out", str(out),
                         "--count", "2", "--seed", "3"]) == 0
        for rel in ("scenes/3/image.ppm", "scenes/4/semantic.pgm",
                    "scenes/3/scene.meta"):
            assert (a / rel).read_bytes() == (b / rel).read_bytes()

    def test_refuses_nonempty_without_force(self, tmp_path, small_cfg):
        out = tmp_path / "d"
        out.mkdir()
        (out / "stale.txt").write_text("x")
        args = ["gen", "--config", small_cfg, "--out", str(out),
                "--count", "1", "--seed", "0"]
        assert main(args) == 2
        assert main(args + ["--force"]) == 0

    def test_count_zero_writes_manifest_only(self, tmp_path, small_cfg):
        out = tmp_path / "empty"
        assert main(["gen", "--config", small_cfg, "--out", str(out),
                     "--count", "0", "--seed", "5"]) == 0
        assert (out / "dataset.meta").is_file()
        assert not (out / "scenes").exists()

    def test_negative_count_rejected(self, tmp_path):
        assert main(["gen", "--out", str(tmp_path / "x"),
                     "--count", "-1", "--seed", "0"]) == 2

    def test_missing_required_flags(self, tmp_path):
        assert main(["gen", "--out", str(tmp_path / "x"), "--seed", "0"]) == 2


class TestConfigMerging:
    def test_flag_beats_file_beats_default(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("epochs=5\nlr=0.2\n")
        out = tmp_path / "out"
        assert main(["gen", "--config", str(cfg), "--out", str(out),
                     "--count", "0", "--seed", "1", "--epochs", "2"]) == 0
        resolved = read_resolved(out)
        assert resolved["epochs"] == "2"    # flag wins
        assert resolved["lr"] == "0.2"      # file wins
        assert resolved["channels"] == "16"  # default

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("warp_factor=9\n")
        assert main(["gen", "--config", str(cfg), "--out",
                     str(tmp_path / "o"), "--count", "0", "--seed", "1"]) == 2

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("epochs 5\n")
        assert main(["gen", "--config", str(cfg), "--out",
                     str(tmp_path / "o"), "--count", "0", "--seed", "1"]) == 3

    def test_missing_config_file(self, tmp_path):
        assert main(["gen", "--config", str(tmp_path / "absent.cfg"),
                     "--out", str(tmp_path / "o"),
                     "--count", "0", "--seed", "1"]) == 3

    def test_non_utf8_config_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"height=\xff32\n")
        assert main(["gen", "--config", str(cfg), "--out",
                     str(tmp_path / "o"), "--count", "0", "--seed", "1"]) == 3
        assert capsys.readouterr().err == f"error: {cfg}: config is not UTF-8\n"

    def test_bad_number_rejected(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("epochs=soon\n")
        assert main(["gen", "--config", str(cfg), "--out",
                     str(tmp_path / "o"), "--count", "0", "--seed", "1"]) == 2

    @pytest.mark.parametrize("command, text", [
        ("ablate", "train_fraction=nan"),
        ("ablate", "train_fraction=1"),
        ("train", "s_ref=1000\nuse_icm=1"),
        ("ablate", "s_ref=1000"),
        ("gen", "height=100000000000000000000"),
        ("ablate", "height=100000000000000000000"),
        ("ablate", "lr=nan"),
        ("train", "epochs=-1"),
        ("train", "epochs=0"),
        ("train", "channels=100000"),
        ("train", "n_fourier=100000"),
        ("train", "grid_size=100000"),
        ("train", "count=-3"),
        ("gen", "max_things=100000"),
        ("gen", "height="),
        ("train", "lambda=nan"),
        ("train", "nms_sigma=-1"),
    ])
    def test_out_of_range_value_exits_2(self, tmp_path, dataset, capsys, command, text):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text + "\n")
        argv = {"gen": ["--count", "1", "--seed", "0"],
                "train": ["--data", str(dataset)],
                "ablate": ["--scenes", "5", "--epochs", "1"]}[command]
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]
                    + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_resolved_cfg_reproduces_the_run(self, tmp_path, dataset):
        out = tmp_path / "again"
        rc = main(["gen", "--config", str(dataset / "resolved.cfg"),
                   "--out", str(out)])
        assert rc == 0
        left = dataset / "scenes" / "7" / "image.ppm"
        right = out / "scenes" / "7" / "image.ppm"
        assert left.read_bytes() == right.read_bytes()


_CONFIG_VALUES = st.one_of(
    st.integers(), st.floats(), st.text(max_size=8),
    st.sampled_from(["", "nan", "-inf", "1e400", "0", "1", "-1", "disk", "true"]),
)
_CONFIG_LINES = st.lists(
    st.tuples(st.sampled_from(_KEY_ORDER[1:] + ("warp_factor",)), _CONFIG_VALUES)
    .map(lambda kv: f"{kv[0]}={kv[1]}"),
    max_size=6,
).map(lambda lines: "\n".join(lines).encode("utf-8"))


@settings(max_examples=60, deadline=None)
@given(config=st.one_of(st.binary(max_size=64), _CONFIG_LINES), pass_seed=st.booleans())
def test_any_config_file_fails_closed(config, pass_seed):
    """gen --count 1 under an arbitrary config file exits 0, 2 or 3."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "c.cfg"
        cfg.write_bytes(config)
        argv = ["gen", "--config", str(cfg), "--out", str(Path(tmp) / "o"), "--count", "1"]
        assert main(argv + ["--seed", "0"] * pass_seed) in (0, 2, 3)


class TestTrain:
    def test_outputs(self, trained):
        assert (trained / "checkpoint.bin").is_file()
        lines = (trained / "losses.csv").read_text().splitlines()
        assert lines[0] == "epoch,loss"
        assert len(lines) == 3
        resolved = read_resolved(trained)
        assert resolved["lambda"] == "0.5"
        assert resolved["seed"] == "0"

    def test_losses_are_finite_floats(self, trained):
        lines = (trained / "losses.csv").read_text().splitlines()[1:]
        values = [float(line.split(",")[1]) for line in lines]
        assert all(np.isfinite(values))

    def test_reruns_are_bit_identical(self, tmp_path, dataset, small_cfg):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["train", "--config", small_cfg, "--data",
                         str(dataset), "--out", str(out),
                         "--epochs", "2", "--lr", "0.005"]) == 0
            outs.append(out)
        a, b = outs
        assert (a / "checkpoint.bin").read_bytes() == (b / "checkpoint.bin").read_bytes()
        assert (a / "losses.csv").read_bytes() == (b / "losses.csv").read_bytes()

    def test_zero_padded_scene_dir_loads_in_seed_order(
            self, tmp_path, dataset, padded_dataset, small_cfg):
        checkpoints = []
        for data in (dataset, padded_dataset):
            out = tmp_path / f"run_{data.name}"
            assert main(["train", "--config", small_cfg, "--data", str(data),
                         "--out", str(out), "--epochs", "1",
                         "--lr", "0.005"]) == 0
            checkpoints.append((out / "checkpoint.bin").read_bytes())
        # Scenes train one per step, so equal bytes mean the same order.
        assert checkpoints[0] == checkpoints[1]

    def test_out_of_range_category_exits_3(self, tmp_path, dataset, small_cfg,
                                           capsys):
        data = tmp_path / "data"
        shutil.copytree(dataset, data)
        meta = data / "scenes" / "8" / "scene.meta"
        fields = parse_keyvalue(meta.read_text())
        fields["categories"] = "7"
        meta.write_text("".join(f"{k}={v}\n" for k, v in fields.items()))
        rc = main(["train", "--config", small_cfg, "--data", str(data),
                   "--out", str(tmp_path / "run"), "--epochs", "1"])
        assert rc == 3
        assert capsys.readouterr().err.startswith(f"error: {meta}: ")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # it diverges on purpose
    def test_divergence_aborts_with_numeric_exit(self, tmp_path, dataset,
                                                 small_cfg, capsys):
        out = tmp_path / "boom"
        rc = main(["train", "--config", small_cfg, "--data", str(dataset),
                   "--out", str(out), "--epochs", "3", "--lr", "1e18"])
        assert rc == 4
        # The finished epochs' record and checkpoint survive the abort.
        lines = (out / "losses.csv").read_text().splitlines()
        assert lines[0] == "epoch,loss"
        assert 1 <= len(lines) - 1 < 3
        assert (out / "checkpoint.bin").is_file()
        assert "error:" in capsys.readouterr().err


class TestEval:
    def test_oracle_is_perfect(self, tmp_path, dataset):
        out = tmp_path / "oracle"
        assert main(["eval", "--data", str(dataset), "--oracle",
                     "--out", str(out), "--n-fourier", "2", "--s-ref", "2"]) == 0
        (row,) = read_report(out)
        assert row["variant"] == "oracle"
        assert row["pq"] == "1.0000"
        assert row["pq_th"] == "1.0000"
        assert row["pq_st"] == "1.0000"
        assert row["twin_rate"] == "nan"

    def test_report_schema(self, tmp_path, dataset, trained, small_cfg):
        out = tmp_path / "ev"
        assert main(["eval", "--config", small_cfg, "--data", str(dataset),
                     "--checkpoint", str(trained / "checkpoint.bin"),
                     "--out", str(out)]) == 0
        text = (out / "report.csv").read_text()
        lines = text.splitlines()
        assert lines[0] == "variant,pq,sq,rq,pq_th,pq_st,twin_rate,train_seconds"
        assert len(lines) == 2
        assert "\r" not in text

    def test_barely_trained_model_scores_no_things(self, tmp_path, dataset,
                                                   small_cfg):
        run = tmp_path / "run"
        assert main(["train", "--config", small_cfg, "--data", str(dataset),
                     "--out", str(run), "--epochs", "1", "--lr", "1e-8"]) == 0
        out = tmp_path / "ev"
        assert main(["eval", "--config", small_cfg, "--data", str(dataset),
                     "--checkpoint", str(run / "checkpoint.bin"),
                     "--out", str(out)]) == 0
        (row,) = read_report(out)
        assert row["pq_th"] == "0.0000"

    def test_config_mismatch_rejected(self, tmp_path, dataset, trained, capsys):
        out = tmp_path / "bad"
        checkpoint = trained / "checkpoint.bin"
        rc = main(["eval", "--data", str(dataset),
                   "--checkpoint", str(checkpoint),
                   "--out", str(out), "--n-fourier", "5"])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"error: {checkpoint}: checkpoint does not fit the requested "
            "model: n_fourier (checkpoint 2, requested 5); s_ref "
            "(checkpoint 2, requested 4); channels (checkpoint 4, requested "
            "16); grid_size (checkpoint 2, requested 4)\n"
        )

    def test_one_inference_per_scene(self, tmp_path, trained, monkeypatch):
        import corrseg.train as train_mod

        # Twin scenes, so the twin rate is computed as well as PQ.
        data = tmp_path / "twins"
        cfg = tmp_path / "twin.cfg"
        cfg.write_text(SMALL + "twin_mode=1\nmin_things=2\nmax_things=2\n")
        assert main(["gen", "--config", str(cfg), "--out", str(data),
                     "--count", "3", "--seed", "40"]) == 0

        infer = train_mod.infer_panoptic
        calls = []

        def counting(model, scene):
            calls.append(scene.meta["seed"])
            return infer(model, scene)

        monkeypatch.setattr(train_mod, "infer_panoptic", counting)
        out = tmp_path / "ev"
        assert main(["eval", "--config", str(cfg), "--data", str(data),
                     "--checkpoint", str(trained / "checkpoint.bin"),
                     "--out", str(out)]) == 0
        assert calls == ["40", "41", "42"]
        (row,) = read_report(out)
        assert row["twin_rate"] != "nan"

    def test_oracle_and_checkpoint_conflict(self, tmp_path, dataset, trained):
        rc = main(["eval", "--data", str(dataset), "--oracle",
                   "--checkpoint", str(trained / "checkpoint.bin"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_twin_rate_reported_on_twin_scenes(self, tmp_path, small_cfg):
        data = tmp_path / "twins"
        cfg = tmp_path / "twin.cfg"
        cfg.write_text(SMALL + "twin_mode=1\nmin_things=2\nmax_things=2\n")
        assert main(["gen", "--config", str(cfg), "--out", str(data),
                     "--count", "3", "--seed", "40"]) == 0
        out = tmp_path / "ev"
        assert main(["eval", "--config", str(cfg), "--data", str(data),
                     "--oracle", "--out", str(out)]) == 0
        (row,) = read_report(out)
        assert row["twin_rate"] == "1.0000"


@pytest.fixture(scope="module")
def icm_run(tmp_path_factory, dataset):
    cfg = tmp_path_factory.mktemp("cfg") / "icm.cfg"
    cfg.write_text(SMALL + "use_icm=1\n")
    out = tmp_path_factory.mktemp("run") / "icm"
    assert main(["train", "--config", str(cfg), "--data", str(dataset),
                 "--out", str(out), "--epochs", "1", "--lr", "0.005"]) == 0
    return cfg, out


class TestViz:
    def viz(self, icm_run, dataset, out, extra=()):
        cfg, run = icm_run
        return main(["viz", "--config", str(cfg), "--data", str(dataset),
                     "--checkpoint", str(run / "checkpoint.bin"),
                     "--out", str(out), "--branch", "icm", *extra])

    def test_map_matches_feature_dims(self, icm_run, dataset, tmp_path):
        out = tmp_path / "v"
        assert self.viz(icm_run, dataset, out, ["--point", "3,5"]) == 0
        image = load_pgm(out / "corr_map.pgm")
        assert image.shape == (8, 8)
        meta = parse_keyvalue((out / "corr_map.meta").read_text())
        assert meta["point"] == "3,5"
        assert meta["branch"] == "icm"
        assert float(meta["max"]) >= float(meta["min"])

    def test_profiles_cover_each_axis(self, icm_run, dataset, tmp_path):
        out = tmp_path / "v"
        assert self.viz(icm_run, dataset, out, ["--point", "0,0"]) == 0
        hor = (out / "profile_hor.csv").read_text().splitlines()
        ver = (out / "profile_ver.csv").read_text().splitlines()
        assert hor[0] == "position,value"
        assert len(hor) == 9 and len(ver) == 9
        assert [line.split(",")[0] for line in hor[1:]] == [str(i) for i in range(8)]

    def test_values_match_checkpoint_oracle(self, icm_run, dataset, tmp_path):
        _, run = icm_run
        out = tmp_path / "v"
        assert self.viz(icm_run, dataset, out, ["--point", "3,5"]) == 0
        # Rebuild the ICM parameters at (x, y) = (3, 5) from the checkpoint.
        cfg = ModelConfig(channels=4, n_fourier=2, s_ref=2, grid_size=2, use_icm=True)
        model = PanopticModel(cfg, SplitMix64(0))
        load_model_state(model, load_checkpoint(run / "checkpoint.bin"))
        with no_grad():
            features = model.backbone(scene_image(load_scene(scene_dir(dataset, 7))))
            field = icm.predict_params(features, model.instance_encoder)
        profiles = {}
        for axis, packed in (("hor", field.hor.data[5, 3]), ("ver", field.ver.data[5, 3])):
            lines = (out / f"profile_{axis}.csv").read_text().splitlines()[1:]
            profiles[axis] = np.array([float(line.split(",")[1]) for line in lines])
            want = per_harmonic_profile(packed, np.arange(8), 8)
            np.testing.assert_allclose(profiles[axis], want, rtol=1e-12, atol=1e-12)
        corr_map = np.multiply.outer(profiles["ver"], profiles["hor"])
        meta = parse_keyvalue((out / "corr_map.meta").read_text())
        lo, hi = float(meta["min"]), float(meta["max"])
        assert (lo, hi) == (corr_map.min(), corr_map.max())
        gray = np.rint((corr_map - lo) / (hi - lo) * 255.0)
        np.testing.assert_array_equal(load_pgm(out / "corr_map.pgm"), gray)

    def test_seed_defaults_to_first_scene(self, icm_run, dataset, tmp_path):
        out = tmp_path / "v"
        assert self.viz(icm_run, dataset, out, ["--point", "1,1"]) == 0
        assert read_resolved(out)["seed"] == "7"

    def test_seed_default_loads_zero_padded_scene_dir(
            self, icm_run, dataset, padded_dataset, tmp_path):
        outs = [tmp_path / "plain", tmp_path / "padded"]
        for data, out in zip((dataset, padded_dataset), outs):
            assert self.viz(icm_run, data, out, ["--point", "1,1"]) == 0
        for name in ("corr_map.pgm", "corr_map.meta", "profile_hor.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_point_outside_feature_map(self, icm_run, dataset, tmp_path):
        assert self.viz(icm_run, dataset, tmp_path / "v",
                        ["--point", "8,0"]) == 2

    def test_bad_point_format(self, icm_run, dataset, tmp_path):
        assert self.viz(icm_run, dataset, tmp_path / "v",
                        ["--point", "3;5"]) == 2

    def test_config_mismatch_rejected(self, icm_run, dataset, tmp_path, capsys):
        _, run = icm_run
        rc = self.viz(icm_run, dataset, tmp_path / "v",
                      ["--point", "1,1", "--n-fourier", "3"])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"error: {run / 'checkpoint.bin'}: checkpoint does not fit the "
            "requested model: n_fourier (checkpoint 2, requested 3)\n"
        )

    def test_missing_branch_rejected(self, icm_run, dataset, tmp_path):
        cfg, run = icm_run
        rc = main(["viz", "--config", str(cfg), "--data", str(dataset),
                   "--checkpoint", str(run / "checkpoint.bin"),
                   "--out", str(tmp_path / "v"), "--branch", "scm",
                   "--point", "1,1"])
        assert rc == 2

    def test_constant_map_renders_mid_gray(self, dataset, tmp_path):
        # With zero harmonics the correlation map is exactly constant.
        cfg = tmp_path / "flat.cfg"
        cfg.write_text(
            "height=32\nwidth=32\nchannels=4\nn_fourier=0\ns_ref=2\n"
            "grid_size=2\nuse_icm=1\n"
        )
        run = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--data", str(dataset),
                     "--out", str(run), "--epochs", "1", "--lr", "1e-4"]) == 0
        out = tmp_path / "v"
        assert main(["viz", "--config", str(cfg), "--data", str(dataset),
                     "--checkpoint", str(run / "checkpoint.bin"),
                     "--out", str(out), "--branch", "icm",
                     "--point", "2,2"]) == 0
        image = load_pgm(out / "corr_map.pgm")
        assert np.all(image == 128)
        meta = parse_keyvalue((out / "corr_map.meta").read_text())
        assert meta["min"] == meta["max"]


class TestAblate:
    def test_tiny_sweep_records_all_variants(self, tmp_path, small_cfg):
        out = tmp_path / "abl"
        rc = main(["ablate", "--config", small_cfg, "--out", str(out),
                   "--scenes", "3", "--epochs", "1", "--lr", "0.005"])
        assert rc == 0
        rows = read_report(out)
        assert [row["variant"] for row in rows] == [
            "baseline", "scm", "icm", "scm_icm", "coords", "sinusoid",
        ]
        resolved = read_resolved(out)
        assert resolved["seed"] == "1000"
        assert resolved["twin_mode"] == "1"
        assert resolved["min_things"] == "2"
        assert resolved["max_things"] == "2"


def run_module(*args):
    """``python -m corrseg`` on the package these tests import."""
    src = str(Path(corrseg.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "corrseg", *args],
                          capture_output=True, env=dict(os.environ, PYTHONPATH=path))


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert run_module().returncode == 2

    def test_bad_flag_value_is_usage_error(self):
        assert run_module("gen", "--epochs", "soon").returncode == 2
