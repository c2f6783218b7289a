"""End-to-end checks of the command-line interface.

Most tests drive cli.main() in process for speed; a couple go through
``python -m corrseg`` to pin the argparse usage exit code.
"""

import ctypes
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import unicodedata
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import corrseg
from corrseg import icm
from corrseg.autodiff import no_grad
from corrseg.checkpoint import load_checkpoint, load_model_state
from corrseg.cli import _DEFAULTS, _KEY_ORDER, _TYPES, _merge, build_parser, main
from corrseg.corrfn import field_profiles
from corrseg.model import ModelConfig, PanopticModel
from corrseg.rng import SplitMix64
from corrseg.synth import load_pgm, load_scene, parse_keyvalue, scene_dir, write_keyvalue
from corrseg.train import scene_image
from oracles import per_harmonic_profile

README = Path(__file__).parents[1] / "README.md"
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

    def test_empty_out_flag_is_unset(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["gen", "--out=", "--count", "0", "--seed", "0"]) == 2
        assert capsys.readouterr().err == "error: gen requires --out\n"
        assert list(tmp_path.iterdir()) == []

    def test_abbreviated_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--ep", "3", "--out", str(tmp_path / "o"), "--count", "0",
                  "--seed", "0"])
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()


class TestConfigMerging:
    def test_flag_beats_file_beats_default(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("epochs=5\nlr=0.2\ntwin_mode=1\n")
        out = tmp_path / "out"
        assert main(["gen", "--config", str(cfg), "--out", str(out),
                     "--count", "0", "--seed", "1", "--epochs", "2", "--twin-mode=0"]) == 0
        resolved = read_resolved(out)
        assert resolved["epochs"] == "2"    # flag wins
        assert resolved["twin_mode"] == "0"  # a bool flag, too
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
        ("ablate", "train_fraction=0.8"),
        ("gen", "shapes=disk,rectangle"),
        ("gen", "color_jitter=0.08"),
        ("gen", "stuff_bands=3"),
        ("ablate --scenes 1", "epochs=1"),
        ("train", "s_ref=1000\nuse_icm=1"),
        ("ablate", "s_ref=1000"),
        ("ablate", "height=272\nwidth=272\nscm_mode=global"),
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
        ("train", "lambda=0.5"),
        ("train", "post_nms_score=0.3"),
        ("gen", "scm_mode=local"),
        ("gen --count 0", "height=5"),
        ("train", "grid_size=3"),
        ("ablate", "grid_size=3"),
        ("train", "k_thing=2"),
        ("gen", "branch=bogus"),
        ("gen", "point=abc"),
    ])
    def test_out_of_range_value_exits_2(self, tmp_path, dataset, capsys, command, text):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text + "\n")
        command, *extra = command.split()
        argv = {"gen": ["--count", "1", "--seed", "0"],
                "train": ["--data", str(dataset)],
                "ablate": ["--scenes", "5", "--epochs", "1"]}[command]
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]
                    + argv + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not (tmp_path / "o").exists()

    def test_resolved_cfg_reproduces_the_run(self, tmp_path, dataset):
        out = tmp_path / "again"
        rc = main(["gen", "--config", str(dataset / "resolved.cfg"),
                   "--out", str(out)])
        assert rc == 0
        left = dataset / "scenes" / "7" / "image.ppm"
        right = out / "scenes" / "7" / "image.ppm"
        assert left.read_bytes() == right.read_bytes()

    def test_every_key_round_trips(self, tmp_path):
        """A non-default value for every key is echoed in resolved.cfg, and
        a rerun from that file writes it again byte for byte."""
        values = {
            "seed": "11", "train_seed": "3", "epochs": "7", "lr": "0.25", "count": "0",
            "scenes": "9", "out": str(tmp_path / "unused"),
            "data": "some/data", "checkpoint": "some/ck.bin", "point": "2,3",
            "branch": "icm", "oracle": "1", "force": "1",
            "n_fourier": "5", "s_ref": "3", "channels": "8", "grid_size": "3",
            "use_scm": "1", "use_icm": "1", "scm_mode": "global",
            "height": "48", "width": "40", "min_things": "1", "max_things": "3", "twin_mode": "1",
        }
        assert tuple(values) == _KEY_ORDER[1:]
        defaults = tmp_path / "defaults.cfg"
        write_keyvalue(defaults, _DEFAULTS.items())
        for key, default in parse_keyvalue(defaults.read_text()).items():
            if key != "command":
                assert values[key] != default, key
        cfg = tmp_path / "every.cfg"
        cfg.write_text("".join(f"{key}={value}\n" for key, value in values.items()))
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["gen", "--config", str(cfg), "--out", str(first)]) == 0
        assert read_resolved(first) == dict(values, command="gen", out=str(first))
        assert main(["gen", "--config", str(first / "resolved.cfg"), "--out", str(second)]) == 0

        def without_out(out):
            lines = (out / "resolved.cfg").read_bytes().splitlines(keepends=True)
            return [line for line in lines if not line.startswith(b"out=")]

        assert without_out(first) == without_out(second)

        # Every key has a flag, and flags give the same file as config lines.
        flags = tmp_path / "flags"
        argv = ["gen"]
        for key, value in dict(values, out=str(flags)).items():
            flag = "--" + key.replace("_", "-")
            argv += [flag] if _TYPES[key] is bool else [flag, value]
        assert main(argv) == 0
        assert without_out(flags) == without_out(first)

    def test_bad_scm_mode_is_one_error_from_flag_or_file(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        for key, value, error in [
            ("scm_mode", "local", "scm_mode must be one of global, axial, got 'local'"),
            ("epochs", "soon", "epochs expects an integer, got 'soon'"),
            ("epochs", "2.5", "epochs expects an integer, got '2.5'"),
            ("lr", "fast", "lr expects a number, got 'fast'"),
            ("twin_mode", "maybe", "twin_mode expects a boolean (0/1/true/false), got 'maybe'"),
        ]:
            cfg.write_text(f"{key}={value}\n")
            errors = []
            for source in ([f"--{key.replace('_', '-')}={value}"], ["--config", str(cfg)]):
                assert main(["gen", "--out", str(tmp_path / "o"), "--count", "0",
                             "--seed", "1", *source]) == 2
                errors.append(capsys.readouterr().err)
            assert errors[0] == errors[1] == f"error: {error}\n"
            assert not (tmp_path / "o").exists()


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


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # an argparse usage error
        return exc.code


_LINE_VALUES = _CONFIG_VALUES.map(str).map(
    lambda text: "".join(c for c in text if unicodedata.category(c) not in ("Cc", "Zl", "Zp")))


@settings(max_examples=150, deadline=None)
@given(entries=st.dictionaries(
    st.sampled_from([key for key in _KEY_ORDER[1:] if key not in ("out", "count", "seed")]),
    _LINE_VALUES, max_size=6))
# argparse takes a lone "--" for its end-of-options marker.
@example(entries={"train_seed": "--"})
@example(entries={"use_scm": "--"})
def test_flags_mean_what_config_lines_mean(entries):
    """``--key=value`` flags and the lines ``key=value`` give the same exit
    code and, on success, the same resolved.cfg."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "c.cfg"
        cfg.write_text("".join(f"{key}={value}\n" for key, value in entries.items()),
                       encoding="utf-8")
        flags = [f"--{key.replace('_', '-')}={value}" for key, value in entries.items()]
        runs = []
        for name, source in (("file", ["--config", str(cfg)]), ("flags", flags)):
            out = Path(tmp) / name
            code = _exit_code(["gen", "--out", str(out), "--count", "0", "--seed", "0",
                               *source])
            lines = (out / "resolved.cfg").read_text().splitlines() if code == 0 else []
            runs.append((code, [line for line in lines if not line.startswith("out=")]))
        assert runs[0] == runs[1]


def test_config_flag_value_dashdash_names_a_file(tmp_path):
    # argparse drops a lone "--" as its end-of-options marker; as an
    # option's own value it is a file name like any other.
    argv = ["gen", "--out", str(tmp_path / "o"), "--count", "0", "--seed", "0"]
    assert main(argv + ["--config=--"]) == 3


class TestTrain:
    def test_outputs(self, trained):
        assert (trained / "checkpoint.bin").is_file()
        lines = (trained / "losses.csv").read_text().splitlines()
        assert lines[0] == "epoch,loss"
        assert len(lines) == 3
        resolved = read_resolved(trained)
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

    def test_allocator_settings_take(self, tmp_path, dataset, small_cfg, monkeypatch):
        libc = ctypes.CDLL(None)
        if not hasattr(libc, "mallopt"):
            pytest.skip("the C library has no mallopt")
        accepted = []

        def mallopt(param, value):
            accepted.append(libc.mallopt(param, value))

        monkeypatch.setattr(ctypes, "CDLL",
                            lambda *args, **kwargs: SimpleNamespace(mallopt=mallopt))
        assert main(["train", "--config", small_cfg, "--data", str(dataset),
                     "--out", str(tmp_path / "run"), "--epochs", "1"]) == 0
        assert accepted == [1, 1]  # mallopt returns 0 for a value it refuses

    def test_runs_without_mallopt(self, tmp_path, dataset, small_cfg, trained,
                                  monkeypatch):
        monkeypatch.setattr(ctypes, "CDLL", lambda *args, **kwargs: object())
        out = tmp_path / "run"
        assert main(["train", "--config", small_cfg, "--data", str(dataset),
                     "--out", str(out), "--epochs", "2", "--lr", "0.005"]) == 0
        assert (out / "losses.csv").read_bytes() == (trained / "losses.csv").read_bytes()
        assert (out / "checkpoint.bin").read_bytes() == (trained / "checkpoint.bin").read_bytes()

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
        out = tmp_path / "run"
        rc = main(["train", "--config", small_cfg, "--data", str(data),
                   "--out", str(out), "--epochs", "1"])
        assert rc == 3
        assert capsys.readouterr().err.startswith(f"error: {meta}: ")
        assert not out.exists()

    def test_scene_changed_after_the_check_fails_its_epoch(
            self, tmp_path, dataset, trained, small_cfg, capsys, monkeypatch):
        import corrseg.cli as cli_mod

        data = tmp_path / "data"
        shutil.copytree(dataset, data)
        image = scene_dir(data, 10) / "image.ppm"
        save = cli_mod.save_checkpoint

        def save_then_corrupt(path, arrays):
            save(path, arrays)
            image.write_bytes(image.read_bytes()[:-1])

        monkeypatch.setattr(cli_mod, "save_checkpoint", save_then_corrupt)
        out = tmp_path / "run"
        rc = main(["train", "--config", small_cfg, "--data", str(data),
                   "--out", str(out), "--epochs", "3", "--lr", "0.005"])
        assert rc == 3
        assert capsys.readouterr().err.startswith(f"error: {image}: ")
        # Epoch 0 finished before the scene changed: its record and
        # checkpoint stay.  It trains as epoch 0 of any run at this lr.
        lines = (out / "losses.csv").read_text().splitlines()
        assert lines == (trained / "losses.csv").read_text().splitlines()[:2]
        model = PanopticModel(ModelConfig(channels=4, n_fourier=2, s_ref=2, grid_size=2),
                              SplitMix64(0))
        load_model_state(model, load_checkpoint(out / "checkpoint.bin"))

    def test_peak_memory_is_flat_in_scene_count(self, tmp_path, small_cfg):
        """train holds one scene at a time, so its peak is the same on 3 and
        on 24 scenes."""
        size = ["--height", "64", "--width", "64"]
        data = {}
        for count in (3, 24):
            data[count] = tmp_path / f"data{count}"
            assert main(["gen", "--config", small_cfg, *size, "--out", str(data[count]),
                         "--count", str(count), "--seed", "0"]) == 0
        peaks = []
        for count in (3, 3, 24):  # the first run warms up
            tracemalloc.start()
            try:
                assert main(["train", "--config", small_cfg, *size, "--epochs", "1",
                             "--data", str(data[count]),
                             "--out", str(tmp_path / f"run{len(peaks)}")]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[2] - peaks[1]) < 0.5 * 2**20, peaks

    def test_repeated_config_key_exits_3(self, tmp_path, dataset, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(SMALL + "epochs=3\nepochs=5\n")
        out = tmp_path / "run"
        rc = main(["train", "--config", str(cfg), "--data", str(dataset),
                   "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err == f"error: {cfg}:8: key 'epochs' repeated\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "eval --oracle"])
    def test_zero_size_image_exits_3(self, tmp_path, dataset, small_cfg, capsys,
                                     command):
        data = tmp_path / "data"
        shutil.copytree(dataset, data)
        image = data / "scenes" / "8" / "image.ppm"
        image.write_bytes(b"P6\n0 0\n255\n")
        out = tmp_path / "run"
        rc = main([*command.split(), "--config", small_cfg, "--data", str(data),
                   "--out", str(out), "--epochs", "1"])
        assert rc == 3
        assert capsys.readouterr().err == f"error: {image}: width is 0 at byte 3\n"
        assert not out.exists()

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


class TestGlobalModeSize:
    """Scenes a config does not fit: 272x272 scenes give a 68x68 feature
    map, over scm.MAX_GLOBAL_LOCATIONS and not divisible by 3; 30x64
    scenes have a side not divisible by the backbone's stride."""

    @pytest.fixture(scope="class")
    def datasets(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("misfit")
        for name, height, width in (("large", 272, 272), ("odd", 30, 64)):
            (root / f"{name}.cfg").write_text(f"height={height}\nwidth={width}\n")
            rc = main(["gen", "--config", str(root / f"{name}.cfg"), "--out", str(root / name),
                       "--count", "1", "--seed", "3"])
            assert rc == 0
        return root

    @pytest.mark.parametrize("command, data, text, message", [
        (command, data, text, message)
        for data, text, message in (
            ("large", "use_scm=1\nscm_mode=global", "global-mode SCM allows at most 4096"),
            ("large", "grid_size=3", "grid_size=3 does not divide the 68x68 feature map"),
            ("odd", "", "scene sides must be divisible by 4, got 30x64"))
        for command in ("train", "eval", "viz")
    ], ids=[command + suffix for suffix in ("", "-grid", "-sides")
            for command in ("train", "eval", "viz")])
    def test_exits_2_before_reading_a_checkpoint_or_writing(
            self, tmp_path, datasets, capsys, command, data, text, message):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text + "\n")
        out = tmp_path / "o"
        rc = main([command, "--config", str(cfg), "--data", str(datasets / data),
                   "--out", str(out), "--epochs", "1",
                   "--checkpoint", str(tmp_path / "missing.bin"),
                   "--point", "0,0", "--branch", "scm"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: " + message) and err.count("\n") == 1
        assert not out.exists()

    def test_oracle_eval_is_not_refused(self, tmp_path, datasets):
        for data in ("large", "odd"):
            assert main(["eval", "--data", str(datasets / data), "--out", str(tmp_path / data),
                         "--use-scm", "--scm-mode", "global", "--oracle"]) == 0


@pytest.mark.parametrize("command", ["train", "eval", "viz"])
def test_reference_grid_too_large_exits_2(tmp_path, capsys, command):
    # 1024x1024 scenes give a 256x256 feature map, and s_ref 512 would need
    # (65536, 262144) correlation arrays.  The manifest alone is refused:
    # its one scene directory is empty and the checkpoint does not exist.
    data = tmp_path / "data"
    (data / "scenes" / "0").mkdir(parents=True)
    write_keyvalue(data / "dataset.meta", [("first_seed", 0), ("count", 1),
                                           ("height", 1024), ("width", 1024)])
    out = tmp_path / "o"
    rc = main([command, "--data", str(data), "--out", str(out), "--use-icm",
               "--s-ref", "512", "--checkpoint", str(tmp_path / "missing.bin"),
               "--branch", "icm", "--point", "0,0"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: s_ref=512 on a 256x256 map needs 17179869184 reference")
    assert not out.exists()


class TestEval:
    def test_oracle_is_perfect(self, tmp_path, dataset):
        # Scenes without things score pq_th 0 and hold no prediction masks.
        no_things = tmp_path / "no-things"
        cfg = tmp_path / "no-things.cfg"
        cfg.write_text(SMALL + "min_things=0\nmax_things=0\n")
        assert main(["gen", "--config", str(cfg), "--out", str(no_things),
                     "--count", "2", "--seed", "5"]) == 0
        for data, pq_th in ((dataset, "1.0000"), (no_things, "0.0000")):
            out = tmp_path / "oracle" / data.name
            assert main(["eval", "--data", str(data), "--oracle",
                         "--out", str(out), "--n-fourier", "2", "--s-ref", "2"]) == 0
            (row,) = read_report(out)
            assert row["variant"] == "oracle"
            assert row["pq"] == "1.0000"
            assert row["pq_th"] == pq_th
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

    def test_config_mismatch_rejected(self, tmp_path, dataset, trained, small_cfg, capsys):
        out = tmp_path / "bad"
        checkpoint = trained / "checkpoint.bin"
        for flags, mismatch in [
            (["--n-fourier", "5"],
             "n_fourier (checkpoint 2, requested 5); s_ref (checkpoint 2, requested 4); "
             "channels (checkpoint 4, requested 16); grid_size (checkpoint 2, requested 4)"),
            (["--config", small_cfg, "--scm-mode", "global"],
             "scm_mode (checkpoint axial, requested global)"),
        ]:
            rc = main(["eval", "--data", str(dataset),
                       "--checkpoint", str(checkpoint),
                       "--out", str(out), *flags])
            assert rc == 3
            assert capsys.readouterr().err == (
                f"error: {checkpoint}: checkpoint does not fit the requested "
                f"model: {mismatch}\n"
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

    def test_oracle_and_checkpoint_conflict(self, tmp_path, dataset, trained, capsys):
        both = ["--oracle", "--checkpoint", str(trained / "checkpoint.bin")]
        for flags in (both, ["--oracle=0"]):
            rc = main(["eval", "--data", str(dataset), *flags, "--out", str(tmp_path / "o")])
            assert rc == 2
            assert capsys.readouterr().err == (
                "error: eval takes exactly one of --checkpoint and --oracle\n")
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("seed, categories", [(2, "2,1"), (50, "0,0")])
    def test_twin_scene_without_its_pair_is_not_counted(self, tmp_path, seed, categories):
        # In a 16x16 scene with room for a third thing, the second twin can
        # fail to fit while another thing takes its place as instance 1.
        cfg = tmp_path / "twin.cfg"
        cfg.write_text("height=16\nwidth=16\ntwin_mode=1\nmin_things=2\nmax_things=3\n")
        data = tmp_path / "data"
        assert main(["gen", "--config", str(cfg), "--out", str(data),
                     "--count", "1", "--seed", str(seed)]) == 0
        assert load_scene(scene_dir(data, seed)).meta["categories"] == categories
        out = tmp_path / "ev"
        assert main(["eval", "--config", str(cfg), "--data", str(data),
                     "--oracle", "--out", str(out)]) == 0
        (row,) = read_report(out)
        assert row["twin_rate"] == "nan"

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

    def test_peak_memory_is_flat_in_scene_count(self, tmp_path, trained, small_cfg):
        """eval holds one scene at a time, so its peak is the same on 3 and
        on 24 scenes."""
        size = ["--height", "64", "--width", "64"]
        data = {}
        for count in (3, 24):
            data[count] = tmp_path / f"data{count}"
            assert main(["gen", "--config", small_cfg, *size, "--out", str(data[count]),
                         "--count", str(count), "--seed", "0"]) == 0
        for source in (["--oracle"], ["--checkpoint", str(trained / "checkpoint.bin")]):
            peaks = []
            for count in (3, 3, 24):  # the first run warms up
                out = tmp_path / f"ev{len(peaks)}{source[0]}"
                tracemalloc.start()
                try:
                    assert main(["eval", "--config", small_cfg, *size, *source,
                                 "--data", str(data[count]), "--out", str(out)]) == 0
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert abs(peaks[2] - peaks[1]) < 0.5 * 2**20, (source, peaks)

    @pytest.mark.parametrize("source", ["oracle", "checkpoint", "train"])
    def test_corrupt_last_scene_exits_3_and_writes_nothing(
            self, tmp_path, dataset, trained, small_cfg, capsys, source):
        data = tmp_path / "data"
        shutil.copytree(dataset, data)
        image = scene_dir(data, 10) / "image.ppm"
        image.write_bytes(image.read_bytes()[:-1])
        command = {"oracle": ["eval", "--oracle"],
                   "checkpoint": ["eval", "--checkpoint", str(trained / "checkpoint.bin")],
                   "train": ["train", "--epochs", "1"]}[source]
        out = tmp_path / "ev"
        assert main([*command, "--config", small_cfg, "--data", str(data),
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith(f"error: {image}: ")
        assert not out.exists()


def _duplicate_scene(data):
    shutil.copytree(data / "scenes" / "7", data / "scenes" / "007")
    return f"{data / 'scenes' / '7'}: scene 7 is also at {data / 'scenes' / '007'}"


def _unlisted_scene(data):
    shutil.copytree(data / "scenes" / "7", data / "scenes" / "99")
    return f"{data / 'scenes' / '99'}: scene 99 is not listed in {data / 'dataset.meta'}"


def _remove_scene(data):
    shutil.rmtree(data / "scenes" / "8")
    return f"{data / 'scenes'}: scene 8 listed in {data / 'dataset.meta'} is missing"


def _remove_manifest(data):
    (data / "dataset.meta").unlink()
    return f"{data / 'dataset.meta'}: missing or malformed dataset manifest ("


def _malform_manifest(data):
    (data / "dataset.meta").write_text("count=four\nfirst_seed=7\n")
    return f"{data / 'dataset.meta'}: missing or malformed dataset manifest ("


def _drop_first_seed(data):
    (data / "dataset.meta").write_text("count=4\n")
    return f"{data / 'dataset.meta'}: missing or malformed dataset manifest ('first_seed')"


def _drop_height(data):
    (data / "dataset.meta").write_text("count=4\nfirst_seed=7\nwidth=32\n")
    return f"{data / 'dataset.meta'}: missing or malformed dataset manifest ('height')"


def _zero_height(data):
    (data / "dataset.meta").write_text("count=4\nfirst_seed=7\nheight=0\nwidth=32\n")
    return f"{data / 'dataset.meta'}: scene size 0x32 is outside [16, 1024]"


class TestDatasetManifest:
    """A dataset holds exactly the scenes its dataset.meta lists."""

    def run(self, command, data, out, small_cfg):
        return main([*command.split(), "--config", small_cfg, "--data", str(data),
                     "--out", str(out), "--epochs", "1"])

    def test_gen_force_over_stale_scenes_exits_2(self, tmp_path, small_cfg, capsys):
        """gen --force refuses a directory holding scenes its manifest would
        not list, and the dataset already there stays readable."""
        data = tmp_path / "data"
        gen = ["gen", "--config", small_cfg, "--out", str(data), "--force"]
        assert main(gen + ["--count", "4", "--seed", "0"]) == 0
        before = {name: (data / name).read_bytes() for name in ("dataset.meta", "resolved.cfg")}
        capsys.readouterr()
        assert main(gen + ["--count", "2", "--seed", "100"]) == 2
        assert capsys.readouterr().err == (
            f"error: {data / 'scenes' / '0'}: scene 0 is not among the 2 scenes "
            "from seed 100 that gen writes; remove it first\n")
        assert {name: (data / name).read_bytes() for name in before} == before
        assert not (data / "scenes" / "100").exists()
        out = tmp_path / "ev"
        assert self.run("eval --oracle", data, out, small_cfg) == 0
        assert read_report(out)[0]["pq"] == "1.0000"

    @pytest.mark.parametrize("command", ["train", "eval --oracle"])
    @pytest.mark.parametrize("edit", [_duplicate_scene, _unlisted_scene, _remove_scene,
                                      _remove_manifest, _malform_manifest, _drop_first_seed,
                                      _drop_height, _zero_height])
    def test_scenes_differing_from_manifest_exit_3(self, tmp_path, dataset, small_cfg,
                                                    capsys, command, edit):
        data = tmp_path / "data"
        shutil.copytree(dataset, data)
        message = edit(data)
        out = tmp_path / "run"
        assert self.run(command, data, out, small_cfg) == 3
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "eval", "eval --oracle", "viz"])
    def test_scene_of_another_size_exits_3(self, tmp_path, dataset, icm_run, capsys,
                                           command):
        """Scenes must be of dataset.meta's size: scene 10 is 16x32 here."""
        other = tmp_path / "other"
        assert main(["gen", "--out", str(other), "--height", "16", "--width", "32",
                     "--count", "1", "--seed", "10"]) == 0
        data = tmp_path / "data"
        shutil.copytree(dataset, data)
        shutil.rmtree(scene_dir(data, 10))
        shutil.copytree(scene_dir(other, 10), scene_dir(data, 10))
        cfg, run = icm_run
        checkpoint = ["--checkpoint", str(run / "checkpoint.bin")]
        extra = {"train": ["--epochs", "1"], "eval": checkpoint, "eval --oracle": [],
                 "viz": checkpoint + ["--seed", "10", "--branch", "icm", "--point", "0,0"]}
        out = tmp_path / "run"
        capsys.readouterr()
        assert main([*command.split(), "--config", str(cfg), "--data", str(data),
                     "--out", str(out), *extra[command]]) == 3
        assert capsys.readouterr().err == (f"error: {scene_dir(data, 10)}: scene is 16x32, "
                                           "but dataset.meta gives 32x32\n")
        assert not out.exists()

    @pytest.mark.parametrize("name", ["1_000", "+1000", " 1000", "\u0661\u0660\u0660\u0660"])
    def test_scene_dir_not_named_by_ascii_digits_exits_3(self, tmp_path, small_cfg, capsys,
                                                           name):
        """int() reads each of these names as 1000, but none is a seed's name."""
        data = tmp_path / "data"
        assert main(["gen", "--config", small_cfg, "--out", str(data),
                     "--count", "1", "--seed", "1000"]) == 0
        (data / "scenes" / "1000").rename(data / "scenes" / name)
        capsys.readouterr()
        out = tmp_path / "run"
        assert self.run("eval --oracle", data, out, small_cfg) == 3
        assert capsys.readouterr().err == (f"error: {data / 'scenes'}: scene 1000 listed in "
                                           f"{data / 'dataset.meta'} is missing\n")
        assert not out.exists()

    @pytest.mark.parametrize("seed, name", [(1000, "01000"), (-3, "-3"), (-3, "-003")])
    def test_scene_dir_named_by_its_seed_loads(self, tmp_path, small_cfg, seed, name):
        data = tmp_path / "data"
        assert main(["gen", "--config", small_cfg, "--out", str(data),
                     "--count", "1", "--seed", str(seed)]) == 0
        (data / "scenes" / str(seed)).rename(data / "scenes" / name)
        out = tmp_path / "run"
        assert self.run("eval --oracle", data, out, small_cfg) == 0
        assert read_report(out)[0]["pq"] == "1.0000"

    @pytest.mark.parametrize("make_dir, message", [(False, "no scenes directory"),
                                                   (True, "dataset is empty")])
    def test_empty_dataset_exits_3(self, tmp_path, small_cfg, capsys, make_dir, message):
        data = tmp_path / "data"
        assert main(["gen", "--config", small_cfg, "--out", str(data),
                     "--count", "0", "--seed", "7"]) == 0
        if make_dir:
            (data / "scenes").mkdir()
        out = tmp_path / "run"
        assert self.run("eval --oracle", data, out, small_cfg) == 3
        assert capsys.readouterr().err == f"error: {data / 'scenes'}: {message}\n"
        assert not out.exists()


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

    def test_profiles_are_the_modules_profiles(self, icm_run, dataset, tmp_path):
        """viz reads the same field_profiles the ICM uses, bit for bit."""
        _, run = icm_run
        out = tmp_path / "v"
        assert self.viz(icm_run, dataset, out, ["--point", "3,5"]) == 0
        cfg = ModelConfig(channels=4, n_fourier=2, s_ref=2, grid_size=2, use_icm=True)
        model = PanopticModel(cfg, SplitMix64(0))
        load_model_state(model, load_checkpoint(run / "checkpoint.bin"))
        with no_grad():
            features = model.backbone(scene_image(load_scene(scene_dir(dataset, 7))))
            field = icm.predict_params(features, model.instance_encoder)
            profiles = field_profiles(field, np.arange(8), np.arange(8))
        for axis, want in zip(("hor", "ver"), profiles):
            lines = (out / f"profile_{axis}.csv").read_text().splitlines()[1:]
            assert [float(line.split(",")[1]) for line in lines] == want.data[5, 3].tolist()

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

    def test_seed_flag_resolves_zero_padded_scene_dir(
            self, icm_run, dataset, padded_dataset, tmp_path):
        outs = [tmp_path / "plain", tmp_path / "padded"]
        for data, out in zip((dataset, padded_dataset), outs):
            assert self.viz(icm_run, data, out, ["--point", "1,1", "--seed", "7"]) == 0
        for name in ("corr_map.pgm", "corr_map.meta", "profile_hor.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_unlisted_seed_exits_3(self, icm_run, dataset, tmp_path, capsys):
        out = tmp_path / "v"
        assert self.viz(icm_run, dataset, out, ["--point", "1,1", "--seed", "3"]) == 3
        assert capsys.readouterr().err == (
            f"error: {dataset / 'dataset.meta'}: lists no scene 3\n")
        assert not out.exists()

    def test_point_outside_feature_map(self, icm_run, dataset, tmp_path):
        out = tmp_path / "v"
        assert self.viz(icm_run, dataset, out, ["--point", "8,0"]) == 2
        assert not out.exists()

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
        out = tmp_path / "v"
        rc = main(["viz", "--config", str(cfg), "--data", str(dataset),
                   "--checkpoint", str(run / "checkpoint.bin"),
                   "--out", str(out), "--branch", "scm",
                   "--point", "1,1"])
        assert rc == 2
        assert not out.exists()

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


@pytest.mark.parametrize("command, corrupt, extra", [
    ("eval", False, ["--n-fourier", "3"]),
    ("eval", True, []),
    ("viz", True, ["--branch", "icm", "--point", "1,1"]),
], ids=["eval-config-mismatch", "eval-corrupt", "viz-corrupt"])
def test_checkpoint_refused_before_writing(icm_run, dataset, tmp_path, capsys,
                                           command, corrupt, extra):
    cfg, run = icm_run
    checkpoint = run / "checkpoint.bin"
    if corrupt:
        raw = bytearray(checkpoint.read_bytes())
        raw[100] ^= 0xFF
        checkpoint = tmp_path / "corrupt.bin"
        checkpoint.write_bytes(bytes(raw))
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--data", str(dataset),
                 "--checkpoint", str(checkpoint), "--out", str(out), *extra]) == 3
    assert capsys.readouterr().err.startswith(f"error: {checkpoint}: ")
    assert not out.exists()


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

    @pytest.mark.parametrize("command", ["gen", "train", "eval", "viz", "ablate"])
    def test_help_lists_a_flag_per_key(self, command):
        run = run_module(command, "--help")
        assert run.returncode == 0, run.stderr
        listed = set(re.findall(r"--[\w-]+", run.stdout.decode()))
        assert {"--" + key.replace("_", "-") for key in _KEY_ORDER[1:]} <= listed

    def test_readme_walkthrough_commands_parse(self):
        """Every command of README's CLI walkthrough parses and merges its
        config, so a renamed or dropped flag or key fails here."""
        text = README.read_text(encoding="utf-8")
        block = text.split("## CLI walkthrough", 1)[1].split("```\n", 2)[1]
        commands = [line for line in block.replace("\\\n", " ").splitlines()
                    if line.startswith("corrseg ")]
        assert len(commands) == 6
        for command in commands:
            _merge(build_parser().parse_args(shlex.split(command)[1:]))
