"""Binary checkpoint format round-trips and corruption reporting."""

import struct
import tempfile
import zlib
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrseg import checkpoint, scm
from corrseg.checkpoint import (
    MAGIC,
    VERSION,
    check_config,
    config_entries,
    load_checkpoint,
    load_model_state,
    model_state,
    save_checkpoint,
)
from corrseg.cli import main
from corrseg.errors import DataFormatError
from corrseg.model import ModelConfig, PanopticModel
from corrseg.rng import SplitMix64


def small_model(seed=1, **overrides):
    defaults = dict(channels=4, n_fourier=2, s_ref=2, grid_size=2)
    defaults.update(overrides)
    return PanopticModel(ModelConfig(**defaults), SplitMix64(seed))


class TestRoundTrip:
    def test_arrays_survive(self, tmp_path):
        path = tmp_path / "t.ckpt"
        arrays = {
            "alpha": np.arange(6.0).reshape(2, 3),
            "beta": np.asarray(2.5),
            "gamma": np.zeros((3, 1, 2)),
        }
        save_checkpoint(path, arrays)
        loaded = load_checkpoint(path)
        assert set(loaded) == set(arrays)
        for name, arr in arrays.items():
            assert loaded[name].shape == np.asarray(arr).shape
            assert np.array_equal(loaded[name], arr)

    def test_deterministic_bytes(self, tmp_path):
        arrays = {"b": np.ones((2, 2)), "a": np.zeros(3)}
        p1, p2 = tmp_path / "1.ckpt", tmp_path / "2.ckpt"
        save_checkpoint(p1, arrays)
        save_checkpoint(p2, dict(reversed(list(arrays.items()))))
        assert p1.read_bytes() == p2.read_bytes()

    def test_model_state_round_trip(self, tmp_path):
        model = small_model(seed=3, use_scm=True, use_icm=True)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model_state(model))

        clone = small_model(seed=9, use_scm=True, use_icm=True)
        load_model_state(clone, load_checkpoint(path), source=str(path))
        for name, p in model.parameters().items():
            assert np.array_equal(clone.parameters()[name].data, p.data), name

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "checkpoint.bin"
        old = {"w": np.arange(4.0)}
        save_checkpoint(path, old)

        def write_half_then_fail(self, data):
            with open(self, "wb") as f:
                f.write(data[:len(data) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_bytes", write_half_then_fail)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, {"w": np.ones(1000)})
        monkeypatch.undo()
        assert np.array_equal(load_checkpoint(path)["w"], old["w"])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.bin"]


class TestCorruption:
    def saved(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, {"w": np.ones((2, 2))})
        return path

    def test_bad_magic(self, tmp_path):
        path = self.saved(tmp_path)
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(DataFormatError, match="magic at byte 0"):
            load_checkpoint(path)

    def test_bad_version(self, tmp_path):
        path = self.saved(tmp_path)
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(DataFormatError, match="version"):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        path = self.saved(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(DataFormatError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_garbage(self, tmp_path):
        path = self.saved(tmp_path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(DataFormatError, match="trailing"):
            load_checkpoint(path)


def non_utf8_name(path):
    """A valid one-entry checkpoint whose entry name is the byte 0xff."""
    save_checkpoint(path, {"w": np.ones((2, 2))})
    data = bytearray(path.read_bytes())
    data[16] = 0xFF  # magic, version, count, name length, then the name
    path.write_bytes(bytes(data))


def with_crc(body):
    """`body` followed by its crc32 trailer, as save_checkpoint ends a file."""
    return body + struct.pack("<I", zlib.crc32(body))


def one_entry(extents, payload=b""):
    """Checkpoint bytes with one entry, named "w", of the given extents."""
    return with_crc(MAGIC + struct.pack("<III", VERSION, 1, 1) + b"w"
                    + struct.pack(f"<I{len(extents)}Q", len(extents), *extents)
                    + payload)


def wrapping_extents(path):
    """Extents whose item count wraps to a negative int64."""
    path.write_bytes(one_entry((2**32, 2**32 - 1), bytes(64)))


def second_entry_named(path, name):
    """A valid checkpoint of scalar entries "b" and "c", with "c" renamed."""
    save_checkpoint(path, {"b": np.asarray(1.0), "c": np.asarray(2.0)})
    data = bytearray(path.read_bytes())
    data[33] = ord(name)  # header 12, entry "b" 17, name length 4
    path.write_bytes(bytes(data))


def repeated_last_entry(path):
    """A default model's checkpoint with its last entry written again,
    zeroed: every entry the model needs is there, the copy comes last."""
    state = model_state(PanopticModel(ModelConfig(), SplitMix64(0)))
    last = max(state)
    save_checkpoint(path, state)
    data = path.read_bytes()[:-4]
    save_checkpoint(path, {last: np.zeros_like(state[last])})
    copy = path.read_bytes()[12:-4]
    path.write_bytes(with_crc(data[:8] + struct.pack("<I", len(state) + 1)
                              + data[12:] + copy))


def flipped_weight_byte(path):
    """A default model's checkpoint with the low mantissa byte of one
    stem1 weight flipped: the entries parse and every weight is finite."""
    state = model_state(PanopticModel(ModelConfig(), SplitMix64(0)))
    save_checkpoint(path, state)
    data = bytearray(path.read_bytes())
    data[data.index(state["stem1"].tobytes()) + 8 * 5] ^= 0x01
    path.write_bytes(bytes(data))


def as_version_1(path):
    """Rewrite the checkpoint at `path` in the version 1 layout."""
    data = path.read_bytes()[:-4]
    path.write_bytes(data[:4] + struct.pack("<I", 1) + data[8:])


CRAFTED = {
    "non_utf8_name": non_utf8_name,
    "wrapping_extents": wrapping_extents,
    "repeated_last_entry": repeated_last_entry,
    "flipped_weight_byte": flipped_weight_byte,
}


class TestCrcTrailer:
    def test_version_2_ends_with_crc_of_preceding_bytes(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, {"w": np.arange(4.0)})
        data = path.read_bytes()
        assert VERSION == 2
        assert struct.unpack("<I", data[4:8]) == (2,)
        assert struct.unpack("<I", data[-4:]) == (zlib.crc32(data[:-4]),)

    def test_flipped_weight_byte_rejected_naming_both_values(self, tmp_path):
        path = tmp_path / "c.ckpt"
        flipped_weight_byte(path)
        data = path.read_bytes()
        stored = struct.unpack("<I", data[-4:])[0]
        computed = zlib.crc32(data[:-4])
        with pytest.raises(DataFormatError, match=f"stored crc32 {stored:#010x} does not "
                                                  f"match the computed {computed:#010x}"):
            load_checkpoint(path)

    def test_flipped_crc_byte_rejected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, {"w": np.arange(4.0)})
        data = bytearray(path.read_bytes())
        data[-1] ^= 0x80
        path.write_bytes(bytes(data))
        with pytest.raises(DataFormatError, match="crc32"):
            load_checkpoint(path)

    def test_version_1_still_loads(self, tmp_path):
        path = tmp_path / "c.ckpt"
        arrays = {"a": np.arange(6.0).reshape(2, 3), "b": np.asarray(-1.5)}
        save_checkpoint(path, arrays)
        as_version_1(path)
        loaded = load_checkpoint(path)
        assert sorted(loaded) == sorted(arrays)
        for name, value in arrays.items():
            assert np.array_equal(loaded[name], value)

    def test_version_1_with_a_trailer_is_rejected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, {"w": np.arange(4.0)})
        data = path.read_bytes()
        path.write_bytes(data[:4] + struct.pack("<I", 1) + data[8:])
        with pytest.raises(DataFormatError, match="4 trailing bytes"):
            load_checkpoint(path)

    @pytest.mark.parametrize("length", [8, 11, 12, 15])
    def test_version_2_too_short_for_a_trailer_reads_as_truncated(self, tmp_path, length):
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, {})
        path.write_bytes(path.read_bytes()[:length])
        with pytest.raises(DataFormatError, match="truncated"):
            load_checkpoint(path)


class TestFailsClosed:
    def test_non_utf8_name(self, tmp_path):
        path = tmp_path / "c.ckpt"
        non_utf8_name(path)
        with pytest.raises(DataFormatError, match="not UTF-8"):
            load_checkpoint(path)

    def test_oversized_entry_reads_as_truncated(self, tmp_path):
        path = tmp_path / "c.ckpt"
        wrapping_extents(path)
        with pytest.raises(DataFormatError, match="truncated"):
            load_checkpoint(path)

    def test_empty_entry_with_unsupported_extents(self, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_bytes(one_entry((0, 2**63)))
        with pytest.raises(DataFormatError, match="extents"):
            load_checkpoint(path)

    @pytest.mark.parametrize("name", ["b", "a"])
    def test_names_not_strictly_ascending_rejected(self, tmp_path, name):
        path = tmp_path / "c.ckpt"
        second_entry_named(path, name)
        with pytest.raises(DataFormatError,
                           match=f"entry '{name}' at byte 29 does not come after 'b'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("craft", sorted(CRAFTED))
    def test_eval_exits_3(self, tmp_path, craft, capsys):
        data = tmp_path / "data"
        assert main(["gen", "--out", str(data), "--count", "1",
                     "--seed", "0"]) == 0
        checkpoint = tmp_path / "bad.bin"
        CRAFTED[craft](checkpoint)
        rc = main(["eval", "--data", str(data), "--checkpoint", str(checkpoint),
                   "--out", str(tmp_path / "ev")])
        assert rc == 3
        assert capsys.readouterr().err.startswith(f"error: {checkpoint}: ")

    @settings(max_examples=300, deadline=None)
    @given(flips=st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 255)),
                          min_size=1, max_size=3))
    def test_corrupted_bytes_load_or_raise_data_format_error(self, flips):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.ckpt"
            save_checkpoint(path, {"a": np.arange(3.0), "b": np.asarray(2.5),
                                   "c": np.zeros((2, 0))})
            data = bytearray(path.read_bytes())
            for position, mask in flips:
                data[position % len(data)] ^= mask
            path.write_bytes(bytes(data))
            try:
                loaded = load_checkpoint(path)
            except DataFormatError:
                return
            assert all(isinstance(v, np.ndarray) for v in loaded.values())


class TestConfigGuard:
    def test_mismatched_architecture_rejected(self, tmp_path):
        model = small_model(seed=1)
        state = model_state(model)
        other = ModelConfig(channels=4, n_fourier=3, s_ref=2, grid_size=2)
        with pytest.raises(DataFormatError, match="n_fourier"):
            check_config(state, other, "test")
        # Class counts are fixed by the generator, yet a checkpoint stored
        # with other counts still fails closed.
        state["config.k_thing"] = np.asarray(2.0)
        with pytest.raises(DataFormatError, match="k_thing"):
            check_config(state, model.cfg, "test")

    def test_missing_parameter_rejected(self, tmp_path):
        model = small_model(seed=2)
        state = model_state(model)
        del state["stem1"]
        with pytest.raises(DataFormatError, match="stem1"):
            load_model_state(model, state)

    def test_wrong_shape_rejected(self):
        model = small_model(seed=4)
        state = model_state(model)
        state["stem1"] = np.zeros((1, 1, 3, 4))
        with pytest.raises(DataFormatError, match="shape"):
            load_model_state(model, state)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_parameter_rejected(self, bad):
        model = small_model(seed=6)
        state = model_state(model)
        state["sem_conv2"][0, 1, 2, 3] = bad
        with pytest.raises(DataFormatError, match="'sem_conv2' has non-finite"):
            load_model_state(model, state, "test")

    def test_non_finite_parameter_makes_eval_exit_3(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["gen", "--out", str(data), "--count", "1",
                     "--seed", "0"]) == 0
        state = model_state(PanopticModel(ModelConfig(), SplitMix64(0)))
        state["stem1"][1, 1, 0, 0] = np.nan
        checkpoint = tmp_path / "nan.bin"
        save_checkpoint(checkpoint, state)
        rc = main(["eval", "--data", str(data), "--checkpoint", str(checkpoint),
                   "--out", str(tmp_path / "ev")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {checkpoint}: ")
        assert "'stem1'" in err

    def test_stored_config_is_the_model_fields_and_class_counts(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model_state(small_model()))
        stored = {name[len("config."):] for name in load_checkpoint(path)
                  if name.startswith("config.")}
        assert stored == {f.name for f in fields(ModelConfig)} | {"k_thing", "k_stuff"}

    def test_committed_benchmark_fixture_loads(self):
        fixture = Path(__file__).parents[1] / "perfbench" / "fixtures" / "eval_scm_icm.bin"
        model = PanopticModel(ModelConfig(use_scm=True, use_icm=True), SplitMix64(0))
        load_model_state(model, load_checkpoint(fixture), str(fixture))

    def test_scm_mode_encoded(self):
        entries = config_entries(ModelConfig(scm_mode="global"))
        assert float(entries["config.scm_mode"]) == 0.0
        entries = config_entries(ModelConfig(scm_mode="axial"))
        assert float(entries["config.scm_mode"]) == 1.0

    def test_every_scm_mode_has_a_code(self):
        # A mode missing here would fail the first checkpoint save, after
        # an epoch of training.  The tuple's order is the stored code.
        assert sorted(checkpoint._SCM_MODES) == sorted(scm.AGGREGATORS)

    def test_non_scalar_config_entry_rejected(self):
        state = model_state(small_model(seed=5))
        state["config.channels"] = np.asarray([4.0, 4.0])
        with pytest.raises(DataFormatError, match="'config.channels'"):
            check_config(state, small_model(seed=5).cfg, "test")

    def test_non_scalar_config_entry_makes_eval_exit_3(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["gen", "--out", str(data), "--count", "1",
                     "--seed", "0"]) == 0
        state = model_state(PanopticModel(ModelConfig(), SplitMix64(0)))
        state["config.channels"] = np.asarray([16.0, 16.0])
        checkpoint = tmp_path / "bad.bin"
        save_checkpoint(checkpoint, state)
        rc = main(["eval", "--data", str(data), "--checkpoint", str(checkpoint),
                   "--out", str(tmp_path / "ev")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {checkpoint}: ")
        assert "'config.channels'" in err
