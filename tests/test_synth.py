import errno
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrseg import synth
from corrseg.errors import ConfigError, DataFormatError
from oracles import paint_instances


def make_cfg(**kw):
    return synth.SceneConfig(**kw)


SMALL_SCENE = synth.generate_scene(make_cfg(height=16, width=16, min_things=2, seed=34))


def one_pixel(k, side=16):
    """A side x side mask holding only pixel k in row-major order."""
    mask = np.zeros((side, side), dtype=bool)
    mask[divmod(k, side)] = True
    return mask


def things_scene(masks, categories, side=16):
    """A hand-built scene on one stuff band: thing k is masks[k], painted
    as id k + 1, and categories lists the things' categories."""
    return synth.SyntheticScene(
        image=np.zeros((side, side, 3)),
        semantic=np.full((side, side), synth.FIRST_STUFF_ID, dtype=np.int64),
        instance=paint_instances(masks, (side, side)), categories=categories)


def thing_masks(scene):
    """Thing k's (H, W) bool mask, for each thing of the scene."""
    return [scene.instance == k + 1 for k in range(len(scene.categories))]


class TestGeneration:
    def test_no_things_leaves_band_pattern(self):
        scene = synth.generate_scene(make_cfg(min_things=0, max_things=0, seed=3))
        assert scene.categories == []
        assert not scene.instance.any()
        assert set(np.unique(scene.semantic)) <= {3, 4, 5}
        # bands are horizontal: rows are constant
        assert all(len(np.unique(row)) == 1 for row in scene.semantic)

    def test_same_seed_bit_identical(self):
        a = synth.generate_scene(make_cfg(seed=11, twin_mode=True))
        b = synth.generate_scene(make_cfg(seed=11, twin_mode=True))
        np.testing.assert_array_equal(a.image, b.image)
        np.testing.assert_array_equal(a.semantic, b.semantic)
        np.testing.assert_array_equal(a.instance, b.instance)
        assert a.categories == b.categories

    def test_different_seed_differs(self):
        a = synth.generate_scene(make_cfg(seed=1))
        b = synth.generate_scene(make_cfg(seed=2))
        assert not np.array_equal(a.image, b.image)

    def test_masks_disjoint(self):
        """One plane cannot hold overlapping things; every placed thing
        keeps pixels under its own id, and no other id appears."""
        scene = synth.generate_scene(make_cfg(min_things=4, max_things=6, seed=21))
        assert scene.instance.dtype == np.uint8
        assert np.unique(scene.instance).tolist() == list(range(len(scene.categories) + 1))

    def test_semantic_consistent_with_instances(self):
        scene = synth.generate_scene(make_cfg(min_things=3, max_things=5, seed=22))
        assert len(scene.categories) >= 1
        for mask, category in zip(thing_masks(scene), scene.categories):
            assert np.all(scene.semantic[mask] == category)

    def test_image_range_and_dtype(self):
        scene = synth.generate_scene(make_cfg(seed=23))
        assert scene.image.min() >= 0.0 and scene.image.max() <= 1.0

    def test_meta_records_counts(self):
        scene = synth.generate_scene(make_cfg(min_things=2, max_things=3, seed=24))
        assert int(scene.meta["placed_things"]) == len(scene.categories)
        assert int(scene.meta["requested_things"]) >= int(scene.meta["placed_things"])
        assert "categories" not in scene.meta

    @pytest.mark.parametrize("seed", range(8))
    def test_twin_mode_identical_appearance_distant_centroids(self, seed):
        scene = synth.generate_scene(make_cfg(twin_mode=True, seed=seed))
        assert len(scene.categories) >= 2
        mask_a, mask_b = thing_masks(scene)[:2]
        assert scene.categories[0] == scene.categories[1]
        assert mask_a.sum() == mask_b.sum()
        colors_a = scene.image[mask_a]
        colors_b = scene.image[mask_b]
        np.testing.assert_allclose(np.sort(colors_a, axis=0), np.sort(colors_b, axis=0))
        ya, xa = np.argwhere(mask_a).mean(axis=0)
        yb, xb = np.argwhere(mask_b).mean(axis=0)
        dist = np.hypot(xa - xb, ya - yb)
        assert dist >= scene.width / 4.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            make_cfg(height=8)
        with pytest.raises(ValueError):
            make_cfg(min_things=3, max_things=1)
        with pytest.raises(ValueError):
            make_cfg(twin_mode=True, max_things=1)


class TestNetpbm:
    def test_pgm_round_trip(self, tmp_path):
        values = np.arange(42, dtype=np.uint8).reshape(6, 7)
        synth.save_pgm(tmp_path / "x.pgm", values)
        np.testing.assert_array_equal(synth.load_pgm(tmp_path / "x.pgm"), values)

    def test_ppm_round_trip(self, tmp_path):
        values = (np.arange(60, dtype=np.uint8) * 4).reshape(4, 5, 3)
        synth.save_ppm(tmp_path / "x.ppm", values)
        np.testing.assert_array_equal(synth.load_ppm(tmp_path / "x.ppm"), values)

    def test_bad_magic_reports_byte_zero(self, tmp_path):
        p = tmp_path / "bad.pgm"
        p.write_bytes(b"P4\n2 2\n255\n....")
        with pytest.raises(DataFormatError, match="byte 0"):
            synth.load_pgm(p)

    def test_truncated_payload_reports_offset(self, tmp_path):
        p = tmp_path / "short.pgm"
        p.write_bytes(b"P5\n4 4\n255\nabc")
        with pytest.raises(DataFormatError, match="expected 16 bytes, found 3"):
            synth.load_pgm(p)

    def test_truncated_header_rejected(self, tmp_path):
        p = tmp_path / "hdr.pgm"
        p.write_bytes(b"P5\n4 ")
        with pytest.raises(DataFormatError, match="header truncated"):
            synth.load_pgm(p)

    def test_nonnumeric_header_rejected(self, tmp_path):
        p = tmp_path / "hdr.pgm"
        p.write_bytes(b"P5\n4 x\n255\n" + b"\0" * 16)
        with pytest.raises(DataFormatError, match="non-numeric"):
            synth.load_pgm(p)

    @pytest.mark.parametrize("header, field", [
        (b"P5\n0 0\n255\n", "width is 0 at byte 3"),
        (b"P5\n4 0\n255\n", "height is 0 at byte 5"),
    ], ids=("width", "height"))
    def test_zero_size_rejected(self, tmp_path, header, field):
        p = tmp_path / "empty.pgm"
        p.write_bytes(header)
        with pytest.raises(DataFormatError, match=field):
            synth.load_pgm(p)

    def test_trailing_bytes_rejected(self, tmp_path):
        p = tmp_path / "long.pgm"
        p.write_bytes(b"P5\n2 2\n255\nabcd" + b"garbage")
        with pytest.raises(DataFormatError) as info:
            synth.load_pgm(p)
        assert str(info.value) == f"{p}: 7 trailing bytes from byte 15"

    def test_comments_in_header_accepted(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5\n# made elsewhere\n2 2\n255\nabcd")
        np.testing.assert_array_equal(
            synth.load_pgm(p), np.frombuffer(b"abcd", dtype=np.uint8).reshape(2, 2)
        )


class TestScenePersistence:
    def test_round_trip(self, tmp_path):
        scene = synth.generate_scene(make_cfg(twin_mode=True, seed=31))
        directory = synth.scene_dir(tmp_path, 31)
        synth.save_scene(scene, directory)
        loaded = synth.load_scene(directory)
        np.testing.assert_array_equal(loaded.semantic, scene.semantic)
        assert loaded.instance.dtype == np.uint8
        np.testing.assert_array_equal(loaded.instance, scene.instance)
        assert loaded.categories == scene.categories
        assert loaded.meta == scene.meta
        assert np.abs(loaded.image - scene.image).max() <= 1.0 / 255.0 + 1e-12

    def test_every_instance_id_fits_a_pgm_byte(self):
        assert synth.MAX_THINGS <= 255

    def test_most_things_round_trip_exactly(self, tmp_path):
        """MAX_THINGS one-pixel things, ids 1..MAX_THINGS, read back as written."""
        masks = [one_pixel(3 * k) for k in range(synth.MAX_THINGS)]
        categories = [k % synth.THING_CLASSES for k in range(synth.MAX_THINGS)]
        synth.save_scene(things_scene(masks, categories), tmp_path / "s")
        assert synth.load_pgm(tmp_path / "s" / "instance.pgm").max() == synth.MAX_THINGS
        loaded = synth.load_scene(tmp_path / "s")
        assert loaded.categories == categories
        for got, want in zip(thing_masks(loaded), masks, strict=True):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("masks, things", [
        ([one_pixel(0), one_pixel(1)], 1),
        ([one_pixel(k) for k in range(synth.MAX_THINGS + 1)], synth.MAX_THINGS + 1),
    ], ids=["id_above_categories", "too_many"])
    def test_things_no_plane_holds_refused_before_writing(self, tmp_path, masks, things):
        scene = things_scene(masks, [0] * things)
        with pytest.raises(ValueError, match="instance plane holds at most"):
            synth.save_scene(scene, tmp_path / "s")
        assert not (tmp_path / "s").exists()

    def test_manifest_field_order_stable(self, tmp_path):
        scene = synth.generate_scene(make_cfg(seed=32))
        synth.save_scene(scene, tmp_path / "s")
        keys = [line.split("=")[0]
                for line in (tmp_path / "s" / "scene.meta").read_text().splitlines()]
        assert keys == list(synth._META_ORDER)

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(DataFormatError, match="manifest missing"):
            synth.load_scene(tmp_path)

    @pytest.mark.parametrize("name, reason", [
        ("scene.meta", "manifest missing"),
        ("image.ppm", f"cannot read ({os.strerror(errno.ENOENT)})"),
        ("semantic.pgm", f"cannot read ({os.strerror(errno.ENOENT)})"),
        ("instance.pgm", f"cannot read ({os.strerror(errno.ENOENT)})"),
    ])
    def test_missing_file_raises_data_format_error(self, tmp_path, name, reason):
        directory = self.saved(tmp_path)
        (directory / name).unlink()
        with pytest.raises(DataFormatError) as info:
            synth.load_scene(directory)
        assert str(info.value) == f"{directory / name}: {reason}"

    def saved(self, tmp_path):
        scene = synth.generate_scene(make_cfg(twin_mode=True, seed=33))
        directory = tmp_path / "s"
        synth.save_scene(scene, directory)
        return directory

    @pytest.mark.parametrize("categories", ["0,3", "0,-1", "0,x", "\u0661,\u0661"])
    def test_instance_category_out_of_range_rejected(self, tmp_path, categories):
        directory = self.saved(tmp_path)
        meta = directory / "scene.meta"
        lines = [f"categories={categories}" if line.startswith("categories=") else line
                 for line in meta.read_text().splitlines()]
        meta.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match=f"{meta}: instance category"):
            synth.load_scene(directory)

    def test_instance_id_above_the_things_rejected(self, tmp_path):
        directory = self.saved(tmp_path)
        path = directory / "instance.pgm"
        ids = synth.load_pgm(path)
        n = int(ids.max())
        assert n == len(synth.load_scene(directory).categories)
        ids[0, 0] = n + 1
        synth.save_pgm(path, ids)
        with pytest.raises(DataFormatError, match=f"{path}: instance id {n + 1} is above"):
            synth.load_scene(directory)

    def test_semantic_id_out_of_range_rejected(self, tmp_path):
        directory = self.saved(tmp_path)
        path = directory / "semantic.pgm"
        semantic = synth.load_pgm(path)
        semantic[0, 0] = synth.THING_CLASSES + synth.STUFF_CLASSES
        synth.save_pgm(path, semantic)
        with pytest.raises(DataFormatError, match=f"{path}: semantic id 6"):
            synth.load_scene(directory)

    @pytest.mark.parametrize("name", ["semantic.pgm", "instance.pgm"])
    def test_plane_size_mismatch_rejected(self, tmp_path, name):
        directory = self.saved(tmp_path)
        path = directory / name
        synth.save_pgm(path, synth.load_pgm(path)[:, :-4])
        with pytest.raises(DataFormatError, match=f"{path}: size"):
            synth.load_scene(directory)

    @settings(max_examples=200, deadline=None)
    @given(name=st.sampled_from(["scene.meta", "image.ppm", "semantic.pgm", "instance.pgm"]),
           flips=st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 255)),
                          min_size=1, max_size=3))
    def test_corrupted_bytes_load_or_raise_data_format_error(self, name, flips):
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp) / "s"
            synth.save_scene(SMALL_SCENE, directory)
            path = directory / name
            data = bytearray(path.read_bytes())
            for position, mask in flips:
                data[position % len(data)] ^= mask
            path.write_bytes(bytes(data))
            try:
                scene = synth.load_scene(directory)
            except DataFormatError:
                return
            assert scene.semantic.shape == scene.image.shape[:2]
            assert all(0 <= c < synth.THING_CLASSES for c in scene.categories)
            assert scene.instance.max(initial=0) <= len(scene.categories)

    def test_repeated_manifest_key_rejected(self, tmp_path):
        directory = self.saved(tmp_path)
        meta = directory / "scene.meta"
        meta.write_text(meta.read_text() + "categories=0\n")
        with pytest.raises(DataFormatError, match=f"{meta}:9: key 'categories' repeated"):
            synth.load_scene(directory)

    def test_malformed_manifest_line_rejected(self, tmp_path):
        d = tmp_path / "s"
        d.mkdir()
        (d / "scene.meta").write_text("seed 7\n")
        with pytest.raises(DataFormatError, match="key=value"):
            synth.load_scene(d)


class TestDataset:
    CFG = make_cfg(height=16, width=24, min_things=0, max_things=3, seed=40)

    def test_reads_back_the_generated_scenes_in_seed_order_on_every_pass(self, tmp_path):
        synth.save_dataset(tmp_path, self.CFG, 3)
        dataset = synth.Dataset(tmp_path)
        assert dataset.size == (16, 24)
        assert list(dataset.paths) == [40, 41, 42]
        for _ in range(2):
            scenes = list(dataset)
            assert len(scenes) == 3
            for seed, got in zip(range(40, 43), scenes):
                want = synth.generate_scene(make_cfg(height=16, width=24, min_things=0,
                                                     max_things=3, seed=seed))
                np.testing.assert_array_equal(synth.to_uint8(got.image),
                                              synth.to_uint8(want.image))
                np.testing.assert_array_equal(got.semantic, want.semantic)
                np.testing.assert_array_equal(got.instance, want.instance)
                assert got.categories == want.categories
                assert got.meta == want.meta

    @pytest.mark.parametrize("key, value", [("first_seed", "4_0"), ("count", "\u0662"),
                                            ("height", "+16"), ("width", "2_4")])
    def test_manifest_integers_are_ascii(self, tmp_path, key, value):
        """int() reads each of these values, but only ASCII digits are a manifest's."""
        synth.save_dataset(tmp_path, self.CFG, 2)
        manifest = tmp_path / "dataset.meta"
        lines = [f"{key}={value}" if line.startswith(f"{key}=") else line
                 for line in manifest.read_text().splitlines()]
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError) as info:
            synth.Dataset(tmp_path)
        assert str(info.value).startswith(f"{manifest}: missing or malformed dataset manifest")

    def test_unlisted_seed_names_the_manifest(self, tmp_path):
        synth.save_dataset(tmp_path, self.CFG, 2)
        manifest = tmp_path / "dataset.meta"
        with pytest.raises(DataFormatError) as info:
            synth.Dataset(tmp_path).scene(42)
        assert str(info.value) == f"{manifest}: lists no scene 42"

    def test_stray_numbered_scene_refused_before_writing(self, tmp_path):
        stray = tmp_path / "scenes" / "007"
        stray.mkdir(parents=True)
        with pytest.raises(ConfigError) as info:
            synth.save_dataset(tmp_path, self.CFG, 2)
        assert str(info.value) == (f"{stray}: scene 7 is not among the 2 scenes from "
                                   "seed 40 that gen writes; remove it first")
        assert sorted(tmp_path.rglob("*")) == [tmp_path / "scenes", stray]
