"""Variant construction, comparison encoders, and the sweep report."""

import math

import numpy as np
import pytest

from corrseg import ablation
from corrseg.ablation import (
    CSV_HEADER,
    VARIANTS,
    CoordsEncoder,
    SinusoidEncoder,
    make_twin_dataset,
    make_variant_model,
    run_ablation,
    write_report,
)
from corrseg.autodiff import Tensor
from corrseg.errors import ConfigError
from corrseg.losses import total_loss
from corrseg.model import ModelConfig
from corrseg.rng import SplitMix64
from corrseg.synth import SceneConfig

SMALL = dict(channels=4, n_fourier=2, s_ref=2, grid_size=2)


class TestVariantModels:
    def test_every_variant_builds(self):
        for variant in VARIANTS:
            model = make_variant_model(variant, ModelConfig(**SMALL), seed=1)
            assert model.cfg.use_scm == (variant in ("scm", "scm_icm"))
            assert model.cfg.use_icm == (variant in ("icm", "scm_icm"))

    def test_encoder_kinds(self):
        assert make_variant_model("baseline", ModelConfig(**SMALL), 1
                                  ).instance_encoder is None
        assert isinstance(
            make_variant_model("coords", ModelConfig(**SMALL), 1
                               ).instance_encoder, CoordsEncoder)
        assert isinstance(
            make_variant_model("sinusoid", ModelConfig(**SMALL), 1
                               ).instance_encoder, SinusoidEncoder)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_encoder_slots(self, variant):
        # The semantic slot is filled exactly when use_scm is set, and the
        # parameter dict is the base parameters, then the semantic slot's,
        # then the instance slot's: checkpoint names and the optimizer's
        # order both come from it.
        cfg = ModelConfig(**SMALL)
        model = make_variant_model(variant, cfg, 1)
        assert (model.semantic_encoder is None) == (not model.cfg.use_scm)
        heads = ["pre_conv", "pre_bias", "hor_head", "hor_bias", "ver_head", "ver_bias"]
        icm = [f"icm.{name}" for name in heads + ["feat_proj", "corr_proj"]]
        want = {"baseline": ([], []), "scm": (heads, []), "icm": ([], icm),
                "scm_icm": (heads, icm), "coords": ([], ["coords_proj"]),
                "sinusoid": ([], [])}[variant]
        slots = [slot.parameters() if slot is not None else {}
                 for slot in (model.semantic_encoder, model.instance_encoder)]
        assert list(slots[0]) == [f"scm.{name}" for name in want[0]]
        assert list(slots[1]) == want[1]
        params = model.parameters()
        base = list(make_variant_model("baseline", cfg, 1).parameters())
        assert list(params) == base + list(slots[0]) + list(slots[1])
        for slot in slots:
            for name, tensor in slot.items():
                assert params[name] is tensor

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown variant"):
            make_variant_model("mystery", ModelConfig(**SMALL), 1)

    def test_base_config_not_mutated(self):
        base = ModelConfig(**SMALL)
        make_variant_model("scm_icm", base, 1)
        assert not base.use_scm and not base.use_icm

    def test_baseline_step_graph_stays_small(self):
        # One default-config training step on an `ablate`-sized scene.
        # Each loss term and each conv layer (conv, bias and ReLU) is one
        # node, so the step builds 32 op nodes; per-node overhead, not
        # arithmetic, sets the step time at this size.
        scene = make_twin_dataset(1, 1000)[0]
        model = make_variant_model("baseline", ModelConfig(), 0)
        loss = total_loss(model.forward(Tensor(scene.image)), scene, model.cfg)
        ops = [node for node in loss._topo_order() if node._grad_fn is not None]
        assert len(ops) == 32

    @pytest.mark.parametrize("variant, nodes", [
        ("scm", 44), ("icm", 41), ("scm_icm", 53),
        ("coords", 34), ("sinusoid", 33)])
    def test_step_graph_node_count(self, variant, nodes):
        # Each correlation profile and each SCM/ICM head conv (bias
        # included) is one node.
        scene = make_twin_dataset(1, 1000)[0]
        model = make_variant_model(variant, ModelConfig(), 0)
        loss = total_loss(model.forward(Tensor(scene.image)), scene, model.cfg)
        assert sum(node._grad_fn is not None for node in loss._topo_order()) == nodes


class TestCoordsEncoder:
    def test_output_shape_preserved(self):
        enc = CoordsEncoder(4, SplitMix64(3))
        out = enc.encode(Tensor(np.zeros((6, 8, 4))))
        assert out.shape == (6, 8, 4)

    def test_breaks_translation_symmetry(self):
        # Same feature content at two locations, different encodings.
        enc = CoordsEncoder(4, SplitMix64(3))
        out = enc.encode(Tensor(np.ones((6, 8, 4)))).data
        assert not np.allclose(out[0, 0], out[5, 7])

    def test_exposes_one_parameter(self):
        params = CoordsEncoder(4, SplitMix64(3)).parameters()
        assert list(params) == ["coords_proj"]


class TestSinusoidEncoder:
    def test_additive_with_no_parameters(self):
        enc = SinusoidEncoder(8)
        feats = np.zeros((4, 6, 8))
        out = enc.encode(Tensor(feats)).data
        assert out.shape == (4, 6, 8)
        assert enc.parameters() == {}
        # Channel 1 carries cos(pi * x / W), so it is 1 at x=0 ... not 0.
        assert out[0, 0, 1] == pytest.approx(1.0)

    def test_embeddings_vary_along_each_axis(self):
        out = SinusoidEncoder(8).encode(Tensor(np.zeros((4, 6, 8)))).data
        assert not np.allclose(out[0, 0], out[0, 5])
        assert not np.allclose(out[0, 0], out[3, 0])

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError, match="built for 8"):
            SinusoidEncoder(8).encode(Tensor(np.zeros((4, 6, 5))))


class TestTwinDataset:
    def test_every_scene_has_its_pair(self):
        scenes = make_twin_dataset(6, seed=50)
        for scene in scenes:
            assert scene.meta["twin_mode"] == "1"
            assert len(scene.instances) >= 2
            assert scene.instances[0][1] == scene.instances[1][1]

    def test_skips_scenes_whose_second_twin_found_no_room(self):
        # Seed 2 places twin A and then a different thing, not twin B.
        cfg = SceneConfig(height=16, width=16, min_things=2, max_things=3)
        (scene,) = make_twin_dataset(1, seed=2, scene_cfg=cfg)
        assert scene.meta["seed"] == "3"

    def test_deterministic(self):
        a = make_twin_dataset(3, seed=11)
        b = make_twin_dataset(3, seed=11)
        for left, right in zip(a, b):
            assert np.array_equal(left.image, right.image)


class TestReport:
    def row(self, variant="baseline", **overrides):
        row = {
            "variant": variant, "pq": 0.5, "sq": 0.25, "rq": 0.125,
            "pq_th": 1.0, "pq_st": 0.0, "twin_rate": 0.75,
            "train_seconds": 12.345678,
        }
        row.update(overrides)
        return row

    def test_fixed_header_and_formatting(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report(path, [self.row()])
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert lines[1] == "baseline,0.5000,0.2500,0.1250,1.0000,0.0000,0.7500,12.3457"

    def test_nan_row_written_as_nan(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report(path, [self.row(pq=float("nan"))])
        assert path.read_text().splitlines()[1].split(",")[1] == "nan"

    def test_lf_newlines(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report(path, [self.row()])
        assert b"\r" not in path.read_bytes()


class TestRunAblation:
    def test_tiny_sweep(self, tmp_path):
        scenes = make_twin_dataset(3, seed=60,
                                   scene_cfg=None)
        out = tmp_path / "report.csv"
        rows = run_ablation(scenes, ModelConfig(**SMALL), epochs=1, lr=0.001,
                            seed=0, out_path=out)
        assert [row["variant"] for row in rows] == list(VARIANTS)
        for row in rows:
            assert math.isfinite(row["pq"])
            assert 0.0 <= row["twin_rate"] <= 1.0
            assert row["train_seconds"] > 0
        assert len(out.read_text().splitlines()) == 1 + len(VARIANTS)

    def test_one_inference_per_held_out_scene_per_variant(self, monkeypatch):
        import corrseg.train as train_mod

        infer = train_mod.infer_panoptic
        calls = []

        def counting(model, scene):
            calls.append((model, scene))
            return infer(model, scene)

        monkeypatch.setattr(train_mod, "infer_panoptic", counting)
        scenes = make_twin_dataset(5, seed=60)
        variants = ("baseline", "icm")
        rows = run_ablation(scenes, ModelConfig(**SMALL), epochs=1, lr=0.001,
                            variants=variants)
        held_out = [id(scene) for scene in scenes[4:]]
        assert [id(scene) for _, scene in calls] == held_out * len(variants)
        assert len({id(model) for model, _ in calls}) == len(variants)
        assert all(0.0 <= row["twin_rate"] <= 1.0 for row in rows)

    def test_degenerate_split_rejected(self):
        scenes = make_twin_dataset(1, seed=70)
        with pytest.raises(ValueError, match="split"):
            run_ablation(scenes, ModelConfig(**SMALL), epochs=1, lr=0.001)

    def test_too_large_global_mode_fails_before_training(self, monkeypatch):
        scenes = make_twin_dataset(
            3, seed=80, scene_cfg=SceneConfig(height=272, width=272, twin_mode=True,
                                              min_things=2, max_things=2))
        monkeypatch.setattr(ablation, "fit", None)  # any training call would fail
        with pytest.raises(ConfigError, match="global-mode SCM"):
            run_ablation(scenes, ModelConfig(scm_mode="global", **SMALL), epochs=1,
                         lr=0.001)

    def test_subset_of_variants(self, tmp_path):
        scenes = make_twin_dataset(3, seed=60)
        rows = run_ablation(scenes, ModelConfig(**SMALL), epochs=1, lr=0.001,
                            variants=("baseline",))
        assert len(rows) == 1
