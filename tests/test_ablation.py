"""Variant construction, comparison encoders, and the sweep report."""

import hashlib
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
from corrseg.icm import IcmWeights
from corrseg.losses import total_loss
from corrseg.model import ModelConfig
from corrseg.rng import SplitMix64
from corrseg.synth import SceneConfig

SMALL = dict(channels=4, n_fourier=2, s_ref=2, grid_size=2)


HEADS = ["pre_conv", "pre_bias", "hor_head", "hor_bias", "ver_head", "ver_bias"]
SCM_PARAMS = [f"scm.{name}" for name in HEADS]
ICM_PARAMS = [f"icm.{name}" for name in HEADS + ["feat_proj", "corr_proj"]]

# variant: (use_scm, use_icm, instance-slot type, semantic-slot parameter
# names, instance-slot parameter names)
ROWS = {
    "baseline": (False, False, type(None), [], []),
    "scm": (True, False, type(None), SCM_PARAMS, []),
    "icm": (False, True, IcmWeights, [], ICM_PARAMS),
    "scm_icm": (True, True, IcmWeights, SCM_PARAMS, ICM_PARAMS),
    "coords": (False, False, CoordsEncoder, [], ["coords_proj"]),
    "sinusoid": (False, False, SinusoidEncoder, [], []),
}

# sha256 over each (name, bytes) of make_variant_model(variant, cfg, 1)
# .parameters(), at SMALL and at ModelConfig().  Each row must keep drawing
# its weights from the seed's stream in the same order: checkpoints and the
# pinned runs depend on it.
PARAM_DIGESTS = {
    "baseline": ("19d77217c8a7adfa420f1261026232bc9962e5ea06988132d352b7c8a71ae99e",
                 "4473a83a8a23fae7401b33626a9bbb6e8b15dcf12a2ff02c264d517d2080329e"),
    "scm": ("d7a9486e9eb82624eccfd580042559a19b990e513b08286c2cde10aa99ca0cba",
            "06e37f5e13f7bd29a6ff2cbe6d38175cc696f5ebe91438e221469285034f89d5"),
    "icm": ("266d25bce2b4b5a50b87df2193279c136b20042f824e14cf806430fa267394ef",
            "dde04a9902cde68dba0322fa499c114b85fe425f74f6ffdfa43a1d4ce0cddec6"),
    "scm_icm": ("1357ad0e88b2cb900c0b1e0395ce664d7c1bf5315016bbf1023e703831c6353f",
                "185b086ce624013348cc65b3b15cda7faba367be7dee7f806636dbf78f74cc2b"),
    "coords": ("acb711c5230546d09677c79e2b6273bbc231be450ed351ca9dd377182d2daf57",
               "ca18955d51ba63440402877dc41a3003e4f26db88edefb76fa6e73393ab43585"),
    "sinusoid": ("19d77217c8a7adfa420f1261026232bc9962e5ea06988132d352b7c8a71ae99e",
                 "4473a83a8a23fae7401b33626a9bbb6e8b15dcf12a2ff02c264d517d2080329e"),
}

# Op nodes per training step; see test_step_graph_node_count.
STEP_NODES = {"baseline": 32, "scm": 44, "icm": 41, "scm_icm": 53, "coords": 34,
              "sinusoid": 33}


def _param_digest(model) -> str:
    digest = hashlib.sha256()
    for name, tensor in model.parameters().items():
        digest.update(name.encode())
        digest.update(tensor.data.tobytes())
    return digest.hexdigest()


class TestVariantModels:
    @pytest.mark.parametrize("table", [ROWS, PARAM_DIGESTS, STEP_NODES],
                             ids=["rows", "digests", "step_nodes"])
    def test_every_expectation_names_exactly_the_table_rows(self, table):
        # A new row must state its flags, slots, digests and node count.
        assert list(table) == list(VARIANTS)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_encoder_slots(self, variant):
        # The semantic slot is filled exactly when use_scm is set, and the
        # parameter dict is the base parameters, then the semantic slot's,
        # then the instance slot's: checkpoint names and the optimizer's
        # order both come from it.
        use_scm, use_icm, slot_type, sem_names, inst_names = ROWS[variant]
        cfg = ModelConfig(**SMALL)
        model = make_variant_model(variant, cfg, 1)
        assert model.cfg.use_scm == use_scm
        assert model.cfg.use_icm == use_icm
        assert type(model.instance_encoder) is slot_type
        assert (model.semantic_encoder is None) == (not model.cfg.use_scm)
        slots = [slot.parameters() if slot is not None else {}
                 for slot in (model.semantic_encoder, model.instance_encoder)]
        assert list(slots[0]) == sem_names
        assert list(slots[1]) == inst_names
        params = model.parameters()
        base = list(make_variant_model("baseline", cfg, 1).parameters())
        assert list(params) == base + list(slots[0]) + list(slots[1])
        for slot in slots:
            for name, tensor in slot.items():
                assert params[name] is tensor

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_parameters_pinned_bit_for_bit(self, variant):
        # A comparator that drew after PanopticModel's own weights, or a
        # module drawing in another order, changes these digests.
        got = tuple(_param_digest(make_variant_model(variant, cfg, 1))
                    for cfg in (ModelConfig(**SMALL), ModelConfig()))
        assert got == PARAM_DIGESTS[variant]

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown variant"):
            make_variant_model("mystery", ModelConfig(**SMALL), 1)

    def test_base_config_not_mutated(self):
        base = ModelConfig(**SMALL)
        make_variant_model("scm_icm", base, 1)
        assert not base.use_scm and not base.use_icm

    @pytest.mark.parametrize("variant, nodes", STEP_NODES.items())
    def test_step_graph_node_count(self, variant, nodes):
        # One default-config training step on an `ablate`-sized scene.
        # Each loss term and each conv layer (conv, bias and ReLU) is one
        # node, so the baseline step builds 32 op nodes; per-node overhead,
        # not arithmetic, sets the step time at this size.  Each
        # correlation profile and each SCM/ICM head conv (bias included)
        # is one node.
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

    def test_unknown_variant_fails_before_training(self, monkeypatch, tmp_path):
        scenes = make_twin_dataset(3, seed=60)
        monkeypatch.setattr(ablation, "fit", None)  # any training call would fail
        out = tmp_path / "report.csv"
        with pytest.raises(ValueError, match="unknown variant 'mystery'"):
            run_ablation(scenes, ModelConfig(**SMALL), epochs=1, lr=0.001,
                         out_path=out, variants=("baseline", "mystery"))
        assert not out.exists()

    def test_subset_of_variants(self, tmp_path):
        scenes = make_twin_dataset(3, seed=60)
        rows = run_ablation(scenes, ModelConfig(**SMALL), epochs=1, lr=0.001,
                            variants=("baseline",))
        assert len(rows) == 1
