"""Shape, threshold, and wiring tests for the panoptic model."""

import numpy as np
import pytest

from corrseg import autodiff as ad
from corrseg.autodiff import Tensor
from corrseg.errors import ConfigError, ShapeError
from corrseg.model import (
    MAX_CHANNELS,
    MAX_FOURIER,
    MAX_GRID_SIZE,
    STRIDE,
    InstancePrediction,
    ModelConfig,
    PanopticModel,
    decode_instances,
    upsample_bilinear,
    upsample_nearest,
)
from corrseg.rng import SplitMix64
from corrseg.synth import SceneConfig, generate_scene
from corrseg.train import infer_panoptic


def tiny_cfg(**overrides):
    defaults = dict(channels=6, n_fourier=2, s_ref=2, grid_size=2)
    defaults.update(overrides)
    return ModelConfig(**defaults)


def random_image(h, w, seed=0):
    rng = SplitMix64(seed)
    return Tensor(rng.uniform_array((h, w, 3)))


class TestConfig:
    def test_defaults(self):
        cfg = ModelConfig()
        assert cfg.k_total == 6
        assert cfg.lambda_sem == 0.5
        assert cfg.scm_mode == "axial"

    def test_paper_scale_values_accepted(self):
        cfg = ModelConfig(n_fourier=5, s_ref=16)
        assert cfg.n_fourier == 5

    @pytest.mark.parametrize("bad", [
        dict(grid_size=0),
        dict(lambda_sem=-0.1),
        dict(channels=0),
        dict(pre_nms_score=1.5),
        dict(scm_mode="diagonal"),
        dict(channels=MAX_CHANNELS + 1),
        dict(n_fourier=MAX_FOURIER + 1),
        dict(grid_size=MAX_GRID_SIZE + 1),
    ])
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ConfigError):
            ModelConfig(**bad)


class TestBackbone:
    def test_quarters_resolution(self):
        model = PanopticModel(tiny_cfg(), SplitMix64(1))
        out = model.backbone(random_image(32, 32))
        assert out.shape == (8, 8, 6)

    def test_zero_image_zero_features(self):
        model = PanopticModel(tiny_cfg(), SplitMix64(1))
        out = model.backbone(Tensor(np.zeros((16, 16, 3))))
        assert np.all(out.data == 0.0)

    def test_rejects_bad_divisibility(self):
        model = PanopticModel(tiny_cfg(), SplitMix64(1))
        with pytest.raises(ShapeError):
            model.backbone(Tensor(np.zeros((18, 16, 3))))

    def test_matches_full_resolution_convs_then_slices(self):
        # The strided stems compute exactly the pixels the full-resolution
        # convolutions would keep after subsampling.
        model = PanopticModel(tiny_cfg(), SplitMix64(2))
        image = random_image(24, 16, seed=3)
        x = ad.relu(ad.conv2d(image, model.stem1) + model.stem1_bias)[::2, ::2, :]
        x = ad.relu(ad.conv2d(x, model.stem2) + model.stem2_bias)[::2, ::2, :]
        assert np.array_equal(model.backbone(image).data, x.data)


class TestHeads:
    def test_semantic_logits_shape(self):
        cfg = tiny_cfg(k_thing=3, k_stuff=3)
        model = PanopticModel(cfg, SplitMix64(2))
        features = model.backbone(random_image(24, 16))
        assert model.semantic_logits(features).shape == (6, 4, 6)

    def test_instance_maps_shapes(self):
        cfg = tiny_cfg(grid_size=2)
        model = PanopticModel(cfg, SplitMix64(3))
        features = model.backbone(random_image(16, 16))
        cate, masks = model.instance_maps(features)
        assert cate.shape == (2, 2, cfg.k_thing)
        assert masks.shape == (4, 4, 4)

    def test_grid_must_divide_features(self):
        model = PanopticModel(tiny_cfg(grid_size=3), SplitMix64(3))
        features = model.backbone(random_image(16, 16))
        with pytest.raises(ShapeError):
            model.instance_maps(features)

    def test_untrained_model_predicts_nothing(self):
        # category bias starts at -4.59, so scores sit near 0.01 while the
        # pre-NMS threshold is 0.1
        model = PanopticModel(tiny_cfg(), SplitMix64(4))
        scene = generate_scene(SceneConfig(height=16, width=16, seed=9))
        fused, pred = infer_panoptic(model, scene)
        assert len(pred) == 0
        assert not fused.instance.any()

    def test_scm_and_icm_paths_run(self):
        cfg = tiny_cfg(use_scm=True, use_icm=True)
        model = PanopticModel(cfg, SplitMix64(5))
        out = model.forward(random_image(16, 16))
        assert out.sem_logits.shape == (4, 4, cfg.k_total)
        assert out.cate_logits.shape == (2, 2, cfg.k_thing)
        names = model.parameters()
        assert any(n.startswith("scm") for n in names)
        assert any(n.startswith("icm") for n in names)

    def test_parameter_tensors_are_distinct(self):
        model = PanopticModel(tiny_cfg(use_scm=True, use_icm=True), SplitMix64(6))
        params = list(model.parameters().values())
        assert len({id(p) for p in params}) == len(params)

    def test_icm_parameter_names_order_and_seeding(self):
        # Checkpoint entry names and the optimizer's parameter order both
        # come from this dict, so the ICM entries must not move.
        params = PanopticModel(ModelConfig(use_icm=True), SplitMix64(7)).parameters()
        icm_names = [name for name in params if name.startswith("icm.")]
        assert icm_names == [
            "icm.pre_conv", "icm.pre_bias", "icm.hor_head", "icm.hor_bias",
            "icm.ver_head", "icm.ver_bias", "icm.feat_proj", "icm.corr_proj",
        ]
        assert list(params)[-len(icm_names):] == icm_names
        twin = PanopticModel(ModelConfig(use_icm=True), SplitMix64(7)).parameters()
        assert list(twin) == list(params)
        for name, param in params.items():
            np.testing.assert_array_equal(twin[name].data, param.data)


class TestDecode:
    def cfg(self):
        return tiny_cfg(grid_size=2, k_thing=3)

    def test_all_negative_logits_empty(self):
        cate = np.full((2, 2, 3), -10.0)
        masks = np.zeros((4, 4, 4))
        pred = decode_instances(cate, masks, self.cfg())
        assert len(pred) == 0
        assert pred.masks.shape == (0, 16, 16) and pred.masks.dtype == bool
        assert pred.categories.shape == pred.scores.shape == (0,)

    def test_threshold_excludes_scores_at_or_below(self):
        cfg = self.cfg()
        logit = np.log(cfg.pre_nms_score / (1 - cfg.pre_nms_score))
        cate = np.full((2, 2, 3), -10.0)
        cate[0, 0, 0] = logit - 1e-6
        assert len(decode_instances(cate, np.zeros((4, 4, 4)), cfg)) == 0
        cate[0, 0, 0] = logit + 1e-4
        assert len(decode_instances(cate, np.zeros((4, 4, 4)), cfg)) == 1

    def test_ordering_by_score_then_cell(self):
        cate = np.full((2, 2, 3), -10.0)
        cate[0, 0, 1] = 1.0
        cate[1, 1, 0] = 2.0
        cate[0, 1, 2] = 1.0  # ties with cell 0 on score, higher cell index
        pred = decode_instances(cate, np.zeros((4, 4, 4)), self.cfg())
        assert list(pred.categories) == [0, 1, 2]
        assert pred.scores[0] > pred.scores[1] == pred.scores[2]

    def test_each_mask_comes_from_its_cell(self):
        cate = np.full((2, 2, 3), -10.0)
        cate[1, 1, 0] = 2.0  # cell 3 first
        cate[0, 0, 1] = 1.0  # then cell 0
        cate[0, 1, 2] = 1.0  # then cell 1 (tie broken by cell index)
        mask_logits = SplitMix64(9).uniform_array((4, 4, 4), -3.0, 3.0)
        pred = decode_instances(cate, mask_logits, self.cfg())
        for mask, cell in zip(pred.masks, [3, 0, 1]):
            want = upsample_bilinear(ad.stable_sigmoid(mask_logits[cell]), STRIDE) > 0.5
            assert np.array_equal(mask, want)

    def test_masks_are_thresholded_at_image_scale(self):
        rng = SplitMix64(7)
        cate = np.full((2, 2, 3), 3.0)
        masks = rng.uniform_array((4, 4, 4)) * 8 - 4
        pred = decode_instances(cate, masks, self.cfg())
        assert len(pred) == 12
        assert pred.masks.shape == (12, 16, 16) and pred.masks.dtype == bool
        probs = upsample_bilinear(ad.stable_sigmoid(masks), STRIDE)
        np.testing.assert_array_equal(pred.masks, np.repeat(probs, 3, axis=0) > 0.5)

    def test_g1_cardinality_bound(self):
        cfg = tiny_cfg(grid_size=1, k_thing=3)
        cate = np.full((1, 1, 3), 5.0)
        pred = decode_instances(cate, np.zeros((1, 4, 4)), cfg)
        assert len(pred) == cfg.k_thing


class TestUpsample:
    def test_nearest_repeats_blocks(self):
        arr = np.array([[1, 2], [3, 4]])
        up = upsample_nearest(arr, 2)
        assert up.shape == (4, 4)
        assert np.array_equal(up[:2, :2], np.ones((2, 2)))
        assert np.array_equal(up[2:, 2:], np.full((2, 2), 4))

    def test_bilinear_constant_stays_constant(self):
        up = upsample_bilinear(np.full((3, 5), 0.7), 4)
        assert up.shape == (12, 20)
        np.testing.assert_allclose(up, 0.7)

    def test_bilinear_vertical_ramp(self):
        arr = np.array([[0.0], [1.0]])
        up = upsample_bilinear(arr, 2)
        np.testing.assert_allclose(up[:, 0], [0.0, 0.25, 0.75, 1.0])

    def test_bilinear_edges_clamp_to_corners(self):
        arr = np.array([[1.0, 2.0], [3.0, 4.0]])
        up = upsample_bilinear(arr, 4)
        assert up[0, 0] == 1.0 and up[0, -1] == 2.0
        assert up[-1, 0] == 3.0 and up[-1, -1] == 4.0

    @pytest.mark.parametrize("n", [1, 5])
    def test_bilinear_stack_equals_per_slice_calls(self, n):
        stack = SplitMix64(11).uniform_array((n, 3, 5), -4.0, 4.0)
        up = upsample_bilinear(stack, 4)
        assert up.shape == (n, 12, 20)
        want = np.stack([upsample_bilinear(stack[i], 4) for i in range(n)])
        assert np.array_equal(up, want)

    def test_bilinear_matches_per_pixel_formula(self):
        # Reference: every output pixel blends its four clamped neighbours
        # with the same products and sums, in the same order.
        arr = SplitMix64(12).uniform_array((3, 4), 0.0, 1.0)
        factor = 3
        up = upsample_bilinear(arr, factor)
        for r in range(3 * factor):
            for c in range(4 * factor):
                y = (r + 0.5) / factor - 0.5
                x = (c + 0.5) / factor - 0.5
                y0, x0 = int(np.floor(y)), int(np.floor(x))
                wy, wx = y - np.floor(y), x - np.floor(x)
                ya, yb = min(max(y0, 0), 2), min(max(y0 + 1, 0), 2)
                xa, xb = min(max(x0, 0), 3), min(max(x0 + 1, 0), 3)
                top = arr[ya, xa] * (1.0 - wx) + arr[ya, xb] * wx
                bottom = arr[yb, xa] * (1.0 - wx) + arr[yb, xb] * wx
                assert up[r, c] == top * (1.0 - wy) + bottom * wy, (r, c)

    def test_bilinear_stays_within_input_range(self):
        rng = SplitMix64(5)
        arr = rng.uniform_array((6, 7), 0.0, 1.0)
        up = upsample_bilinear(arr, 4)
        assert up.min() >= arr.min() - 1e-12
        assert up.max() <= arr.max() + 1e-12


class TestPredictionContainer:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            InstancePrediction(masks=np.zeros((1, 2, 2), dtype=bool),
                               categories=np.zeros(0, dtype=np.int64),
                               scores=np.array([0.5]))
