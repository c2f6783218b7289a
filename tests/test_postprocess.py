"""Matrix NMS decay and panoptic fusion behavior."""

import math

import numpy as np
import pytest

from corrseg.errors import ShapeError
from corrseg.model import InstancePrediction, ModelConfig
from corrseg.postprocess import PanopticSegmentation, fuse_panoptic, matrix_nms
from corrseg.rng import SplitMix64

SIGMA = 2.0


def box_mask(h, w, r0, r1, c0, c1):
    m = np.zeros((h, w), dtype=bool)
    m[r0:r1, c0:c1] = True
    return m


def prediction(masks, categories, scores):
    """Stack per-instance bool masks and labels into one prediction."""
    return InstancePrediction(masks=np.stack(masks), categories=np.array(categories),
                              scores=np.array(scores, dtype=float))


def no_prediction(h, w):
    return InstancePrediction(masks=np.zeros((0, h, w), dtype=bool),
                              categories=np.zeros(0, dtype=np.int64), scores=np.zeros(0))


def iou_of(a, b):
    inter = (a & b).sum()
    union = a.sum() + b.sum() - inter
    return inter / union if union else 0.0


def decay_oracle(masks, categories, scores, sigma=SIGMA):
    """Direct per-pair decay computation in score order."""
    order = sorted(range(len(scores)), key=lambda i: -scores[i])
    masks = [masks[i] for i in order]
    categories = [categories[i] for i in order]
    scores = [scores[i] for i in order]
    n = len(scores)
    cmax = [0.0] * n
    for i in range(n):
        for k in range(i):
            if categories[k] == categories[i]:
                cmax[i] = max(cmax[i], iou_of(masks[k], masks[i]))
    out = []
    for j in range(n):
        decay = 1.0
        for i in range(j):
            if categories[i] != categories[j]:
                continue
            iou = iou_of(masks[i], masks[j])
            decay = min(decay, math.exp(-(iou**2 - cmax[i] ** 2) / sigma))
        out.append(scores[j] * decay)
    return out


class TestMatrixNms:
    def test_empty_input(self):
        pred = matrix_nms(no_prediction(8, 8))
        assert len(pred) == 0

    def test_single_mask_unchanged(self):
        pred = prediction([box_mask(8, 8, 0, 4, 0, 4)], [1], [0.7])
        out = matrix_nms(pred)
        assert list(out.scores) == [0.7]

    def test_identical_masks_lower_decays_strictly(self):
        m = box_mask(8, 8, 2, 6, 2, 6)
        pred = prediction([m, m.copy()], [0, 0], [0.9, 0.8])
        out = matrix_nms(pred)
        assert out.scores[0] == 0.9
        expected = 0.8 * math.exp(-1.0 / SIGMA)
        assert out.scores[1] == pytest.approx(expected, abs=1e-12)

    def test_different_categories_do_not_interact(self):
        m = box_mask(8, 8, 2, 6, 2, 6)
        pred = prediction([m, m.copy()], [0, 1], [0.9, 0.8])
        out = matrix_nms(pred)
        assert list(out.scores) == [0.9, 0.8]

    def test_three_mask_case_matches_oracle(self):
        masks = [
            box_mask(10, 10, 0, 6, 0, 6),
            box_mask(10, 10, 2, 8, 0, 6),
            box_mask(10, 10, 4, 10, 0, 6),
        ]
        cats = [2, 2, 2]
        scores = [0.9, 0.7, 0.5]
        out = matrix_nms(prediction(masks, cats, scores))
        expected = decay_oracle(masks, cats, scores)
        assert np.allclose(out.scores, expected, atol=1e-12)

    def test_random_cases_match_oracle_and_never_increase(self):
        rng = SplitMix64(99)
        for trial in range(25):
            n = 1 + rng.randint(5)
            masks, cats, scores = [], [], []
            for _ in range(n):
                r0 = rng.randint(6)
                c0 = rng.randint(6)
                masks.append(box_mask(10, 10, r0, r0 + 2 + rng.randint(4),
                                      c0, c0 + 2 + rng.randint(4)))
                cats.append(rng.randint(2))
                scores.append(0.05 + 0.9 * rng.next_double())
            pred = prediction(masks, cats, scores)
            out = matrix_nms(pred)
            expected = decay_oracle(masks, cats, scores)
            assert np.allclose(out.scores, expected, atol=1e-12), trial
            ranked = sorted(scores, reverse=True)
            for got, incoming in zip(out.scores, ranked):
                assert got <= incoming + 1e-15

    def test_output_sorted_by_incoming_score(self):
        masks = [box_mask(8, 8, 0, 2, 0, 2), box_mask(8, 8, 4, 6, 4, 6)]
        pred = prediction(masks, [0, 1], [0.4, 0.8])
        out = matrix_nms(pred)
        assert list(out.scores) == [0.8, 0.4]
        assert list(out.categories) == [1, 0]
        np.testing.assert_array_equal(out.masks, [masks[1], masks[0]])


def fusion_cfg(**overrides):
    defaults = dict(channels=4, n_fourier=2, s_ref=2, grid_size=2)
    defaults.update(overrides)
    return ModelConfig(**defaults)


class TestFusePanoptic:
    def test_no_instances_keeps_semantic_with_small_stuff_removed(self):
        cfg = fusion_cfg()
        semantic = np.full((20, 20), 3, dtype=np.int64)
        semantic[0, :3] = 4  # 3 pixels < stuff_min_area * 400 = 4
        semantic[1, :4] = 5  # 4 pixels are enough
        fused = fuse_panoptic(no_prediction(20, 20), semantic, cfg)
        assert np.all(fused.instance == 0)
        assert np.all(fused.category[semantic == 3] == 3)
        assert np.all(fused.category[semantic == 4] == -1)
        assert np.all(fused.category[semantic == 5] == 5)

    def test_higher_score_wins_overlap(self):
        cfg = fusion_cfg()
        semantic = np.full((8, 8), 3, dtype=np.int64)
        a = box_mask(8, 8, 0, 4, 0, 8)
        b = box_mask(8, 8, 2, 6, 0, 8)
        pred = prediction([a, b], [0, 1], [0.9, 0.8])
        fused = fuse_panoptic(pred, semantic, cfg)
        assert np.all(fused.category[0:4] == 0)
        assert np.all(fused.category[4:6] == 1)  # only the unclaimed remainder
        assert np.all(fused.instance[0:4] == 1)
        assert np.all(fused.instance[4:6] == 2)

    def test_painting_follows_score_not_input_order(self):
        cfg = fusion_cfg()
        semantic = np.full((8, 8), 3, dtype=np.int64)
        a = box_mask(8, 8, 0, 4, 0, 8)
        b = box_mask(8, 8, 2, 6, 0, 8)
        fused = fuse_panoptic(prediction([a, b], [0, 1], [0.8, 0.9]), semantic, cfg)
        assert np.all(fused.category[2:6] == 1)
        assert np.all(fused.category[0:2] == 0)
        assert np.all(fused.instance[2:6] == 1)

    def test_every_pixel_assigned_exactly_once(self):
        cfg = fusion_cfg()
        rng = SplitMix64(7)
        semantic = np.full((12, 12), 4, dtype=np.int64)
        masks = [box_mask(12, 12, rng.randint(8), 12, rng.randint(8), 12)
                 for _ in range(3)]
        pred = prediction(masks, [0, 1, 2], [0.9, 0.8, 0.7])
        fused = fuse_panoptic(pred, semantic, cfg)
        # instance pixels carry a thing class; everything else stuff or void
        thing = fused.instance > 0
        assert set(np.unique(fused.category[thing])) <= {0, 1, 2}
        assert np.all(fused.category[~thing] > 2) or np.all(
            np.isin(fused.category[~thing], [4])
        )

    def test_score_filter_is_strict(self):
        cfg = fusion_cfg()
        semantic = np.full((8, 8), 3, dtype=np.int64)
        m = box_mask(8, 8, 0, 4, 0, 4)
        at_threshold = prediction([m], [0], [cfg.post_nms_score])
        fused = fuse_panoptic(at_threshold, semantic, cfg)
        assert np.all(fused.instance == 0)

    def test_fully_shadowed_mask_gets_no_id(self):
        cfg = fusion_cfg()
        semantic = np.full((8, 8), 3, dtype=np.int64)
        big = box_mask(8, 8, 0, 6, 0, 6)
        inner = box_mask(8, 8, 1, 3, 1, 3)
        pred = prediction([big, inner], [0, 1], [0.9, 0.8])
        fused = fuse_panoptic(pred, semantic, cfg)
        assert set(np.unique(fused.instance)) == {0, 1}

    def test_unclaimed_thing_pixels_become_void(self):
        cfg = fusion_cfg()
        semantic = np.zeros((8, 8), dtype=np.int64)  # all thing class 0
        fused = fuse_panoptic(no_prediction(8, 8), semantic, cfg)
        assert np.all(fused.category == -1)
        assert np.all(fused.instance == 0)

    def test_mask_shape_mismatch_rejected(self):
        cfg = fusion_cfg()
        pred = prediction([box_mask(4, 4, 0, 2, 0, 2)], [0], [0.9])
        with pytest.raises(ShapeError):
            fuse_panoptic(pred, np.zeros((8, 8), dtype=np.int64), cfg)
        with pytest.raises(ShapeError):
            fuse_panoptic(no_prediction(4, 4), np.zeros((8, 8), dtype=np.int64), cfg)


class TestContainer:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            PanopticSegmentation(
                category=np.zeros((4, 4), dtype=np.int64),
                instance=np.zeros((4, 5), dtype=np.int64),
            )
