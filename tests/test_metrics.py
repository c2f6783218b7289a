"""Panoptic-quality metric against analytic cases and a brute-force matcher."""

import numpy as np
import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from corrseg import metrics
from corrseg.errors import ShapeError
from corrseg.metrics import PqAccumulator
from corrseg.postprocess import PanopticSegmentation
from corrseg.rng import SplitMix64
from corrseg.synth import SceneConfig, generate_scene
from corrseg.train import scene_to_panoptic
from oracles import compute_pq, segments_by_sort


def pan(category, instance):
    return PanopticSegmentation(
        category=np.asarray(category, dtype=np.int64),
        instance=np.asarray(instance, dtype=np.int64),
    )


def brute_force_pq(pred, gt, k_thing=3):
    """Independent matcher: enumerate every segment pair with python loops."""

    def segments(p):
        out = {}
        h, w = p.category.shape
        for r in range(h):
            for c in range(w):
                cat = int(p.category[r, c])
                if cat == -1:
                    continue
                out.setdefault((cat, int(p.instance[r, c])), set()).add((r, c))
        return out

    gt_segs = segments(gt)
    pred_segs = segments(pred)
    matches = {}
    for gk, gpix in gt_segs.items():
        for pk, ppix in pred_segs.items():
            if gk[0] != pk[0]:
                continue
            inter = len(gpix & ppix)
            union = len(gpix | ppix)
            iou = inter / union
            if iou > 0.5:
                assert gk not in matches
                matches[gk] = (pk, iou)

    classes = sorted(
        {k[0] for k in gt_segs} | {k[0] for k in pred_segs}
    )
    matched_pred = {v[0] for v in matches.values()}
    stats = {}
    for cls in classes:
        ious = sorted(
            (iou for gk, (pk, iou) in matches.items() if gk[0] == cls),
            reverse=True,
        )
        tp = len(ious)
        fn = sum(1 for k in gt_segs if k[0] == cls and k not in matches)
        fp = sum(
            1 for k in pred_segs if k[0] == cls and k not in matched_pred
        )
        sq = sum(ious) / tp if tp else 0.0
        denom = tp + 0.5 * fp + 0.5 * fn
        rq = tp / denom if denom else 0.0
        stats[cls] = (sq, rq, sq * rq)

    def mean(vals):
        vals = list(vals)
        return sum(vals) / len(vals) if vals else 0.0

    return {
        "pq": mean(s[2] for s in stats.values()),
        "sq": mean(s[0] for s in stats.values()),
        "rq": mean(s[1] for s in stats.values()),
        "pq_th": mean(s[2] for c, s in stats.items() if c < k_thing),
        "pq_st": mean(s[2] for c, s in stats.items() if c >= k_thing),
        "per_class": stats,
    }


def random_panoptic(rng, h, w):
    category = np.empty((h, w), dtype=np.int64)
    instance = np.zeros((h, w), dtype=np.int64)
    for r in range(h):
        for c in range(w):
            category[r, c] = rng.randint(7) - 1  # -1 .. 5
            if 0 <= category[r, c] < 3:
                instance[r, c] = rng.randint(3)
    return pan(category, instance)


class TestAnalyticCases:
    def test_perfect_prediction(self):
        category = np.array([[0, 0, 3, 3], [1, 1, 3, 3]])
        instance = np.array([[1, 1, 0, 0], [2, 2, 0, 0]])
        gt = pan(category, instance)
        result = compute_pq(pan(category.copy(), instance.copy()), gt)
        assert result.pq == 1.0
        assert result.sq == 1.0
        assert result.rq == 1.0
        assert result.pq_things == 1.0
        assert result.pq_stuff == 1.0

    def test_iou_exactly_half_is_unmatched(self):
        gt_cat = np.full((4, 4), -1, dtype=np.int64)
        gt_cat[0:2, 0] = 0
        gt = pan(gt_cat, (gt_cat == 0).astype(np.int64))
        pred_cat = np.full((4, 4), -1, dtype=np.int64)
        pred_cat[0, 0] = 0  # half the GT: inter 1, union 2
        pred = pan(pred_cat, (pred_cat == 0).astype(np.int64))
        result = compute_pq(pred, gt)
        assert result.pq == 0.0
        assert result.per_class[0].tp == 0
        assert result.per_class[0].fp == 1
        assert result.per_class[0].fn == 1

    def test_iou_point_eight_pair(self):
        gt_cat = np.full((5, 5), -1, dtype=np.int64)
        gt_cat[0, 0:4] = 0
        gt = pan(gt_cat, (gt_cat == 0).astype(np.int64))
        pred_cat = np.full((5, 5), -1, dtype=np.int64)
        pred_cat[0, 0:5] = 0  # inter 4, union 5
        pred = pan(pred_cat, (pred_cat == 0).astype(np.int64))
        result = compute_pq(pred, gt)
        assert result.sq == 4 / 5
        assert result.rq == 1.0
        assert result.pq == 4 / 5


class TestProperties:
    def test_bounds_and_product_identity(self):
        rng = SplitMix64(17)
        for _ in range(10):
            pred = random_panoptic(rng, 8, 8)
            gt = random_panoptic(rng, 8, 8)
            result = compute_pq(pred, gt)
            for cls, s in result.per_class.items():
                assert 0.0 <= s.sq <= 1.0
                assert 0.0 <= s.rq <= 1.0
                assert s.pq == s.sq * s.rq
            assert 0.0 <= result.pq <= 1.0

    def test_only_touched_classes_counted(self):
        cat = np.full((4, 4), -1, dtype=np.int64)
        cat[0, 0:3] = 4
        gt = pan(cat, np.zeros_like(cat))
        result = compute_pq(pan(cat.copy(), np.zeros_like(cat)), gt)
        assert set(result.per_class) == {4}
        assert result.pq_things == 0.0  # empty split
        assert result.pq_stuff == 1.0

    def test_mismatched_dims_rejected(self):
        a = pan(np.zeros((4, 4)), np.zeros((4, 4)))
        b = pan(np.zeros((4, 5)), np.zeros((4, 5)))
        with pytest.raises(ShapeError):
            compute_pq(a, b)


class TestAgainstBruteForce:
    def test_twenty_random_maps_match_exactly(self):
        rng = SplitMix64(23)
        for trial in range(20):
            pred = random_panoptic(rng, 9, 7)
            gt = random_panoptic(rng, 9, 7)
            got = compute_pq(pred, gt)
            want = brute_force_pq(pred, gt)
            assert got.pq == want["pq"], trial
            assert got.sq == want["sq"], trial
            assert got.rq == want["rq"], trial
            assert got.pq_things == want["pq_th"], trial
            assert got.pq_stuff == want["pq_st"], trial
            assert set(got.per_class) == set(want["per_class"]), trial
            for cls, s in got.per_class.items():
                sq, rq, pq = want["per_class"][cls]
                assert (s.sq, s.rq, s.pq) == (sq, rq, pq), (trial, cls)


# Non-contiguous ids, and ids far beyond the pixel count, so packed
# (category, instance) keys must not collide or overflow.
INSTANCE_IDS = st.sampled_from([1, 2, 5, 17, 1000, 2**31 - 1, 2**31 + 3, 2**40])


@st.composite
def labelings(draw, h, w):
    """Void (-1), things 0..2 with instance ids, stuff 3..5 with id 0;
    sometimes the whole map is a single segment."""
    if draw(st.booleans()):
        category = np.full((h, w), draw(st.integers(-1, 5)), dtype=np.int64)
    else:
        category = draw(hnp.arrays(np.int64, (h, w), elements=st.integers(-1, 5)))
    ids = draw(hnp.arrays(np.int64, (h, w), elements=INSTANCE_IDS))
    thing = (category >= 0) & (category < 3)
    return pan(category, np.where(thing, ids, 0))


@st.composite
def pred_gt_pairs(draw):
    h = draw(st.integers(1, 7))
    w = draw(st.integers(1, 7))
    gt = draw(labelings(h, w))
    other = draw(labelings(h, w))
    # Keep part of the ground truth so that some segments match.
    keep = draw(hnp.arrays(bool, (h, w)))
    pred = pan(np.where(keep, gt.category, other.category),
               np.where(keep, gt.instance, other.instance))
    return pred, gt


class TestPackedKeysAgainstBruteForce:
    @settings(max_examples=150, deadline=None)
    @given(pred_gt_pairs())
    def test_add_equals_brute_force(self, pair):
        pred, gt = pair
        acc = PqAccumulator()
        acc.add(pred, gt)
        got = acc.result()
        want = brute_force_pq(pred, gt)
        assert (got.pq, got.sq, got.rq, got.pq_things, got.pq_stuff) == (
            want["pq"], want["sq"], want["rq"], want["pq_th"], want["pq_st"])
        assert {c: (s.sq, s.rq, s.pq) for c, s in got.per_class.items()} == \
            want["per_class"]


def sorts_made(monkeypatch):
    """A list that grows by one on every np.unique call from here on."""
    calls = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(1) or unique(*a, **k))
    return calls


def assert_same_segments(got, want):
    (got_ids, got_cat, got_area), (want_ids, want_cat, want_area) = got, want
    for a, b in ((got_ids, want_ids), (got_cat, want_cat)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert got_area == want_area


class TestSegmentCounting:
    """_segments counts dense keys and sorts sparse ones; both give
    np.unique's result."""

    def test_dense_labelings_are_counted_not_sorted(self, monkeypatch):
        rng = SplitMix64(41)
        labelings = [random_panoptic(rng, 9, 7) for _ in range(20)]
        labelings += [scene_to_panoptic(generate_scene(SceneConfig(
            height=32, width=32, twin_mode=True, seed=seed))) for seed in range(3)]
        wants = [segments_by_sort(p) for p in labelings]
        sorts = sorts_made(monkeypatch)
        for labeling, want in zip(labelings, wants):
            assert_same_segments(metrics._segments(labeling), want)
        assert not sorts

    @settings(max_examples=100, deadline=None)
    @given(hnp.arrays(np.int64, st.integers(0, 40), elements=st.integers(-3, 60)))
    def test_keys_equal_np_unique(self, keys):
        want = np.unique(keys, return_inverse=True, return_counts=True)
        for got, expected in zip(metrics._unique(keys), want):
            assert got.dtype == expected.dtype and np.array_equal(got, expected)

    def test_sparse_ids_are_sorted(self, monkeypatch):
        labeling = pan([[0, 0], [1, 4]], [[1, 2**40], [2**31 + 3, 0]])
        want = segments_by_sort(labeling)
        sorts = sorts_made(monkeypatch)
        assert_same_segments(metrics._segments(labeling), want)
        assert sorts

    @pytest.mark.parametrize("sorted_", [True, False])
    def test_brute_force_pairs_reach_both_branches(self, monkeypatch, sorted_):
        """The strategy of TestPackedKeysAgainstBruteForce draws labelings
        that take each branch."""
        sorts = sorts_made(monkeypatch)

        def takes_branch(pair):
            before = len(sorts)
            metrics._segments(pair[1])
            return (len(sorts) > before) == sorted_

        # find raises NoSuchExample when no drawn pair takes the branch.
        find(pred_gt_pairs(), takes_branch, settings=settings(database=None))


class TestAccumulator:
    def test_pools_across_scenes(self):
        cat1 = np.full((4, 4), -1, dtype=np.int64)
        cat1[0:2, 0:2] = 0
        scene1 = pan(cat1, (cat1 == 0).astype(np.int64))

        cat2 = np.full((4, 4), -1, dtype=np.int64)
        cat2[1:3, 1:3] = 0
        scene2_pred = pan(cat2, (cat2 == 0).astype(np.int64))

        acc = PqAccumulator()
        acc.add(scene1, scene1)          # perfect match: tp=1, iou=1
        acc.add(scene2_pred, scene1)     # iou 4/... inter 1 union 7 -> miss
        result = acc.result()
        cls = result.per_class[0]
        assert cls.tp == 1 and cls.fp == 1 and cls.fn == 1
        assert result.rq == 1 / 2
        assert result.sq == 1.0
        assert result.pq == 0.5
