"""Training loop behavior and evaluation plumbing."""

import tracemalloc

import numpy as np
import pytest

from corrseg import train as train_mod
from corrseg.errors import NumericsError
from corrseg.model import InstancePrediction, ModelConfig, PanopticModel
from corrseg.rng import SplitMix64
from corrseg.synth import SceneConfig, generate_scene
from corrseg.train import (
    evaluate_scenes,
    fit,
    flip_scene,
    infer_panoptic,
    is_twin_scene,
    make_optimizer,
    scene_to_panoptic,
    score_scenes,
    train_epoch,
    twins_covered,
)
from oracles import compute_pq


def smoke_scenes(count, seed=0, size=32, twin=False):
    return [
        generate_scene(SceneConfig(
            height=size, width=size, seed=seed + i, twin_mode=twin,
            min_things=1, max_things=2,
        ))
        for i in range(count)
    ]


def smoke_model(seed=1, **overrides):
    defaults = dict(channels=4, n_fourier=2, s_ref=2, grid_size=2)
    defaults.update(overrides)
    return PanopticModel(ModelConfig(**defaults), SplitMix64(seed))


class TestGroundTruthConversion:
    def test_instance_ids_follow_scene_order(self):
        scene = smoke_scenes(1, seed=5)[0]
        gt = scene_to_panoptic(scene)
        assert gt.category.shape == (32, 32)
        for k, (mask, category) in enumerate(scene.instances):
            assert np.all(gt.instance[mask] == k + 1)
            assert np.all(gt.category[mask] == category)
        background = gt.instance == 0
        assert np.all(gt.category[background] >= 3)

    def test_perfect_gt_evaluates_to_unity(self):
        scene = smoke_scenes(1, seed=6)[0]
        gt = scene_to_panoptic(scene)
        assert compute_pq(gt, gt).pq == 1.0


class TestTrainEpoch:
    def test_one_epoch_smoke(self):
        model = smoke_model()
        optimizer = make_optimizer(model, lr=0.05)
        loss = train_epoch(model, optimizer, smoke_scenes(4))
        assert np.isfinite(loss)

    def test_loss_decreases_on_fixed_batch(self):
        model = smoke_model(seed=3)
        optimizer = make_optimizer(model, lr=0.1)
        scenes = smoke_scenes(2, seed=40)
        first = train_epoch(model, optimizer, scenes)
        last = first
        for _ in range(9):
            last = train_epoch(model, optimizer, scenes)
        assert last < first

    def test_non_finite_loss_raises(self):
        model = smoke_model(seed=4)
        model.stem1.data[...] = np.inf
        optimizer = make_optimizer(model, lr=0.05)
        with np.errstate(invalid="ignore"), pytest.raises(NumericsError):
            train_epoch(model, optimizer, smoke_scenes(1))

    def test_no_scenes_rejected(self):
        model = smoke_model()
        with pytest.raises(ValueError):
            train_epoch(model, make_optimizer(model, lr=0.1), [])

    @pytest.mark.parametrize("skip_above", [None, 0.0])
    @pytest.mark.parametrize("scm_mode", ["axial", "global"])
    def test_peak_memory_is_one_step(self, scm_mode, skip_above):
        """Each step's graph is freed before the next forward, also when
        the update is rejected, so three steps peak where one does."""
        model = PanopticModel(ModelConfig(use_scm=True, use_icm=True, scm_mode=scm_mode),
                              SplitMix64(2))
        optimizer = make_optimizer(model, lr=0.01)
        scene = smoke_scenes(1, seed=3, size=64)[0]
        train_epoch(model, optimizer, [scene] * 2, skip_above=skip_above)  # warm-up
        peaks = []
        for count in (1, 3):
            tracemalloc.start()
            try:
                train_epoch(model, optimizer, [scene] * count, skip_above=skip_above)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 64 * 2**10, peaks


class TestFit:
    def scripted_epochs(self, monkeypatch, losses, fail_at=None):
        """Replace the module's train_epoch; record each call's arguments."""
        calls = []
        scripted = iter(losses)

        def fake_epoch(*args, **kwargs):
            model, optimizer, scenes = args
            rng = kwargs["augment_rng"]
            calls.append(dict(args=args, kwargs=kwargs, lr=optimizer.lr,
                              counter=rng.counter))
            if len(calls) - 1 == fail_at:
                raise NumericsError("scripted divergence")
            rng.next_double()  # one draw per epoch stands in for the flips
            return next(scripted)

        monkeypatch.setattr(train_mod, "train_epoch", fake_epoch)
        return calls

    def test_schedule(self, monkeypatch):
        losses = [2.0, 1.0, 50.0, 0.5, 0.25, 0.125, 0.0625, 0.5, 0.25, 0.125]
        calls = self.scripted_epochs(monkeypatch, losses)
        model, scenes = smoke_model(), smoke_scenes(1)
        seen = []
        result = fit(model, scenes, epochs=10, lr=0.2, seed=5,
                     on_epoch=lambda epoch, loss: seen.append((epoch, loss)))

        assert result == losses
        assert seen == list(enumerate(losses))
        for call in calls:
            assert len(call["args"]) == 3
            assert call["args"][0] is model
            assert call["args"][2] is scenes
            assert set(call["kwargs"]) == {"augment_rng", "skip_above"}
        # Spike rejection: none in epoch 0, then 10x the previous mean.
        assert [c["kwargs"]["skip_above"] for c in calls] == [
            None, 20.0, 10.0, 500.0, 5.0, 2.5, 1.25, 0.625, 5.0, 2.5]
        # int(0.75 * 10) == 7: the rate drops exactly there and stays down.
        assert [c["lr"] for c in calls] == [0.2] * 7 + [0.2 * 0.3] * 3
        # One optimizer and one augment stream, seeded seed + 1, run on
        # across epochs.
        assert len({id(c["args"][1]) for c in calls}) == 1
        rngs = [c["kwargs"]["augment_rng"] for c in calls]
        assert all(rng is rngs[0] for rng in rngs)
        assert rngs[0].seed == 6
        assert [c["counter"] for c in calls] == list(range(10))

    def test_divergence_propagates_after_finished_epochs(self, monkeypatch):
        self.scripted_epochs(monkeypatch, [3.0, 2.0], fail_at=2)
        seen = []
        with pytest.raises(NumericsError):
            fit(smoke_model(), smoke_scenes(1), epochs=4, lr=0.1, seed=0,
                on_epoch=lambda epoch, loss: seen.append(loss))
        assert seen == [3.0, 2.0]

    def test_one_shot_iterator_refused_before_training(self, monkeypatch):
        calls = self.scripted_epochs(monkeypatch, [3.0, 2.0])
        with pytest.raises(TypeError, match="re-iterable"):
            fit(smoke_model(), iter(smoke_scenes(1)), epochs=2, lr=0.1, seed=0)
        assert calls == []


class TestInference:
    def test_infer_panoptic_shapes(self):
        model = smoke_model(seed=7)
        scene = smoke_scenes(1, seed=9)[0]
        fused, pred = infer_panoptic(model, scene)
        assert fused.category.shape == (scene.height, scene.width)
        assert isinstance(pred, InstancePrediction)

    def test_evaluate_scenes_in_bounds(self):
        model = smoke_model(seed=8)
        result, rate = evaluate_scenes(model, smoke_scenes(2, seed=30))
        for value in (result.pq, result.sq, result.rq,
                      result.pq_things, result.pq_stuff):
            assert 0.0 <= value <= 1.0
        assert np.isnan(rate)  # no twin scenes

    def test_one_pass_per_scene_twin_rate_over_twin_scenes(self, monkeypatch):
        twins = [generate_scene(SceneConfig(
            height=32, width=32, twin_mode=True, seed=seed,
        )) for seed in (50, 52)]
        # Twin-mode scene 51 found no room for its second twin, so the
        # rate is over the other two.
        lone = generate_scene(SceneConfig(height=32, width=32, twin_mode=True, seed=51))
        scenes = smoke_scenes(2, seed=30) + twins + [lone]
        calls = []

        def perfect_on_first_twin(model, scene):
            calls.append(id(scene))
            fused, _ = infer_panoptic(model, scene)
            if scene is not twins[0]:
                return fused, truth_prediction(scene, keep=0)
            return fused, truth_prediction(scene)

        monkeypatch.setattr(train_mod, "infer_panoptic", perfect_on_first_twin)
        _, rate = evaluate_scenes(smoke_model(seed=8), scenes)
        assert calls == [id(scene) for scene in scenes]
        assert rate == 0.5

    def test_twin_check_runs_once_per_scene(self, monkeypatch):
        scenes = smoke_scenes(2, seed=30) + [generate_scene(SceneConfig(
            height=32, width=32, twin_mode=True, seed=seed)) for seed in (50, 51, 52)]
        checked = []

        def counting(scene):
            checked.append(id(scene))
            return is_twin_scene(scene)

        monkeypatch.setattr(train_mod, "is_twin_scene", counting)
        _, rate = score_scenes(scenes, lambda scene: (scene_to_panoptic(scene),
                                                      truth_prediction(scene)))
        assert checked == [id(scene) for scene in scenes]
        assert rate == 1.0


def truth_prediction(scene, keep=None, score=0.9, shift=0):
    """The first ``keep`` ground-truth instances as a prediction, with
    categories shifted by ``shift`` (mod 3) and one shared score."""
    instances = scene.instances[:keep]
    masks = np.zeros((len(instances), scene.height, scene.width), dtype=bool)
    for k, (mask, _) in enumerate(instances):
        masks[k] = mask
    return InstancePrediction(
        masks=masks,
        categories=np.array([(c + shift) % 3 for _, c in instances], dtype=np.int64),
        scores=np.full(len(instances), score),
    )


class TestTwinDetection:
    def twin_scene(self, seed=11):
        return generate_scene(SceneConfig(twin_mode=True, seed=seed))

    def test_perfect_predictions_cover_twins(self):
        scene = self.twin_scene()
        assert twins_covered(truth_prediction(scene), scene)

    def test_single_covering_mask_is_not_enough(self):
        scene = self.twin_scene()
        assert not twins_covered(truth_prediction(scene, keep=1), scene)

    def test_class_label_is_ignored(self):
        scene = self.twin_scene()
        assert twins_covered(truth_prediction(scene, shift=1), scene)

    def test_low_scores_filtered_out(self):
        scene = self.twin_scene()
        assert not twins_covered(truth_prediction(scene, score=0.2), scene)

    def test_iou_must_exceed_half(self):
        scene = self.twin_scene()
        ys, xs = np.nonzero(~(scene.instances[0][0] | scene.instances[1][0]))

        def grown(extra):
            """Each twin plus extra(area) pixels from outside both twins."""
            pred = truth_prediction(scene)
            for k in range(2):
                n = extra(int(pred.masks[k].sum()))
                pred.masks[k, ys[:n], xs[:n]] = True
            return pred

        assert not twins_covered(grown(lambda area: area), scene)  # IoU 1/2
        assert twins_covered(grown(lambda area: area - 1), scene)

    def test_non_twin_scene_rejected(self):
        scene = smoke_scenes(1)[0]
        pred = truth_prediction(scene, keep=0)
        with pytest.raises(ValueError):
            twins_covered(pred, scene)

    def test_flipped_twin_pair_is_still_a_pair(self):
        scene = self.twin_scene()
        assert is_twin_scene(scene)
        assert is_twin_scene(flip_scene(scene, horizontal=True, vertical=True))

    def test_lone_twin_is_not_a_pair(self):
        # The second twin found no room; a different thing of the same
        # category took its place as instance 1.
        scene = generate_scene(SceneConfig(height=32, width=32, twin_mode=True, seed=51))
        assert scene.meta["categories"] == "0,0"
        assert not is_twin_scene(scene)
        with pytest.raises(ValueError):
            twins_covered(truth_prediction(scene), scene)

    def test_untrained_rate_is_zero(self):
        model = smoke_model(seed=12)
        scenes = [generate_scene(SceneConfig(
            height=32, width=32, twin_mode=True, seed=50 + i,
        )) for i in range(3)]
        _, rate = evaluate_scenes(model, scenes)
        assert rate == 0.0
