"""Loss-term values, target pooling, and gradient checks."""

import numpy as np
import pytest

from corrseg import autodiff as ad
from corrseg import losses
from corrseg.autodiff import Tensor
from corrseg.model import ModelConfig, ModelOutputs, PanopticModel
from corrseg.rng import SplitMix64
from corrseg.synth import SceneConfig, generate_scene
import oracles
from oracles import check_gradients

GRAD_TOL = 1e-4


def make_scene(seed=3, **overrides):
    return generate_scene(SceneConfig(seed=seed, **overrides))


def make_outputs(scene, cfg, seed=1):
    rng = SplitMix64(seed)
    hf, wf = scene.height // 4, scene.width // 4
    g = cfg.grid_size
    return ModelOutputs(
        sem_logits=Tensor(rng.uniform_array((hf, wf, cfg.k_total)) * 2 - 1),
        cate_logits=Tensor(rng.uniform_array((g, g, cfg.k_thing)) * 2 - 1),
        mask_logits=Tensor(rng.uniform_array((g * g, hf, wf)) * 2 - 1),
    )


class TestDice:
    def test_exact_match_is_zero(self):
        target = np.zeros((4, 4))
        target[1:3, 1:3] = 1.0
        assert losses.dice_loss(Tensor(target), target).item() == pytest.approx(0.0)

    def test_empty_everything_is_zero(self):
        loss = losses.dice_loss(Tensor(np.zeros((4, 4))), np.zeros((4, 4)))
        assert loss.item() == pytest.approx(0.0)

    def test_disjoint_near_one(self):
        pred = np.zeros((4, 4))
        pred[0, :] = 1.0
        target = np.zeros((4, 4))
        target[3, :] = 1.0
        loss = losses.dice_loss(Tensor(pred), target)
        assert loss.item() == pytest.approx(1.0 - 1.0 / 9.0)

    def test_matches_formula_on_soft_prediction(self):
        rng = SplitMix64(11)
        p = rng.uniform_array((5, 5))
        t = (rng.uniform_array((5, 5)) > 0.5).astype(float)
        inter = (p * t).sum()
        expected = 1 - (2 * inter + 1) / ((p * p).sum() + (t * t).sum() + 1)
        assert losses.dice_loss(Tensor(p), t).item() == pytest.approx(expected, rel=1e-12)

    def test_stack_gives_one_term_per_mask(self):
        rng = SplitMix64(12)
        p = rng.uniform_array((3, 4, 5))
        t = rng.uniform_array((3, 4, 5)) > 0.5
        batched = losses.dice_loss(Tensor(p), t).data
        assert batched.shape == (3,)
        for i in range(3):
            assert batched[i] == pytest.approx(losses.dice_loss(Tensor(p[i]), t[i]).item(),
                                               rel=1e-15)


class TestFocal:
    def manual(self, logits, target, alpha=0.25):
        p = 1 / (1 + np.exp(-logits))
        pt = p * target + (1 - p) * (1 - target)
        at = alpha * target + (1 - alpha) * (1 - target)
        per = -at * (1 - pt) ** 2 * np.log(pt)
        return per.sum() / max(1.0, target.sum())

    def test_matches_manual_computation(self):
        rng = SplitMix64(5)
        logits = rng.uniform_array((6, 3)) * 6 - 3
        target = np.zeros((6, 3))
        target[0, 1] = 1.0
        target[4, 2] = 1.0
        got = losses.focal_loss(Tensor(logits), target).item()
        assert got == pytest.approx(self.manual(logits, target), rel=1e-10)

    def test_no_positives_normalizes_by_one(self):
        logits = np.full((4, 2), -3.0)
        target = np.zeros((4, 2))
        got = losses.focal_loss(Tensor(logits), target).item()
        assert got == pytest.approx(self.manual(logits, target), rel=1e-10)

    def test_confident_correct_is_small(self):
        logits = np.full((2, 2), -20.0)
        logits[0, 0] = 20.0
        target = np.zeros((2, 2))
        target[0, 0] = 1.0
        assert losses.focal_loss(Tensor(logits), target).item() < 1e-8


class TestCrossEntropy:
    def test_uniform_logits_give_log_k(self):
        logits = Tensor(np.zeros((5, 4)))
        got = losses.cross_entropy(logits, np.array([0, 1, 2, 3, 0]))
        assert got.item() == pytest.approx(np.log(4))

    def test_confident_correct_near_zero(self):
        ids = np.array([2, 0])
        logits = np.full((2, 3), -30.0)
        logits[np.arange(2), ids] = 30.0
        assert losses.cross_entropy(Tensor(logits), ids).item() < 1e-12


def value_and_grad(loss_fn, logits, target, through_sigmoid=False):
    """Loss value and d(sum of the loss)/d(logits)."""
    x = Tensor(logits, requires_grad=True)
    out = loss_fn(ad.sigmoid(x) if through_sigmoid else x, target)
    ad.tsum(out).backward()
    return out.data, x.grad


def assert_matches_composed(name, logits, target, through_sigmoid=False):
    """Fused node against its composed-graph oracle: the value bit for
    bit, the gradient within 1e-12 of the oracle gradient's largest
    entry (at saturated logits the oracle's p(1 - p) rounds to 0 where
    the closed form keeps p q, so entrywise ratios mean nothing)."""
    got_value, got_grad = value_and_grad(getattr(losses, name), logits, target,
                                         through_sigmoid)
    want_value, want_grad = value_and_grad(getattr(oracles, name), logits, target,
                                           through_sigmoid)
    assert np.array_equal(got_value, want_value)
    assert np.abs(got_grad - want_grad).max() <= 1e-12 * np.abs(want_grad).max()


def random_logits(shape, seed, extreme=False):
    rng = SplitMix64(seed)
    if extreme:
        return np.where(rng.uniform_array(shape) < 0.5, -40.0, 40.0)
    return rng.uniform_array(shape) * 8 - 4


class TestFusedLossesMatchComposedOracles:
    @pytest.mark.parametrize("extreme", [False, True])
    def test_dice(self, extreme):
        target = SplitMix64(61).uniform_array((6, 5)) > 0.5
        assert_matches_composed("dice_loss", random_logits((6, 5), 62, extreme), target,
                                through_sigmoid=True)

    def test_dice_on_raw_prediction(self):
        pred = SplitMix64(63).uniform_array((4, 7))
        target = SplitMix64(64).uniform_array((4, 7)) > 0.3
        assert_matches_composed("dice_loss", pred, target)

    @pytest.mark.parametrize("extreme", [False, True])
    def test_dice_stack(self, extreme):
        target = SplitMix64(65).uniform_array((3, 4, 5)) > 0.5
        assert_matches_composed("dice_loss", random_logits((3, 4, 5), 66, extreme),
                                target, through_sigmoid=True)

    def test_dice_all_empty_targets(self):
        target = np.zeros((3, 4, 4), dtype=bool)
        assert_matches_composed("dice_loss", random_logits((3, 4, 4), 67), target,
                                through_sigmoid=True)

    @pytest.mark.parametrize("extreme", [False, True])
    def test_focal(self, extreme):
        target = np.zeros((16, 3))
        target[[1, 4, 9, 15], [0, 2, 1, 2]] = 1.0
        assert_matches_composed("focal_loss", random_logits((16, 3), 68, extreme), target)

    @pytest.mark.parametrize("extreme", [False, True])
    def test_focal_no_positives(self, extreme):
        assert_matches_composed("focal_loss", random_logits((16, 3), 69, extreme),
                                np.zeros((16, 3)))

    @pytest.mark.parametrize("extreme", [False, True])
    def test_cross_entropy(self, extreme):
        ids = (SplitMix64(70).uniform_array((4, 5)) * 3).astype(int)
        assert_matches_composed("cross_entropy", random_logits((4, 5, 3), 71, extreme), ids)


class TestTargets:
    def test_downsample_mask_majority_rule(self):
        mask = np.zeros((8, 8), dtype=bool)
        mask[0:4, 0:4] = True          # full block
        mask[0:4, 4:6] = True          # half block: 8/16 pixels, not > 0.5
        mask[4:8, 0:3] = True          # 12/16 pixels
        down = losses.downsample_mask(mask)
        assert down.shape == (2, 2)
        assert down[0, 0] and down[1, 0]
        assert not down[0, 1] and not down[1, 1]

    def test_downsample_semantic_takes_block_centers(self):
        semantic = np.arange(64).reshape(8, 8)
        down = losses.downsample_semantic(semantic)
        assert down.shape == (2, 2)
        assert down[0, 0] == semantic[2, 2]
        assert down[1, 1] == semantic[6, 6]

    def test_assignment_uses_centroid_cell(self):
        scene = make_scene()
        g = 4
        for cell, category, target in losses.assign_instances_to_cells(scene, g):
            assert 0 <= cell < g * g
            assert target.shape == (scene.height // 4, scene.width // 4)

    def test_collision_keeps_first(self):
        scene = make_scene()
        # force every instance into one cell by using a 1x1 grid
        assigned = losses.assign_instances_to_cells(scene, 1)
        assert len(assigned) == 1
        assert assigned[0][0] == 0
        assert assigned[0][1] == scene.categories[0]


class TestTotalLoss:
    def cfg(self):
        return ModelConfig(channels=6, n_fourier=2, s_ref=2, grid_size=2)

    def test_perfect_predictions_score_near_zero(self):
        scene = make_scene(seed=8)
        cfg = self.cfg()
        hf, wf = scene.height // 4, scene.width // 4
        g = cfg.grid_size

        sem_target = losses.downsample_semantic(scene.semantic)
        sem = np.full((hf, wf, cfg.k_total), -40.0)
        for k in range(cfg.k_total):
            sem[..., k][sem_target == k] = 40.0

        cate = np.full((g, g, cfg.k_thing), -40.0)
        masks = np.full((g * g, hf, wf), -40.0)
        for cell, category, target in losses.assign_instances_to_cells(scene, g):
            cate[cell // g, cell % g, category] = 40.0
            masks[cell][target] = 40.0

        outputs = ModelOutputs(
            sem_logits=Tensor(sem), cate_logits=Tensor(cate),
            mask_logits=Tensor(masks),
        )
        assert losses.total_loss(outputs, scene, cfg).item() < 1e-6

    def test_empty_instances_zero_mask_gradient(self):
        scene = make_scene(seed=4, min_things=0, max_things=0)
        assert not scene.categories
        cfg = self.cfg()
        model = PanopticModel(cfg, SplitMix64(3))
        out = model.forward(Tensor(scene.image))
        assigned = losses.assign_instances_to_cells(scene, cfg.grid_size)
        assert losses.mask_loss(out.mask_logits, assigned).item() == 0.0
        loss = losses.total_loss(out, scene, cfg)
        loss.backward()
        params = model.parameters()
        for name in ("mask_conv0", "mask_conv0_bias", "mask_conv1",
                     "mask_conv1_bias", "kernel_head", "kernel_bias"):
            p = params[name]
            assert p.grad is None or np.all(p.grad == 0.0), name

    def test_semantic_shape_mismatch_rejected(self):
        scene = make_scene(seed=2)
        cfg = self.cfg()
        outputs = make_outputs(scene, cfg)
        bad = ModelOutputs(
            sem_logits=Tensor(np.zeros((3, 3, cfg.k_total))),
            cate_logits=outputs.cate_logits,
            mask_logits=outputs.mask_logits,
        )
        with pytest.raises(ValueError):
            losses.sem_loss(bad, scene)


class TestGradients:
    """Finite-difference checks for every loss term."""

    def setup_method(self):
        self.scene = make_scene(seed=21, height=16, width=16,
                                min_things=1, max_things=2)
        self.cfg = ModelConfig(channels=4, n_fourier=2, s_ref=2, grid_size=2)
        self.hf = self.scene.height // 4
        self.wf = self.scene.width // 4

    def test_dice_gradient(self):
        target = np.zeros((4, 4))
        target[1:3, 1:3] = 1.0
        rng = SplitMix64(31)
        x = rng.uniform_array((4, 4)) * 4 - 2

        def f(t):
            return losses.dice_loss(ad.sigmoid(t), target)

        assert check_gradients(f, Tensor(x, requires_grad=True)) < GRAD_TOL

    def test_focal_gradient(self):
        target = np.zeros((4, 3))
        target[1, 2] = 1.0
        rng = SplitMix64(32)
        x = rng.uniform_array((4, 3)) * 4 - 2

        def f(t):
            return losses.focal_loss(t, target)

        assert check_gradients(f, Tensor(x, requires_grad=True)) < GRAD_TOL

    def test_cross_entropy_gradient(self):
        ids = np.array([0, 2, 1])
        rng = SplitMix64(33)
        x = rng.uniform_array((3, 3)) * 4 - 2

        def f(t):
            return losses.cross_entropy(t, ids)

        assert check_gradients(f, Tensor(x, requires_grad=True)) < GRAD_TOL

    def test_mask_term_gradient(self):
        rng = SplitMix64(34)
        x = rng.uniform_array((4, self.hf, self.wf)) * 2 - 1
        assigned = losses.assign_instances_to_cells(self.scene, self.cfg.grid_size)
        assert len(assigned) >= 2

        def f(t):
            return losses.mask_loss(t, assigned)

        assert check_gradients(f, Tensor(x, requires_grad=True)) < GRAD_TOL

    def test_cate_term_gradient(self):
        rng = SplitMix64(35)
        x = rng.uniform_array((2, 2, self.cfg.k_thing)) * 2 - 1
        assigned = losses.assign_instances_to_cells(self.scene, self.cfg.grid_size)

        def f(t):
            return losses.cate_loss(t, assigned)

        assert check_gradients(f, Tensor(x, requires_grad=True)) < GRAD_TOL

    def test_sem_term_gradient(self):
        rng = SplitMix64(36)
        x = rng.uniform_array((self.hf, self.wf, self.cfg.k_total)) * 2 - 1
        cate = Tensor(np.zeros((2, 2, self.cfg.k_thing)))
        masks = Tensor(np.zeros((4, self.hf, self.wf)))

        def f(t):
            out = ModelOutputs(sem_logits=t, cate_logits=cate, mask_logits=masks)
            return losses.sem_loss(out, self.scene)

        assert check_gradients(f, Tensor(x, requires_grad=True)) < GRAD_TOL
