"""Stage micro-runs, timed from outside, and MAC counts computed from shapes.

Each stage calls one public corrseg function on inputs of the shapes a
workload uses, then runs backward from a scalar made of its output, so
forward and backward time are measured per stage without any tracing
inside the program.  MACs come from the shapes alone, never from a
counter kept by the program.
"""

from __future__ import annotations

import time
from statistics import median
from typing import Callable, Dict, List, Tuple

import numpy as np

from corrseg import autodiff as ad
from corrseg import icm, losses, scm
from corrseg.autodiff import Tensor
from corrseg.corrfn import CorrParamField
from corrseg.model import ModelConfig, ModelOutputs, PanopticModel
from corrseg.rng import SplitMix64
from corrseg.synth import SceneConfig, generate_scene

STAGES = ("conv_stem1", "conv_stem2", "conv_feat3x3", "conv_sem_out",
          "conv_grid_head", "scm_predict_params", "scm_aggregate",
          "icm_forward", "total_loss")
STAGES_WITH_MACS = ("conv_stem1", "conv_stem2", "conv_feat3x3", "conv_sem_out",
                    "conv_grid_head", "scm_aggregate")


def conv_macs(out_shape, kernel_shape) -> int:
    """Multiply-accumulates of one conv2d: every output value, every tap."""
    ho, wo, cout = out_shape
    k, _, cin, _ = kernel_shape
    return ho * wo * k * k * cin * cout


def aggregation_macs(mode: str, h: int, w: int, c: int) -> int:
    """Weighted feature sums of one SCM aggregation (global or axial)."""
    if mode == "global":
        return (h * w) ** 2 * c
    return h * w * (h + w) * c


def check_mac_counter() -> None:
    """Compare the computed aggregation MACs with scm.aggregation_macs.

    The counter is module state that is expected to go away; while it
    exists, it must agree with the formula above.
    """
    counter = getattr(scm, "aggregation_macs", None)
    if counter is None:
        return
    rng = np.random.default_rng(0)
    for mode, (h, w, c) in (("axial", (8, 12, 4)), ("global", (8, 12, 4))):
        field = CorrParamField(hor=Tensor(rng.normal(size=(h, w, 7))),
                               ver=Tensor(rng.normal(size=(h, w, 7))))
        before = counter.value
        with ad.no_grad():
            scm.AGGREGATORS[mode](Tensor(rng.normal(size=(h, w, c))), field)
        counted = counter.value - before
        want = aggregation_macs(mode, h, w, c)
        if counted != want:
            raise RuntimeError(
                f"scm.aggregation_macs counted {counted} for {mode} {h}x{w}x{c}, "
                f"the shape formula gives {want}"
            )


def _leaf(rng: np.random.Generator, shape) -> Tensor:
    return Tensor(rng.normal(scale=0.5, size=shape), requires_grad=True)


def _build(side: int, scm_mode: str, seed: int) -> Dict[str, Tuple[Callable, List[Tensor], int]]:
    """stage name -> (forward thunk, leaf tensors, MACs per call).

    A thunk returns one output tensor or a tuple of them.
    """
    cfg = ModelConfig(use_scm=True, use_icm=True, scm_mode=scm_mode)
    c, k_out = cfg.channels, 2 * cfg.n_fourier + 1
    rng = np.random.default_rng(seed)
    hf = side // 4
    g = cfg.grid_size
    stages = {}

    def conv(name, h, cin, cout, k):
        x = _leaf(rng, (h, h, cin))
        kernel = _leaf(rng, (k, k, cin, cout))
        stages[name] = (lambda: ad.conv2d(x, kernel), [x, kernel],
                        conv_macs((h, h, cout), kernel.shape))

    conv("conv_stem1", side, 3, c, 3)
    conv("conv_stem2", side // 2, c, c, 3)
    conv("conv_feat3x3", hf, c, c, 3)
    conv("conv_sem_out", hf, c, cfg.k_total, 1)
    conv("conv_grid_head", g, c, c, 1)

    feats = _leaf(rng, (hf, hf, c))
    scm_weights = scm.ScmWeights.init(c, cfg.n_fourier, SplitMix64(seed))

    def predict():
        field = scm.predict_params(feats, scm_weights)
        return field.hor, field.ver

    stages["scm_predict_params"] = (
        predict, [feats, *scm_weights.parameters().values()], 0)
    field = CorrParamField(hor=_leaf(rng, (hf, hf, k_out)),
                           ver=_leaf(rng, (hf, hf, k_out)))
    stages["scm_aggregate"] = (
        lambda: scm.AGGREGATORS[scm_mode](feats, field),
        [feats, field.hor, field.ver], aggregation_macs(scm_mode, hf, hf, c))
    icm_weights = icm.IcmWeights.init(c, cfg.n_fourier, cfg.s_ref, SplitMix64(seed + 1))
    refs = icm.make_reference_grid(hf, hf, cfg.s_ref)
    stages["icm_forward"] = (lambda: icm.icm_forward(feats, icm_weights, refs),
                             [feats, *icm_weights.parameters().values()], 0)

    scene = generate_scene(SceneConfig(height=side, width=side, min_things=2,
                                       max_things=2, twin_mode=True, seed=seed))
    with ad.no_grad():
        out = PanopticModel(cfg, SplitMix64(seed)).forward(Tensor(scene.image))
    heads = ModelOutputs(*(Tensor(t.data, requires_grad=True)
                           for t in (out.sem_logits, out.cate_logits, out.mask_logits)))
    stages["total_loss"] = (lambda: losses.total_loss(heads, scene, cfg),
                            [heads.sem_logits, heads.cate_logits, heads.mask_logits], 0)
    return stages


def _scalar(outs, rng: np.random.Generator) -> Tensor:
    """A scalar that depends on every output value, to run backward from."""
    if len(outs) == 1 and outs[0].size == 1:
        return outs[0]
    total = None
    for out in outs:
        term = ad.tsum(ad.mul(out, Tensor(rng.normal(size=out.shape))))
        total = term if total is None else total + term
    return total


def run_stages(side: int, scm_mode: str, seed: int, budget_s: float,
               min_reps: int = 3, max_reps: int = 50) -> Dict[str, float]:
    """Median forward/backward ms per call of every stage, plus MACs."""
    stages = _build(side, scm_mode, seed)
    per_stage = budget_s / len(stages)
    metrics: Dict[str, float] = {}
    clock = time.perf_counter
    for name in STAGES:
        forward, leaves, macs = stages[name]
        probe_rng = np.random.default_rng(seed)
        fwd, bwd = [], []
        spent = 0.0
        while len(fwd) < max_reps and (len(fwd) < min_reps or spent < per_stage):
            for leaf in leaves:
                leaf.grad = None
            t0 = clock()
            outs = forward()
            t1 = clock()
            loss = _scalar(outs if isinstance(outs, tuple) else (outs,), probe_rng)
            t2 = clock()
            loss.backward()
            t3 = clock()
            fwd.append(t1 - t0)
            bwd.append(t3 - t2)
            spent += t3 - t0
        metrics[f"stage.{name}.fwd_ms"] = median(fwd) * 1e3
        metrics[f"stage.{name}.bwd_ms"] = median(bwd) * 1e3
        if name in STAGES_WITH_MACS:
            metrics[f"stage.{name}.macs"] = float(macs)
    return metrics
