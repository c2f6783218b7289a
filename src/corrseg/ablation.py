"""Variant sweep over instance/semantic enhancement choices.

Each variant is one row of ``VARIANTS``; all share one dataset and training
schedule.  The comparison rows put other positional encoders in the instance
encoder slot; both slots take one duck type (``encode``, ``parameters``), so
the rest of the model is untouched.  The report CSV has one row per variant
with PQ aggregates and the training wall time.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, NumericsError
from .metrics import PQResult
from .model import ModelConfig, PanopticModel, check_scene_size
from .rng import SplitMix64
from .synth import SceneConfig, SyntheticScene, generate_scene
from .train import evaluate_scenes, fit, is_twin_scene

TRAIN_FRACTION = 0.8  # of the scenes, in order; the rest are held out

CSV_HEADER = ("variant", "pq", "sq", "rq", "pq_th", "pq_st", "twin_rate",
              "train_seconds")


class CoordsEncoder:
    """Concatenate normalized (x, y) channels, then mix back linearly.

    The mix is a bias-free 1x1 projection, the same combination rule the
    correlation encoder uses, so the only difference under test is the
    positional signal itself.
    """

    def __init__(self, channels: int, rng: SplitMix64):
        self.proj = ad.init_parameter(
            (1, 1, channels + 2, channels), channels + 2, rng
        )

    def encode(self, features: Tensor) -> Tensor:
        h, w = features.shape[0], features.shape[1]
        xs = np.broadcast_to((np.arange(w) + 0.5) * (2.0 / w) - 1.0, (h, w))
        ys = np.broadcast_to(((np.arange(h) + 0.5) * (2.0 / h) - 1.0)[:, None], (h, w))
        coords = Tensor(np.stack([xs, ys], axis=-1))
        return ad.conv2d(ad.concat([features, coords], axis=-1), self.proj)

    def parameters(self) -> Dict[str, Tensor]:
        return {"coords_proj": self.proj}


class SinusoidEncoder:
    """Add fixed sin/cos positional embeddings; no learned parameters.

    Channel 4k holds sin of x at frequency pi*2^k/W, 4k+1 the matching
    cos, 4k+2 and 4k+3 the same for y; channels past the last full group
    stay zero.
    """

    def __init__(self, channels: int):
        self.channels = channels

    def encode(self, features: Tensor) -> Tensor:
        h, w = features.shape[0], features.shape[1]
        if features.shape[2] != self.channels:
            raise ValueError(
                f"encoder built for {self.channels} channels, "
                f"got {features.shape[2]}"
            )
        emb = np.zeros((h, w, self.channels))
        xs = np.broadcast_to(np.arange(w, dtype=float), (h, w))
        ys = np.broadcast_to(np.arange(h, dtype=float)[:, None], (h, w))
        for k in range(self.channels // 4):
            fx = math.pi * (2.0**k) / w
            fy = math.pi * (2.0**k) / h
            emb[..., 4 * k] = np.sin(fx * xs)
            emb[..., 4 * k + 1] = np.cos(fx * xs)
            emb[..., 4 * k + 2] = np.sin(fy * ys)
            emb[..., 4 * k + 3] = np.cos(fy * ys)
        return features + Tensor(emb)

    def parameters(self) -> Dict[str, Tensor]:
        return {}


# name: (use_scm, use_icm, instance-slot comparator: None or f(cfg, rng) -> encoder).
# A comparator draws from rng before the model's own weights do.
VARIANTS = {
    "baseline": (False, False, None),  # no enhancement on either branch
    "scm": (True, False, None),  # semantic branch enhanced
    "icm": (False, True, None),  # instance branch enhanced
    "scm_icm": (True, True, None),  # both branches enhanced
    # coordinate channels + linear mix
    "coords": (False, False, lambda cfg, rng: CoordsEncoder(cfg.channels, rng)),
    # additive fixed sinusoidal embeddings
    "sinusoid": (False, False, lambda cfg, rng: SinusoidEncoder(cfg.channels)),
}


def variant_config(variant: str, base_cfg: ModelConfig) -> ModelConfig:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {tuple(VARIANTS)}")
    use_scm, use_icm, _ = VARIANTS[variant]
    return replace(base_cfg, use_scm=use_scm, use_icm=use_icm)


def check_variants_fit(base_cfg: ModelConfig, sizes: Iterable[Tuple[int, int]],
                       variants: Sequence[str] = tuple(VARIANTS)) -> None:
    """Raise ConfigError unless every variant's config fits every scene size."""
    for height, width in sizes:
        for variant in variants:
            check_scene_size(variant_config(variant, base_cfg), height, width)


def make_variant_model(
    variant: str, base_cfg: ModelConfig, seed: int
) -> PanopticModel:
    cfg = variant_config(variant, base_cfg)
    rng = SplitMix64(seed)
    comparator = VARIANTS[variant][2]
    encoder = comparator(cfg, rng) if comparator is not None else None
    return PanopticModel(cfg, rng, instance_encoder=encoder)


def make_twin_dataset(
    n_scenes: int, seed: int, scene_cfg: Optional[SceneConfig] = None
) -> List[SyntheticScene]:
    """Twin scenes from consecutive seeds, skipping rare placement failures.

    Every returned scene really contains both twins, so downstream
    detection-rate checks never see a degenerate scene.
    """
    base = scene_cfg or SceneConfig(twin_mode=True, min_things=2, max_things=2)
    scenes: List[SyntheticScene] = []
    offset = 0
    while len(scenes) < n_scenes:
        scene = generate_scene(replace(base, twin_mode=True, seed=seed + offset))
        offset += 1
        if is_twin_scene(scene):
            scenes.append(scene)
    return scenes


def split_scenes(scenes: Sequence) -> Tuple[list, list]:
    """(train, held-out) at TRAIN_FRACTION; ConfigError if either is empty."""
    split = int(len(scenes) * TRAIN_FRACTION)
    train, held_out = list(scenes[:split]), list(scenes[split:])
    if not train or not held_out:
        raise ConfigError(
            f"need a non-trivial split, got {len(train)} train / "
            f"{len(held_out)} held-out"
        )
    return train, held_out


def run_ablation(
    scenes: Sequence[SyntheticScene],
    base_cfg: ModelConfig,
    epochs: int,
    lr: float,
    seed: int = 0,
    out_path=None,
    variants: Sequence[str] = tuple(VARIANTS),
) -> List[Dict[str, object]]:
    """Train and evaluate each variant; returns one result dict per row.

    Every variant is trained by ``train.fit`` with the same ``lr`` and
    ``seed``, so they all train on the exact same sequence of augmented
    scenes; the comparison then isolates the architecture.  A variant
    whose training hits a non-finite loss is recorded as a row of NaNs
    and the sweep continues.
    """
    train_scenes, held_out = split_scenes(scenes)

    # A variant whose config does not fit the scenes fails here, before
    # any variant trains.
    check_variants_fit(base_cfg, {(scene.height, scene.width) for scene in scenes},
                       variants)

    rows: List[Dict[str, object]] = []
    for variant in variants:
        model = make_variant_model(variant, base_cfg, seed)
        start = time.perf_counter()
        try:
            fit(model, train_scenes, epochs, lr, seed)
        except NumericsError:
            rows.append(report_row(variant, None, float("nan"),
                                   time.perf_counter() - start))
            continue
        elapsed = time.perf_counter() - start
        result, twin_rate = evaluate_scenes(model, held_out)
        rows.append(report_row(variant, result, twin_rate, elapsed))

    if out_path is not None:
        write_report(out_path, rows)
    return rows


def report_row(variant: str, result: Optional[PQResult], twin_rate: float,
               seconds: float) -> Dict[str, object]:
    """One report row; a ``result`` of None (no model to score) gives NaNs."""
    scores = (float("nan"),) * 5 if result is None else (
        result.pq, result.sq, result.rq, result.pq_things, result.pq_stuff)
    return {"variant": variant,
            **dict(zip(("pq", "sq", "rq", "pq_th", "pq_st"), scores)),
            "twin_rate": twin_rate, "train_seconds": seconds}


def write_report(path, rows: List[Dict[str, object]]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow(
                [row["variant"]]
                + [f"{float(row[key]):.4f}" for key in CSV_HEADER[1:]]
            )
