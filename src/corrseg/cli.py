"""Command-line entry points: gen, train, eval, viz, and ablate.

Configuration is merged from three layers with fixed precedence: a
command-line flag beats a config-file entry, which beats the built-in
default.  Config files use the same ``key=value`` line format as scene
manifests; unknown keys are rejected.  Every command writes the fully
merged configuration to ``<out>/resolved.cfg`` in a fixed key order, so
any run can be reproduced by passing that file back via ``--config``.

Exit codes: 0 on success, 2 for usage or configuration errors, 3 for
malformed or missing data, 4 for a numerical failure during training.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import icm as icm_mod
from . import scm as scm_mod
from .ablation import make_twin_dataset, report_row, run_ablation, write_report
from .autodiff import no_grad
from .checkpoint import (
    load_checkpoint,
    load_model_state,
    model_state,
    save_checkpoint,
)
from .corrfn import corr_profile
from .errors import ConfigError, DataFormatError, NumericsError, ShapeError
from .metrics import PqAccumulator
from .model import InstancePrediction, ModelConfig, PanopticModel
from .rng import SplitMix64
from .synth import (
    SceneConfig,
    SyntheticScene,
    generate_scene,
    load_scene,
    parse_keyvalue,
    save_pgm,
    save_scene,
    scene_dir,
)
from .train import (
    evaluate_scenes,
    fit,
    is_twin_scene,
    scene_image,
    scene_to_panoptic,
    twin_rate,
    twins_covered,
)

_RUN_KEYS = (
    "seed", "train_seed", "epochs", "lr", "count", "scenes",
    "train_fraction", "out", "data", "checkpoint", "point", "branch",
    "oracle", "force",
)
_MODEL_KEYS = (
    "n_fourier", "s_ref", "lambda", "channels", "grid_size", "k_thing",
    "k_stuff", "pre_nms_score", "post_nms_score", "stuff_min_area",
    "nms_sigma", "use_scm", "use_icm", "scm_mode",
)
_SCENE_KEYS = (
    "height", "width", "min_things", "max_things", "shapes",
    "color_jitter", "stuff_bands", "twin_mode",
)
_KEY_ORDER = ("command",) + _RUN_KEYS + _MODEL_KEYS + _SCENE_KEYS

_INT_KEYS = frozenset({
    "seed", "train_seed", "epochs", "count", "scenes", "n_fourier", "s_ref",
    "channels", "grid_size", "k_thing", "k_stuff", "height", "width",
    "min_things", "max_things", "stuff_bands",
})
_FLOAT_KEYS = frozenset({
    "lr", "train_fraction", "lambda", "pre_nms_score", "post_nms_score",
    "stuff_min_area", "nms_sigma", "color_jitter",
})
_BOOL_KEYS = frozenset({"oracle", "force", "use_scm", "use_icm", "twin_mode"})

LOSS_CSV_HEADER = ("epoch", "loss")


def _defaults() -> Dict[str, object]:
    model = ModelConfig()
    scene = SceneConfig()
    merged: Dict[str, object] = {
        "command": None,
        "seed": None,
        "train_seed": 0,
        "epochs": 128,
        "lr": 0.01,
        "count": None,
        "scenes": 200,
        "train_fraction": 0.8,
        "out": None,
        "data": None,
        "checkpoint": None,
        "point": None,
        "branch": None,
        "oracle": False,
        "force": False,
    }
    for key in _MODEL_KEYS:
        merged[key] = getattr(model, "lambda_sem" if key == "lambda" else key)
    for key in _SCENE_KEYS:
        value = getattr(scene, key)
        merged[key] = ",".join(value) if key == "shapes" else value
    return merged


def _parse_bool(key: str, raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{key} expects a boolean (0/1/true/false), got {raw!r}")


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if raw == "":
        return None
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
    except ValueError:
        raise ConfigError(f"{key} expects a number, got {raw!r}") from None
    if key in _BOOL_KEYS:
        return _parse_bool(key, raw)
    return raw


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrseg",
        description="Synthetic panoptic-segmentation testbed with "
        "correlation-function feature enhancement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "gen": "generate a synthetic scene dataset",
        "train": "train a model on a generated dataset",
        "eval": "evaluate a checkpoint (or the oracle) on a dataset",
        "viz": "dump one location's predicted correlation map",
        "ablate": "run the six-variant comparison sweep",
    }
    for name, descr in commands.items():
        cmd = sub.add_parser(name, help=descr)
        cmd.add_argument("--config", help="key=value file merged below flags")
        cmd.add_argument("--out", help="output directory")
        cmd.add_argument("--data", help="dataset directory (from gen)")
        cmd.add_argument("--checkpoint", help="checkpoint file (from train)")
        cmd.add_argument("--seed", type=int, help="scene/dataset seed")
        cmd.add_argument("--train-seed", type=int,
                         help="weight-init and augmentation seed")
        cmd.add_argument("--epochs", type=int)
        cmd.add_argument("--lr", type=float)
        cmd.add_argument("--lambda", type=float, dest="lambda_sem",
                         help="semantic loss weight")
        cmd.add_argument("--n-fourier", type=int)
        cmd.add_argument("--s-ref", type=int)
        cmd.add_argument("--use-scm", action="store_const", const=True)
        cmd.add_argument("--use-icm", action="store_const", const=True)
        cmd.add_argument("--scm-mode", choices=("global", "axial"))
        cmd.add_argument("--force", action="store_const", const=True,
                         help="allow writing into a non-empty directory")
        cmd.add_argument("--count", type=int, help="number of scenes to generate")
        cmd.add_argument("--scenes", type=int, help="dataset size for ablate")
        cmd.add_argument("--train-fraction", type=float)
        cmd.add_argument("--point", help="feature-map x,y for viz")
        cmd.add_argument("--branch", choices=("scm", "icm"),
                         help="which parameter head viz should read")
        cmd.add_argument("--oracle", action="store_const", const=True,
                         help="eval ground truth against itself")
    return parser


def _merge(args: argparse.Namespace) -> Dict[str, object]:
    merged = _defaults()
    merged["command"] = args.command
    if args.config is not None:
        path = Path(args.config)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise DataFormatError(f"{path}: cannot read config: {exc}") from exc
        except UnicodeDecodeError:
            raise DataFormatError(f"{path}: config is not UTF-8") from None
        for key, raw in parse_keyvalue(text, str(path)).items():
            if key == "command":
                continue
            if key not in merged:
                raise ConfigError(f"{path}: unknown config key {key!r}")
            value = _parse_value(key, raw)
            if value is None and merged[key] is not None:
                raise ConfigError(f"{path}: {key} needs a value")
            merged[key] = value
    for key in _KEY_ORDER:
        if key == "command":
            continue
        value = getattr(args, "lambda_sem" if key == "lambda" else key, None)
        if value is not None:
            merged[key] = value
    _check_run_values(merged)
    return merged


def _check_run_values(merged: Dict[str, object]) -> None:
    """Reject out-of-range run settings, whichever command reads them."""
    for key in ("count", "scenes"):
        if merged[key] is not None and merged[key] < 0:
            raise ConfigError(f"{key} must be >= 0, got {merged[key]}")
    if merged["epochs"] < 1:
        raise ConfigError(f"epochs must be >= 1, got {merged['epochs']}")
    if not (math.isfinite(merged["lr"]) and merged["lr"] > 0.0):
        raise ConfigError(f"lr must be positive and finite, got {merged['lr']}")
    if not 0.0 < merged["train_fraction"] < 1.0:
        raise ConfigError(f"train_fraction must be in (0, 1), got {merged['train_fraction']}")


def _require(merged: Dict[str, object], *keys: str) -> None:
    missing = [key for key in keys if merged[key] is None]
    if missing:
        raise ConfigError(
            f"{merged['command']} requires " + ", ".join(f"--{k.replace('_', '-')}"
                                                         for k in missing)
        )


def write_resolved(merged: Dict[str, object], out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [f"{key}={_format_value(merged[key])}" for key in _KEY_ORDER]
    (out_dir / "resolved.cfg").write_text("\n".join(lines) + "\n",
                                          encoding="utf-8")


def _model_config(merged: Dict[str, object]) -> ModelConfig:
    kwargs = {
        ("lambda_sem" if key == "lambda" else key): merged[key]
        for key in _MODEL_KEYS
    }
    return ModelConfig(**kwargs)


def _scene_config(merged: Dict[str, object], seed: int) -> SceneConfig:
    shapes = tuple(
        part.strip() for part in str(merged["shapes"]).split(",") if part.strip()
    )
    return SceneConfig(
        height=merged["height"],
        width=merged["width"],
        min_things=merged["min_things"],
        max_things=merged["max_things"],
        shapes=shapes,
        color_jitter=merged["color_jitter"],
        stuff_bands=merged["stuff_bands"],
        twin_mode=merged["twin_mode"],
        seed=seed,
    )


def _scene_dirs(root: Path) -> List[Tuple[int, Path]]:
    """(seed, directory) of every numbered scene under root, by seed."""
    scenes_root = root / "scenes"
    if not scenes_root.is_dir():
        raise DataFormatError(f"{scenes_root}: no scenes directory")
    numbered = []
    for child in scenes_root.iterdir():
        if child.is_dir():
            try:
                numbered.append((int(child.name), child))
            except ValueError:
                continue
    if not numbered:
        raise DataFormatError(f"{scenes_root}: dataset is empty")
    return sorted(numbered)


def _load_dataset(root: Path) -> List[SyntheticScene]:
    return [load_scene(path) for _, path in _scene_dirs(root)]


# -- commands -------------------------------------------------------------


def cmd_gen(merged: Dict[str, object]) -> int:
    _require(merged, "out", "count", "seed")
    count = int(merged["count"])
    seed = int(merged["seed"])
    out = Path(merged["out"])
    if out.exists() and any(out.iterdir()) and not merged["force"]:
        raise ConfigError(f"{out} is not empty (pass --force to write anyway)")
    write_resolved(merged, out)
    for s in range(seed, seed + count):
        scene = generate_scene(_scene_config(merged, seed=s))
        save_scene(scene, scene_dir(out, s))
    manifest = [("count", count), ("first_seed", seed)]
    manifest += [(key, merged[key]) for key in _SCENE_KEYS]
    (out / "dataset.meta").write_text(
        "\n".join(f"{key}={_format_value(value)}" for key, value in manifest)
        + "\n",
        encoding="utf-8",
    )
    print(f"wrote {count} scenes under {out}")
    return 0


def _write_losses(path: Path, losses: Sequence[float]) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(LOSS_CSV_HEADER)
        for epoch, loss in enumerate(losses):
            writer.writerow([epoch, repr(float(loss))])


def cmd_train(merged: Dict[str, object]) -> int:
    _require(merged, "data", "out")
    if merged["seed"] is None:
        merged["seed"] = 0
    scenes = _load_dataset(Path(merged["data"]))
    cfg = _model_config(merged)
    out = Path(merged["out"])
    write_resolved(merged, out)

    train_seed = int(merged["train_seed"])
    model = PanopticModel(cfg, SplitMix64(train_seed))
    checkpoint_path = out / "checkpoint.bin"
    losses: List[float] = []

    def on_epoch(epoch: int, mean_loss: float) -> None:
        losses.append(mean_loss)
        save_checkpoint(checkpoint_path, model_state(model))
        print(f"epoch {epoch}: loss {mean_loss:.6f}")

    try:
        fit(model, scenes, int(merged["epochs"]), float(merged["lr"]),
            train_seed, on_epoch=on_epoch)
    except NumericsError:
        # Keep the per-epoch record and the last finite-loss checkpoint.
        _write_losses(out / "losses.csv", losses)
        raise
    _write_losses(out / "losses.csv", losses)
    print(f"saved {checkpoint_path}")
    return 0


def _oracle_prediction(scene: SyntheticScene) -> InstancePrediction:
    return InstancePrediction(
        masks=np.stack([mask for mask, _ in scene.instances]),
        categories=np.array([category for _, category in scene.instances]),
        scores=np.ones(len(scene.instances)),
    )


def cmd_eval(merged: Dict[str, object]) -> int:
    _require(merged, "data", "out")
    if merged["oracle"] and merged["checkpoint"] is not None:
        raise ConfigError("pass either --checkpoint or --oracle, not both")
    if not merged["oracle"] and merged["checkpoint"] is None:
        raise ConfigError("eval requires --checkpoint (or --oracle)")
    if merged["seed"] is None:
        merged["seed"] = 0
    scenes = _load_dataset(Path(merged["data"]))
    cfg = _model_config(merged)
    out = Path(merged["out"])
    write_resolved(merged, out)

    if merged["oracle"]:
        acc = PqAccumulator(k_thing=cfg.k_thing)
        for scene in scenes:
            truth = scene_to_panoptic(scene)
            acc.add(truth, truth)
        result = acc.result()
        rate = twin_rate([
            twins_covered(_oracle_prediction(scene), scene, cfg.post_nms_score)
            for scene in scenes if is_twin_scene(scene)
        ])
        variant = "oracle"
    else:
        arrays = load_checkpoint(merged["checkpoint"])
        model = PanopticModel(cfg, SplitMix64(int(merged["train_seed"])))
        load_model_state(model, arrays, str(merged["checkpoint"]))
        result, rate = evaluate_scenes(model, scenes)
        variant = "model"

    write_report(out / "report.csv", [report_row(variant, result, rate, 0.0)])
    print(
        f"{variant}: pq={result.pq:.4f} sq={result.sq:.4f} rq={result.rq:.4f} "
        f"pq_th={result.pq_things:.4f} pq_st={result.pq_stuff:.4f} "
        f"twin_rate={rate:.4f}"
    )
    return 0


def _parse_point(raw: str) -> tuple:
    parts = raw.split(",")
    if len(parts) != 2:
        raise ConfigError(f"point expects 'x,y', got {raw!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ConfigError(f"point expects integers, got {raw!r}") from None


def cmd_viz(merged: Dict[str, object]) -> int:
    _require(merged, "checkpoint", "out", "data", "point", "branch")
    branch = str(merged["branch"])
    if branch not in ("scm", "icm"):
        raise ConfigError(f"branch must be scm or icm, got {branch!r}")
    x, y = _parse_point(str(merged["point"]))
    data = Path(merged["data"])
    if merged["seed"] is None:
        merged["seed"], scene_path = _scene_dirs(data)[0]
    else:
        scene_path = scene_dir(data, int(merged["seed"]))
    cfg = _model_config(merged)
    out = Path(merged["out"])
    write_resolved(merged, out)

    arrays = load_checkpoint(merged["checkpoint"])
    model = PanopticModel(cfg, SplitMix64(int(merged["train_seed"])))
    load_model_state(model, arrays, str(merged["checkpoint"]))
    scene = load_scene(scene_path)

    with no_grad():
        features = model.backbone(scene_image(scene))
        if branch == "scm":
            if model.scm_weights is None:
                raise ConfigError(
                    "checkpoint was trained without the semantic branch "
                    "(use_scm=0); nothing to visualize"
                )
            field = scm_mod.predict_params(features, model.scm_weights)
        else:
            encoder = model.instance_encoder
            if not isinstance(encoder, icm_mod.IcmWeights):
                raise ConfigError(
                    "checkpoint was trained without the instance branch "
                    "(use_icm=0); nothing to visualize"
                )
            field = icm_mod.predict_params(features, encoder)

        height, width = features.shape[0], features.shape[1]
        if not (0 <= x < width and 0 <= y < height):
            raise ConfigError(
                f"point {x},{y} is outside the {width}x{height} feature map"
            )
        hor = corr_profile(field.hor[y, x], np.arange(width), width).data
        ver = corr_profile(field.ver[y, x], np.arange(height), height).data

    corr_map = np.multiply.outer(ver, hor)
    lo = float(corr_map.min())
    hi = float(corr_map.max())
    if hi > lo:
        image = np.rint((corr_map - lo) / (hi - lo) * 255.0).astype(np.uint8)
    else:
        image = np.full(corr_map.shape, 128, dtype=np.uint8)
    save_pgm(out / "corr_map.pgm", image)
    sidecar = [
        ("min", repr(lo)),
        ("max", repr(hi)),
        ("point", f"{x},{y}"),
        ("branch", branch),
        ("height", height),
        ("width", width),
    ]
    (out / "corr_map.meta").write_text(
        "\n".join(f"{key}={value}" for key, value in sidecar) + "\n",
        encoding="utf-8",
    )
    for name, values in (("profile_hor.csv", hor), ("profile_ver.csv", ver)):
        with (out / name).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("position", "value"))
            for position, value in enumerate(values):
                writer.writerow([position, repr(float(value))])
    print(f"wrote corr_map.pgm ({width}x{height}) to {out}")
    return 0


def cmd_ablate(merged: Dict[str, object]) -> int:
    _require(merged, "out")
    if merged["seed"] is None:
        merged["seed"] = 1000
    # The sweep is defined over twin scenes with exactly one twin pair.
    merged["twin_mode"] = True
    merged["min_things"] = 2
    merged["max_things"] = 2
    out = Path(merged["out"])
    write_resolved(merged, out)

    dataset_seed = int(merged["seed"])
    base_scene = _scene_config(merged, seed=dataset_seed)
    scenes = make_twin_dataset(int(merged["scenes"]), dataset_seed,
                               scene_cfg=base_scene)
    rows = run_ablation(
        scenes,
        _model_config(merged),
        epochs=int(merged["epochs"]),
        lr=float(merged["lr"]),
        seed=int(merged["train_seed"]),
        train_fraction=float(merged["train_fraction"]),
        out_path=out / "report.csv",
    )
    for row in rows:
        print(
            f"{row['variant']}: pq={row['pq']:.4f} "
            f"twin_rate={row['twin_rate']:.4f} "
            f"({row['train_seconds']:.0f}s)"
        )
    return 0


_COMMANDS = {
    "gen": cmd_gen,
    "train": cmd_train,
    "eval": cmd_eval,
    "viz": cmd_viz,
    "ablate": cmd_ablate,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        merged = _merge(args)
        return _COMMANDS[args.command](merged)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataFormatError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
