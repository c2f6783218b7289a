"""Command-line entry points: gen, train, eval, viz, and ablate.

Configuration is merged from three layers with fixed precedence: a
command-line flag beats a config-file entry, which beats the built-in
default.  The keys are the run settings plus every ModelConfig field and
every SceneConfig field but its per-scene seed.  Config files use the
same ``key=value`` line format as scene manifests; unknown keys are
rejected.  Each key has one flag, spelled in full as ``--<key>`` with
dashes for underscores, and ``--key=value`` (or ``--key value``) means
the line ``key=value``; a bare bool flag means 1.  An empty value means
unset, which only a key without a default accepts.  Every command
writes the fully merged configuration to ``<out>/resolved.cfg`` in a
fixed key order, so any run can be reproduced by passing that file back
via ``--config``.

Exit codes: 0 on success, 2 for usage or configuration errors, 3 for
malformed or missing data, 4 for a numerical failure during training.
"""

from __future__ import annotations

import argparse
import ctypes
import math
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import icm as icm_mod
from . import scm as scm_mod
from .ablation import (check_variants_fit, make_twin_dataset, report_row,
                       run_ablation, split_scenes, write_report)
from .autodiff import no_grad
from .checkpoint import (
    load_checkpoint,
    load_model_state,
    model_state,
    save_checkpoint,
)
from .corrfn import field_profiles
from .errors import ConfigError, DataFormatError, NumericsError, ShapeError
from .model import STRIDE, InstancePrediction, ModelConfig, PanopticModel, check_scene_size
from .postprocess import PanopticSegmentation
from .rng import SplitMix64
from .synth import (
    Dataset,
    SceneConfig,
    SyntheticScene,
    parse_keyvalue,
    save_dataset,
    save_pgm,
    write_keyvalue,
)
from .train import evaluate_scenes, fit, scene_image, scene_to_panoptic, score_scenes

# Run settings in resolved.cfg order.  Every ModelConfig field and every
# SceneConfig field but the per-scene seed follow them as keys of their own.
_RUN_DEFAULTS: Dict[str, object] = {
    "seed": None, "train_seed": 0, "epochs": 128, "lr": 0.01, "count": None,
    "scenes": 200, "out": None, "data": None,
    "checkpoint": None, "point": None, "branch": None, "oracle": False,
    "force": False,
}
_MODEL_DEFAULTS = asdict(ModelConfig())
_SCENE_DEFAULTS = {name: value for name, value in asdict(SceneConfig()).items()
                   if name != "seed"}
_DEFAULTS = {"command": None, **_RUN_DEFAULTS, **_MODEL_DEFAULTS, **_SCENE_DEFAULTS}
_KEY_ORDER = tuple(_DEFAULTS)
# A key's value has its default's type; of the keys that default to None,
# seed and count are integers and the rest strings.
_TYPES = {key: str if value is None else type(value) for key, value in _DEFAULTS.items()}
_TYPES.update(seed=int, count=int)
# Help lines of the flags that need more than their key's name.
_HELP = {
    "seed": "scene/dataset seed", "train_seed": "weight-init and augmentation seed",
    "count": "number of scenes to generate", "scenes": "dataset size for ablate",
    "out": "output directory", "data": "dataset directory (from gen)",
    "checkpoint": "checkpoint file (from train)", "point": "feature-map x,y for viz",
    "branch": "which parameter head viz should read (scm or icm)",
    "oracle": "eval ground truth against itself",
    "force": "allow writing into a non-empty directory",
    "scm_mode": "SCM aggregation: " + ", ".join(scm_mod.AGGREGATORS),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


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
    kind = _TYPES[key]
    if kind is bool:
        return _parse_bool(key, raw)
    try:
        return kind(raw)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key} expects {noun}, got {raw!r}") from None


class _Parser(argparse.ArgumentParser):
    """argparse that keeps ``--`` as an option's value.

    argparse drops a ``--`` argument as its end-of-options marker even when
    it is an option's own value, so ``--lr=--`` would reach `_merge` as an
    empty list and ``--use-scm=--`` as a bare flag.  Only an explicit
    ``--key=--`` hands an option the single argument ``--``.
    """

    def _get_values(self, action, arg_strings):
        if action.option_strings and arg_strings == ["--"]:
            return "--"
        return super()._get_values(action, arg_strings)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="corrseg",
        description="Synthetic panoptic-segmentation testbed with "
        "correlation-function feature enhancement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, descr, _) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=descr, allow_abbrev=False)
        cmd.add_argument("--config", help="key=value file merged below flags")
        for key in _KEY_ORDER[1:]:
            # A flag's value is the text of its config line; a bare bool flag is 1.
            bare = {"nargs": "?", "const": "1"} if _TYPES[key] is bool else {}
            cmd.add_argument(_flag(key), help=_HELP.get(key), **bare)
    return parser


def _merge(args: argparse.Namespace) -> Dict[str, object]:
    merged = dict(_DEFAULTS, command=args.command)
    # (message prefix, key, text): the file's lines, then the flags given.
    entries = []
    if args.config is not None:
        path = Path(args.config)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise DataFormatError(f"{path}: cannot read config: {exc}") from exc
        except UnicodeDecodeError:
            raise DataFormatError(f"{path}: config is not UTF-8") from None
        entries = [(f"{path}: ", key, raw)
                   for key, raw in parse_keyvalue(text, str(path)).items() if key != "command"]
    entries += [("", key, getattr(args, key))
                for key in _KEY_ORDER[1:] if getattr(args, key) is not None]
    for where, key, raw in entries:
        if key not in merged:
            raise ConfigError(f"{where}unknown config key {key!r}")
        value = _parse_value(key, raw)
        if value is None and _DEFAULTS[key] is not None:
            raise ConfigError(f"{where}{key} needs a value")
        merged[key] = value
    _check_values(merged)
    return merged


def _check_values(merged: Dict[str, object]) -> None:
    """Reject out-of-range settings, whichever command reads them."""
    _model_config(merged)
    _scene_config(merged, seed=0)
    for key in ("count", "scenes"):
        if merged[key] is not None and merged[key] < 0:
            raise ConfigError(f"{key} must be >= 0, got {merged[key]}")
    if merged["epochs"] < 1:
        raise ConfigError(f"epochs must be >= 1, got {merged['epochs']}")
    if not (math.isfinite(merged["lr"]) and merged["lr"] > 0.0):
        raise ConfigError(f"lr must be positive and finite, got {merged['lr']}")
    if merged["branch"] not in (None, "scm", "icm"):
        raise ConfigError(f"branch must be scm or icm, got {merged['branch']!r}")
    if merged["point"] is not None:
        _parse_point(merged["point"])


def _require(merged: Dict[str, object], *keys: str) -> None:
    missing = [key for key in keys if merged[key] is None]
    if missing:
        raise ConfigError(
            f"{merged['command']} requires " + ", ".join(map(_flag, missing)))


def write_resolved(merged: Dict[str, object], out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_keyvalue(out_dir / "resolved.cfg", [(key, merged[key]) for key in _KEY_ORDER])


def _model_config(merged: Dict[str, object]) -> ModelConfig:
    return ModelConfig(**{key: merged[key] for key in _MODEL_DEFAULTS})


def _scene_config(merged: Dict[str, object], seed: int) -> SceneConfig:
    return SceneConfig(**{key: merged[key] for key in _SCENE_DEFAULTS}, seed=seed)


# -- commands -------------------------------------------------------------


def cmd_gen(merged: Dict[str, object]) -> int:
    out = Path(merged["out"])
    if out.exists() and any(out.iterdir()) and not merged["force"]:
        raise ConfigError(f"{out} is not empty (pass --force to write anyway)")
    save_dataset(out, _scene_config(merged, seed=merged["seed"]), merged["count"])
    write_resolved(merged, out)
    print(f"wrote {merged['count']} scenes under {out}")
    return 0


def _write_series(path: Path, index: str, name: str, values: Sequence[float]) -> None:
    """Two-column CSV: a 0-based index, then each value as its float repr."""
    path.write_text(f"{index},{name}\n" + "".join(
        f"{i},{float(value)!r}\n" for i, value in enumerate(values)), encoding="utf-8")


def cmd_train(merged: Dict[str, object]) -> int:
    if merged["seed"] is None:
        merged["seed"] = 0
    scenes = Dataset(merged["data"])
    cfg = _model_config(merged)
    check_scene_size(cfg, *scenes.size)
    # Each epoch reads the scenes anew; this first pass checks them all,
    # so a bad one exits 3 before <out> is written.
    for _ in scenes:
        pass
    out = Path(merged["out"])
    write_resolved(merged, out)

    train_seed = merged["train_seed"]
    model = PanopticModel(cfg, SplitMix64(train_seed))
    checkpoint_path = out / "checkpoint.bin"
    losses: List[float] = []

    def on_epoch(epoch: int, mean_loss: float) -> None:
        losses.append(mean_loss)
        save_checkpoint(checkpoint_path, model_state(model))
        print(f"epoch {epoch}: loss {mean_loss:.6f}")

    try:
        fit(model, scenes, merged["epochs"], merged["lr"], train_seed, on_epoch=on_epoch)
    finally:
        # A non-finite loss aborts the run with NumericsError; the per-epoch
        # record is still written, next to the last finite-loss checkpoint.
        _write_series(out / "losses.csv", "epoch", "loss", losses)
    print(f"saved {checkpoint_path}")
    return 0


def _load_model(merged: Dict[str, object], cfg: ModelConfig) -> PanopticModel:
    """The model of ``cfg`` with every parameter read from the checkpoint.

    Loading overwrites every parameter, so the init seed has no effect.
    """
    model = PanopticModel(cfg, SplitMix64(0))
    load_model_state(model, load_checkpoint(merged["checkpoint"]), merged["checkpoint"])
    return model


def _oracle_inference(
    scene: SyntheticScene,
) -> Tuple[PanopticSegmentation, InstancePrediction]:
    """Ground truth as the prediction: its labeling and every instance at score 1."""
    masks = [mask for mask, _ in scene.instances]
    return scene_to_panoptic(scene), InstancePrediction(
        masks=np.array(masks, dtype=bool).reshape(-1, scene.height, scene.width),
        categories=np.array([category for _, category in scene.instances], dtype=np.int64),
        scores=np.ones(len(scene.instances)),
    )


def cmd_eval(merged: Dict[str, object]) -> int:
    if merged["oracle"] == (merged["checkpoint"] is not None):
        raise ConfigError("eval takes exactly one of --checkpoint and --oracle")
    if merged["seed"] is None:
        merged["seed"] = 0
    # Scored one at a time, so only one scene is ever in memory.
    scenes = Dataset(merged["data"])
    if merged["oracle"]:
        result, rate = score_scenes(scenes, _oracle_inference)
        variant = "oracle"
    else:
        cfg = _model_config(merged)
        check_scene_size(cfg, *scenes.size)
        result, rate = evaluate_scenes(_load_model(merged, cfg), scenes)
        variant = "model"
    # Written only now, so that a scene refused mid-stream leaves no <out>.
    out = Path(merged["out"])
    write_resolved(merged, out)
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
    branch = merged["branch"]
    x, y = _parse_point(merged["point"])
    dataset = Dataset(merged["data"])
    if merged["seed"] is None:
        merged["seed"] = min(dataset.paths)
    cfg = _model_config(merged)
    check_scene_size(cfg, *dataset.size)
    scene = dataset.scene(merged["seed"])
    if not (cfg.use_scm if branch == "scm" else cfg.use_icm):
        raise ConfigError(f"use_{branch}=0: the model has no {branch} branch to visualize")
    height, width = scene.height // STRIDE, scene.width // STRIDE
    if not (0 <= x < width and 0 <= y < height):
        raise ConfigError(f"point {x},{y} is outside the {width}x{height} feature map")
    # The checkpoint holds exactly cfg's branches: loading checks the config.
    model = _load_model(merged, cfg)
    out = Path(merged["out"])
    write_resolved(merged, out)

    with no_grad():
        features = model.backbone(scene_image(scene))
        if branch == "scm":
            field = scm_mod.predict_params(features, model.semantic_encoder)
        else:
            field = icm_mod.predict_params(features, model.instance_encoder)
        hor, ver = field_profiles(field, np.arange(width), np.arange(height))
    hor, ver = hor.data[y, x], ver.data[y, x]

    corr_map = np.multiply.outer(ver, hor)
    lo = float(corr_map.min())
    hi = float(corr_map.max())
    if hi > lo:
        image = np.rint((corr_map - lo) / (hi - lo) * 255.0).astype(np.uint8)
    else:
        image = np.full(corr_map.shape, 128, dtype=np.uint8)
    save_pgm(out / "corr_map.pgm", image)
    write_keyvalue(out / "corr_map.meta", [
        ("min", lo), ("max", hi), ("point", f"{x},{y}"), ("branch", branch),
        ("height", height), ("width", width),
    ])
    _write_series(out / "profile_hor.csv", "position", "value", hor)
    _write_series(out / "profile_ver.csv", "position", "value", ver)
    print(f"wrote corr_map.pgm ({width}x{height}) to {out}")
    return 0


def cmd_ablate(merged: Dict[str, object]) -> int:
    if merged["seed"] is None:
        merged["seed"] = 1000
    # The sweep is defined over twin scenes with exactly one twin pair.
    merged["twin_mode"] = True
    merged["min_things"] = 2
    merged["max_things"] = 2
    cfg = _model_config(merged)
    check_variants_fit(cfg, [(merged["height"], merged["width"])])
    split_scenes(range(merged["scenes"]))  # refuse a degenerate split now
    out = Path(merged["out"])
    write_resolved(merged, out)

    dataset_seed = merged["seed"]
    base_scene = _scene_config(merged, seed=dataset_seed)
    scenes = make_twin_dataset(merged["scenes"], dataset_seed, scene_cfg=base_scene)
    rows = run_ablation(
        scenes,
        cfg,
        epochs=merged["epochs"],
        lr=merged["lr"],
        seed=merged["train_seed"],
        out_path=out / "report.csv",
    )
    for row in rows:
        print(
            f"{row['variant']}: pq={row['pq']:.4f} "
            f"twin_rate={row['twin_rate']:.4f} "
            f"({row['train_seconds']:.0f}s)"
        )
    return 0


# Each command's handler, help line and the keys it cannot run without.
_COMMANDS = {
    "gen": (cmd_gen, "generate a synthetic scene dataset", ("out", "count", "seed")),
    "train": (cmd_train, "train a model on a generated dataset", ("data", "out")),
    "eval": (cmd_eval, "evaluate a checkpoint (or the oracle) on a dataset", ("data", "out")),
    "viz": (cmd_viz, "dump one location's predicted correlation map",
            ("checkpoint", "out", "data", "point", "branch")),
    "ablate": (cmd_ablate, "run the six-variant comparison sweep", ("out",)),
}


def _keep_freed_heap() -> None:
    """Make glibc malloc keep freed memory for reuse.

    A training step frees its graph before the next forward.  With glibc's
    defaults the freed top of the heap is trimmed after each step and
    faulted back in by the next one.  Where the C library has no
    ``mallopt``, the allocator keeps its defaults.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # M_TRIM_THRESHOLD: return the free top of the heap to the system only
    # beyond 1 GiB, above any command's peak.
    mallopt(-1, 1 << 30)
    # M_MMAP_THRESHOLD: blocks below 32 MiB, the ceiling of glibc's own
    # sliding threshold, come from the heap instead of their own mmap.
    mallopt(-3, 32 << 20)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    _keep_freed_heap()
    handler, _, required = _COMMANDS[args.command]
    try:
        merged = _merge(args)
        _require(merged, *required)
        return handler(merged)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataFormatError, ShapeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
