"""Deterministic synthetic panoptic scenes.

A scene is a stack of horizontal stuff bands with a handful of flat-color
things (disks and axis-aligned rectangles) placed without overlap.  In
twin mode the first two things share shape, size, and color exactly, so
nothing but position distinguishes them; their centers are kept at least
a quarter image apart overall and vertically, which guarantees the band
layout around each twin differs.  Scenes are a pure function of the
config seed via the documented counter-based generator in rng.py.

Categories: things are 0..2, stuff 3..5.

On disk a dataset is a `key=value` manifest plus one directory of binary
netpbm files and a `key=value` manifest per scene, named by the scene's
seed: an optional ``-`` and ASCII digits, which may be zero-padded.

    dataset.meta                 count, first_seed, SceneConfig's fields but seed
    scenes/<seed>/image.ppm      P6, maxval 255
    scenes/<seed>/semantic.pgm   P5, category ids as gray values
    scenes/<seed>/inst_<k>.pgm   P5, 0 or 255
    scenes/<seed>/scene.meta
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import ClassVar, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .errors import ConfigError, DataFormatError
from .rng import SplitMix64

THING_CLASSES = 3
STUFF_CLASSES = 3
FIRST_STUFF_ID = THING_CLASSES

THING_COLORS = np.array([
    [0.85, 0.15, 0.15],
    [0.15, 0.80, 0.20],
    [0.20, 0.25, 0.85],
])
STUFF_COLORS = np.array([
    [0.75, 0.75, 0.70],
    [0.60, 0.50, 0.35],
    [0.20, 0.45, 0.50],
])

_PLACEMENT_RETRIES = 40
_TWIN_RETRIES = 400


# Upper limits keep generating one scene bounded in time and memory:
# every side allocates several (H, W) arrays, and every requested thing
# costs up to _PLACEMENT_RETRIES full-image mask draws.
MIN_SIDE, MAX_SIDE = 16, 1024
MAX_THINGS = 64


@dataclass
class SceneConfig:
    # The thing shapes, the color jitter and the band count are the same
    # in every scene, so they are constants rather than settings.
    shapes: ClassVar[Tuple[str, ...]] = ("disk", "rectangle")
    color_jitter: ClassVar[float] = 0.08
    stuff_bands: ClassVar[int] = 3
    height: int = 64
    width: int = 64
    min_things: int = 2
    max_things: int = 4
    twin_mode: bool = False
    seed: int = 0

    def __post_init__(self):
        if not (MIN_SIDE <= self.height <= MAX_SIDE and MIN_SIDE <= self.width <= MAX_SIDE):
            raise ConfigError(
                f"scene dims must be in [{MIN_SIDE}, {MAX_SIDE}], got {self.height}x{self.width}"
            )
        if not 0 <= self.min_things <= self.max_things <= MAX_THINGS:
            raise ConfigError(
                f"need 0 <= min_things <= max_things <= {MAX_THINGS}, "
                f"got {self.min_things}..{self.max_things}"
            )
        if self.twin_mode and self.max_things < 2:
            raise ConfigError("twin mode needs room for at least two things")


@dataclass
class SyntheticScene:
    image: np.ndarray                      # (H, W, 3) floats in [0, 1]
    semantic: np.ndarray                   # (H, W) int category ids
    instances: List[Tuple[np.ndarray, int]]  # (bool mask, thing category)
    meta: Dict[str, str] = field(default_factory=dict)

    @property
    def height(self) -> int:
        return self.image.shape[0]

    @property
    def width(self) -> int:
        return self.image.shape[1]


def _shape_mask(kind: str, dims: Tuple[int, ...], cx: int, cy: int,
                height: int, width: int) -> np.ndarray:
    yy, xx = np.mgrid[0:height, 0:width]
    if kind == "disk":
        (r,) = dims
        return (xx - cx) ** 2 + (yy - cy) ** 2 <= r * r
    hw, hh = dims
    return (np.abs(xx - cx) <= hw) & (np.abs(yy - cy) <= hh)


def _jittered(base: np.ndarray, amount: float, rng: SplitMix64) -> np.ndarray:
    return np.clip(base + rng.uniform_array((3,), -amount, amount), 0.0, 1.0)


def _draw_template(cfg: SceneConfig, rng: SplitMix64,
                   size_range: Tuple[float, float] = (0.09, 0.17)):
    kind = cfg.shapes[rng.randint(len(cfg.shapes))]
    lo = max(3, round(size_range[0] * min(cfg.height, cfg.width)))
    hi = max(lo + 1, round(size_range[1] * min(cfg.height, cfg.width)))
    if kind == "disk":
        dims = (lo + rng.randint(hi - lo + 1),)
    else:
        dims = (lo + rng.randint(hi - lo + 1), lo + rng.randint(hi - lo + 1))
    category = rng.randint(THING_CLASSES)
    color = _jittered(THING_COLORS[category], cfg.color_jitter, rng)
    return kind, dims, category, color


def _place(cfg: SceneConfig, rng: SplitMix64, kind, dims, occupied: np.ndarray,
           retries: int, min_dist_from: Optional[Tuple[int, int]] = None):
    """Find a free integer center; None if every attempt collides."""
    margin = max(dims) + 1
    span_x = cfg.width - 2 * margin
    span_y = cfg.height - 2 * margin
    if span_x <= 0 or span_y <= 0:
        return None
    for _ in range(retries):
        cx = margin + rng.randint(span_x)
        cy = margin + rng.randint(span_y)
        if min_dist_from is not None:
            dx = cx - min_dist_from[0]
            dy = cy - min_dist_from[1]
            if dx * dx + dy * dy < (cfg.width / 4.0) ** 2:
                continue
            # Stuff bands run horizontally, so only a vertical offset puts
            # the two twins into different surroundings; keep them a quarter
            # image apart vertically as well.
            if abs(dy) < cfg.height / 4.0:
                continue
        mask = _shape_mask(kind, dims, cx, cy, cfg.height, cfg.width)
        if not (mask & occupied).any():
            return cx, cy, mask
    return None


def generate_scene(cfg: SceneConfig) -> SyntheticScene:
    rng = SplitMix64(cfg.seed)
    h, w = cfg.height, cfg.width

    # Stuff bands: roughly equal heights with jittered interior boundaries.
    base = h / cfg.stuff_bands
    cuts = [0]
    for b in range(1, cfg.stuff_bands):
        wobble = rng.uniform(-base / 4.0, base / 4.0)
        cuts.append(int(round(b * base + wobble)))
    cuts.append(h)
    cuts = sorted(min(max(c, 0), h) for c in cuts)

    image = np.zeros((h, w, 3))
    semantic = np.zeros((h, w), dtype=np.int64)
    for b in range(cfg.stuff_bands):
        cat = FIRST_STUFF_ID + rng.randint(STUFF_CLASSES)
        color = _jittered(STUFF_COLORS[cat - FIRST_STUFF_ID], cfg.color_jitter, rng)
        semantic[cuts[b]:cuts[b + 1]] = cat
        image[cuts[b]:cuts[b + 1]] = color

    requested = cfg.min_things + rng.randint(cfg.max_things - cfg.min_things + 1)
    if cfg.twin_mode:
        requested = max(requested, 2)

    occupied = np.zeros((h, w), dtype=bool)
    instances: List[Tuple[np.ndarray, int]] = []
    first_center: Optional[Tuple[int, int]] = None
    for k in range(requested):
        retries, min_dist_from = _PLACEMENT_RETRIES, None
        if cfg.twin_mode and k == 0:
            # Twins are drawn from the upper half of the size range so their
            # masks stay comfortably resolvable at the model's stride.
            template = _draw_template(cfg, rng, size_range=(0.12, 0.17))
        elif cfg.twin_mode and k == 1:
            # The second twin reuses the first one's template.
            retries, min_dist_from = _TWIN_RETRIES, first_center
        else:
            template = _draw_template(cfg, rng)
        kind, dims, category, color = template
        spot = _place(cfg, rng, kind, dims, occupied, retries, min_dist_from)
        if spot is None:
            continue
        cx, cy, mask = spot
        if k == 0:
            first_center = (cx, cy)
        occupied[mask] = True
        semantic[mask] = category
        image[mask] = color
        instances.append((mask, category))

    meta = {
        "seed": str(cfg.seed),
        "height": str(h),
        "width": str(w),
        "stuff_bands": str(cfg.stuff_bands),
        "twin_mode": "1" if cfg.twin_mode else "0",
        "requested_things": str(requested),
        "placed_things": str(len(instances)),
        "categories": ",".join(str(c) for _, c in instances),
    }
    return SyntheticScene(image=image, semantic=semantic, instances=instances, meta=meta)


# -- netpbm I/O ------------------------------------------------------------

_WHITESPACE = b" \t\r\n"


def _next_token(data: bytes, pos: int, path) -> Tuple[bytes, int]:
    n = len(data)
    while pos < n:
        if data[pos:pos + 1] in _WHITESPACE:
            pos += 1
        elif data[pos:pos + 1] == b"#":
            while pos < n and data[pos:pos + 1] != b"\n":
                pos += 1
        else:
            break
    if pos >= n:
        raise DataFormatError(f"{path}: header truncated at byte {pos}")
    start = pos
    while pos < n and data[pos:pos + 1] not in _WHITESPACE:
        pos += 1
    return data[start:pos], pos


def _read_netpbm(path, magic: bytes, channels: int) -> np.ndarray:
    path = Path(path)
    data = path.read_bytes()
    if data[:2] != magic:
        raise DataFormatError(
            f"{path}: expected {magic.decode()} magic at byte 0, found {data[:2]!r}"
        )
    pos = 2
    header = []
    for name in ("width", "height", "maxval"):
        token, pos = _next_token(data, pos, path)
        start = pos - len(token)
        if not token.isdigit():
            raise DataFormatError(f"{path}: non-numeric header field {token!r} at byte {start}")
        if int(token) == 0:
            raise DataFormatError(f"{path}: {name} is 0 at byte {start}")
        header.append(int(token))
    width, height, maxval = header
    if maxval != 255:
        raise DataFormatError(
            f"{path}: only maxval 255 supported, found {maxval} at byte {pos - len(str(maxval))}"
        )
    payload_start = pos + 1  # exactly one whitespace byte after maxval
    expected = width * height * channels
    available = len(data) - payload_start
    if available < expected:
        raise DataFormatError(
            f"{path}: payload truncated at byte {payload_start + max(available, 0)}: "
            f"expected {expected} bytes, found {available}"
        )
    flat = np.frombuffer(data, dtype=np.uint8, count=expected, offset=payload_start)
    shape = (height, width, channels) if channels > 1 else (height, width)
    return flat.reshape(shape).copy()


def _write_netpbm(path, magic: bytes, values: np.ndarray) -> None:
    path = Path(path)
    height, width = values.shape[:2]
    header = f"{magic.decode()}\n{width} {height}\n255\n".encode("ascii")
    path.write_bytes(header + values.astype(np.uint8).tobytes())


def save_pgm(path, values: np.ndarray) -> None:
    if values.ndim != 2:
        raise DataFormatError(f"PGM wants a 2D gray array, got shape {values.shape}")
    _write_netpbm(path, b"P5", values)


def load_pgm(path) -> np.ndarray:
    return _read_netpbm(path, b"P5", channels=1)


def save_ppm(path, values: np.ndarray) -> None:
    if values.ndim != 3 or values.shape[2] != 3:
        raise DataFormatError(f"PPM wants an (H, W, 3) array, got shape {values.shape}")
    _write_netpbm(path, b"P6", values)


def load_ppm(path) -> np.ndarray:
    return _read_netpbm(path, b"P6", channels=3)


def to_uint8(image: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)


# -- scene persistence -------------------------------------------------------

_META_ORDER = ("seed", "height", "width", "stuff_bands", "twin_mode",
               "requested_things", "placed_things", "categories")


def scene_dir(root, seed: int) -> Path:
    return Path(root) / "scenes" / str(seed)


def save_scene(scene: SyntheticScene, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_ppm(directory / "image.ppm", to_uint8(scene.image))
    save_pgm(directory / "semantic.pgm", scene.semantic.astype(np.uint8))
    for k, (mask, _) in enumerate(scene.instances):
        save_pgm(directory / f"inst_{k}.pgm", mask.astype(np.uint8) * 255)
    write_keyvalue(directory / "scene.meta",
                   [(key, scene.meta.get(key, "")) for key in _META_ORDER])


def parse_keyvalue(text: str, source: str = "<string>") -> Dict[str, str]:
    out: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataFormatError(f"{source}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in out:
            raise DataFormatError(f"{source}:{lineno}: key {key!r} repeated")
        out[key] = value.strip()
    return out


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_keyvalue(path, pairs: Iterable[Tuple[str, object]]) -> None:
    """Write (key, value) pairs as the lines parse_keyvalue reads: None as
    an empty value, a bool as 1/0, a float as its repr."""
    Path(path).write_text(
        "".join(f"{key}={_format_value(value)}\n" for key, value in pairs),
        encoding="utf-8",
    )


def _load_plane(path: Path, shape: Tuple[int, int]) -> np.ndarray:
    plane = load_pgm(path)
    if plane.shape != shape:
        raise DataFormatError(
            f"{path}: size {plane.shape[1]}x{plane.shape[0]} differs from the "
            f"image's {shape[1]}x{shape[0]}"
        )
    return plane


def load_scene(directory) -> SyntheticScene:
    """Read a scene written by save_scene; fails closed on any file that
    does not fit the image or the category ranges."""
    directory = Path(directory)
    meta_path = directory / "scene.meta"
    if not meta_path.is_file():
        raise DataFormatError(f"{meta_path}: manifest missing")
    try:
        text = meta_path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{meta_path}: not UTF-8 at byte {exc.start}") from None
    meta = parse_keyvalue(text, str(meta_path))
    categories = []
    for raw in meta.get("categories", "").split(","):
        if raw == "":
            continue
        if not (raw.strip().isdecimal() and int(raw) < THING_CLASSES):
            raise DataFormatError(
                f"{meta_path}: instance category {raw!r} is outside "
                f"0..{THING_CLASSES - 1}"
            )
        categories.append(int(raw))
    image = load_ppm(directory / "image.ppm").astype(float)
    image /= 255.0  # in place: one float copy of the image, not two
    shape = image.shape[:2]
    semantic_path = directory / "semantic.pgm"
    semantic = _load_plane(semantic_path, shape).astype(np.int64)
    n_classes = THING_CLASSES + STUFF_CLASSES
    if semantic.max(initial=0) >= n_classes:
        raise DataFormatError(
            f"{semantic_path}: semantic id {semantic.max()} is outside "
            f"0..{n_classes - 1}"
        )
    instances = [
        (_load_plane(directory / f"inst_{k}.pgm", shape) > 127, category)
        for k, category in enumerate(categories)
    ]
    return SyntheticScene(image=image, semantic=semantic, instances=instances, meta=meta)


# -- the dataset on disk -----------------------------------------------------


def _numbered_dirs(scenes_root: Path) -> List[Tuple[int, Path]]:
    """(seed, directory) of every directory under scenes_root that a seed
    names, in name order."""
    found = []
    for child in sorted(path for path in scenes_root.iterdir() if path.is_dir()):
        digits = child.name[1:] if child.name.startswith("-") else child.name
        if digits.isascii() and digits.isdigit():
            found.append((int(child.name), child))
    return found


def save_dataset(root, cfg: SceneConfig, count: int) -> None:
    """Write the scenes of seeds cfg.seed .. cfg.seed + count - 1 and their
    dataset.meta under root.  A numbered scene directory there outside those
    seeds is refused before anything is written."""
    root, seeds = Path(root), range(cfg.seed, cfg.seed + count)
    if (root / "scenes").is_dir():
        for old, path in _numbered_dirs(root / "scenes"):
            if old not in seeds:
                raise ConfigError(f"{path}: scene {old} is not among the {count} scenes "
                                  f"from seed {cfg.seed} that gen writes; remove it first")
    root.mkdir(parents=True, exist_ok=True)
    for seed in seeds:
        save_scene(generate_scene(replace(cfg, seed=seed)), scene_dir(root, seed))
    write_keyvalue(root / "dataset.meta", [("count", count), ("first_seed", cfg.seed)]
                   + [(f.name, getattr(cfg, f.name)) for f in fields(cfg) if f.name != "seed"])


class Dataset:
    """The dataset under root: ``size`` is its scenes' (height, width) and
    ``paths`` each listed seed's directory, in seed order.  Opening it checks
    that the directories are exactly the listed seeds, each once.  A pass
    reads the scenes in seed order, one at a time, so it holds one scene
    whatever the dataset's size."""

    def __init__(self, root) -> None:
        root = Path(root)
        self.manifest = root / "dataset.meta"
        try:
            meta = parse_keyvalue(self.manifest.read_text(encoding="utf-8"), str(self.manifest))
            first, count = int(meta["first_seed"]), int(meta["count"])
            self.size = int(meta["height"]), int(meta["width"])
        except (OSError, KeyError, ValueError) as exc:
            raise DataFormatError(
                f"{self.manifest}: missing or malformed dataset manifest ({exc})") from None
        if not all(MIN_SIDE <= side <= MAX_SIDE for side in self.size):
            raise DataFormatError(f"{self.manifest}: scene size {self.size[0]}x{self.size[1]} "
                                  f"is outside [{MIN_SIDE}, {MAX_SIDE}]")
        scenes_root = root / "scenes"
        if not scenes_root.is_dir():
            raise DataFormatError(f"{scenes_root}: no scenes directory")
        listed = range(first, first + count)
        found: Dict[int, Path] = {}
        for seed, child in _numbered_dirs(scenes_root):
            if seed not in listed:
                raise DataFormatError(f"{child}: scene {seed} is not listed in {self.manifest}")
            if seed in found:
                raise DataFormatError(f"{child}: scene {seed} is also at {found[seed]}")
            found[seed] = child
        if len(found) < count:
            missing = next(seed for seed in listed if seed not in found)
            raise DataFormatError(
                f"{scenes_root}: scene {missing} listed in {self.manifest} is missing")
        if not found:
            raise DataFormatError(f"{scenes_root}: dataset is empty")
        self.paths = dict(sorted(found.items()))

    def scene(self, seed: int) -> SyntheticScene:
        """The scene of a listed seed, which must be of the manifest's size."""
        if seed not in self.paths:
            raise DataFormatError(f"{self.manifest}: lists no scene {seed}")
        scene = load_scene(self.paths[seed])
        if (scene.height, scene.width) != self.size:
            raise DataFormatError(f"{self.paths[seed]}: scene is {scene.height}x{scene.width}, "
                                  f"but dataset.meta gives {self.size[0]}x{self.size[1]}")
        return scene

    def __iter__(self) -> Iterator[SyntheticScene]:
        return (self.scene(seed) for seed in self.paths)
