"""Flat binary checkpoint format ("CFLD").

Layout, all little-endian:

    magic   4 bytes  b"CFLD"
    version u32      2 (1 is still read)
    count   u32      number of entries
    entry   repeated count times, names in strictly ascending order:
        name_len u32, name UTF-8,
        rank u32, extent u64 per dimension,
        data float64 C-order
    crc     u32      zlib.crc32 of every byte before it (version 2 only)

A version 2 file whose crc does not match its bytes is rejected before
any entry is parsed, so a corrupted weight never loads silently and a
corrupted entry header is reported as a crc mismatch.  Version 1 files,
written before the trailer existed, carry no crc and load as before.

Model configuration rides along as scalar entries named ``config.<key>``
so evaluation can reject a checkpoint whose architecture does not match
the requested one.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from dataclasses import fields
from pathlib import Path
from typing import Dict

import numpy as np

from .errors import DataFormatError
from .model import ModelConfig, PanopticModel

MAGIC = b"CFLD"
VERSION = 2

_CONFIG_KEYS = tuple(f.name for f in fields(ModelConfig)) + ("k_thing", "k_stuff")
_SCM_MODES = ("global", "axial")


def save_checkpoint(path, arrays: Dict[str, np.ndarray]) -> None:
    """Write `arrays` to `path` through ``<path>.tmp`` and a rename.

    A save that fails or is killed partway leaves any earlier file at
    `path` whole.
    """
    chunks = [MAGIC, struct.pack("<II", VERSION, len(arrays))]
    for name in sorted(arrays):
        data = np.asarray(arrays[name], dtype="<f8", order="C")
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<I", data.ndim))
        chunks.append(struct.pack(f"<{data.ndim}Q", *data.shape))
        chunks.append(data.tobytes())
    body = b"".join(chunks)
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


class _Reader:
    """Reads `path`'s bytes in order, up to `end` (the whole file unless
    narrowed to exclude a trailer)."""

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.data = self.path.read_bytes()
        self.end = len(self.data)
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > self.end:
            raise DataFormatError(
                f"{self.path}: truncated at byte {self.end} "
                f"reading {what} ({n} bytes needed at offset {self.pos})"
            )
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]


def load_checkpoint(path) -> Dict[str, np.ndarray]:
    reader = _Reader(path)
    magic = reader.take(4, "magic")
    if magic != MAGIC:
        raise DataFormatError(
            f"{reader.path}: expected {MAGIC!r} magic at byte 0, found {magic!r}"
        )
    version = reader.u32("version")
    if version not in (1, VERSION):
        raise DataFormatError(
            f"{reader.path}: unsupported version {version} at byte 4"
        )
    if version == VERSION:
        # The entries end where the crc trailer starts.  A file too short
        # to hold a count and a trailer reads as truncated below; a longer
        # one must match its crc before any entry header is trusted.
        reader.end = max(reader.pos, reader.end - 4)
        if reader.end - reader.pos >= 4:
            stored = struct.unpack("<I", reader.data[reader.end:])[0]
            computed = zlib.crc32(reader.data[:reader.end])
            if stored != computed:
                raise DataFormatError(
                    f"{reader.path}: stored crc32 {stored:#010x} does not match "
                    f"the computed {computed:#010x} of bytes 0-{reader.end - 1}"
                )
    count = reader.u32("entry count")
    arrays: Dict[str, np.ndarray] = {}
    previous = None
    for _ in range(count):
        start = reader.pos
        name_len = reader.u32("name length")
        try:
            name = reader.take(name_len, "entry name").decode("utf-8")
        except UnicodeDecodeError:
            raise DataFormatError(
                f"{reader.path}: entry name ending at byte {reader.pos} "
                "is not UTF-8"
            ) from None
        # Strictly ascending names rule out a repeated entry.
        if previous is not None and name <= previous:
            raise DataFormatError(
                f"{reader.path}: entry {name!r} at byte {start} does not come "
                f"after {previous!r}; names must be strictly ascending"
            )
        previous = name
        rank = reader.u32(f"rank of {name!r}")
        shape = struct.unpack(
            f"<{rank}Q", reader.take(8 * rank, f"extents of {name!r}")
        )
        # Python ints do not wrap, so an oversized entry reads as truncated.
        n_items = math.prod(shape)
        raw = reader.take(8 * n_items, f"data of {name!r}")
        try:
            arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        except ValueError:
            # Only an empty entry gets here: numpy rejects its extents.
            raise DataFormatError(
                f"{reader.path}: entry {name!r} has unsupported extents {shape}"
            ) from None
    if reader.pos != reader.end:
        raise DataFormatError(
            f"{reader.path}: {reader.end - reader.pos} trailing bytes "
            f"at byte {reader.pos}"
        )
    return arrays


def config_entries(cfg: ModelConfig) -> Dict[str, np.ndarray]:
    out = {}
    for key in _CONFIG_KEYS:
        value = getattr(cfg, key)
        if key == "scm_mode":
            value = _SCM_MODES.index(value)
        out[f"config.{key}"] = np.asarray(float(value))
    return out


def model_state(model: PanopticModel) -> Dict[str, np.ndarray]:
    state = {name: p.data.copy() for name, p in model.parameters().items()}
    state.update(config_entries(model.cfg))
    return state


def _shown(key: str, value: float) -> str:
    """A stored config value as messages show it: scm_mode by its name."""
    named = key == "config.scm_mode" and value in range(len(_SCM_MODES))
    return _SCM_MODES[int(value)] if named else f"{value:g}"


def check_config(arrays: Dict[str, np.ndarray], cfg: ModelConfig, source) -> None:
    """Raise DataFormatError when stored architecture disagrees with cfg."""
    expected = config_entries(cfg)
    mismatched = []
    for key, want in expected.items():
        if key not in arrays:
            raise DataFormatError(f"{source}: checkpoint is missing {key!r}")
        entry = np.asarray(arrays[key])
        if entry.size != 1:
            raise DataFormatError(
                f"{source}: checkpoint entry {key!r} has shape {entry.shape}, "
                f"expected a scalar"
            )
        stored = float(entry.reshape(()))
        if stored != float(want):
            mismatched.append(
                f"{key.split('.', 1)[1]} (checkpoint {_shown(key, stored)}, "
                f"requested {_shown(key, float(want))})"
            )
    if mismatched:
        raise DataFormatError(
            f"{source}: checkpoint does not fit the requested model: "
            + "; ".join(mismatched)
        )


def load_model_state(model: PanopticModel, arrays: Dict[str, np.ndarray],
                     source="checkpoint") -> None:
    """Load ``arrays``, which must hold exactly the model's parameters and
    config entries, into ``model``; any other entry raises DataFormatError."""
    check_config(arrays, model.cfg, source)
    params = model.parameters()
    known = params.keys() | config_entries(model.cfg).keys()
    unexpected = sorted(name for name in arrays if name not in known)
    if unexpected:
        raise DataFormatError(f"{source}: unexpected checkpoint entry {unexpected[0]!r}; "
                              "the requested model has no such parameter")
    for name, param in params.items():
        if name not in arrays:
            raise DataFormatError(f"{source}: missing parameter {name!r}")
        stored = arrays[name]
        if stored.shape != param.data.shape:
            raise DataFormatError(
                f"{source}: parameter {name!r} has shape {stored.shape}, "
                f"expected {param.data.shape}"
            )
        if not np.isfinite(stored).all():
            raise DataFormatError(f"{source}: parameter {name!r} has non-finite values")
        param.data[...] = stored
