"""The bytes `gen` writes under scenes/, and its dataset.meta, are pinned
across versions.

Scenes are a pure function of their config and seed, and every stored
result (losses, checkpoints, reports) starts from them, so a change to
the generator, the netpbm writer or the manifests shows here first.
Each run generates two scenes (seeds 5 and 6), plain or twin, at a
square and a non-square size.  The pin is the first 16 hex digits of
each file's sha256, listed like ``sha256sum`` output: the files under
scenes/, then dataset.meta.  A change that moves these bytes on purpose
re-records them and says why.
"""

import hashlib

import pytest

from corrseg.cli import main

RUNS = {
    "plain_32x32": ("height=32\nwidth=32\n", """\
9665b6084fd9c71e  5/image.ppm
64b1fbc2c05e29dd  5/instance.pgm
90ae7b6843863f1a  5/scene.meta
b99c1b9bc1067b00  5/semantic.pgm
1df085e1a9c59e69  6/image.ppm
74e3e235b6abee14  6/instance.pgm
2c73821d4b65474d  6/scene.meta
981161ad10a82c00  6/semantic.pgm
38cde36e74a64639  dataset.meta
"""),
    "twin_32x32": ("height=32\nwidth=32\ntwin_mode=1\n", """\
285c545b6333d204  5/image.ppm
009ce326765e9b20  5/instance.pgm
86e7db252f42f240  5/scene.meta
b10ce3b05e1f4dc4  5/semantic.pgm
2e0ed8add2b91f14  6/image.ppm
dc066d82634ec329  6/instance.pgm
73b265c047db568b  6/scene.meta
4f5fbab6ea634782  6/semantic.pgm
a9f734837a2e2e96  dataset.meta
"""),
    "plain_64x48": ("height=64\nwidth=48\n", """\
c3b6ab0c3a4c3e28  5/image.ppm
7429390a99d8e35f  5/instance.pgm
56763f42021231f8  5/scene.meta
21530fc0ef693c29  5/semantic.pgm
6d13fc3bc3cf8cd8  6/image.ppm
3835da2b16522d46  6/instance.pgm
a57d94276057fcda  6/scene.meta
5f0da0e007cbd2b4  6/semantic.pgm
0dbde0fbca681365  dataset.meta
"""),
    "twin_64x48": ("height=64\nwidth=48\ntwin_mode=1\n", """\
43b9ff7b548fe378  5/image.ppm
210e3e1e5beacba7  5/instance.pgm
ced60714475c8e9b  5/scene.meta
d83fd90b601c8d8c  5/semantic.pgm
8214045a538109da  6/image.ppm
b62168452ecac186  6/instance.pgm
552adf4638c1561b  6/scene.meta
3d55de3b68ea64de  6/semantic.pgm
ef83c3feff567fc3  dataset.meta
"""),
}


def _line(path, name):
    return f"{hashlib.sha256(path.read_bytes()).hexdigest()[:16]}  {name}\n"


def _listing(root):
    return "".join(_line(path, path.relative_to(root).as_posix())
                   for path in sorted(root.rglob("*")) if path.is_file())


@pytest.mark.parametrize("name", RUNS)
def test_scene_bytes_are_pinned(tmp_path, name):
    text, pinned = RUNS[name]
    cfg = tmp_path / "scene.cfg"
    cfg.write_text(text)
    out = tmp_path / "data"
    assert main(["gen", "--config", str(cfg), "--out", str(out),
                 "--count", "2", "--seed", "5"]) == 0
    assert _listing(out / "scenes") + _line(out / "dataset.meta", "dataset.meta") == pinned
