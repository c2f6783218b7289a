"""Build the eval workload's checkpoint fixture and record its sha256.

Run once from the root of a source checkout:

    python3 perfbench/make_fixture.py

It trains the SCM+ICM model on 40 twin scenes (seed 900000, disjoint from
every benchmark input set) for 16 epochs with one BLAS thread.  That is
enough training for the category head to score cells above
``pre_nms_score``, so evaluation exercises decode, NMS and fusion; an
untrained model predicts no instances at all.  The fixture is committed
so later changes to training cannot move the eval workload's input;
run.py refuses to run eval when the file's sha256 differs from the one
recorded here.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(Path.cwd() / "src"))

from corrseg.cli import main  # noqa: E402

import workloads  # noqa: E402

SCENES = 40
SEED = 900_000
EPOCHS = 16


def build() -> None:
    work = Path.cwd() / ".perfbench_out" / "fixture-build"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workloads.generate(main, work / "data", SCENES, SEED, 64)
        workloads.run_cli(main, ["train", "--data", str(work / "data"), "--out",
                              str(work / "run"), "--use-scm", "--use-icm",
                              "--epochs", str(EPOCHS)])
        workloads.FIXTURE.parent.mkdir(exist_ok=True)
        shutil.copyfile(work / "run" / "checkpoint.bin", workloads.FIXTURE)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    digest = workloads.fixture_digest()
    workloads.FIXTURE_SHA256.write_text(f"{digest}  {workloads.FIXTURE.name}\n",
                                        encoding="utf-8")
    print(f"wrote {workloads.FIXTURE} (sha256 {digest})")


if __name__ == "__main__":
    build()
