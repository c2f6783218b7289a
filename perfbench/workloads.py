"""The benchmark's three workloads: inputs, command lines, outputs, work done.

Each workload drives one ``corrseg`` CLI command.  Its inputs come from
one of ``INPUT_SETS`` fixed input sets, picked by the run's ``--seed``, so
the same seed always gives the same inputs and every run's output can be
checked against a value recorded in ``expected.json``.

Why each workload exists, and which layers it stresses, is written down
in ``README.md`` next to this file.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path
from typing import Callable, Dict, List, Sequence

BENCH_DIR = Path(__file__).resolve().parent
FIXTURE = BENCH_DIR / "fixtures" / "eval_scm_icm.bin"
FIXTURE_SHA256 = BENCH_DIR / "fixtures" / "eval_scm_icm.sha256"
EXPECTED = BENCH_DIR / "expected.json"

INPUT_SETS = 16

TWIN_KEYS = "twin_mode=1\nmin_things=2\nmax_things=2\n"

# Tolerances of the output checks, as (absolute, relative).  report.csv
# prints 4 decimals, so one unit in the last place absorbs a rounding
# flip; losses.csv prints full precision, and a relative 1e-6 absorbs
# summation-order drift.
REPORT_TOLERANCE = (1e-4, 0.0)
LOSS_TOLERANCE = (0.0, 1e-6)

Main = Callable[[Sequence[str]], int]


def input_set(seed: int) -> int:
    return seed % INPUT_SETS


def run_cli(main: Main, argv: List[str]) -> None:
    code = main(argv)
    if code != 0:
        raise RuntimeError(f"corrseg {' '.join(argv)} exited with {code}")


def generate(main: Main, out: Path, count: int, seed: int, side: int) -> None:
    cfg = out.parent / f"{out.name}.cfg"
    cfg.write_text(TWIN_KEYS + f"height={side}\nwidth={side}\n", encoding="utf-8")
    run_cli(main, ["gen", "--out", str(out), "--count", str(count),
                   "--seed", str(seed), "--config", str(cfg)])


def _read_csv(path: Path) -> List[List[str]]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _report_without_seconds(path: Path) -> List[List[str]]:
    rows = _read_csv(path)
    col = rows[0].index("train_seconds")
    return [row[:col] + row[col + 1:] for row in rows]


def fixture_digest() -> str:
    return hashlib.sha256(FIXTURE.read_bytes()).hexdigest()


def verify_fixture() -> None:
    want = FIXTURE_SHA256.read_text(encoding="utf-8").split()[0]
    got = fixture_digest()
    if got != want:
        raise RuntimeError(
            f"{FIXTURE.name}: sha256 {got} does not match the recorded {want}; "
            "rebuild it with make_fixture.py"
        )


class Ablate:
    """``corrseg ablate``: all six variants on a reduced schedule."""

    name = "ablate"
    side = 64
    scm_mode = "axial"
    scenes = 20
    epochs = 2
    variants = 6
    train_fraction = 0.8
    tolerance = REPORT_TOLERANCE

    def dataset_seed(self, index: int) -> int:
        return 10_000 + 100 * index

    def prepare(self, main: Main, work: Path, index: int) -> None:
        """Nothing on disk: ablate generates its scenes itself."""

    def argv(self, work: Path, out: Path, index: int) -> List[str]:
        return ["ablate", "--out", str(out), "--scenes", str(self.scenes),
                "--epochs", str(self.epochs), "--seed", str(self.dataset_seed(index))]

    def warmup_argv(self, work: Path, out: Path) -> List[str]:
        return ["ablate", "--out", str(out), "--scenes", "4", "--epochs", "1",
                "--seed", "1"]

    def observe(self, out: Path):
        return _report_without_seconds(out / "report.csv")

    def scenes_per_s(self, out: Path, wall: float) -> float:
        rows = _read_csv(out / "report.csv")
        col = rows[0].index("train_seconds")
        seconds = sum(float(row[col]) for row in rows[1:])
        steps = int(self.scenes * self.train_fraction) * self.epochs * self.variants
        return steps / seconds


class Eval:
    """``corrseg eval`` of the committed, partly trained SCM+ICM fixture."""

    name = "eval"
    side = 64
    scm_mode = "axial"
    scenes = 120
    tolerance = REPORT_TOLERANCE

    def dataset_seed(self, index: int) -> int:
        return 20_000 + 1000 * index

    def prepare(self, main: Main, work: Path, index: int) -> None:
        verify_fixture()
        generate(main, work / "data", self.scenes, self.dataset_seed(index), self.side)
        generate(main, work / "warm-data", 2, 1, self.side)

    def argv(self, work: Path, out: Path, index: int) -> List[str]:
        return ["eval", "--data", str(work / "data"), "--checkpoint", str(FIXTURE),
                "--use-scm", "--use-icm", "--out", str(out)]

    def warmup_argv(self, work: Path, out: Path) -> List[str]:
        return ["eval", "--data", str(work / "warm-data"), "--checkpoint",
                str(FIXTURE), "--use-scm", "--use-icm", "--out", str(out)]

    def observe(self, out: Path):
        return _report_without_seconds(out / "report.csv")

    def scenes_per_s(self, out: Path, wall: float) -> float:
        return self.scenes / wall


class TrainGlobal:
    """``corrseg train`` with global-mode SCM on 128x128 scenes."""

    name = "train_global"
    side = 128
    scm_mode = "global"
    scenes = 16
    epochs = 2
    tolerance = LOSS_TOLERANCE

    def dataset_seed(self, index: int) -> int:
        return 30_000 + 100 * index

    def prepare(self, main: Main, work: Path, index: int) -> None:
        generate(main, work / "data", self.scenes, self.dataset_seed(index), self.side)
        generate(main, work / "warm-data", 1, 1, self.side)

    def argv(self, work: Path, out: Path, index: int) -> List[str]:
        return ["train", "--data", str(work / "data"), "--out", str(out),
                "--use-scm", "--scm-mode", "global", "--epochs", str(self.epochs)]

    def warmup_argv(self, work: Path, out: Path) -> List[str]:
        return ["train", "--data", str(work / "warm-data"), "--out", str(out),
                "--use-scm", "--scm-mode", "global", "--epochs", "1"]

    def observe(self, out: Path):
        if not (out / "checkpoint.bin").is_file():
            raise RuntimeError(f"{out}: no checkpoint.bin written")
        return _read_csv(out / "losses.csv")

    def scenes_per_s(self, out: Path, wall: float) -> float:
        return self.scenes * self.epochs / wall


WORKLOADS: Dict[str, object] = {w.name: w for w in (Ablate(), Eval(), TrainGlobal())}


def _same_cell(got: str, want: str, atol: float, rtol: float) -> bool:
    if got == want:
        return True
    try:
        g, w = float(got), float(want)
    except ValueError:
        return False
    if math.isnan(g) or math.isnan(w):
        return math.isnan(g) and math.isnan(w)
    return abs(g - w) <= atol + rtol * abs(w)


def mismatches(got, want, tolerance) -> List[str]:
    """Cells of an observed output table that differ from the recorded one."""
    atol, rtol = tolerance
    if len(got) != len(want):
        return [f"{len(got)} rows, expected {len(want)}"]
    bad = []
    for r, (grow, wrow) in enumerate(zip(got, want)):
        if len(grow) != len(wrow):
            bad.append(f"row {r}: {len(grow)} columns, expected {len(wrow)}")
            continue
        for c, (g, w) in enumerate(zip(grow, wrow)):
            if not _same_cell(g, w, atol, rtol):
                bad.append(f"row {r} column {c}: {g!r}, expected {w!r}")
    return bad
