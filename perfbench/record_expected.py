"""Record every workload's output on every input set into expected.json.

Run from the root of a source checkout, after make_fixture.py:

    python3 perfbench/record_expected.py [workload ...]

run.py checks each command's output against these values.  Re-record
only when a change is meant to alter the program's results, and say so:
a performance change must leave them as they are.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(Path.cwd() / "src"))

from corrseg.cli import main  # noqa: E402

import workloads  # noqa: E402


def record(names) -> None:
    expected = (json.loads(workloads.EXPECTED.read_text(encoding="utf-8"))
                if workloads.EXPECTED.is_file() else {})
    work = Path.cwd() / ".perfbench_out" / "record"
    for name in names:
        workload = workloads.WORKLOADS[name]
        table = {}
        for index in range(workloads.INPUT_SETS):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            try:
                workload.prepare(main, work, index)
                workloads.run_cli(main, workload.argv(work, work / "out", index))
                table[str(index)] = workload.observe(work / "out")
            finally:
                shutil.rmtree(work, ignore_errors=True)
            print(f"{name} input set {index}: {table[str(index)][1]}")
        expected[name] = table
    workloads.EXPECTED.write_text(json.dumps(expected, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record(sys.argv[1:] or list(workloads.WORKLOADS))
