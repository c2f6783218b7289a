"""corrseg benchmark: drive the CLI on one workload and report its metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload ablate --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40

One process calls ``corrseg.cli.main`` in a closed loop with one client:
the next command starts when the previous one has returned.  BLAS is
pinned to one thread before numpy loads.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones (spans recorded by
wrapping public functions, see tracer.py, plus stage micro-runs, see
stages.py).  Every command's output is checked against expected.json.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import os
import sys

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"
SETUP_REPS = 3
MIN_ITERATIONS = 3
clock = time.perf_counter


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _load_program():
    if not (SRC / "corrseg" / "__init__.py").is_file():
        _fail(f"no corrseg sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import corrseg
    if Path(corrseg.__file__).resolve().parent != (SRC / "corrseg").resolve():
        _fail(f"imported corrseg from {corrseg.__file__}, not from {SRC}")
    from corrseg.cli import main
    return main


def _declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["end_to_end"], spec["per_layer"]


def environment() -> dict:
    import numpy
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_pins": {var: os.environ[var] for var in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "loadavg_at_start": os.getloadavg(),
        "machine": platform.machine(),
    }


def fresh_import_seconds() -> float:
    """Import the CLI in a new interpreter, as a user's first command does."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = clock()
    subprocess.run([sys.executable, "-c", "import corrseg.cli"], env=env,
                   check=True, timeout=120, capture_output=True)
    return clock() - start


def run_command(main, argv):
    """(wall seconds, error or None) of one CLI command, stdout discarded."""
    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()):
        start = clock()
        try:
            code = main(argv)
        except Exception:  # a crash is a failed operation, not a benchmark error
            return clock() - start, traceback.format_exc()
        wall = clock() - start
    return wall, None if code == 0 else f"exit code {code}"


def setup(workload, main, work: Path, index: int):
    """Set up SETUP_REPS times; returns (median seconds, input directory).

    One set-up: import the CLI in a fresh interpreter, write the
    workload's inputs to disk, then run one small warm-up command so lazy
    initialisation is not timed.  The last set-up's inputs are used.
    """
    import stages
    stages.check_mac_counter()
    times = []
    for rep in range(SETUP_REPS):
        rep_dir = work / f"setup{rep}"
        if rep_dir.exists():
            shutil.rmtree(rep_dir)
        rep_dir.mkdir(parents=True)
        start = clock()
        fresh_import_seconds()
        with contextlib.redirect_stdout(io.StringIO()):
            workload.prepare(main, rep_dir, index)
        _, error = run_command(main, workload.warmup_argv(rep_dir, rep_dir / "warmup"))
        times.append(clock() - start)
        if error is not None:
            raise RuntimeError(f"warm-up command failed: {error}")
        if rep + 1 < SETUP_REPS:
            shutil.rmtree(rep_dir)
    return median(times), rep_dir


class Runner:
    """Runs and checks commands; counts attempts and failures."""

    def __init__(self, workload, main, inputs: Path, index: int, expected):
        self.workload = workload
        self.main = main
        self.inputs = inputs
        self.index = index
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.count = 0

    def once(self):
        """(wall, scenes per second) of one checked command; None on failure."""
        self.count += 1
        out = self.inputs.parent / f"out{self.count}"
        self.attempted += 1
        wall, error = run_command(self.main, self.workload.argv(self.inputs, out, self.index))
        try:
            if error is None:
                from workloads import mismatches
                if self.expected is None:
                    error = "no recorded output for this input set in expected.json"
                else:
                    bad = mismatches(self.workload.observe(out), self.expected,
                                     self.workload.tolerance)
                    if bad:
                        error = "output differs from expected.json: " + "; ".join(bad[:5])
            if error is None:
                return wall, self.workload.scenes_per_s(out, wall)
        except (OSError, ValueError, RuntimeError) as exc:
            error = f"cannot read output: {exc}"
        finally:
            shutil.rmtree(out, ignore_errors=True)
        self.failed += 1
        print(f"perfbench: {self.workload.name} command {self.count} failed: {error}",
              file=sys.stderr)
        return None


def measure(runner: Runner, seconds: float):
    """Closed loop until the next command would end past ``seconds``."""
    walls, rates = [], []
    deadline = clock() + seconds
    while True:
        result = runner.once()
        if result is not None:
            walls.append(result[0])
            rates.append(result[1])
        typical = median(walls) if walls else 0.0
        if runner.attempted >= MIN_ITERATIONS and clock() + typical > deadline:
            return walls, rates


def _percentile(values, share: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * share // 1))
    return ordered[int(rank) - 1]


def _command_metrics(t, tracer_mod) -> dict:
    """Per-layer values of one traced command run."""
    metrics = {f"{name}_ms": t.self_s.get(name, 0.0) * 1e3 for name in tracer_mod.SPAN_NAMES}
    c = t.counts

    def ratio(num, den):
        return num / den if den else 0.0

    metrics.update({
        "autodiff.conv_macs": c["conv_macs"],
        "scm.aggregation_macs": c["aggregation_macs"],
        "model.candidates_per_scene": ratio(c["candidates"], c["decode_calls"]),
        "train.infer_calls_per_scene": ratio(c["infer_calls"], len(t.inferred)),
        "train.update_ratio": ratio(t.calls["autodiff.sgd_step"], t.calls[tracer_mod.STEP]),
        "postprocess.kept_ratio": ratio(c["kept"], c["fused"]),
        "trace.covered_pct": 100.0 * ratio(
            sum(v for k, v in t.self_s.items() if k != tracer_mod.ROOT),
            t.total_s[tracer_mod.ROOT]),
        "trace.spans": float(sum(t.calls.values())),
    })
    return metrics


def measure_traced(runner: Runner, workload, seconds: float, seed: int, trace_path: Path):
    import stages
    import tracer as tracer_mod

    stage_budget = min(3.0, 0.15 * seconds)
    start = clock()
    metrics = stages.run_stages(workload.side, workload.scm_mode, seed, stage_budget)
    deadline = start + seconds

    t = tracer_mod.Tracer()
    hooks = tracer_mod.Hooks(t)
    plain, traced, per_command = [], [], []
    steps = {v: [] for v in tracer_mod.VARIANTS}
    while True:
        result = runner.once()
        if result is not None:
            plain.append(result[0])
        t.reset()
        hooks.install()
        try:
            depth = t.begin(tracer_mod.ROOT)
            result = runner.once()
            t.end(depth)
        finally:
            hooks.remove()
        if result is not None:
            traced.append(result[0])
            per_command.append(_command_metrics(t, tracer_mod))
            for variant, durations in t.steps.items():
                steps[variant].extend(durations)
        t.inferred.clear()
        typical = 2 * median(traced) if traced else 0.0
        if len(per_command) >= 2 and clock() + typical > deadline:
            break
        if runner.attempted >= 4 * MIN_ITERATIONS and not per_command:
            break

    for key in (per_command[0] if per_command else {}):
        metrics[key] = median(m[key] for m in per_command)
    for variant, durations in steps.items():
        metrics[f"train.step_ms.{variant}.p50"] = _percentile(durations, 0.5) * 1e3
        metrics[f"train.step_ms.{variant}.p90"] = _percentile(durations, 0.9) * 1e3
    if plain and traced:
        metrics["trace.overhead_pct"] = 100.0 * (median(traced) / median(plain) - 1.0)
        metrics["trace.span_cost_pct"] = (100.0 * metrics["trace.spans"]
                                          * tracer_mod.span_cost_seconds() / median(traced))
    metrics["trace.missing_hooks"] = float(hooks.missing)

    with trace_path.open("w", encoding="utf-8") as fh:
        for command, span_id, parent, name, s, e in t.spans:
            fh.write(json.dumps({"command": command, "id": span_id, "parent": parent,
                                 "name": name, "start": s, "end": e}) + "\n")
    return metrics, {"untraced": plain, "traced": traced}


def run_workload(args) -> int:
    main = _load_program()
    import workloads

    env = environment()
    end_to_end, per_layer = _declared_metrics()
    workload = workloads.WORKLOADS[args.workload]
    index = workloads.input_set(args.seed)
    recorded = json.loads(workloads.EXPECTED.read_text(encoding="utf-8"))
    expected = recorded.get(workload.name, {}).get(str(index))

    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = OUT_ROOT / f"{tag}-{os.getpid()}"
    try:
        try:
            setup_s, inputs = setup(workload, main, work, index)
        except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
            _fail(f"set-up failed: {exc}")
        runner = Runner(workload, main, inputs, index, expected)
        if args.trace:
            values, walls = measure_traced(runner, workload, args.seconds, args.seed,
                                           OUT_ROOT / f"spans-{tag}.jsonl")
            declared = per_layer
        else:
            walls, rates = measure(runner, args.seconds)
            values = {
                "setup_s": setup_s,
                "wall_s": median(walls) if walls else 0.0,
                "scenes_per_s": median(rates) if rates else 0.0,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            declared = end_to_end
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing and runner.failed == 0:
        _fail(f"no value computed for declared metrics {missing}")
    for name in missing:  # no command succeeded, so there is nothing to report
        values[name] = 0.0
    extra = {}
    if not args.trace:
        extra["error_rate"] = (runner.failed / runner.attempted, "ratio")
        alias = "eval_scenes_per_s" if workload.name == "eval" else "train_scenes_per_s"
        extra[alias] = (values["scenes_per_s"], "1/s")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }

    print(f"# environment {json.dumps(env)}")
    print(f"# workload {workload.name}, input set {index}, "
          f"{'per-layer (traced)' if args.trace else 'end-to-end'}, "
          f"{runner.attempted} commands, {runner.failed} failed")
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:>16.6g} {metric['unit']}")
    for name, (value, unit) in extra.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    OUT_ROOT.mkdir(exist_ok=True)
    (OUT_ROOT / f"result-{tag}.json").write_text(
        json.dumps({"environment": env, "command_walls_s": walls, **result}, indent=1)
        + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, end-to-end then traced, each in its own process."""
    import workloads  # noqa: F401  (fails early when the benchmark is incomplete)
    traces = (args.trace,) if args.trace is not None else (0, 1)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("ablate", "eval", "train_global"):
        for trace in traces:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, timeout=900)
            print(proc.stdout, end="")
            if proc.returncode != 0:
                print(f"perfbench: {name} --trace {trace} exited with {proc.returncode}",
                      file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                summary["metrics"][f"{name}:{metric}"] = value
    print(json.dumps(summary))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("ablate", "eval", "train_global", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics "
                        "(default 0; with --workload all, both)")
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    args.trace = args.trace or 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
