"""Spans recorded from outside the program, by wrapping public functions.

``Hooks.install`` replaces each function in ``HOOKS`` with a timed wrapper
wherever a corrseg module holds a reference to it (module attributes,
module-level dicts such as ``scm.AGGREGATORS``, class attributes), and
``Hooks.remove`` puts the originals back.  Untraced runs never install
anything, so they pay no tracing cost.

A span has a name, start, end, parent and the id of the command run it
belongs to.  Self time is its duration minus the time covered by its
child spans.  A hook whose target no longer exists is counted in
``missing`` instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

from stages import aggregation_macs, conv_macs

# (module, attribute, span name).  Spans sharing a name add up.
HOOKS = (
    ("corrseg.autodiff", "conv2d", "autodiff.conv2d"),
    ("corrseg.autodiff", "Tensor.backward", "autodiff.backward"),
    ("corrseg.autodiff", "SGD.step", "autodiff.sgd_step"),
    ("corrseg.model", "PanopticModel.backbone", "model.backbone"),
    ("corrseg.model", "PanopticModel.semantic_logits", "model.semantic"),
    ("corrseg.model", "PanopticModel.instance_maps", "model.instance"),
    ("corrseg.model", "decode_instances", "model.decode"),
    ("corrseg.scm", "predict_params", "scm.predict_params"),
    ("corrseg.scm", "aggregate_axial", "scm.aggregate"),
    ("corrseg.scm", "aggregate_global", "scm.aggregate"),
    ("corrseg.icm", "icm_forward", "icm.forward"),
    ("corrseg.icm", "predict_params", "icm.predict_params"),
    ("corrseg.corrfn", "corr_profile", "corrfn.corr_profile"),
    ("corrseg.losses", "total_loss", "losses.total"),
    ("corrseg.train", "train_epoch", "train.epoch"),
    ("corrseg.train", "clip_gradients", "train.clip"),
    ("corrseg.train", "infer_panoptic", "train.infer"),
    ("corrseg.train", "evaluate_scenes", "train.evaluate"),
    ("corrseg.train", "twins_detected", "train.twins"),
    ("corrseg.postprocess", "matrix_nms", "postprocess.nms"),
    ("corrseg.postprocess", "fuse_panoptic", "postprocess.fuse"),
    ("corrseg.metrics", "PqAccumulator.add", "metrics.pq_add"),
    ("corrseg.synth", "load_scene", "synth.load"),
    ("corrseg.synth", "generate_scene", "synth.generate"),
    ("corrseg.checkpoint", "save_checkpoint", "checkpoint.save"),
    ("corrseg.checkpoint", "load_checkpoint", "checkpoint.load"),
    ("corrseg.checkpoint", "load_model_state", "checkpoint.load"),
)
ROOT = "cli.main"
STEP = "train.loop"  # one pass of train_epoch's per-scene loop
SPAN_NAMES = tuple(dict.fromkeys(
    [name for _, _, name in HOOKS] + ["autodiff.conv2d_backward", STEP, ROOT]))
VARIANTS = ("baseline", "scm", "icm", "scm_icm", "coords", "sinusoid")


def variant_of(model) -> str:
    """The ablation variant a model was built as, read from the model."""
    encoder = type(getattr(model, "instance_encoder", None)).__name__
    if encoder == "CoordsEncoder":
        return "coords"
    if encoder == "SinusoidEncoder":
        return "sinusoid"
    cfg = model.cfg
    return {(False, False): "baseline", (True, False): "scm",
            (False, True): "icm", (True, True): "scm_icm"}[(cfg.use_scm, cfg.use_icm)]


class Tracer:
    """Open-span stack plus per-command totals, kept in memory."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.command = 0
        self.spans: List[tuple] = []  # (command, id, parent id, name, start, end)
        self._stack: List[list] = []  # [id, name, start, child seconds]
        self._next_id = 0
        self.reset()

    def reset(self) -> None:
        """Start a new command run: totals and counts go back to zero."""
        self.command += 1
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.steps: Dict[str, List[float]] = defaultdict(list)
        self.inferred: Dict[tuple, tuple] = {}

    def current(self) -> Optional[str]:
        return self._stack[-1][1] if self._stack else None

    def begin(self, name: str) -> int:
        self._next_id += 1
        self._stack.append([self._next_id, name, self.clock(), 0.0])
        return len(self._stack)

    def end(self, depth: int) -> float:
        """Close the span opened at ``depth`` and any left open above it."""
        now = self.clock()
        stack = self._stack
        duration = 0.0
        while len(stack) >= depth:
            span_id, name, start, child = stack.pop()
            duration = now - start
            self.self_s[name] += duration - child
            self.total_s[name] += duration
            self.calls[name] += 1
            parent = stack[-1][0] if stack else 0
            if stack:
                stack[-1][3] += duration
            self.spans.append((self.command, span_id, parent, name, start, now))
        return duration

    def timed(self, name: str, fn: Callable, after: Optional[Callable] = None,
              skip_under: Optional[str] = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if skip_under is not None and self.current() == skip_under:
                return fn(*args, **kwargs)
            depth = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(depth)
            if after is not None:
                after(result, *args, **kwargs)
            return result
        return wrapper

    def step_iter(self, scenes, variant: str):
        """Hand out scenes; each loop pass until the next request is a step."""
        for scene in scenes:
            depth = self.begin(STEP)
            yield scene
            self.steps[variant].append(self.end(depth))


def span_cost_seconds(calls: int = 10_000, rounds: int = 3) -> float:
    """Time one span adds to a call: a wrapped no-op against a bare one.

    The fastest of a few rounds is taken, so a slow phase of a shared
    machine does not inflate the estimate.
    """
    def noop():
        return None

    wrapped = Tracer().timed("probe", noop)
    best = {noop: float("inf"), wrapped: float("inf")}
    for _ in range(rounds):
        for fn in (noop, wrapped):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            best[fn] = min(best[fn], time.perf_counter() - start)
    return max(0.0, best[wrapped] - best[noop]) / calls


class Hooks:
    """Installs the HOOKS wrappers into the corrseg modules and removes them."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.missing = 0
        self._undo: List[tuple] = []

    def _after(self, attr: str, name: str) -> Optional[Callable]:
        """Counter update run after a hooked call returns, if any."""
        t = self.tracer

        def conv(out, x, kernel, *args, **kwargs):
            t.counts["conv_macs"] += conv_macs(out.shape, kernel.shape)
            grad_fn = getattr(out, "_grad_fn", None)
            if grad_fn is None:
                return

            def timed_grad_fn(g):
                depth = t.begin("autodiff.conv2d_backward")
                try:
                    grad_fn(g)
                finally:
                    t.end(depth)
            out._grad_fn = timed_grad_fn

        def aggregate(out, features, *args, **kwargs):
            h, w, c = features.shape
            mode = attr[len("aggregate_"):]
            t.counts["aggregation_macs"] += aggregation_macs(mode, h, w, c)

        def decode(pred, *args, **kwargs):
            t.counts["decode_calls"] += 1
            t.counts["candidates"] += len(pred)

        def infer(result, model, scene, *args, **kwargs):
            t.counts["infer_calls"] += 1
            t.inferred[(id(model), id(scene))] = (model, scene)

        def fuse(result, pred, semantic, cfg, *args, **kwargs):
            t.counts["fused"] += len(pred)
            t.counts["kept"] += sum(score > cfg.post_nms_score for score in pred.scores)

        return {
            "autodiff.conv2d": conv,
            "scm.aggregate": aggregate,
            "model.decode": decode,
            "train.infer": infer,
            "postprocess.fuse": fuse,
        }.get(name)

    def _wrapper(self, attr: str, name: str, fn: Callable) -> Callable:
        t = self.tracer
        if name == "train.epoch":
            @functools.wraps(fn)
            def epoch(model, optimizer, scenes, *args, **kwargs):
                depth = t.begin(name)
                try:
                    return fn(model, optimizer, t.step_iter(scenes, variant_of(model)),
                              *args, **kwargs)
                finally:
                    t.end(depth)
            return epoch
        # icm.predict_params delegates to scm.predict_params; keep that
        # time under the ICM span instead of nesting an SCM span in it.
        skip_under = "icm.predict_params" if name == "scm.predict_params" else None
        return t.timed(name, fn, after=self._after(attr, name),
                       skip_under=skip_under)

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "corrseg" or key.startswith("corrseg.")]
        self.missing = 0
        for module_name, attr, name in HOOKS:
            try:
                owner = importlib.import_module(module_name)
                cls_name, _, meth = attr.rpartition(".")
                if cls_name:
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[meth]
                else:
                    original = getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing += 1
                continue
            wrapped = self._wrapper(meth if cls_name else attr, name, original)
            if cls_name:
                self._set(cls, meth, original, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, original, wrapped)
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                self._set(value, dkey, original, wrapped)

    def _set(self, owner, key, original, wrapped) -> None:
        self._undo.append((owner, key, original))
        if isinstance(owner, dict):
            owner[key] = wrapped
        else:
            setattr(owner, key, wrapped)

    def remove(self) -> None:
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()
