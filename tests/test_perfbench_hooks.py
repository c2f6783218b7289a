"""The benchmark tracer's hooks and variants still match corrseg.

``perfbench/tracer.py`` wraps corrseg functions by module and attribute
name, and counts a target that no longer exists as a missing hook rather
than failing the run.  A rename in ``src`` would then drop a benchmark
span without notice; these tests fail instead.  The tracer also splits
training steps by ablation variant, which it reads back from the model;
a variant it names differently or cannot tell apart would move steps to
the wrong per-variant metric.  The tracer is only imported, never
installed, and no bytecode is written next to it.
"""

import importlib
import sys
from pathlib import Path

import pytest

from corrseg import ablation
from corrseg.model import ModelConfig

PERFBENCH = Path(__file__).parents[1] / "perfbench"

# train.twins_covered was once train.twins_detected; the tracer still
# names the old function and reports it as its one missing hook.
KNOWN_STALE = {"train.twins_detected"}


def _resolves(module_name: str, attr: str) -> bool:
    """Whether the tracer finds the target: a module attribute, or a
    method defined on the class itself."""
    owner = importlib.import_module(module_name)
    cls_name, _, name = attr.rpartition(".")
    if not cls_name:
        return hasattr(owner, name)
    cls = getattr(owner, cls_name, None)
    return cls is not None and name in vars(cls)


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer")


def test_every_tracer_hook_resolves(tracer):
    unresolved = {f"{module_name.removeprefix('corrseg.')}.{attr}"
                  for module_name, attr, _ in tracer.HOOKS
                  if not _resolves(module_name, attr)}
    assert unresolved <= KNOWN_STALE


def test_tracer_variants_are_the_table_rows(tracer):
    assert tracer.VARIANTS == tuple(ablation.VARIANTS)


@pytest.mark.parametrize("variant", ablation.VARIANTS)
def test_tracer_reads_each_row_back_from_its_model(tracer, variant):
    cfg = ModelConfig(channels=4, n_fourier=2, s_ref=2, grid_size=2)
    assert tracer.variant_of(ablation.make_variant_model(variant, cfg, 1)) == variant
