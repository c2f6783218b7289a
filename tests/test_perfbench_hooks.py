"""The benchmark tracer's hooks still name functions that exist.

``perfbench/tracer.py`` wraps corrseg functions by module and attribute
name, and counts a target that no longer exists as a missing hook rather
than failing the run.  A rename in ``src`` would then drop a benchmark
span without notice; this test fails instead.  The tracer is only
imported, never installed, and no bytecode is written next to it.
"""

import importlib
import sys
from pathlib import Path

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


def test_every_tracer_hook_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    unresolved = {f"{module_name.removeprefix('corrseg.')}.{attr}"
                  for module_name, attr, _ in tracer.HOOKS
                  if not _resolves(module_name, attr)}
    assert unresolved <= KNOWN_STALE
