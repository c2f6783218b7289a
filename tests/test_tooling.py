"""Checks of the repository's own tooling and documents.

``pyproject.toml`` turns Deprecation warnings into errors.  A failing
Hypothesis test imports third-party code while it reports, and a
deprecation warning raised there must not end the run in an
INTERNALERROR that hides the falsifying example.  It also turns a
ResourceWarning into an error, so a test that leaves a file open fails.

README's Layout block names every module of the package.
Only synth.py, which writes and reads the dataset on disk, names its
manifests and its scenes' files.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
CONFIG = ROOT / "pyproject.toml"

ALWAYS_FAILS = '''
from hypothesis import given, settings, strategies as st


@settings(max_examples=5, database=None)
@given(st.integers(0, 10))
def test_always_fails(n):
    assert n < 0
'''

LEAKS_A_FILE = '''
def test_leaks_an_open_file(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("x")
    open(path)
'''


def run_under_project_config(tmp_path, source: str):
    """Run one test file with pyproject.toml's pytest settings."""
    test_file = tmp_path / "test_case.py"
    test_file.write_text(source, encoding="utf-8")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(CONFIG), "--rootdir", str(tmp_path), str(test_file)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )


def test_failing_given_test_prints_its_falsifying_example(tmp_path):
    run = run_under_project_config(tmp_path, ALWAYS_FAILS)
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output
    assert "Falsifying example" in output
    assert run.returncode == 1


def test_leaked_file_fails_the_test(tmp_path):
    run = run_under_project_config(tmp_path, LEAKS_A_FILE)
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed" in output and "data.txt" in output
    assert run.returncode == 1


def test_readme_layout_lists_every_module():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Layout\n", 1)[1].split("```")[1]
    package_part = block.split("\ntests/", 1)[0]
    listed = re.findall(r"^  (\w+\.py) ", package_part, flags=re.MULTILINE)
    modules = [path.name for path in (ROOT / "src" / "corrseg").glob("*.py")
               if not path.name.startswith("__")]
    assert sorted(listed) == sorted(modules)


@pytest.mark.parametrize("name", ["dataset.meta", "scene.meta", "image.ppm", "semantic.pgm",
                                  "instance.pgm"])
def test_only_synth_knows_the_dataset_manifest(name):
    """The dataset's on-disk format is written and read in synth.py alone.

    A name counts where a quote or a path's slash starts it, so the
    attribute ``scene.meta`` is not the file."""
    package = ROOT / "src" / "corrseg"
    named = re.compile(r"""(?<=["'/])""" + re.escape(name) + r"\b")
    knowing = sorted(path.name for path in package.glob("*.py")
                     if named.search(path.read_text(encoding="utf-8")))
    assert knowing == ["synth.py"]
