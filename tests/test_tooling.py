"""Smoke tests for the demo scripts and the package's export lists.

No other test runs the demos, so an API change they depend on would
otherwise go unnoticed; a stale ``__all__`` entry fails only on a star import.
"""

import pathlib
import pkgutil
import runpy

import pytest

import gfwiretap

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
MODULES = ["gfwiretap"] + [
    f"gfwiretap.{info.name}" for info in pkgutil.iter_modules(gfwiretap.__path__)
]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    # run_path compiles the source directly and writes no bytecode cache
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    exec(f"from {module} import *", {})
