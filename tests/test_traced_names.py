"""Every function the benchmark tracer wraps must stay importable.

``benchmarks/tracer.py`` looks each ``(module, attribute)`` up by name; a
rename in the package would otherwise surface only as an error in the traced
benchmark run.
"""

import pathlib
import runpy
from importlib import import_module

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"
# run_path compiles the source directly and writes no bytecode cache
TRACED = runpy.run_path(str(TRACER))["TRACED"]


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _, _ in TRACED])
def test_traced_function_exists(module, attr):
    assert callable(getattr(import_module(module), attr))
