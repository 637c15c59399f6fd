"""Smoke tests for the demo scripts, the README's commands, the package's
export lists, its version, its declared dependencies and its import
footprint.

No other test runs the demos or the README examples, so an API change they
depend on would otherwise go unnoticed; a stale ``__all__`` entry fails only
on a star import.
"""

import ast
import os
import pathlib
import pkgutil
import re
import runpy
import shlex
import subprocess
import sys

import pytest

import gfwiretap
from gfwiretap import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
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


def readme_commands() -> list[str]:
    """The ``gfwiretap`` lines of the README's "Command line" code block,
    with backslash continuations joined."""
    text = (ROOT / "README.md").read_text()
    section = text.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = re.sub(r"\s*\\\n\s*", " ", block).splitlines()
    return [line for line in lines if line.startswith("gfwiretap ")]


def test_readme_covers_every_subcommand():
    subcommands = {shlex.split(line)[1] for line in readme_commands()}
    assert subcommands == {
        "replica-scan", "critical-rate", "simulate", "leakage", "field-check"
    }


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command_parses(line, tmp_path):
    # runs the command: a removed or renamed flag makes argparse exit, and
    # a row that drifts from its column line shows in the cell count
    out = tmp_path / "out.txt"
    assert cli.main(shlex.split(line)[1:] + ["--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert sum(l.startswith("# versions: ") for l in lines) == 1
    columns, *rows = [l for l in lines if not l.startswith("#")]
    assert rows
    assert {len(row.split(",")) for row in rows} == {len(columns.split(","))}


def test_readme_python_blocks_run(capsys):
    # the "Library quickstart" block calls the public API by keyword
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_package_import_loads_no_scipy(tmp_path):
    # scipy.special alone would about double the package's start-up time;
    # neither the import, the scalar-channel table's build nor a subcommand,
    # header included, may load scipy
    code = (
        "import sys\n"
        "import gfwiretap, gfwiretap.cli\n"
        "from gfwiretap import numerics, replica\n"
        "numerics.default_rule()\n"
        "replica.energy(0.5, replica.make_config(rate=1.0))\n"
        "assert gfwiretap.cli.main(\n"
        f"    ['field-check', '--fields', '20', '--out', {str(tmp_path / 'out.txt')!r}]\n"
        ") == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    src = str(pathlib.Path(gfwiretap.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "[]"


def test_pyproject_version_matches_package():
    # every header reports ``__version__``; pyproject.toml repeats it by hand
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == gfwiretap.__version__


def test_imports_match_declared_dependencies():
    # the third-party modules the package imports are exactly the runtime
    # dependencies pyproject.toml declares
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in deps}
    imported = set()
    for path in (ROOT / "src" / "gfwiretap").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"gfwiretap"}
    assert third_party == declared
