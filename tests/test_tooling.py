"""Smoke tests for the demo scripts, the README's commands, the package's
export lists, its version, its declared dependencies and its import
footprint, and golden-output checks of the demos and README commands.

No other test runs the demos or the README examples, so an API change they
depend on would otherwise go unnoticed.  A stale ``__all__`` entry, a
top-level import of an unexported name, or a backticked ``module.name`` in
the README or a docstring that no longer resolves fails here too.

Each README command's output file and each demo's stdout is compared byte
for byte with its copy under ``tests/golden/``, apart from the
``# generated:`` line.  Floats are reproducible only under the versions a
golden file records on its ``# versions:`` line (a demo's golden file starts
with that line).  Under other versions the comparison is skipped, with both
lines in the skip reason, so the report shows it rather than passing.  A
change that moves values on purpose regenerates the files with
``PYTHONPATH=src python tests/test_tooling.py``.
"""

import ast
import contextlib
import importlib
import io
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
from gfwiretap._version import versions_line

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden"
MODULES = ["gfwiretap"] + [
    f"gfwiretap.{info.name}" for info in pkgutil.iter_modules(gfwiretap.__path__)
]
#: The modules the README and docstrings name as ``module.name``.
QUALIFIERS = ("channel", "numerics", "replica", "field", "codec", "simulate", "cli")


def demo_output(path) -> str:
    """The demo's stdout, after the ``# versions:`` line of this run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        # run_path compiles the source directly and writes no bytecode cache
        runpy.run_path(str(path), run_name="__main__")
    return f"# {versions_line()}\n{out.getvalue()}"


def demo_golden(path) -> pathlib.Path:
    return GOLDEN / "demos" / f"{path.stem}.txt"


def check_golden(golden: pathlib.Path, text: str) -> None:
    """Assert ``text`` equals the golden file apart from ``# generated:``
    lines; skip, naming both ``# versions:`` lines, when they differ."""
    expected = golden.read_text()
    recorded, current = (
        next(l for l in t.splitlines() if l.startswith("# versions: "))
        for t in (expected, text)
    )
    if recorded != current:
        pytest.skip(f"{golden.name} was recorded under {recorded!r}; this run has {current!r}")
    kept = [
        [l for l in t.splitlines(keepends=True) if not l.startswith("# generated:")]
        for t in (text, expected)
    ]
    assert kept[0] == kept[1]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path):
    text = demo_output(path)
    assert text.count("\n") > 1
    check_golden(demo_golden(path), text)


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    exec(f"from {module} import *", {})


@pytest.mark.parametrize("module", MODULES)
def test_export_list_names_exist(module):
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


def test_package_imports_only_exported_names():
    stray = []
    for node in ast.parse(pathlib.Path(gfwiretap.__file__).read_text()).body:
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module(f"gfwiretap.{node.module}")
            # ``errors`` and ``_version`` keep no ``__all__``
            exported = getattr(module, "__all__", None)
            if exported is not None:
                stray += [alias.name for alias in node.names if alias.name not in exported]
    assert stray == []


def docstrings() -> str:
    """Every module, class and function docstring of the package."""
    docs = []
    for path in sorted((ROOT / "src" / "gfwiretap").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                docs.append(ast.get_docstring(node, clean=False) or "")
    return "\n".join(docs)


def test_qualified_names_in_readme_and_docstrings_resolve():
    # backticked ``module.name`` references to the package's modules
    pattern = rf"`+((?:{'|'.join(QUALIFIERS)})(?:\.\w+)+)"
    names = set(re.findall(pattern, (ROOT / "README.md").read_text() + docstrings()))
    assert names
    missing = []
    for name in sorted(names):
        module, *path = name.split(".")
        obj = importlib.import_module(f"gfwiretap.{module}")
        for attr in path:
            if not hasattr(obj, attr):
                missing.append(name)
                break
            obj = getattr(obj, attr)
    assert missing == []


def readme_commands() -> list[str]:
    """The ``gfwiretap`` lines of the README's "Command line" code block,
    with backslash continuations joined."""
    text = (ROOT / "README.md").read_text()
    section = text.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = re.sub(r"\s*\\\n\s*", " ", block).splitlines()
    return [line for line in lines if line.startswith("gfwiretap ")]


def command_output(line: str, out: pathlib.Path) -> str:
    """Run a README command line with ``--out out``; return the file's text."""
    assert cli.main(shlex.split(line)[1:] + ["--out", str(out)]) == 0
    return out.read_text()


def command_golden(line: str) -> pathlib.Path:
    """``replica-scan --lambda 3 --rates 0.7:3.0:0.05`` is kept as
    ``replica-scan_lambda_3_rates_0.7-3.0-0.05.txt``."""
    words = [w.lstrip("-").replace(":", "-") for w in shlex.split(line)[1:]]
    return GOLDEN / "cli" / ("_".join(words) + ".txt")


def test_readme_covers_every_subcommand():
    subcommands = {shlex.split(line)[1] for line in readme_commands()}
    assert subcommands == {
        "replica-scan", "critical-rate", "simulate", "leakage", "field-check"
    }


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command_parses(line, tmp_path):
    # runs the command: a removed or renamed flag makes argparse exit, and
    # a row that drifts from its column line shows in the cell count
    text = command_output(line, tmp_path / "out.txt")
    lines = text.splitlines()
    assert sum(l.startswith("# versions: ") for l in lines) == 1
    columns, *rows = [l for l in lines if not l.startswith("#")]
    assert rows
    assert {len(row.split(",")) for row in rows} == {len(columns.split(","))}
    check_golden(command_golden(line), text)


def test_every_golden_file_has_its_command_or_demo():
    # a removed README command or demo must take its golden file with it
    assert {p.name for p in (GOLDEN / "cli").iterdir()} == {
        command_golden(line).name for line in readme_commands()
    }
    assert {p.name for p in (GOLDEN / "demos").iterdir()} == {
        demo_golden(path).name for path in DEMOS
    }


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


if __name__ == "__main__":
    # regenerate every golden file under the running versions
    import tempfile

    for sub in ("cli", "demos"):
        (GOLDEN / sub).mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for line in readme_commands():
            text = command_output(line, pathlib.Path(tmp) / "out.txt")
            command_golden(line).write_text(text)
    for path in DEMOS:
        demo_golden(path).write_text(demo_output(path))
