"""Packaging promises that nothing else checks.

The declared Python floor is the oldest interpreter CI tests:
``pyproject.toml``'s ``requires-python`` and the README both promise a
minimum version; the ``tests`` job of the CI workflow is what actually
runs the suite.  A floor below the oldest tested interpreter is a
promise nobody checks (``dataclass(slots=True)`` already needs 3.10), so
the three must name the same version.  Read with the standard library
and regular expressions only: no TOML or YAML parser is required.

Every module under ``src/repro`` is reachable: a static import walk
from the CLI, the end-to-end benchmark and the examples reaches it.  A
module that only tests import is code no user can run.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _version(text: str) -> tuple:
    return tuple(int(part) for part in text.split("."))


def declared_floor() -> tuple:
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(
        r'^requires-python\s*=\s*">=\s*([\d.]+)"', pyproject, re.MULTILINE
    )
    assert match, "pyproject.toml declares no requires-python floor"
    return _version(match.group(1))


def ci_floor() -> tuple:
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text(
        encoding="utf-8"
    )
    job = re.search(
        r"^  tests:\n(.*?)(?=^  \S|\Z)", workflow, re.MULTILINE | re.DOTALL
    )
    assert job, "the CI workflow has no tests job"
    matrix = re.search(r"python-version:\s*\[([^\]]*)\]", job.group(1))
    assert matrix, "the tests job has no python-version matrix"
    versions = re.findall(r'"?([\d.]+)"?', matrix.group(1))
    return min(_version(version) for version in versions)


def test_declared_floor_is_the_oldest_tested_python():
    assert declared_floor() == ci_floor()


def test_readme_states_the_declared_floor():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    stated = re.search(r"Pure Python ≥ ([\d.]+)", readme)
    assert stated, "README states no Python floor"
    assert _version(stated.group(1)) == declared_floor()


#: Where a user enters the package: the CLI, and the scripts that drive
#: it as a library.
ENTRY_MODULES = ("repro.experiments.cli", "repro.experiments.__main__")
ENTRY_SCRIPTS = ("benchmarks/e2e/**/*.py", "examples/*.py")


def source_modules() -> dict:
    """Every module under ``src/repro``, by dotted name."""
    src = ROOT / "src"
    modules = {}
    for path in sorted((src / "repro").rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def imported_names(path: Path) -> set:
    """Dotted names a file imports, at any nesting depth.

    ``from a import b`` yields both ``a`` and ``a.b`` (``b`` may be a
    submodule), and ``importlib.import_module("a.b")`` with a literal
    argument counts as an import of ``a.b``.  The package imports
    absolutely, so relative imports are skipped.
    """
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None))
            == "import_module"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            names.add(node.args[0].value)
    return names


def unreachable_modules() -> set:
    modules = source_modules()
    reached = set()
    pending = [path for pattern in ENTRY_SCRIPTS for path in ROOT.glob(pattern)]

    def reach(imported: str) -> None:
        # Importing a.b.c runs a/__init__ and a/b/__init__ first.
        parts = imported.split(".")
        for end in range(1, len(parts) + 1):
            prefix = ".".join(parts[:end])
            if prefix in modules and prefix not in reached:
                reached.add(prefix)
                pending.append(modules[prefix])

    for name in ENTRY_MODULES:
        reach(name)
    while pending:
        for imported in imported_names(pending.pop()):
            reach(imported)
    return set(modules) - reached


def test_every_source_module_is_reachable_from_an_entry_point():
    assert unreachable_modules() == set()
