"""The declared Python floor is the oldest interpreter CI tests.

``pyproject.toml``'s ``requires-python`` and the README both promise a
minimum version; the ``tests`` job of the CI workflow is what actually
runs the suite.  A floor below the oldest tested interpreter is a
promise nobody checks (``dataclass(slots=True)`` already needs 3.10), so
the three must name the same version.  Read with the standard library
and regular expressions only: no TOML or YAML parser is required.
"""

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
