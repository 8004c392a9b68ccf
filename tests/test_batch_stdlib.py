"""The batched kernel runs on the standard library alone.

``pyproject.toml`` declares no runtime dependencies, so neither
``run_case(kernel="batched")`` nor the CLI's ``--kernel batched`` may
import a third-party package.  Each check runs in a fresh interpreter
whose ``sys.meta_path`` refuses every top-level module that is neither
in the standard library nor ``repro``, and that fails with
``ModuleNotFoundError`` if any module on the path still imports one.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Installed at import time, outside the ``__main__`` guard, so that
#: spawned children (which re-run the main module) refuse imports too.
CHILD = '''
import sys


class StdlibOnly:
    def find_spec(self, name, path=None, target=None):
        top = name.partition(".")[0]
        if top != "repro" and top not in sys.stdlib_module_names:
            raise ModuleNotFoundError(f"{name} is blocked", name=name)
        return None


sys.meta_path.insert(0, StdlibOnly())


def main():
    from repro.experiments.cli import main as cli_main
    from repro.sim.batch import BatchCaseResult
    from repro.sim.campaign import CaseConfig, run_case

    result = run_case(
        CaseConfig(algorithm="ykd", n_processes=8, n_changes=4, runs=5),
        kernel="batched",
    )
    assert isinstance(result, BatchCaseResult), type(result)
    code = cli_main(
        ["compare", "ykd", "dfls", "--runs", "3", "--kernel", "batched"]
    )
    assert code == 0, code


if __name__ == "__main__":
    main()
'''


def test_batched_path_imports_nothing_outside_the_stdlib(tmp_path) -> None:
    script = tmp_path / "child.py"
    script.write_text(CHILD)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    done = subprocess.run(
        [sys.executable, str(script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
