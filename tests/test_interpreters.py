"""The digest pins of ``test_kernel_digests.py`` (kernel bits, backtest
artifacts, the stdout and artifacts of every command, and seven sweeps'
stdout and ``sweep.csv``) under every supported interpreter, not only the
one running the suite.

Each of CPython 3.10 to 3.13 is looked for as a pyenv build (under
``$PYENV_ROOT``, by default ``~/.pyenv``) and then as ``python3.<minor>``
on PATH; one that is absent is skipped with the reason.
"""
import os
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CHECKER = ROOT / "tests" / "test_kernel_digests.py"


def _interpreter(minor: int):
    """A CPython 3.<minor> executable, or None."""
    versions = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    builds = sorted(versions.glob(f"3.{minor}.*/bin/python3"))
    return str(builds[-1]) if builds else shutil.which(f"python3.{minor}")


@pytest.mark.parametrize("minor", [10, 11, 12, 13])
def test_the_digest_pins_hold_under_each_interpreter(minor):
    python = _interpreter(minor)
    if python is None:
        pytest.skip(f"no Python 3.{minor} interpreter found (pyenv build or python3.{minor})")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    checked = subprocess.run([python, str(CHECKER)], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=120)
    assert checked.returncode == 0, f"{python}:\n{checked.stdout}{checked.stderr}"
