"""A fresh trimobius process runs one thread: numpy's OpenBLAS starts no worker."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import trimobius

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task"
)

_SRC = str(Path(trimobius.__file__).resolve().parents[1])


def _after(statement, **env):
    """(thread count, OPENBLAS_NUM_THREADS or None) in a fresh interpreter
    after statement, run without OPENBLAS_NUM_THREADS unless env sets it."""
    child_env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    child_env.update(PYTHONPATH=_SRC, **env)
    code = (
        f"import os\n{statement}\n"
        "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=child_env, capture_output=True, text=True,
        check=True, timeout=60,
    ).stdout.split()
    return int(out[0]), None if out[1] == "None" else out[1]


@pytest.mark.parametrize("statement", ["import trimobius", "from trimobius.cli import main"])
def test_one_thread_and_environment_unchanged(statement):
    assert _after(statement) == (1, None)


def test_user_setting_is_kept():
    _, value = _after("import trimobius", OPENBLAS_NUM_THREADS="2")
    assert value == "2"
