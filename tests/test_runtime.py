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
    """(thread count, OPENBLAS_NUM_THREADS or None, whether numpy is loaded) in
    a fresh interpreter after statement, run without OPENBLAS_NUM_THREADS
    unless env sets it."""
    child_env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    child_env.update(PYTHONPATH=_SRC, **env)
    code = (
        f"import os, sys\n{statement}\n"
        "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'),"
        " 'numpy' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=child_env, capture_output=True, text=True,
        check=True, timeout=60,
    ).stdout.split()
    return int(out[0]), None if out[1] == "None" else out[1], out[2] == "True"


@pytest.mark.parametrize("statement, loads_numpy", [
    pytest.param(statement, loads_numpy, id=statement) for statement, loads_numpy in [
        ("import trimobius", False),
        ("from trimobius.cli import main", False),
        ("import trimobius.poset", True),
        ("import trimobius.bfile", True),
        ("from trimobius import mobius_one_var", True),
        ("from trimobius.cli import main; main(['sums', '-n', '100', '--out', {out!r}])", True),
    ]
])
def test_one_thread_and_environment_unchanged(statement, loads_numpy, tmp_path):
    statement = statement.format(out=str(tmp_path / "sums"))
    assert _after(statement) == (1, None, loads_numpy)


def test_user_setting_is_kept():
    _, value, loaded = _after("import trimobius.poset", OPENBLAS_NUM_THREADS="2")
    assert (value, loaded) == ("2", True)
