"""What needs no numpy runs without it: import trimobius, --help, props and usage errors."""

import os
import subprocess
import sys
from pathlib import Path

import trimobius

_SRC = str(Path(trimobius.__file__).resolve().parents[1])


def _without_numpy(statement):
    """(exit code, stdout, stderr) of a fresh interpreter that runs statement
    with numpy unimportable."""
    code = f"import sys\nsys.modules['numpy'] = None\n{statement}"
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": _SRC},
        capture_output=True, text=True, timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_import():
    assert _without_numpy("import trimobius") == (0, "", "")


def test_help():
    code, out, err = _without_numpy("from trimobius import cli\ncli.main(['--help'])")
    assert (code, err) == (0, "")
    assert out.startswith("usage: trimobius ")


def test_props():
    statement = "from trimobius import cli\nsys.exit(cli.main(['props', '--max-n', '1000']))"
    assert _without_numpy(statement) == (0, (
        "prop1 OK: T(n) divides T(n(n+1)) for all n <= 1000\n"
        "prop2 OK: T(n) | T(T(n)) exactly when n = 1, 2 (mod 4), n <= 1000\n"
    ), "")


def test_usage_error():
    code, out, err = _without_numpy("from trimobius import cli\ncli.main(['sums'])")
    assert (code, out) == (2, "")
    assert err.endswith("error: the following arguments are required: -n/--limit\n")
