"""The package's default for idle OpenBLAS worker threads.

``fusionframes/__init__.py`` sets ``OPENBLAS_THREAD_TIMEOUT`` before numpy
loads, so idle workers sleep instead of spinning. These tests run fresh
interpreters, because the variable only acts when it is set before numpy
is first imported.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import fusionframes

PACKAGE_INIT = Path(fusionframes.__file__)
READ_TIMEOUT = "import os, fusionframes; print(os.environ['OPENBLAS_THREAD_TIMEOUT'])"


def _child_env(**extra):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    src = str(PACKAGE_INIT.parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(extra)
    return env


def _run(args, **extra):
    return subprocess.run(
        [sys.executable, *args], capture_output=True, env=_child_env(**extra), timeout=60
    )


def test_import_sets_the_default():
    proc = _run(["-c", READ_TIMEOUT])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"4\n"


def test_user_value_wins():
    proc = _run(["-c", READ_TIMEOUT], OPENBLAS_THREAD_TIMEOUT="28")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"28\n"


def test_default_is_set_before_any_package_import():
    # OpenBLAS reads the variable when numpy loads, and every submodule
    # imports numpy, so the setdefault must precede each relative import.
    body = ast.parse(PACKAGE_INIT.read_text(encoding="utf-8")).body
    setdefault = [
        i for i, node in enumerate(body)
        if isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Call)
        and ast.unparse(node.value.func) == "os.environ.setdefault"
        and ast.literal_eval(node.value.args[0]) == "OPENBLAS_THREAD_TIMEOUT"
    ]
    imports = [
        i for i, node in enumerate(body)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        or isinstance(node, (ast.Import, ast.ImportFrom)) and "numpy" in ast.unparse(node)
    ]
    assert len(setdefault) == 1
    assert imports and setdefault[0] < min(imports)


def test_verify_report_does_not_depend_on_the_timeout():
    args = ["-m", "fusionframes", "verify", "--trials", "2", "--seed", "1"]
    ours, openblas_default = _run(args), _run(args, OPENBLAS_THREAD_TIMEOUT="28")
    assert ours.returncode == openblas_default.returncode == 0
    assert ours.stdout == openblas_default.stdout
    assert ours.stdout
