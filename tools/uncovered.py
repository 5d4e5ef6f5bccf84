"""List the statements of ``src/fusionframes`` that the test suite never runs.

Runs pytest in this process under a line tracer (``sys.settrace`` and
``threading.settrace``, so pool threads are traced too) and prints how many
executable lines of ``src/fusionframes/*.py`` never ran, then each one as
``path:line``.  The executable lines are those that the compiled code objects
of each file map bytecode to (``co_lines``).  Code that a test runs only in a
subprocess, such as a CLI call through ``subprocess``, is not seen.  The
tracer slows the suite about 1.5x, which is why pytest does not collect this
file.

    python3 tools/uncovered.py [pytest args]    # default: -q tests

Exits with pytest's exit code.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fusionframes"


def executable_lines(path: Path) -> set[int]:
    """Lines that some code object compiled from ``path`` maps bytecode to."""
    lines = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: a module's entry
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main(argv: list[str]) -> int:
    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    ran: dict[str, set[int]] = {name: set() for name in files}

    def trace(frame, event, arg):
        seen = ran.get(frame.f_code.co_filename)
        if seen is None:
            return None
        seen.add(frame.f_lineno)  # the call event: a function's first line

        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local

        return local

    # The package's tests start the CLI in subprocesses, which find it on PYTHONPATH.
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    import pytest

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(argv or ["-q", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = [
        (path, line)
        for name, path in files.items()
        for line in sorted(executable_lines(path) - ran[name])
    ]
    print(f"{len(missed)} executable lines of src/fusionframes never ran")
    for path, line in missed:
        print(f"{path.relative_to(ROOT)}:{line}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
