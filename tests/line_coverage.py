"""Lines of ``featslam`` that a pytest run never executes.

    PYTHONPATH=src python3 tests/line_coverage.py            # the whole suite
    PYTHONPATH=src python3 tests/line_coverage.py -x tests/test_odometry.py

Runs pytest in this process, with any arguments given (``-q tests`` by
default), under a ``sys.settrace`` hook that records the lines executed in
frames of the package's files.  It then prints, module by module, each
line that a code object of the module holds (its ``co_lines()``) and that
never ran, with its source, and the total.  Stdlib only.  Code that tests
run in a subprocess (``featslam run`` through ``subprocess``) is not
traced.  Only the package's frames are traced.  One run of each on a
shared 2-core x86 host took 80.0 s traced against 68.7 s untraced
(pytest's reported times); an earlier pair of runs read 55.1 s against
36.8 s, so the overhead moves with the host's load.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

# as in conftest.py: a checkout named in PYTHONPATH comes first
sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

PACKAGE = Path(importlib.util.find_spec("featslam").origin).parent


def code_lines(code) -> set:
    """Every source line that code and the code objects nested in it hold."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    # a function's first line is its def (or decorator); the def statement
    # runs in the enclosing code, which holds that line too
    if code.co_name != "<module>":
        lines.discard(code.co_firstlineno)
    return lines


def main(argv) -> int:
    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    executed = {name: set() for name in files}

    def trace(frame, event, arg):
        lines = executed.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    sys.settrace(trace)
    try:
        status = pytest.main(argv or ["-q", str(Path(__file__).resolve().parent)])
    finally:
        sys.settrace(None)
    total = 0
    for name, path in files.items():
        source = path.read_text()
        missed = sorted(code_lines(compile(source, name, "exec")) - executed[name])
        text = source.splitlines()
        for line in missed:
            print(f"{path.name}:{line}: {text[line - 1].strip()}")
        total += len(missed)
    print(f"{total} lines never executed")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
