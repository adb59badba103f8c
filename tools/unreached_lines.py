"""List the lines of ``src/relkin`` function bodies that no tier-1 test runs.

Runs the tier-1 suite in this process under ``sys.settrace`` (and
``threading.settrace``, for threads the tests start), records every line
that executes in a function of ``src/relkin``, and prints each line of a
function or method body that never ran, as ``path:line: source``.  It
needs only the standard library and pytest.  Module and class bodies,
which run on import, are not listed.

    python tools/unreached_lines.py              # the tier-1 suite
    python tools/unreached_lines.py -k harness   # extra arguments go to pytest

Exits 1 when a line is unreached or the suite fails, else 0.
"""

from __future__ import annotations

import inspect
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "relkin"


def body_lines(path: Path) -> set[int]:
    """The lines of ``path`` that hold code of a function body.

    Every code object compiled from the file that is a function (lambdas
    and comprehensions included) contributes the lines its instructions
    map to, except its first line, the ``def`` or its decorator, which runs
    with the enclosing body.
    """
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        stack += [c for c in code.co_consts if inspect.iscode(c)]
        if code.co_flags & inspect.CO_OPTIMIZED:
            lines.update(line for *_, line in code.co_lines() if line is not None)
            lines.discard(code.co_firstlineno)
    return lines


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with ``pytest_args`` under the line tracer; its exit code and the lines run."""
    prefix = str(PACKAGE) + "/"
    hits: dict[str, set[int]] = defaultdict(set)

    def trace_lines(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        # only frames of the package are traced line by line
        return trace_lines if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(PACKAGE.parent))
    import pytest

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def main(argv=None) -> int:
    extra = sys.argv[1:] if argv is None else argv
    status, hits = run_traced(["-q", "--continue-on-collection-errors", str(ROOT / "tests"), *extra])
    unreached = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(body_lines(path) - hits.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
            unreached += 1
    print(f"{unreached} unreached function-body lines in {PACKAGE.relative_to(ROOT)}")
    if status:
        print(f"the test suite failed (pytest exit code {status})")
    return 1 if unreached or status else 0


if __name__ == "__main__":
    sys.exit(main())
