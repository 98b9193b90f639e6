#!/usr/bin/env python3
"""List the lines of ``src/anxarc`` that the tier-1 tests never run.

    python scripts/line_audit.py [PYTEST_ARGS...]

Runs the test suite in this process, without acceptance criterion 7 (its
four 1M-post CLI runs), under a ``sys.settrace`` hook that traces only
frames of code in ``src/anxarc``. It then prints, for each module, the
executable lines (those of its compiled code objects) that never ran, with
their source. PYTEST_ARGS, if given, replace the default selection. The
exit code is pytest's.

The hook sees this process only. A forked scan worker (``--workers 2`` and
up) stops tracing as it starts, and a subprocess that a test starts is
never traced, so lines that run only there are expected in the output.
Standard library only; ``coverage`` is not needed. The run takes several
times as long as the same tests untraced.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "anxarc"
DEFAULT_ARGS = [
    "-q", "-p", "no:cacheprovider", str(ROOT / "tests"),
    "--deselect", "tests/test_acceptance.py::test_criterion_7_determinism_and_throughput",
]


def executable_lines(path: Path) -> set[int]:
    """Every line number that some code object compiled from ``path`` runs."""
    lines: set[int] = set()
    todo = [compile(path.read_bytes(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo += [const for const in code.co_consts if isinstance(const, CodeType)]
    return lines


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    prefix = str(SRC) + os.sep
    hits: dict[str, set[int]] = {}
    local_tracers = {}

    def global_trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        local = local_tracers.get(filename)
        if local is None:
            ran = hits.setdefault(filename, set())

            def local(frame, event, arg):
                if event == "line":
                    ran.add(frame.f_lineno)
                return local

            local_tracers[filename] = local
        return local

    def stop_tracing():
        sys.settrace(None)
        threading.settrace(None)

    os.register_at_fork(after_in_child=stop_tracing)
    threading.settrace(global_trace)
    sys.settrace(global_trace)
    try:
        code = pytest.main(argv or DEFAULT_ARGS)
    finally:
        stop_tracing()

    total = 0
    for path in sorted(SRC.glob("*.py")):
        missed = sorted(executable_lines(path) - hits.get(str(path), set()))
        total += len(missed)
        if not missed:
            continue
        source = path.read_text(encoding="utf-8").splitlines()
        print(f"{path.relative_to(ROOT)}: {len(missed)} lines never ran")
        for line in missed:
            print(f"  {line:4d}  {source[line - 1].strip()}")
    print(f"line audit: {total} lines of {SRC.relative_to(ROOT)} never ran in this process")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
