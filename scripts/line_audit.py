#!/usr/bin/env python3
"""List the lines of ``src/anxarc`` that the tier-1 tests never run.

    python scripts/line_audit.py [PYTEST_ARGS...]

Runs the test suite in this process, without acceptance criterion 7 (its
four 1M-post CLI runs), under a ``sys.settrace`` hook that traces only
frames of code in ``src/anxarc``. It then prints, for each module, the
executable lines (those of its compiled code objects) that never ran, with
their source. PYTEST_ARGS, if given, replace the default selection. The
exit code is pytest's.

A process forked from this one (a ``--workers 2`` scan worker) keeps
tracing the lines it runs and, when it ends through ``os._exit``, appends
them to a file that this process merges after the run. A subprocess that a
test starts is never traced, so lines that run only there are expected in
the output. Standard library only; ``coverage`` is not needed. The run
takes several times as long as the same tests untraced.
"""

from __future__ import annotations

import os
import sys
import tempfile
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

    def trace_child():
        # The child keeps the parent's tracer; it records only its own lines.
        for ran in hits.values():
            ran.clear()
        sys.settrace(global_trace)

    def exit_child(status):
        # A forked child ends through os._exit: its lines go to child_lines.
        if os.getpid() != audit_pid:
            stop_tracing()
            lines = "".join(f"{line}\t{name}\n" for name, ran in hits.items() for line in ran)
            fd = os.open(child_lines, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
            os.write(fd, lines.encode())
            os.close(fd)
        real_exit(status)

    audit_pid, real_exit = os.getpid(), os._exit
    fd, child_lines = tempfile.mkstemp(prefix="line_audit_", suffix=".tsv")
    os.close(fd)
    os.register_at_fork(after_in_child=trace_child)
    os._exit = exit_child
    threading.settrace(global_trace)
    sys.settrace(global_trace)
    try:
        code = pytest.main(argv or DEFAULT_ARGS)
    finally:
        stop_tracing()
        os._exit = real_exit
        with open(child_lines, encoding="utf-8") as fh:
            for row in fh:
                line, name = row.rstrip("\n").split("\t", 1)
                hits.setdefault(name, set()).add(int(line))
        os.remove(child_lines)

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
    print(f"line audit: {total} lines of {SRC.relative_to(ROOT)} never ran in this process"
          " or its forks")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
