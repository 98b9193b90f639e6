"""Start, time and reap the benchmark's measured processes, one request per stdin line.

Each request is a JSON object with ``argv``, ``cwd``, ``stderr`` (a file
path) and ``timeout``; the reply is one JSON line with the exit ``code``, the
``wall_s`` from spawn to reaping, and ``maxrss_kb``.

run.py starts this helper before it generates any input, so the helper
stays small. That matters for ``maxrss_kb``: Linux carries the hiwater RSS
of the address space a process had before ``exec`` into its ``ru_maxrss``,
so a child spawned straight from run.py, which holds a large corpus, would
report run.py's memory instead of its own.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run(request: dict) -> dict:
    with open(request["stderr"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(request["argv"], cwd=request["cwd"], stdout=subprocess.DEVNULL,
                                stderr=err, start_new_session=True)
        timer = threading.Timer(request["timeout"], _kill_group, (proc.pid,))
        timer.start()
        try:
            # wait4 reports the child's rusage including every descendant it
            # reaped: the CLI process and its pool workers alike.
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
