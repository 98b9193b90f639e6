"""The scan at ``--workers N``: forked workers that pull spans over pipes.

The parent forks N workers (at most the run's block count), each with a
pipe each way. It still cuts every block (``pipeline._blocks``), but hands
a worker that asks only the block's span; the worker reads its spans back
from the file with the parent's own cut (``fh.readlines(CHUNK_BYTES)`` from
the block's offset), scans them into one ``ScanResult`` and sends that back
once, at the end. Each message is a pickle after its length: ``None`` asks
for a span, the parent answers with a span or ``None`` to stop, and the
worker's last message is its result or the exception it met, which the
parent raises. Results merge alike in any order. The parent blocks only in
``poll`` and a worker that exits without a result reads as EOF, so neither
side waits on the other forever.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
from typing import Iterator

from . import pipeline
from .corpus import CorpusError

# What a worker is sent instead of a block's lines: (file index, first line
# number, byte offset, line count, byte count).
_Span = tuple[int, int, int, int, int]


def _send(fd: int, obj: object) -> None:
    """Write ``obj`` to the pipe ``fd`` as one message: its pickle's length, then the pickle."""
    data = pickle.dumps(obj)
    view = memoryview(len(data).to_bytes(8, "big") + data)
    while view:
        view = view[os.write(fd, view):]


def _read(fd: int, n: int) -> bytearray:
    buf = bytearray()
    while len(buf) < n:
        if not (chunk := os.read(fd, n - len(buf))):
            raise EOFError
        buf += chunk
    return buf


def _recv(fd: int) -> object:
    """Read one message of ``_send`` from the pipe ``fd``; EOFError if the writer is gone."""
    return pickle.loads(_read(fd, int.from_bytes(_read(fd, 8), "big")))


def _spans(files: list[pipeline._Checked]) -> Iterator[_Span]:
    """The span of every block of the run, in stream order; no lines are kept."""
    offset = 0
    for index, line_no, lines in pipeline._blocks(files):
        if line_no == 1:
            offset = 0
        n_lines, nbytes = len(lines), sum(map(len, lines))
        del lines
        yield index, line_no, offset, n_lines, nbytes
        offset += nbytes


def _scan_worker(span_fd: int, reply_fd: int, state: pipeline._ScanState,
                 files: list[pipeline._Checked]) -> None:
    """A scan worker: ask for spans on ``reply_fd``, take them from ``span_fd``, reply.

    Spans come in stream order, so the worker holds one file open at a time.
    """
    res = pipeline.ScanResult(state.families)
    lookups = pipeline._bin_lookups(res)
    open_index, fh = -1, None
    try:
        while True:
            _send(reply_fd, None)
            span = _recv(span_fd)
            if span is None:
                break
            index, first_line_no, offset, n_lines, nbytes = span
            path = files[index][0]
            if index != open_index:
                if fh is not None:
                    fh.close()
                fh = pipeline._open_checked(files[index], first_line_no)
                open_index = index
            fh.seek(offset)
            lines = fh.readlines(pipeline.CHUNK_BYTES)
            if len(lines) != n_lines or sum(map(len, lines)) != nbytes:
                raise pipeline._changed(path, first_line_no)
            pipeline._scan_chunk(index, path, first_line_no, lines, state, res, lookups)
            del lines
        reply = res
    except Exception as exc:  # sent to the parent, which raises it
        reply = exc
    finally:
        if fh is not None:
            fh.close()
    _send(reply_fd, reply)


def scan_in_workers(files: list[pipeline._Checked], state: pipeline._ScanState,
                    workers: int) -> pipeline.ScanResult:
    """Scan the checked files with ``workers`` forked workers, one result each.

    A worker that exits without a result is a CorpusError naming its last
    span; every worker is killed and reaped on every way out.
    """
    # Forked workers inherit the token table without a pickle or a fresh
    # import; the scanning process starts no threads, so fork is safe.
    spans = _spans(files)
    pids: list[int] = []
    span_fds: dict[int, int] = {}  # each worker's reply pipe -> its span pipe
    last: dict[int, _Span] = {}
    total = pipeline.ScanResult(state.families)
    poller = select.poll()
    try:
        for _ in range(workers):
            span_r, span_w = os.pipe()
            reply_r, reply_w = os.pipe()
            span_fds[reply_r] = span_w
            try:
                pid = os.fork()
                if pid == 0:
                    try:
                        # Close the parent's ends, earlier workers' too: EOF if it dies.
                        for end in (*span_fds, *span_fds.values()):
                            os.close(end)
                        _scan_worker(span_r, reply_w, state, files)
                    finally:
                        # Never into the parent's stack, atexit hooks or stdio buffers.
                        os._exit(0)
            finally:
                # Closed before the next fork: a pipe reads EOF once its worker is gone.
                os.close(span_r)
                os.close(reply_w)
            pids.append(pid)
            poller.register(reply_r, select.POLLIN)
        span = next(spans, None)
        live = len(pids)
        while live:
            for fd, _ in poller.poll():
                try:
                    msg = _recv(fd)
                    if msg is None:
                        _send(span_fds[fd], span)
                except (EOFError, ConnectionError):
                    if fd not in last:
                        raise CorpusError("a scan worker died before its first span") from None
                    index, line_no = last[fd][:2]
                    raise CorpusError(
                        f"a scan worker died at {files[index][0]} line {line_no}") from None
                if msg is None:
                    if span is not None:
                        last[fd] = span
                        span = next(spans, None)
                    continue
                if isinstance(msg, Exception):
                    raise msg
                total.merge_from(msg)
                poller.unregister(fd)
                live -= 1
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for end in (*span_fds, *span_fds.values()):
            os.close(end)
    return total
