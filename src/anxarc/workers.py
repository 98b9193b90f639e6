"""The scan at ``--workers N``: forked workers that pull spans over pipes.

The parent starts N forked workers, each with a pipe of its own; N is at
most the run's block count (``pipeline.scan_corpus``). It still cuts and
numbers every block (``pipeline._blocks``), but it keeps only the block's
span and hands it to the next worker that asks for work. A worker reads
each span's lines back from the file, scans every span it takes into one
``ScanResult`` of its own and sends that result back once, at the end; the
parent merges the results. The protocol on each pipe:

* worker -> parent: ``None``, a request for the next span;
* parent -> worker: a span, or ``None`` to stop;
* worker -> parent, last: ``("ok", result)``, or ``("error", exception)``
  if a span could not be read back or scanned; the parent raises that
  exception.

Results are merged as they arrive: ``ScanResult.merge_from`` gives the
same result, skip events included, in any order.

The parent blocks only in ``wait`` on the pipes and sends one small
message per request, so neither side can wait on the other forever, and a
worker that exits without a result reads as EOF on its pipe.
"""

from __future__ import annotations

import multiprocessing
from itertools import islice
from multiprocessing.connection import Connection, wait
from multiprocessing.process import BaseProcess
from typing import Iterator

from . import pipeline
from .corpus import CorpusError

# What a worker is sent instead of a block's lines: (file index, first line
# number, byte offset, line count, byte count).
_Span = tuple[int, int, int, int, int]


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


def _scan_worker(conn: Connection, state: pipeline._ScanState, files: list[pipeline._Checked],
                 parent_ends: list[Connection]) -> None:
    """A scan worker: take spans from the parent and scan them into one result.

    Each span's lines are read back from the file by line count and checked
    against the byte total of the block the parent cut. Spans come in
    stream order, so the worker holds one file open at a time, and its
    result records the first skip events of its own spans.

    ``parent_ends`` are the parent's ends of the pipes made so far, which
    the fork copied; the worker closes them, so that its ``recv`` reads EOF
    if the parent dies.
    """
    for end in parent_ends:
        end.close()
    res = pipeline.ScanResult(state.families)
    lookups = pipeline._bin_lookups(res)
    open_index, fh = -1, None
    try:
        while True:
            conn.send(None)
            span = conn.recv()
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
            # Read back by line count: fh.readlines(nbytes) would overshoot,
            # since on a buffered file it stops at the first line that goes
            # past the hint.
            lines = list(islice(fh, n_lines))
            if len(lines) != n_lines or sum(map(len, lines)) != nbytes:
                raise pipeline._changed(path, first_line_no)
            pipeline._scan_chunk(index, path, first_line_no, lines, state, res, lookups)
            del lines
        reply = ("ok", res)
    except Exception as exc:  # sent to the parent, which raises it
        reply = ("error", exc)
    finally:
        if fh is not None:
            fh.close()
    try:
        conn.send(reply)
    except BrokenPipeError:  # the parent is gone; nobody is left to tell
        pass


def scan_in_workers(files: list[pipeline._Checked], state: pipeline._ScanState,
                    workers: int) -> pipeline.ScanResult:
    """Scan the checked files with ``workers`` forked workers, one result each.

    A worker that exits without a result is a CorpusError naming the file
    and first line of its last span. Every worker is killed and joined on
    every way out.
    """
    # Forked workers inherit the token table without a pickle or a fresh
    # import; the scanning process starts no threads, so fork is safe.
    ctx = multiprocessing.get_context("fork")
    spans = _spans(files)
    procs: dict[Connection, BaseProcess] = {}
    last: dict[Connection, _Span] = {}
    total = pipeline.ScanResult(state.families)
    try:
        for _ in range(workers):
            conn, child_conn = ctx.Pipe()
            procs[conn] = proc = ctx.Process(
                target=_scan_worker, args=(child_conn, state, files, [conn, *procs]), daemon=True)
            proc.start()
            # Closed before the next fork, so this pipe reads EOF once its
            # worker is gone.
            child_conn.close()
        span = next(spans, None)
        live = list(procs)
        while live:
            for conn in wait(live):
                try:
                    msg = conn.recv()
                    if msg is None:
                        conn.send(span)
                except (EOFError, ConnectionError):
                    if conn not in last:
                        raise CorpusError("a scan worker died before its first span") from None
                    index, line_no = last[conn][:2]
                    raise CorpusError(
                        f"a scan worker died at {files[index][0]} line {line_no}") from None
                if msg is None:
                    if span is not None:
                        last[conn] = span
                        span = next(spans, None)
                    continue
                status, value = msg
                if status == "error":
                    raise value
                total.merge_from(value)
                live.remove(conn)
    finally:
        for proc in procs.values():
            proc.kill()
        for conn, proc in procs.items():
            proc.join()
            conn.close()
    return total
