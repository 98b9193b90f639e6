"""The scan at ``--workers N``: forked workers that pull blocks over pipes.

The parent forks N workers (at most the run's block count), each with a
pipe each way, and it is the only process that reads a corpus file: it
cuts and numbers every block (``pipeline._blocks``) and hands each one to
the worker that asks next, as a pickled header ``(file index, first line
number, byte count)`` and then the lines' bytes as they are, never
pickled. The worker reads that many bytes, splits them back into the same
lines, scans every block it gets into one ``ScanResult`` and sends that
back once, at the end. Each message starts with a pickle: ``None`` asks
for a block, the parent answers with a block or ``None`` to stop, and the
worker's last message is its result or the exception it met, which the
parent raises. Results merge alike in any order.

A worker writes only after the parent has read its last message, so each
worker has at most one unread message in its reply pipe: the parent's
buffered reader never holds bytes that ``poll`` cannot see. A worker that
exits without a result, even partway through a message, reads as EOF or a
truncated pickle, so neither side waits on the other forever.
"""

from __future__ import annotations

import io
import os
import pickle
import select
import signal
from typing import BinaryIO, Iterable

from . import pipeline
from .corpus import CorpusError


def _send(fh: BinaryIO, obj: object, lines: Iterable[bytes] = ()) -> None:
    """Write ``obj`` pickled, then ``lines`` as they are, to the pipe file ``fh``."""
    pickle.dump(obj, fh)
    fh.writelines(lines)
    fh.flush()


def _scan_worker(blocks: BinaryIO, replies: BinaryIO, state: pipeline._ScanState,
                 paths: list[str]) -> None:
    """A scan worker: ask for blocks on ``replies``, take them from ``blocks``, reply."""
    res = pipeline.ScanResult(state.families)
    lookups = pipeline._bin_lookups(res)
    try:
        while True:
            _send(replies, None)
            if (header := pickle.load(blocks)) is None:
                break
            index, line_no, nbytes = header
            lines = io.BytesIO(blocks.read(nbytes)).readlines()
            pipeline._scan_chunk(index, paths[index], line_no, lines, state, res, lookups)
            del lines
        reply = res
    except Exception as exc:  # sent to the parent, which raises it
        reply = exc
    _send(replies, reply)


def scan_in_workers(files: list[pipeline._Checked], state: pipeline._ScanState,
                    workers: int) -> pipeline.ScanResult:
    """Scan the checked files with ``workers`` forked workers, one result each.

    A worker that exits without a result is a CorpusError naming its last
    block; every worker is killed and reaped on every way out.
    """
    # Forked workers inherit the token table without a pickle or a fresh
    # import; the scanning process starts no threads, so fork is safe.
    blocks = pipeline._blocks(files)
    pids: list[int] = []
    pipes: dict[int, tuple[BinaryIO, BinaryIO]] = {}  # reply fd -> (its reader, block writer)
    last: dict[int, tuple[int, int]] = {}  # reply fd -> (file index, line) of its last block
    total = pipeline.ScanResult(state.families)
    poller = select.poll()
    try:
        for _ in range(workers):
            block_r, block_w = os.pipe()
            reply_r, reply_w = os.pipe()
            pipes[reply_r] = (open(reply_r, "rb"), open(block_w, "wb"))
            try:
                pid = os.fork()
                if pid == 0:
                    try:
                        # Close the parent's ends, earlier workers' too: EOF if it dies.
                        for reader, writer in pipes.values():
                            reader.close()
                            writer.close()
                        _scan_worker(open(block_r, "rb"), open(reply_w, "wb"), state,
                                     [path for path, _ in files])
                    finally:
                        # Never into the parent's stack, atexit hooks or stdio buffers.
                        os._exit(0)
            finally:
                # Closed before the next fork: a pipe reads EOF once its worker is gone.
                os.close(block_r)
                os.close(reply_w)
            pids.append(pid)
            poller.register(reply_r, select.POLLIN)
        block = next(blocks, None)
        live = len(pids)
        while live:
            for fd, _ in poller.poll():
                reader, writer = pipes[fd]
                try:
                    msg = pickle.load(reader)
                    if msg is None and block is None:
                        _send(writer, None)
                    elif msg is None:
                        index, line_no, lines = block
                        last[fd] = index, line_no
                        _send(writer, (index, line_no, sum(map(len, lines))), lines)
                except (EOFError, pickle.UnpicklingError, ConnectionError):
                    if fd not in last:
                        raise CorpusError("a scan worker died before its first block") from None
                    index, line_no = last[fd]
                    raise CorpusError(
                        f"a scan worker died at {files[index][0]} line {line_no}") from None
                if msg is None:
                    if block is not None:
                        del block, lines  # dropped before the next block is read
                        block = next(blocks, None)
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
        for reader, writer in pipes.values():
            reader.close()
            try:
                writer.close()
            except BrokenPipeError:  # bytes of a block that its worker died before reading
                pass
    return total
