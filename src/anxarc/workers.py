"""The scan at ``--workers N``: forked workers that pull blocks over pipes.

The parent forks N workers (at most the run's block count), each with a
pipe each way, and it is the only process that takes the run's blocks: it
hands each one to the worker that asks next, as a pickled header ``(file
index, first line number, byte count)`` and then the lines' bytes as they
are, never pickled. A worker runs the scan function it is given over
``_received``, which yields each block it is sent split back into the same
lines, and replies once, at the end; this module knows nothing of how a
post is scanned. Each message starts with a pickle: ``None`` asks for a
block, the parent answers with a block or ``None`` to stop, and a reply is
the exception the worker met, which the parent raises, or the result's
``parts()`` and then ``None``. The parent keeps the first part it gets as
its total and merges each other part into it as soon as it reads it, so it
holds one part of a reply, never a second result; parts merge alike in any order.

A worker asks for a block only after the parent has read its last message,
and the parent reads a reply to its end once it has its first part. So each
worker has at most one unread message in its reply pipe when the parent
polls: the parent's buffered reader never holds bytes that ``poll`` cannot
see. A worker that exits without its whole reply, even partway through a
message, reads as EOF or a truncated pickle, so neither side waits forever.

A worker whose reply the parent has read is reaped with ``os.waitpid``
alone, so what runs at its ``os._exit`` (a line audit's hook) is not cut
short; every other worker is killed (SIGKILL) and reaped.
"""

from __future__ import annotations

import io
import os
import pickle
import select
import signal
from typing import Any, BinaryIO, Callable, Iterable, Iterator

from .corpus import CorpusError

# (file index, first line number, lines) of one block of the run.
_Block = tuple[int, int, list[bytes]]


def _send(fh: BinaryIO, obj: object, lines: Iterable[bytes] = ()) -> None:
    """Write ``obj`` pickled, then ``lines`` as they are, to the pipe file ``fh``."""
    pickle.dump(obj, fh)
    fh.writelines(lines)
    fh.flush()


def _received(blocks: BinaryIO, replies: BinaryIO) -> Iterator[_Block]:
    """Ask for a block on ``replies`` and yield the block read from ``blocks``, until ``None``."""
    while True:
        _send(replies, None)
        if (header := pickle.load(blocks)) is None:
            return
        index, line_no, nbytes = header
        yield index, line_no, io.BytesIO(blocks.read(nbytes)).readlines()


def _scan_worker(blocks: BinaryIO, replies: BinaryIO,
                 scan: Callable[[Iterator[_Block]], Any]) -> None:
    """A scan worker: scan the blocks it is sent, then reply with the result's parts."""
    try:
        reply = [*scan(_received(blocks, replies)).parts(), None]
    except Exception as exc:  # sent to the parent, which raises it
        reply = [exc]
    for part in reply:
        _send(replies, part)


def _reply(replies: BinaryIO, head: Any, total: Any) -> Any:
    """Merge a reply part by part into ``total`` (None: into ``head``, its first); return it."""
    if total is None:
        total = head
    else:
        total.merge_part(head)
    while (part := pickle.load(replies)) is not None:
        total.merge_part(part)
        del part  # dropped before the next part is read
    return total


def scan_in_workers(blocks: Iterator[_Block], scan: Callable[[Iterator[_Block]], Any],
                    paths: tuple[str, ...], workers: int) -> Any:
    """Run ``scan`` in ``workers`` forked workers over ``blocks``; return the merged results.

    A worker that exits without its whole reply is a CorpusError naming its last
    block's file in ``paths`` and line; every worker is reaped, and killed
    first unless its whole reply has been read, on every way out.
    """
    # Forked workers inherit the scan function and its token table without
    # a pickle or a fresh import; the scanning process starts no threads,
    # so fork is safe.
    pids: dict[int, int] = {}  # reply fd -> its worker's pid, until the worker is reaped
    pipes: dict[int, tuple[BinaryIO, BinaryIO]] = {}  # reply fd -> (its reader, block writer)
    last: dict[int, tuple[int, int]] = {}  # reply fd -> (file index, line) of its last block
    total = None
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
                        _scan_worker(open(block_r, "rb"), open(reply_w, "wb"), scan)
                    finally:
                        # Never into the parent's stack, atexit hooks or stdio buffers.
                        os._exit(0)
            finally:
                # Closed before the next fork: a pipe reads EOF once its worker is gone.
                os.close(block_r)
                os.close(reply_w)
            pids[reply_r] = pid
            poller.register(reply_r, select.POLLIN)
        block = next(blocks, None)
        while pids:
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
                    elif not isinstance(msg, Exception):  # a result's first part
                        msg = _reply(reader, msg, total)
                except (EOFError, pickle.UnpicklingError, ConnectionError):
                    if fd not in last:
                        raise CorpusError("a scan worker died before its first block") from None
                    index, line_no = last[fd]
                    raise CorpusError(
                        f"a scan worker died at {paths[index]} line {line_no}") from None
                if msg is None:
                    if block is not None:
                        del block, lines  # dropped before the next block is read
                        block = next(blocks, None)
                    continue
                # Its whole reply: the worker is on its way to os._exit.
                poller.unregister(fd)
                os.waitpid(pids[fd], 0)
                del pids[fd]
                if isinstance(msg, Exception):
                    raise msg
                total = msg
    finally:
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for reader, writer in pipes.values():
            reader.close()
            try:
                writer.close()
            except BrokenPipeError:  # bytes of a block that its worker died before reading
                pass
    return total
