"""Corpus scan: stream posts, score them, and fill per-slice bin aggregates.

The slice families and the keys of their bins are named once, in
``FAMILY_KEYS``; a ``ScanResult`` holds one bin per key of each requested
family (``bins[family][key]``) and its counters in one dict (``counts``).

Every corpus file of a run is checked before the first block is read, then
opened only when its turn comes and cut into blocks of whole lines
(``_blocks``, which states the cut rule; a block never spans two files).
``_scan`` is the one function that scans posts: it takes any iterable of
(file index, first line number, lines) blocks, scans each into one new
``ScanResult`` and drops it before it takes the next, so it holds the token
table, one block and the aggregates, whatever the corpus size. The table is
built from a class map (term -> class code, as ``load_lexicon`` returns it)
and, for a tense slice, the verb tables. A 0-coded (neutral) term in the map
gives the same scan as its absence, but the commands pass only the anxiety
and calm terms, so the neutral terms are freed before the table is built.
``scan_corpus`` is the one reader of the verb tables. It binds ``_scan`` to
the run's arguments and, at one worker (as in every one-block run, since a
run starts no more workers than it has blocks), runs it on the parent's
blocks. With more workers it hands the blocks and the bound function to
``workers.scan_in_workers``: the parent stays the only reader of a corpus
file, each forked worker runs the function on the blocks it is sent, and
the parent merges their results one part at a time (``ScanResult.parts``).
Either way a file that is not the file checked, when its turn comes or
when its last block has been read, stops the scan with a CorpusError.
Every bin and counter is an exact integer sum, so the final result does not
depend on the worker count, the block size or how the input is split into
files. Each skip event carries its stream position (file index, line
number), and a merge keeps the first ``MAX_RECORDED_SKIPS`` events of the
union in that order, so results merge to the same events in any order.
"""

from __future__ import annotations

import io
import os
from functools import partial
from stat import S_ISREG
from typing import IO, Iterable, Iterator

from . import _kernel
from ._kernel import PRONOUN_SHIFT
from .corpus import (
    FORMATS,
    CorpusError,
    SkipEvent,
    UnknownTimezoneError,
    data_lines,
    localize,
    parse_record,
)
from .scoring import BinAggregate
from .slicer import (
    PRONOUN_KEYS_BY_BITS,
    PRONOUNS,
    Tense,
    load_verb_tables,
    tense_of,
    token_table,
)

# Each slice family and its bin keys, in report order.
FAMILY_KEYS: dict[str, tuple] = {
    "hour": tuple(range(24)),
    "weekday": tuple(range(7)),
    "tense": tuple(Tense),
    "pronoun": PRONOUNS,
}
FAMILIES = tuple(FAMILY_KEYS)

# Bytes per block, up to the end of the line that passes it (``_blocks``); the
# scan holds one block at a time at one worker, and so do the parent and each
# worker of a scan at more. It sets memory only: 256 KiB of lines are about
# 0.3 MB of bytes objects, and scan speed is flat from 64 KiB to 4 MiB. Results
# do not depend on it: aggregates are exact sums and skip events keep stream
# order.
CHUNK_BYTES = 1 << 18

MAX_RECORDED_SKIPS = 50


class ScanResult:
    """Aggregates for one scan: the overall bins, the requested families' bins, the counters.

    ``bins[family][key]`` is a slice's bin, for each requested family and
    each key of it in ``FAMILY_KEYS``. ``counts`` holds the records read and
    the three kinds of skip, in the order of the report's meta keys.
    """

    def __init__(self, families: Iterable[str]):
        families = frozenset(families)
        unknown = families.difference(FAMILY_KEYS)
        if unknown:
            raise ValueError(f"unknown slice families: {sorted(unknown)}")
        self.overall = BinAggregate()
        self.pronoun_overall = BinAggregate()
        self.bins: dict[str, dict[object, BinAggregate]] = {
            family: {key: BinAggregate() for key in keys}
            for family, keys in FAMILY_KEYS.items() if family in families
        }
        self.counts: dict[str, int] = dict.fromkeys(
            ("n_records", "n_parse_skips", "n_empty_skips", "n_tz_skips"), 0)
        self.skip_events: list[SkipEvent] = []

    def parts(self) -> Iterator[ScanResult | tuple]:
        """A header (this result's counters, empty bins), then ``(family, key, bin)`` for each
        bin, the overall bins first as family None; each part merges alone (``merge_part``)."""
        head = ScanResult(self.bins)
        head.counts, head.skip_events = self.counts, self.skip_events
        yield head
        yield None, 0, self.overall
        yield None, 1, self.pronoun_overall
        for family, bins in self.bins.items():
            yield from ((family, key, agg) for key, agg in bins.items())

    def merge_part(self, part: ScanResult | tuple) -> None:
        if isinstance(part, ScanResult):
            for name, n in part.counts.items():
                self.counts[name] += n
            if part.skip_events:
                # Each result holds the first events of its own stream, so the
                # first of the union are among them, whatever the merge order.
                self.skip_events = sorted(self.skip_events + part.skip_events)[:MAX_RECORDED_SKIPS]
        else:
            family, key, agg = part
            mine = (self.overall, self.pronoun_overall) if family is None else self.bins[family]
            mine[key].merge_from(agg)

    def merge_from(self, other: ScanResult) -> None:
        for part in other.parts():
            self.merge_part(part)


def _bin_lookups(res: ScanResult) -> tuple:
    """(tense_bins, pronoun_bins): a result's bins by the kernel's flags.

    A post's tense bin is indexed by its flags below PRONOUN_SHIFT, and its
    pronoun bins by the flags from PRONOUN_SHIFT up; either is None when
    the result has no such family.
    """
    tense_bins = pronoun_bins = None
    tenses = res.bins.get("tense")
    if tenses:
        tense_bins = tuple(tenses[tense_of(f)] for f in range(1 << PRONOUN_SHIFT))
    pronouns = res.bins.get("pronoun")
    if pronouns:
        pronoun_bins = tuple(
            (res.pronoun_overall, *(pronouns[k] for k in keys)) if keys else ()
            for keys in PRONOUN_KEYS_BY_BITS
        )
    return tense_bins, pronoun_bins


def _scan(paths: tuple[str, ...], fmt: str, families: frozenset[str], table: dict[str, int],
          blocks: Iterable[tuple[int, int, list[bytes]]]) -> ScanResult:
    """Scan every (file index, first line number, lines) block of ``blocks`` into one new result.

    ``table`` is the token table that scores every post
    (``slicer.token_table``); it holds tense bits only when the tense slice
    is requested. Each block is dropped before the next is taken.
    """
    res = ScanResult(families)
    n_records = 0
    # The kernel's value for a word missing from the table: None applies
    # the tense suffix rules, 0 skips them when no tense slice reads them.
    miss = None if "tense" in families else 0
    score_text = _kernel.score_text
    update = BinAggregate.update_counts
    overall = res.overall
    counts = res.counts
    hours = res.bins.get("hour")
    weekdays = res.bins.get("weekday")
    need_time = bool(hours or weekdays)
    tense_bins, pronoun_bins = _bin_lookups(res)
    low_bits = (1 << PRONOUN_SHIFT) - 1

    for index, first_line_no, lines in blocks:
        for line_no, line in data_lines(lines, first_line_no, fmt):
            n_records += 1
            try:
                text, stamp, zone = parse_record(line, fmt)
            except ValueError as exc:
                counts["n_parse_skips"] += 1
                if len(res.skip_events) < MAX_RECORDED_SKIPS:
                    res.skip_events.append(SkipEvent(index, line_no, paths[index], str(exc)))
                continue

            n_tok, n_anx, n_calm, flags = score_text(text, table, miss)
            if n_tok == 0:
                counts["n_empty_skips"] += 1
                continue

            bins = [overall]
            if need_time:
                try:
                    hour, weekday = localize(stamp, zone)
                except UnknownTimezoneError:
                    counts["n_tz_skips"] += 1
                else:
                    if hours:
                        bins.append(hours[hour])
                    if weekdays:
                        bins.append(weekdays[weekday])
            if tense_bins is not None:
                bins.append(tense_bins[flags & low_bits])
            if pronoun_bins is not None:
                bins += pronoun_bins[flags >> PRONOUN_SHIFT]
            update(bins, n_tok, n_anx, n_calm)
        del lines
    counts["n_records"] = n_records
    return res


_FileKey = tuple[int, int, int]  # (st_dev, st_ino, st_size) of a corpus file


class _Prefix(io.FileIO):
    """A file whose reads end after ``left`` more bytes: ``_open`` sets it to the file's size."""

    def readinto(self, buf) -> int:  # how a buffered reader fills its buffer
        n = super().readinto(memoryview(buf)[:self.left])
        self.left -= n
        return n


def _open(path: str) -> tuple[IO[bytes], _FileKey]:
    """Open a corpus file and take its key; CorpusError if it is unreadable or not a regular file.

    Each file is opened twice, to be checked and then to be scanned, and a
    pipe cannot be reopened. The open never blocks: a FIFO with no writer
    opens at once, to be refused here. Reads of a regular file ignore the flag.
    """
    try:
        raw = _Prefix(path, opener=lambda p, flags: os.open(p, flags | os.O_NONBLOCK))
    except OSError as exc:
        raise CorpusError(f"cannot read corpus: {exc}") from None
    st = os.fstat(raw.fileno())
    if not S_ISREG(st.st_mode):
        raw.close()
        raise CorpusError(f"cannot read corpus: not a regular file: {path}")
    raw.left = st.st_size
    return io.BufferedReader(raw), (st.st_dev, st.st_ino, st.st_size)


def _blocks(files: list[tuple[str, _FileKey]]) -> Iterator[tuple[int, int, list[bytes]]]:
    """Yield (file index, first line number, lines) for every block of the run.

    A block is what ``readlines(CHUNK_BYTES)`` of the buffered file returns:
    whole lines, up to the first line that takes it past ``CHUNK_BYTES``
    bytes (a line that ends exactly there does not end it, unlike in
    ``io.BytesIO``). So a block holds at most ``CHUNK_BYTES`` bytes before
    its last line, and every block but a file's last holds more. Every line
    but a file's last ends in a line feed, and the lines are never joined or
    copied. Each block is dropped before the next is read.

    Each file is opened only when its turn comes, read up to its checked size
    and closed, so one file is open at a time however many there are. A file
    that is no longer the file checked or not of its checked size is a
    CorpusError after its last block, from the line after the last one read.
    """
    for index, (path, key) in enumerate(files):
        fh, now = _open(path)
        with fh:
            line_no = 1  # the first line of the next block
            if now == key:
                while lines := fh.readlines(CHUNK_BYTES):
                    n_lines = len(lines)
                    yield index, line_no, lines
                    del lines
                    line_no += n_lines
            if now != key or fh.tell() != key[2] or os.fstat(fh.fileno()).st_size != key[2]:
                raise CorpusError(f"corpus changed during the scan: {path} (from line {line_no})")


def scan_corpus(
    *paths: str,
    class_map: dict[str, int],
    families: Iterable[str] = FAMILIES,
    fmt: str = "jsonl",
    verb_tables: str | None = None,
    workers: int = 1,
) -> ScanResult:
    """Scan one or more corpus files as one stream of posts.

    ``verb_tables`` is the directory of the verb tables (``--verb-tables``),
    or None for the bundled ones. It is read only when ``"tense"`` is among
    the families, after the format check and before any corpus file is
    opened, so a bad directory is a VerbTableError that comes before every
    CorpusError; without a tense slice it is never read.

    The aggregates do not depend on the worker count or on how the posts
    are split into files: every field is an exact sum. The recorded skip
    events keep stream order whatever the worker count; their line numbers
    count from the start of each file.
    """
    families = frozenset(families)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if fmt not in FORMATS:
        raise CorpusError(f"unknown corpus format {fmt!r}")
    tables = load_verb_tables(verb_tables) if "tense" in families else None
    scan = partial(_scan, paths, fmt, families, token_table(class_map, tables))

    # Every path is checked before the first block is read, so a missing or
    # unreadable later file fails the run before any scanning. Each is
    # closed again at once: any number of files can be scanned.
    files = []
    for path in paths:
        fh, key = _open(path)
        fh.close()
        files.append((path, key))

    # No more workers than blocks: each but a file's last has > CHUNK_BYTES.
    workers = min(workers, sum(-(-key[2] // CHUNK_BYTES) for _, key in files))
    if workers > 1:
        # Loaded here: a one-worker run never compiles or imports the worker
        # scan, nor pickle and select.
        from .workers import scan_in_workers

        return scan_in_workers(_blocks(files), scan, paths, workers)
    return scan(_blocks(files))
