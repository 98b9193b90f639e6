"""Corpus scan: stream posts, score them, and fill per-slice bin aggregates.

Every corpus file of a run is checked before the first block is read, then
opened only when its turn comes, and read as blocks of whole lines of about
``CHUNK_BYTES`` each (``corpus.read_blocks``; a block never spans two
files). At ``--workers 1`` each block is scanned into the run's one
``ScanResult`` in place and dropped before the next is read, so the scan's
working set is one block plus the aggregates, whatever the corpus size.
With more workers (``workers.scan_in_workers``) the parent still cuts and
numbers every block, but it hands each worker only the spans of the blocks
it asks for; a worker reads its spans back from the file, scans them all
into one result of its own and sends that result back once, at the end.
Every aggregate field is an exact integer sum, so the final result does not
depend on the worker count, the block size or how the input is split into
files. Each block carries its file and first line number, so the recorded
skip events keep stream order and name their file and line.
"""

from __future__ import annotations

import os
from stat import S_ISREG
from typing import IO, Iterable, Iterator, NamedTuple

from . import _kernel
from ._kernel import PRONOUN_SHIFT
from .corpus import (
    FORMATS,
    CorpusError,
    SkipEvent,
    UnknownTimezoneError,
    data_lines,
    localize,
    open_corpus_path,
    parse_record,
    read_blocks,
)
from .lexicon import Lexicon
from .scoring import BinAggregate
from .slicer import (
    PRONOUN_KEYS_BY_BITS,
    PRONOUNS,
    Tense,
    VerbTables,
    load_verb_tables,
    tense_of,
    token_table,
)

FAMILIES = ("hour", "weekday", "tense", "pronoun")

# Bytes per block, up to the end of the line that reaches it; the scan holds
# one block at a time at one worker. Results do not depend on it: aggregates
# are exact sums and skip events keep stream order.
CHUNK_BYTES = 1 << 20

MAX_RECORDED_SKIPS = 50


class _ScanState(NamedTuple):
    fmt: str
    families: frozenset[str]
    # The token table that scores every post (``slicer.token_table``); it
    # holds tense bits only when the tense slice is requested. Forked
    # workers inherit it.
    table: dict[str, int]
    # The kernel's value for a word missing from the table: None applies
    # the tense suffix rules, 0 skips them when no tense slice reads them.
    miss: int | None


class ScanResult:
    """Aggregates for one scan: overall bin plus the requested slice families."""

    def __init__(self, families: Iterable[str]):
        self.families = frozenset(families)
        unknown = self.families.difference(FAMILIES)
        if unknown:
            raise ValueError(f"unknown slice families: {sorted(unknown)}")
        self.overall = BinAggregate()
        self.hours: dict[int, BinAggregate] = {}
        self.weekdays: dict[int, BinAggregate] = {}
        self.tenses: dict[Tense, BinAggregate] = {}
        self.pronouns: dict[str, BinAggregate] = {}
        self.pronoun_overall = BinAggregate()
        if "hour" in self.families:
            self.hours = {h: BinAggregate() for h in range(24)}
        if "weekday" in self.families:
            self.weekdays = {d: BinAggregate() for d in range(7)}
        if "tense" in self.families:
            self.tenses = {t: BinAggregate() for t in Tense}
        if "pronoun" in self.families:
            self.pronouns = {p: BinAggregate() for p in PRONOUNS}
        self.n_records = 0
        self.n_parse_skips = 0
        self.n_empty_skips = 0
        self.n_tz_skips = 0
        self.skip_events: list[SkipEvent] = []

    def skip_counts(self) -> dict[str, int]:
        return {
            "n_records": self.n_records,
            "n_parse_skips": self.n_parse_skips,
            "n_empty_skips": self.n_empty_skips,
            "n_tz_skips": self.n_tz_skips,
        }

    def get_bin(self, family: str, key: str) -> BinAggregate:
        """Look up one bin by family name and string key (CLI slice syntax)."""
        if family == "hour":
            bins: dict = self.hours
            parsed: object = int(key)
            if not 0 <= parsed <= 23:
                raise KeyError(key)
        elif family == "weekday":
            bins = self.weekdays
            parsed = int(key)
            if not 0 <= parsed <= 6:
                raise KeyError(key)
        elif family == "tense":
            bins = self.tenses
            parsed = Tense(key)
        elif family == "pronoun":
            bins = self.pronouns
            parsed = key
        else:
            raise KeyError(family)
        return bins[parsed]

    def merge_from(self, other: ScanResult) -> None:
        self.overall.merge_from(other.overall)
        self.pronoun_overall.merge_from(other.pronoun_overall)
        for key, agg in other.hours.items():
            self.hours[key].merge_from(agg)
        for key, agg in other.weekdays.items():
            self.weekdays[key].merge_from(agg)
        for tense, agg in other.tenses.items():
            self.tenses[tense].merge_from(agg)
        for pron, agg in other.pronouns.items():
            self.pronouns[pron].merge_from(agg)
        self.n_records += other.n_records
        self.n_parse_skips += other.n_parse_skips
        self.n_empty_skips += other.n_empty_skips
        self.n_tz_skips += other.n_tz_skips
        room = MAX_RECORDED_SKIPS - len(self.skip_events)
        if room > 0:
            self.skip_events.extend(other.skip_events[:room])


_Chunk = tuple[str, int, list[bytes]]  # (file path, first line number, whole lines)


# (tense_bins, pronoun_bins) of one result, from _bin_lookups.
_Lookups = tuple[tuple[BinAggregate, ...] | None, tuple[tuple[BinAggregate, ...], ...] | None]


def _bin_lookups(res: ScanResult) -> _Lookups:
    """A result's bins by the kernel's flags, built once per result.

    A post's tense bin is indexed by its flags below PRONOUN_SHIFT, and its
    pronoun bins by the flags from PRONOUN_SHIFT up; either is None when
    the result has no such family.
    """
    tense_bins = None
    if res.tenses:
        tense_bins = tuple(res.tenses[tense_of(f)] for f in range(1 << PRONOUN_SHIFT))
    pronoun_bins = None
    if res.pronouns:
        pronoun_bins = tuple(
            (res.pronoun_overall, *(res.pronouns[k] for k in keys)) if keys else ()
            for keys in PRONOUN_KEYS_BY_BITS
        )
    return tense_bins, pronoun_bins


def _scan_chunk(chunk: _Chunk, st: _ScanState, res: ScanResult, lookups: _Lookups) -> None:
    """Scan one chunk into ``res`` in place; ``lookups`` is ``_bin_lookups(res)``."""
    path, first_line_no, lines = chunk
    n_records = 0
    fmt = st.fmt
    table = st.table
    miss = st.miss
    score_text = _kernel.score_text
    update = BinAggregate.update_counts
    overall = res.overall
    hours = res.hours
    weekdays = res.weekdays
    need_time = bool(hours or weekdays)
    tense_bins, pronoun_bins = lookups
    low_bits = (1 << PRONOUN_SHIFT) - 1

    for line_no, line in data_lines(lines, first_line_no, fmt):
        n_records += 1
        try:
            text, stamp, zone = parse_record(line, fmt)
        except ValueError as exc:
            res.n_parse_skips += 1
            if len(res.skip_events) < MAX_RECORDED_SKIPS:
                res.skip_events.append(SkipEvent(path, line_no, str(exc)))
            continue

        n_tok, n_anx, n_calm, flags = score_text(text, table, miss)
        if n_tok == 0:
            res.n_empty_skips += 1
            continue

        bins = [overall]
        if need_time:
            try:
                hour, weekday = localize(stamp, zone)
            except UnknownTimezoneError:
                res.n_tz_skips += 1
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
    res.n_records += n_records


_FileKey = tuple[int, int, int]  # (st_dev, st_ino, st_size) of a corpus file
# A checked corpus file: its path and the key it had when the run began.
_Checked = tuple[str, _FileKey]


def _file_key(fh: IO[bytes]) -> _FileKey:
    st = os.fstat(fh.fileno())
    if not S_ISREG(st.st_mode):
        # Blocks are read back by byte offset, and a pipe cannot be reopened.
        raise CorpusError(f"cannot read corpus: not a regular file: {fh.name}")
    return st.st_dev, st.st_ino, st.st_size


def _changed(path: str, line_no: int) -> CorpusError:
    return CorpusError(f"corpus changed during the scan: {path} (from line {line_no})")


def _open_checked(checked: _Checked, line_no: int) -> IO[bytes]:
    """Open a checked corpus file; CorpusError if it is not the file checked.

    ``line_no`` is the first line the caller is about to read, for the error.
    """
    path, key = checked
    fh = open_corpus_path(path)
    try:
        if _file_key(fh) != key:
            raise _changed(path, line_no)
    except CorpusError:
        fh.close()
        raise
    return fh


def _blocks(files: list[_Checked]) -> Iterator[tuple[int, int, list[bytes]]]:
    """Yield (file index, first line number, lines) for every block of the run.

    Each file is opened only when its turn comes and closed after its last
    block, so one file is open at a time however many there are.
    """
    for index, checked in enumerate(files):
        with _open_checked(checked, 1) as fh:
            for line_no, lines in read_blocks(fh, CHUNK_BYTES):
                yield index, line_no, lines
                del lines


def scan_corpus(
    *paths: str,
    lexicon: Lexicon,
    families: Iterable[str] = FAMILIES,
    fmt: str = "jsonl",
    tables: VerbTables | None = None,
    workers: int = 1,
) -> ScanResult:
    """Scan one or more corpus files as one stream of posts.

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
    if "tense" not in families:
        tables = None
    elif tables is None:
        tables = load_verb_tables()
    state = _ScanState(fmt=fmt, families=families, table=token_table(lexicon.class_map, tables),
                       miss=0 if tables is None else None)

    # Every path is checked before the first block is read, so a missing or
    # unreadable later file fails the run before any scanning. Each is
    # closed again at once: any number of files can be scanned.
    files = []
    for path in paths:
        with open_corpus_path(path) as fh:
            files.append((path, _file_key(fh)))

    if workers > 1:
        # Loaded here: a one-worker run never compiles or imports the worker
        # scan, nor multiprocessing.
        from .workers import scan_in_workers

        return scan_in_workers(files, state, workers)
    # Each block is scanned into the run's one result and dropped before
    # the next is read, so one block is live at a time.
    total = ScanResult(families)
    lookups = _bin_lookups(total)
    for index, line_no, lines in _blocks(files):
        _scan_chunk((paths[index], line_no, lines), state, total, lookups)
        del lines
    return total
