"""Corpus scan: stream posts, score them, and fill per-slice bin aggregates.

Every corpus file of a run is read as blocks of whole lines of about
``CHUNK_BYTES`` each (``corpus.read_blocks``; a block never spans two
files). At ``--workers 1`` each block is scanned into the run's one
``ScanResult`` in place and dropped before the next is read, so the scan's
working set is one block plus the aggregates, whatever the corpus size.
With more workers the parent sends each block to one pool, whose workers
scan it into a result of its own; those results merge back in submission
order. Every aggregate field is an exact integer sum, so the final result
does not depend on the worker count, the block size or how the input is
split into files. Each block carries its first line number, so the
recorded skip events keep stream order and name their file and line.
"""

from __future__ import annotations

from collections import deque
from contextlib import ExitStack
from itertools import islice
from typing import Iterable, NamedTuple

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
# What a pool task carries instead of a block's lines: (file path, first line
# number, byte offset, line count, byte count).
_Span = tuple[str, int, int, int, int]


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


_POOL_STATE: _ScanState | None = None


def _init_pool(state: _ScanState) -> None:
    global _POOL_STATE
    _POOL_STATE = state


def _pool_scan(span: _Span) -> ScanResult:
    """Read a block's lines back from its file and scan them into a new result.

    Raises CorpusError if the lines read back are not the block the parent
    cut, as when the file changed during the scan.
    """
    assert _POOL_STATE is not None
    path, first_line_no, offset, n_lines, nbytes = span
    # Read back by line count: fh.readlines(nbytes) would overshoot, since on
    # a buffered file it stops at the first line that goes past the hint.
    with open_corpus_path(path) as fh:
        fh.seek(offset)
        lines = list(islice(fh, n_lines))
    if len(lines) != n_lines or sum(map(len, lines)) != nbytes:
        raise CorpusError(f"corpus changed during the scan: {path} (from line {first_line_no})")
    res = ScanResult(_POOL_STATE.families)
    _scan_chunk((path, first_line_no, lines), _POOL_STATE, res, _bin_lookups(res))
    return res


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
    are split into files: every field is an exact sum. Partial results
    merge in stream order, so the recorded skip events keep it; their line
    numbers count from the start of each file.
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
    total = ScanResult(families)

    with ExitStack() as stack:
        # Every path is opened before the first chunk is read, so a missing
        # or unreadable later file fails the run before any scanning.
        files = [(path, stack.enter_context(open_corpus_path(path))) for path in paths]

        if workers == 1:
            # Each block is scanned into the run's one result and dropped
            # before the next is read, so one block is live at a time.
            lookups = _bin_lookups(total)
            for path, fh in files:
                for line_no, lines in read_blocks(fh, CHUNK_BYTES):
                    _scan_chunk((path, line_no, lines), state, total, lookups)
                    del lines
            return total

        import multiprocessing

        # One pool for every source, with a bounded sliding window of
        # in-flight spans merged strictly in submission order; Pool.imap is
        # avoided because its feeder thread would read the whole corpus
        # ahead. The parent cuts and numbers the blocks, keeps only their
        # spans and drops each block's lines before reading the next.
        with multiprocessing.Pool(workers, initializer=_init_pool, initargs=(state,)) as pool:
            pending: deque = deque()
            for path, fh in files:
                offset = 0
                for line_no, lines in read_blocks(fh, CHUNK_BYTES):
                    n_lines, nbytes = len(lines), sum(map(len, lines))
                    del lines
                    span = (path, line_no, offset, n_lines, nbytes)
                    pending.append(pool.apply_async(_pool_scan, (span,)))
                    offset += nbytes
                    while len(pending) > 2 * workers:
                        total.merge_from(pending.popleft().get())
            while pending:
                total.merge_from(pending.popleft().get())
    return total
