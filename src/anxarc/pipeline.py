"""Corpus scan: stream posts, score them, and fill per-slice bin aggregates.

The slice families and the keys of their bins are named once, in
``FAMILY_KEYS``; a ``ScanResult`` holds one bin per key of each requested
family (``bins[family][key]``) and its counters in one dict (``counts``).

Every corpus file of a run is checked before the first block is read, then
opened only when its turn comes, and read as blocks of whole lines of about
``CHUNK_BYTES`` each (``corpus.read_blocks``; a block never spans two
files). A run starts no more workers than it has blocks. At one worker,
as in every one-block run, each block is scanned into the run's one
``ScanResult`` in place and dropped before the next is read, so the scan
holds the token table, one block and the aggregates, whatever the corpus
size. The table is built from the lexicon's class map alone; the commands
free the associations before it is built.
With more workers (``workers.scan_in_workers``: ``os.fork`` and a pipe each
way, no ``multiprocessing``) the parent is the only process that reads a
corpus file: it cuts and numbers every block and sends each one's bytes to
the worker that asks for it, dropping the block before it reads the next;
a worker scans the blocks it gets into one result of its own and sends
that result back once, at the end. Either way a file that is not the file
checked, when its turn comes or when its last block has been read, stops
the scan with a CorpusError.
Every bin and counter is an exact integer sum, so the final result does not
depend on the worker count, the block size or how the input is split into
files. Each skip event carries its stream position (file index, line
number), and a merge keeps the first ``MAX_RECORDED_SKIPS`` events of the
union in that order, so results merge to the same events in any order.
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

# Each slice family and its bin keys, in report order.
FAMILY_KEYS: dict[str, tuple] = {
    "hour": tuple(range(24)),
    "weekday": tuple(range(7)),
    "tense": tuple(Tense),
    "pronoun": PRONOUNS,
}
FAMILIES = tuple(FAMILY_KEYS)

# Bytes per block, up to the end of the line that reaches it; the scan holds
# one block at a time at one worker, and so do the parent and each worker of
# a scan at more. It sets memory only: 256 KiB of lines are about 0.3 MB of
# bytes objects, and scan speed is flat from 64 KiB to 4 MiB. Results do not
# depend on it: aggregates are exact sums and skip events keep stream order.
CHUNK_BYTES = 1 << 18

MAX_RECORDED_SKIPS = 50


class _ScanState(NamedTuple):
    fmt: str
    families: frozenset[str]
    # The token table that scores every post (``slicer.token_table``); it
    # holds tense bits only when the tense slice is requested. Forked
    # workers inherit it.
    table: dict[str, int]


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

    def merge_from(self, other: ScanResult) -> None:
        self.overall.merge_from(other.overall)
        self.pronoun_overall.merge_from(other.pronoun_overall)
        for family, bins in other.bins.items():
            mine = self.bins[family]
            for key, agg in bins.items():
                mine[key].merge_from(agg)
        for name, n in other.counts.items():
            self.counts[name] += n
        if other.skip_events:
            # Each result holds the first events of its own stream, so the
            # first of the union are among them, whatever the merge order.
            self.skip_events = sorted(self.skip_events + other.skip_events)[:MAX_RECORDED_SKIPS]


# (tense_bins, pronoun_bins) of one result, from _bin_lookups.
_Lookups = tuple[tuple[BinAggregate, ...] | None, tuple[tuple[BinAggregate, ...], ...] | None]


def _bin_lookups(res: ScanResult) -> _Lookups:
    """A result's bins by the kernel's flags, built once per result.

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


def _scan_chunk(index: int, path: str, first_line_no: int, lines: list[bytes], st: _ScanState,
                res: ScanResult, lookups: _Lookups) -> None:
    """Scan one block of file ``index`` into ``res`` in place; ``lookups`` is ``_bin_lookups(res)``."""
    n_records = 0
    fmt = st.fmt
    table = st.table
    # The kernel's value for a word missing from the table: None applies
    # the tense suffix rules, 0 skips them when no tense slice reads them.
    miss = None if "tense" in st.families else 0
    score_text = _kernel.score_text
    update = BinAggregate.update_counts
    overall = res.overall
    counts = res.counts
    hours = res.bins.get("hour")
    weekdays = res.bins.get("weekday")
    need_time = bool(hours or weekdays)
    tense_bins, pronoun_bins = lookups
    low_bits = (1 << PRONOUN_SHIFT) - 1

    for line_no, line in data_lines(lines, first_line_no, fmt):
        n_records += 1
        try:
            text, stamp, zone = parse_record(line, fmt)
        except ValueError as exc:
            counts["n_parse_skips"] += 1
            if len(res.skip_events) < MAX_RECORDED_SKIPS:
                res.skip_events.append(SkipEvent(index, line_no, path, str(exc)))
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
    counts["n_records"] += n_records


_FileKey = tuple[int, int, int]  # (st_dev, st_ino, st_size) of a corpus file
# A checked corpus file: its path and the key it had when the run began.
_Checked = tuple[str, _FileKey]


def _file_key(fh: IO[bytes]) -> _FileKey:
    st = os.fstat(fh.fileno())
    if not S_ISREG(st.st_mode):
        # Each file is opened twice, to check it and then to read it, and
        # a pipe cannot be reopened.
        raise CorpusError(f"cannot read corpus: not a regular file: {fh.name}")
    return st.st_dev, st.st_ino, st.st_size


def _blocks(files: list[_Checked]) -> Iterator[tuple[int, int, list[bytes]]]:
    """Yield (file index, first line number, lines) for every block of the run.

    Each file is opened only when its turn comes and closed after its last
    block, so one file is open at a time however many there are. A file
    that is no longer the file checked, or that ends before or after its
    checked size, is a CorpusError after its last block.
    """
    for index, (path, key) in enumerate(files):
        with open_corpus_path(path) as fh:
            end = 1  # the line after the last line read
            if _file_key(fh) == key:
                for line_no, lines in read_blocks(fh, CHUNK_BYTES):
                    end = line_no + len(lines)
                    yield index, line_no, lines
                    del lines
            if fh.tell() != key[2] or _file_key(fh) != key:
                raise CorpusError(f"corpus changed during the scan: {path} (from line {end})")


def scan_corpus(
    *paths: str,
    class_map: dict[str, int],
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
    state = _ScanState(fmt=fmt, families=families, table=token_table(class_map, tables))

    # Every path is checked before the first block is read, so a missing or
    # unreadable later file fails the run before any scanning. Each is
    # closed again at once: any number of files can be scanned.
    files = []
    for path in paths:
        with open_corpus_path(path) as fh:
            files.append((path, _file_key(fh)))

    # No more workers than blocks: each but a file's last has >= CHUNK_BYTES.
    workers = min(workers, sum(-(-key[2] // CHUNK_BYTES) for _, key in files))
    if workers > 1:
        # Loaded here: a one-worker run never compiles or imports the worker
        # scan, nor pickle and select.
        from .workers import scan_in_workers

        return scan_in_workers(files, state, workers)
    # Each block is scanned into the run's one result and dropped before
    # the next is read, so one block is live at a time.
    total = ScanResult(families)
    lookups = _bin_lookups(total)
    for index, line_no, lines in _blocks(files):
        _scan_chunk(index, paths[index], line_no, lines, state, total, lookups)
        del lines
    return total
