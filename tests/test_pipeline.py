from __future__ import annotations

import io
import itertools
import os
import pickle
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import util
from anxarc import pipeline, workers
from anxarc.corpus import CorpusError, read_blocks
from anxarc.pipeline import FAMILIES, ScanResult, scan_corpus
from anxarc.slicer import PRONOUNS, Tense, token_table
from anxarc.workers import _scan_worker, _send


def write_corpus(tmp_path, lines, name="corpus.jsonl"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def random_corpus(tmp_path_factory, tables):
    tmp = tmp_path_factory.mktemp("pipe")
    rng = random.Random(2024)
    path = write_corpus(tmp, util.random_corpus_lines(rng, 1500))
    oracle = util.brute_force_recount(path, util.lexicon_text(), tables)
    return path, oracle


def assert_matches_oracle(res: ScanResult, oracle: dict):
    assert util.counters_of(res.overall) == oracle["overall"]
    assert util.counters_of(res.pronoun_overall) == oracle["pronoun_overall"]
    for h in range(24):
        assert util.counters_of(res.bins["hour"][h]) == oracle["hour"][h], f"hour {h}"
    for d in range(7):
        assert util.counters_of(res.bins["weekday"][d]) == oracle["weekday"][d], f"weekday {d}"
    for t in Tense:
        assert util.counters_of(res.bins["tense"][t]) == oracle["tense"][t.value], f"tense {t}"
    for p in PRONOUNS:
        assert util.counters_of(res.bins["pronoun"][p]) == oracle["pronoun"][p], f"pronoun {p}"
    assert res.counts["n_records"] == oracle["n_records"]
    assert res.counts["n_empty_skips"] == oracle["n_empty"]
    assert res.counts["n_tz_skips"] == oracle["n_tz"]


def test_scan_matches_brute_force(random_corpus, lexicon):
    path, oracle = random_corpus
    res = scan_corpus(path, class_map=lexicon.class_map, families=FAMILIES)
    assert_matches_oracle(res, oracle)


def test_scan_parallel_matches_brute_force(random_corpus, lexicon, monkeypatch):
    path, oracle = random_corpus
    monkeypatch.setattr(pipeline, "CHUNK_BYTES", 16384)
    res = scan_corpus(path, class_map=lexicon.class_map, families=FAMILIES, workers=4)
    assert_matches_oracle(res, oracle)


def test_worker_counts_agree_exactly(random_corpus, lexicon, monkeypatch):
    path, _ = random_corpus
    monkeypatch.setattr(pipeline, "CHUNK_BYTES", 32768)
    results = [
        scan_corpus(path, class_map=lexicon.class_map, families=FAMILIES, workers=w)
        for w in (1, 2, 3, 4)
    ]
    base = results[0]
    for other in results[1:]:
        # Every bin's counters and score histogram, and the skip events.
        assert util.result_state(other) == util.result_state(base)


def test_families_limit_work(random_corpus, lexicon, monkeypatch):
    # Every family subset fills exactly its own bins, each equal to the same
    # bin of the full scan, whatever the worker count.
    path, oracle = random_corpus
    monkeypatch.setattr(pipeline, "CHUNK_BYTES", 65536)
    full = scan_corpus(path, class_map=lexicon.class_map, families=FAMILIES)
    assert_matches_oracle(full, oracle)
    want = util.result_state(full)
    for n in range(1, len(FAMILIES) + 1):
        for families in itertools.combinations(FAMILIES, n):
            for workers in (1, 2):
                res = scan_corpus(path, class_map=lexicon.class_map, families=families,
                                  workers=workers)
                got = util.result_state(res)
                where = (families, workers)
                assert got["overall"] == want["overall"], where
                assert got["bins"] == {f: want["bins"][f] for f in families}, where
                if "pronoun" in families:
                    assert got["pronoun_overall"] == want["pronoun_overall"], where


def test_tz_skips_exclude_time_bins_only(tmp_path, lexicon):
    lines = [
        '{"id":"1","text":"calm000 anx000","timestamp_utc":"2020-01-01T05:00:00Z","timezone":"Mars/Colony"}',
        '{"id":"2","text":"i went home","timestamp_utc":"2020-01-01T05:00:00Z","timezone":"UTC"}',
    ]
    path = write_corpus(tmp_path, lines)
    res = scan_corpus(path, class_map=lexicon.class_map, families=FAMILIES)
    assert res.counts["n_tz_skips"] == 1
    assert res.overall.totals().n_posts == 2  # bad-tz post still scored overall
    assert sum(a.totals().n_posts for a in res.bins["hour"].values()) == 1
    assert res.bins["tense"][Tense.PAST].totals().n_posts == 1  # "went" still tense-sliced
    assert res.bins["pronoun"]["i"].totals().n_posts == 1


def test_parse_and_empty_skips_counted(tmp_path, lexicon):
    lines = [
        "not json at all",
        '{"id":"1","text":"!!! ...","timestamp_utc":"2020-01-01T05:00:00Z","timezone":"UTC"}',
        '{"id":"2","text":"neut000","timestamp_utc":"2020-01-01T05:00:00Z","timezone":"UTC"}',
    ]
    path = write_corpus(tmp_path, lines)
    res = scan_corpus(path, class_map=lexicon.class_map, families=("hour",))
    assert res.counts["n_records"] == 3
    assert res.counts["n_parse_skips"] == 1
    assert res.counts["n_empty_skips"] == 1
    assert res.overall.totals().n_posts == 1
    assert res.skip_events[0].line_no == 1
    assert res.skip_events[0].path == path
    # records = scored + parse skips + empty skips
    counts, scored = res.counts, res.overall.totals().n_posts
    assert counts["n_records"] == scored + counts["n_parse_skips"] + counts["n_empty_skips"]


GOOD_RECORD = (
    b'{"id":"%d","text":"calm000 anx000 day","timestamp_utc":"2020-01-01T05:00:00Z",'
    b'"timezone":"UTC"}'
)


def assert_all_records_accounted(res: ScanResult):
    skips = res.counts["n_parse_skips"] + res.counts["n_empty_skips"]
    assert res.counts["n_records"] == res.overall.totals().n_posts + skips


@pytest.mark.parametrize("workers", [1, 2])
def test_invalid_utf8_line_is_a_parse_skip(tmp_path, lexicon, workers, monkeypatch):
    monkeypatch.setattr(pipeline, "CHUNK_BYTES", 1)
    path = tmp_path / "corpus.jsonl"
    bad = b'{"id":"2","text":"bad \xff\xfe","timestamp_utc":"2020-01-01T05:00:00Z","timezone":"UTC"}'
    path.write_bytes(b"\n".join([GOOD_RECORD % 1, bad, GOOD_RECORD % 3]) + b"\n")
    res = scan_corpus(str(path), class_map=lexicon.class_map, families=FAMILIES, workers=workers)
    assert res.counts["n_records"] == 3
    assert res.counts["n_parse_skips"] == 1
    assert res.overall.totals().n_posts == 2
    assert [(e.path, e.line_no, e.reason) for e in res.skip_events] == [
        (str(path), 2, "invalid UTF-8 at byte 22")
    ]
    assert_all_records_accounted(res)


# Random lines of at most 40 bytes never hold a whole valid record (the
# shortest is longer), so the scored posts are exactly the GOOD_RECORD lines.
byte_lines = st.lists(
    st.one_of(
        st.binary(max_size=40).map(lambda b: b.replace(b"\n", b"")),
        st.integers(0, 99).map(lambda i: GOOD_RECORD % i),
    ),
    max_size=12,
)


def is_record(line: bytes) -> bool:
    try:
        return bool(line.decode("utf-8").strip())
    except UnicodeDecodeError:
        return True


@pytest.mark.parametrize("workers,examples", [(1, 200), (2, 15)])
def test_any_bytes_scan_without_error(tmp_path, lexicon, workers, examples, monkeypatch):
    path = tmp_path / "corpus.jsonl"
    monkeypatch.setattr(pipeline, "CHUNK_BYTES", 128)

    @given(byte_lines)
    @settings(max_examples=examples, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def check(lines):
        path.write_bytes(b"\n".join(lines))
        res = scan_corpus(str(path), class_map=lexicon.class_map, families=FAMILIES,
                          workers=workers)
        assert_all_records_accounted(res)
        assert res.counts["n_records"] == sum(map(is_record, lines))
        assert res.overall.totals().n_posts == sum(len(line) > 40 for line in lines)

    check()


GOOD_TSV = b"%d\tcalm000 anx000 day\t2020-01-01T05:00:00Z\tUTC"
TSV_HEADER = b"id\ttext\ttimestamp_utc\ttimezone"

# Lines of either format, a TSV header (skipped only on line 1), blank and
# whitespace-only lines, invalid UTF-8 and random bytes, each ended by a
# line feed or CRLF, with or without a final line end.
block_lines = st.lists(
    st.tuples(
        st.one_of(
            st.integers(0, 99).map(lambda i: GOOD_RECORD % i),
            st.integers(0, 99).map(lambda i: GOOD_TSV % i),
            st.sampled_from([TSV_HEADER, b"", b" ", b"\r", b"a\rb", b"\xff\xfe",
                             GOOD_RECORD.replace(b"day", b"d\xe9y")]),
            st.binary(max_size=20).map(lambda b: b.replace(b"\n", b"")),
        ),
        st.sampled_from([b"\n", b"\r\n"]),
    ).map(b"".join),
    max_size=12,
).map(b"".join)


@pytest.mark.parametrize("workers,examples", [(1, 300), (2, 15)])
def test_any_block_size_keeps_the_result(tmp_path, lexicon, tables, workers, examples,
                                         monkeypatch):
    # A scan cut into blocks of any size gives the one-block scan's result,
    # skip events with their file and line included.
    path = tmp_path / "corpus.txt"

    @given(block_lines, st.booleans(), st.sampled_from(["jsonl", "tsv"]), st.data())
    @settings(max_examples=examples, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def check(data, cut_last_end, fmt, draw):
        if cut_last_end:
            data = data.rstrip(b"\n")
        path.write_bytes(data)

        def scan(size, workers):
            monkeypatch.setattr(pipeline, "CHUNK_BYTES", size)
            res = scan_corpus(str(path), class_map=lexicon.class_map, families=FAMILIES, fmt=fmt,
                              tables=tables, workers=workers)
            return util.result_state(res), res.skip_events

        size = draw.draw(st.integers(1, len(data) + 1))
        assert scan(size, workers) == scan(len(data) + 1, 1)

    check()


@pytest.mark.parametrize("workers", [1, 2])
def test_skip_events_name_their_file(tmp_path, lexicon, workers, monkeypatch):
    monkeypatch.setattr(pipeline, "CHUNK_BYTES", 16)
    first = write_corpus(tmp_path, ["bad one", GOOD_RECORD.decode() % 1, "bad two"], "a.jsonl")
    second = write_corpus(tmp_path, [GOOD_RECORD.decode() % 2, "", "bad three"], "b.jsonl")
    res = scan_corpus(first, second, class_map=lexicon.class_map, families=FAMILIES,
                      workers=workers)
    assert [(e.path, e.line_no) for e in res.skip_events] == [
        (first, 1), (first, 3), (second, 3)
    ]
    assert res.counts["n_records"] == 5 and res.counts["n_parse_skips"] == 3
    assert res.overall.totals().n_posts == 2


def test_missing_later_corpus_fails_before_any_record_is_read(tmp_path, lexicon, monkeypatch):
    first = write_corpus(tmp_path, [GOOD_RECORD.decode() % 1])
    parsed = []
    real_parse = pipeline.parse_record
    monkeypatch.setattr(pipeline, "parse_record", lambda *a: parsed.append(a) or real_parse(*a))
    with pytest.raises(CorpusError, match="missing.jsonl"):
        scan_corpus(first, str(tmp_path / "missing.jsonl"), class_map=lexicon.class_map, workers=1)
    assert parsed == []


def test_corpus_that_is_not_a_regular_file_is_refused(tmp_path, lexicon):
    # Each file is opened to be checked and again to be read, so a device
    # or pipe cannot be a corpus.
    first = write_corpus(tmp_path, [GOOD_RECORD.decode() % 1])
    with pytest.raises(CorpusError, match=f"not a regular file: {os.devnull}"):
        scan_corpus(first, os.devnull, class_map=lexicon.class_map)


@pytest.fixture(scope="module")
def mixed_lines():
    # Well-formed posts with bad zones, empty texts and pronouns, with
    # unparseable lines and blank lines mixed in.
    lines = util.random_corpus_lines(random.Random(77), 600, bad_tz_rate=0.05)
    for i in range(0, 600, 37):
        lines[i] = "not json %d" % i
    for i in range(5, 600, 53):
        lines[i] = ""
    return lines


@pytest.mark.parametrize("workers,examples", [(1, 25), (2, 6)])
def test_splitting_into_files_keeps_the_result(tmp_path_factory, lexicon, tables, mixed_lines,
                                               workers, examples, monkeypatch):
    tmp = tmp_path_factory.mktemp("split")
    monkeypatch.setattr(pipeline, "CHUNK_BYTES", 8192)
    whole = scan_corpus(write_corpus(tmp, mixed_lines), class_map=lexicon.class_map,
                        families=FAMILIES, tables=tables)
    expected = util.result_state(whole)

    @given(st.sampled_from([1, 2, 4]).flatmap(
        lambda k: st.lists(st.integers(0, len(mixed_lines)), min_size=k - 1, max_size=k - 1)))
    @settings(max_examples=examples, deadline=None)
    def check(cuts):
        bounds = [0, *sorted(cuts), len(mixed_lines)]
        paths = [
            write_corpus(tmp, mixed_lines[lo:hi], f"part{i}.jsonl")
            for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
        ]
        res = scan_corpus(*paths, class_map=lexicon.class_map, families=FAMILIES, tables=tables,
                          workers=workers)
        assert util.result_state(res) == expected

    check()


def test_unknown_family_rejected(lexicon):
    with pytest.raises(ValueError):
        ScanResult(("hour", "minute"))


def test_merge_results_accumulates(random_corpus, lexicon):
    path, oracle = random_corpus
    a = scan_corpus(path, class_map=lexicon.class_map, families=("hour",))
    b = scan_corpus(path, class_map=lexicon.class_map, families=("hour",))
    a.merge_from(b)
    assert a.overall.totals().n_posts == 2 * oracle["overall"][0]
    assert a.counts["n_records"] == 2 * oracle["n_records"]


def test_one_worker_scan_holds_one_block(tmp_path, lexicon, tables, monkeypatch):
    # Peak traced memory grows by about one block per block byte: the scan
    # holds the block it is scanning and no copy, no joined block and no
    # block read ahead. A scan that also held the previous block, or a
    # joined copy, would grow by two bytes or more per block byte.
    path = write_corpus(tmp_path, util.random_corpus_lines(random.Random(5), 16_000))
    # A first scan pays for one-time imports and caches; without it, the
    # slope would depend on which test ran first.
    scan_corpus(path, class_map=lexicon.class_map, families=FAMILIES, tables=tables)
    peaks = {}
    for size in (1 << 18, 1 << 20):
        monkeypatch.setattr(pipeline, "CHUNK_BYTES", size)
        tracemalloc.start()
        try:
            scan_corpus(path, class_map=lexicon.class_map, families=FAMILIES, tables=tables)
            peaks[size] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    slope = (peaks[1 << 20] - peaks[1 << 18]) / ((1 << 20) - (1 << 18))
    assert slope < 1.6, peaks


def spy_worker_blocks(monkeypatch) -> list[tuple]:
    """Record the header and the bytes of every block the parent sends to a scan worker."""
    sent = []

    def send(fh, obj, lines=()):
        # Only the parent sends a header, a tuple; what a forked worker sends
        # lands in its own copy of the list.
        if isinstance(obj, tuple):
            sent.append((obj, b"".join(lines)))
        return _send(fh, obj, lines)

    monkeypatch.setattr(workers, "_send", send)
    return sent


@pytest.mark.parametrize("size", [4096, 1 << 20])
def test_pool_tasks_are_a_small_header_and_the_block_bytes(random_corpus, lexicon, monkeypatch,
                                                           size):
    # A message to a worker is a small pickled header and then the block's
    # bytes as they are, never a pickle of its lines, whatever the block
    # size; the blocks sent are the file, each byte once. At 1 MiB the
    # corpus is one block, which is scanned with no worker and no message.
    path, oracle = random_corpus
    data = Path(path).read_bytes()
    for chunk_bytes in (size, len(data) // 2 + 1):
        monkeypatch.setattr(pipeline, "CHUNK_BYTES", chunk_bytes)
        sent = spy_worker_blocks(monkeypatch)
        res = scan_corpus(path, class_map=lexicon.class_map, families=FAMILIES, workers=2)
        assert_matches_oracle(res, oracle)
        assert bool(sent) == (chunk_bytes < len(data))
        assert all(len(pickle.dumps(header)) < 1024 for header, _ in sent)
        assert all(header[2] == len(block) for header, block in sent)
        if sent:
            assert b"".join(block for _, block in sent) == data
        util.assert_no_child_left()


def test_block_cut_at_a_line_end_keeps_the_result(tmp_path, lexicon, tables, monkeypatch):
    # Every line is as long as GOOD_RECORD, so a block of CHUNK_BYTES ends
    # exactly at a line end, where a buffered file reads one line past it.
    # A worker must split the bytes it is sent into the block's lines.
    width = len(GOOD_RECORD % 10)
    lines = [GOOD_RECORD % i if i % 7 else b"not json".ljust(width, b"#") for i in range(10, 100)]
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")

    def scan(size, workers):
        monkeypatch.setattr(pipeline, "CHUNK_BYTES", size)
        res = scan_corpus(str(path), class_map=lexicon.class_map, families=FAMILIES, tables=tables,
                          workers=workers)
        return util.result_state(res), res.skip_events

    one_block = scan(len(lines) * (width + 1) + 1, 1)
    assert len(one_block[1]) == 13
    sent = spy_worker_blocks(monkeypatch)
    assert scan(4 * (width + 1), 2) == one_block
    # Five-line blocks that tile the file: the cut landed on a line end.
    assert [header for header, _ in sent] == [(0, 1 + 5 * k, 5 * (width + 1)) for k in range(18)]
    assert [block for _, block in sent] == [b"\n".join(lines[5 * k:5 * k + 5]) + b"\n"
                                            for k in range(18)]


def test_two_worker_scan_parent_holds_one_block(tmp_path, lexicon, tables, monkeypatch):
    # At two workers the parent reads each block only to cut and number it
    # and drops it before the next, so its traced peak grows by about one
    # block per block byte. A parent that kept the blocks in flight, or
    # their pickles, would grow by several bytes per block byte.
    path = write_corpus(tmp_path, util.random_corpus_lines(random.Random(5), 16_000))
    scan_corpus(path, class_map=lexicon.class_map, families=FAMILIES, tables=tables,
                workers=2)  # warm-up
    peaks = {}
    for size in (1 << 18, 1 << 20):
        monkeypatch.setattr(pipeline, "CHUNK_BYTES", size)
        tracemalloc.start()
        try:
            scan_corpus(path, class_map=lexicon.class_map, families=FAMILIES, tables=tables,
                        workers=2)
            peaks[size] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    slope = (peaks[1 << 20] - peaks[1 << 18]) / ((1 << 20) - (1 << 18))
    assert slope < 1.6, peaks


def run_worker(paths, *blocks, state):
    """Run a scan worker in-process on the given blocks of ``pipeline._blocks``; return its reply."""
    sent, replies = io.BytesIO(), io.BytesIO()
    for index, line_no, lines in blocks:
        _send(sent, (index, line_no, sum(map(len, lines))), lines)
    _send(sent, None)
    sent.seek(0)
    _scan_worker(sent, replies, state, paths)
    replies.seek(0)
    while (reply := pickle.load(replies)) is None:  # a request for the next block
        pass
    return reply


def test_worker_dead_partway_through_a_message_is_a_corpus_error(tmp_path, lexicon,
                                                                 monkeypatch):
    # A worker that dies while it writes a request or its result leaves a
    # truncated pickle in its closed pipe: the parent reads that as a dead
    # worker, never as a message or a wait for bytes that cannot come.
    path = write_corpus(tmp_path, util.random_corpus_lines(random.Random(3), 100))
    monkeypatch.setattr(pipeline, "CHUNK_BYTES", 256)
    parent = os.getpid()
    for dies_on, message in [(type(None), "a scan worker died before its first block"),
                             (ScanResult, r"a scan worker died at \S*corpus\.jsonl line \d+")]:

        def send(fh, obj, lines=(), dies_on=dies_on):
            if os.getpid() != parent and isinstance(obj, dies_on):
                data = pickle.dumps(obj)
                fh.write(data[:len(data) // 2])
                fh.flush()
                os._exit(1)
            return _send(fh, obj, lines)

        monkeypatch.setattr(workers, "_send", send)
        with pytest.raises(CorpusError, match=f"^{message}$"):
            scan_corpus(path, class_map=lexicon.class_map, families=["hour"], workers=2)
        util.assert_no_child_left()


def test_worker_dead_before_it_reads_its_block_is_a_corpus_error(tmp_path, lexicon,
                                                                 monkeypatch):
    # A worker that dies after a block's header, with the parent still
    # writing the block's bytes (more than a pipe holds), is a dead worker
    # at that block; the bytes left unsent are dropped.
    path = write_corpus(tmp_path, util.random_corpus_lines(random.Random(3), 6000))
    assert os.path.getsize(path) > 2 * pipeline.CHUNK_BYTES > 1 << 17
    parent, real_load = os.getpid(), pickle.load

    def load(fh):
        msg = real_load(fh)
        if os.getpid() != parent and isinstance(msg, tuple):
            os._exit(1)
        return msg

    monkeypatch.setattr(pickle, "load", load)
    with pytest.raises(CorpusError, match=r"^a scan worker died at \S*corpus\.jsonl line 1$"):
        scan_corpus(path, class_map=lexicon.class_map, families=["hour"], workers=2)
    util.assert_no_child_left()


def test_worker_exception_is_raised_in_the_parent(tmp_path, lexicon, monkeypatch):
    # An exception a worker meets is its last message, which the parent raises.
    path = write_corpus(tmp_path, util.random_corpus_lines(random.Random(3), 100))
    monkeypatch.setattr(pipeline, "CHUNK_BYTES", 256)

    def fail(index, path, line_no, *args):
        raise ValueError(f"cannot scan line {line_no}")

    monkeypatch.setattr(pipeline, "_scan_chunk", fail)
    with pytest.raises(ValueError, match=r"^cannot scan line \d+$"):
        scan_corpus(path, class_map=lexicon.class_map, families=["hour"], workers=2)
    util.assert_no_child_left()


def test_worker_read_fault_is_a_corpus_error(tmp_path, lexicon, monkeypatch):
    # A later file of a multi-file scan that is cut short, replaced by
    # another file of the same size, or deleted before its turn stops the
    # scan with a CorpusError naming it, which the CLI turns into exit 2.
    # The parent reads every file, so the error is the same at any worker
    # count.
    monkeypatch.setattr(pipeline, "CHUNK_BYTES", 64)
    data = b"".join(GOOD_RECORD % i + b"\n" for i in range(4))
    paths = [tmp_path / f"part{k}.jsonl" for k in range(3)]
    other = tmp_path / "other.jsonl"

    def truncate(path):
        path.write_bytes(data[:len(data) // 2])

    def replace(path):
        other.write_bytes(data)
        os.replace(other, path)

    for fault, match in [(truncate, r"corpus changed during the scan: {} \(from line 1\)"),
                         (replace, r"corpus changed during the scan: {} \(from line 1\)"),
                         (Path.unlink, "cannot read corpus: .*No such file.*: '{}'")]:
        errors = []
        for n_workers in (1, 2):
            for path in paths:
                path.write_bytes(data)

            done = []

            def read_then_fault(fh, size):
                for block in read_blocks(fh, size):
                    if not done:
                        done.append(fault(paths[2]))
                    yield block

            monkeypatch.setattr(pipeline, "read_blocks", read_then_fault)
            with pytest.raises(CorpusError) as info:
                scan_corpus(*map(str, paths), class_map=lexicon.class_map, families=["hour"],
                            workers=n_workers)
            util.assert_no_child_left()
            assert re.fullmatch(match.format(re.escape(str(paths[2]))), str(info.value))
            errors.append(str(info.value))
        assert errors[0] == errors[1]


def test_worker_results_merge_alike_in_any_order(tmp_path, lexicon, tables, monkeypatch):
    # Three workers' results of one three-file scan, each over every third
    # block, merge to the one-worker result in every order: aggregates and
    # the first MAX_RECORDED_SKIPS skip events of the union, by stream
    # position, whichever result comes first.
    monkeypatch.setattr(pipeline, "CHUNK_BYTES", 2048)
    lines = util.random_corpus_lines(random.Random(11), 450, bad_tz_rate=0.05)
    for i in range(0, len(lines), 5):
        lines[i] = "not json %d" % i
    paths = [write_corpus(tmp_path, lines[k::3], f"part{k}.jsonl") for k in range(3)]
    files = []
    for path in paths:
        with open(path, "rb") as fh:
            files.append((path, pipeline._file_key(fh)))
    state = pipeline._ScanState(fmt="jsonl", families=frozenset(FAMILIES),
                                table=token_table(lexicon.class_map, tables))
    blocks = list(pipeline._blocks(files))
    results = []
    for k in range(3):
        res = run_worker(paths, *blocks[k::3], state=state)
        assert isinstance(res, ScanResult) and res.skip_events
        results.append(res)
    whole = scan_corpus(*paths, class_map=lexicon.class_map, families=FAMILIES, tables=tables)
    assert whole.counts["n_parse_skips"] > pipeline.MAX_RECORDED_SKIPS
    for order in itertools.permutations(results):
        merged = ScanResult(FAMILIES)
        for res in order:
            merged.merge_from(res)
        assert util.result_state(merged) == util.result_state(whole)
        assert merged.skip_events == whole.skip_events


# Runs the CLI at two workers with a scan worker ending itself by
# os._exit(1), as an OOM kill would: every worker on its second block
# ("second-span") or before its first, or only the first worker forked, on
# its first block, while
# the other scans on. Then checks that no child process is left.
DEAD_WORKER_RUN = """
import os, sys
sys.path[:0] = sys.argv[1:3]
import util
from anxarc import cli, pipeline

calls, forks = [], []

def die_on_second_block(*args):
    calls.append(args)
    if len(calls) == 2:
        os._exit(1)
    return real_scan_chunk(*args)

def die_in_first_worker(*args):
    if len(forks) == 1:
        os._exit(1)
    return real_scan_chunk(*args)

def fork():
    forks.append(None)
    return real_fork()

real_scan_chunk, real_fork = pipeline._scan_chunk, os.fork
os.fork = fork
pipeline.CHUNK_BYTES = 256
if sys.argv[3] == "second-span":
    pipeline._scan_chunk = die_on_second_block
elif sys.argv[3] == "first-worker":
    pipeline._scan_chunk = die_in_first_worker
else:
    pipeline._bin_lookups = lambda res: os._exit(1)
code = cli.main(["analyze-hour", "--lexicon", "lexicon.tsv", "--corpus", "corpus.jsonl",
                 "--workers", "2", "--out", "out"])
util.assert_no_child_left()
print(code, len(forks))
"""


@pytest.mark.parametrize("when,message", [
    ("second-span", r"a scan worker died at corpus\.jsonl line \d+"),
    ("start", "a scan worker died before its first block"),
    ("first-worker", r"a scan worker died at corpus\.jsonl line \d+"),
])
def test_dead_worker_exits_2(tmp_path, when, message):
    (tmp_path / "lexicon.tsv").write_text(util.lexicon_text(), encoding="utf-8")
    write_corpus(tmp_path, util.random_corpus_lines(random.Random(3), 100))
    here = Path(__file__).resolve().parent
    proc = subprocess.run([sys.executable, "-c", DEAD_WORKER_RUN, str(here.parent / "src"),
                           str(here), when], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.stdout.split() == ["2", "2"], proc.stderr
    assert re.fullmatch(f"anxarc: data error: {message}\n", proc.stderr), proc.stderr


@pytest.mark.parametrize("when,message", [
    ("second-span", r"a scan worker died at \S*corpus\.jsonl line \d+"),
    ("start", "a scan worker died before its first block"),
])
def test_dead_worker_is_a_corpus_error(tmp_path, lexicon, monkeypatch, when, message):
    # test_dead_worker_exits_2 in this process: the parent's dead-worker
    # branch runs where a line audit of the tests can see it.
    path = write_corpus(tmp_path, util.random_corpus_lines(random.Random(3), 100))
    monkeypatch.setattr(pipeline, "CHUNK_BYTES", 256)
    if when == "second-span":
        calls, real_scan_chunk = [], pipeline._scan_chunk

        def die_on_second_block(*args):
            calls.append(None)
            if len(calls) == 2:
                os._exit(1)
            return real_scan_chunk(*args)

        monkeypatch.setattr(pipeline, "_scan_chunk", die_on_second_block)
    else:
        monkeypatch.setattr(pipeline, "_bin_lookups", lambda res: os._exit(1))
    with pytest.raises(CorpusError, match=f"^{message}$"):
        scan_corpus(path, class_map=lexicon.class_map, families=["hour"], workers=2)
    util.assert_no_child_left()


# A two-worker scan in a fresh interpreter: prints the records scanned, the
# forks and which of the named modules were imported.
TWO_WORKER_IMPORTS_RUN = """
import os, sys
sys.path.insert(0, sys.argv[1])
from anxarc import pipeline
from anxarc.lexicon import load_lexicon

forks, real_fork = [], os.fork
os.fork = lambda: forks.append(None) or real_fork()
pipeline.CHUNK_BYTES = 256
res = pipeline.scan_corpus("corpus.jsonl", class_map=load_lexicon("lexicon.tsv").class_map,
                           workers=2)
print(res.counts["n_records"], len(forks), *(m for m in sys.argv[2:] if m in sys.modules))
"""


def test_two_worker_scan_leaves_out_multiprocessing(tmp_path):
    # The workers need a fork, pipes and a wait on them; multiprocessing and
    # the socket, selectors and subprocess modules it loads add a megabyte
    # to the parent before it forks.
    (tmp_path / "lexicon.tsv").write_text(util.lexicon_text(), encoding="utf-8")
    write_corpus(tmp_path, util.random_corpus_lines(random.Random(3), 100))
    src = str(Path(__file__).resolve().parent.parent / "src")
    unwanted = ["multiprocessing", "socket", "selectors", "subprocess"]
    proc = subprocess.run([sys.executable, "-c", TWO_WORKER_IMPORTS_RUN, src, *unwanted],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.stdout.split() == ["100", "2"], proc.stderr


# Scans the same posts as many files under a lowered open-file limit at one
# and two workers, and as one file with no limit, each into its own folder.
MANY_FILES_RUN = """
import resource, sys
sys.path.insert(0, sys.argv[1])
from anxarc import cli

n_files, limit = int(sys.argv[2]), int(sys.argv[3])
args = ["replicate", "--lexicon", "lexicon.tsv"]
parts = [f"part{i}.jsonl" for i in range(n_files)]
codes = [cli.main([*args, "--corpus", "whole.jsonl", "--out", "whole"])]
soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
resource.setrlimit(resource.RLIMIT_NOFILE, (limit, hard))
for workers in ("1", "2"):
    codes.append(cli.main([*args, "--corpus", *parts, "--workers", workers, "--out", "w" + workers]))
print(*codes)
"""


def test_more_corpus_files_than_open_file_limit(tmp_path):
    n_files, limit = 60, 40
    lines = util.random_corpus_lines(random.Random(9), 20 * n_files)
    (tmp_path / "lexicon.tsv").write_text(util.lexicon_text(), encoding="utf-8")
    write_corpus(tmp_path, lines, "whole.jsonl")
    for i in range(n_files):
        write_corpus(tmp_path, lines[20 * i:20 * (i + 1)], f"part{i}.jsonl")
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", MANY_FILES_RUN, src, str(n_files), str(limit)],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.stdout.splitlines()[-1].split() == ["0", "0", "0"], proc.stderr

    def reports(folder):
        # Every report line but the one that names the corpus files.
        return {
            path.name: [line for line in path.read_text().splitlines()
                        if not line.startswith(("# corpus=", '  "corpus"'))]
            for path in sorted((tmp_path / folder).iterdir())
        }

    whole = reports("whole")
    assert whole
    assert reports("w1") == whole
    assert reports("w2") == whole
