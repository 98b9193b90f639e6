from __future__ import annotations

import errno
import io
import itertools
import json
import os
import pickle
import random
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from functools import partial
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import util
from anxarc import cli, pipeline, workers
from anxarc.corpus import CorpusError
from anxarc.pipeline import FAMILIES, ScanResult, scan_corpus
from anxarc.slicer import (
    AUX_PAST,
    AUX_PRESENT,
    FUTURE_BIGRAM_FIRST,
    FUTURE_BIGRAM_SECOND,
    FUTURE_SIGNAL_WORDS,
    PRONOUNS,
    Tense,
    token_table,
)
from anxarc.workers import _scan_worker, _send


def write_corpus(tmp_path, lines, name="corpus.jsonl"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


# The scan's block reader, taken once: a test that patches it twice must not
# wrap its own wrapper.
READ_BLOCKS = pipeline._blocks


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
    res = scan_corpus(path, class_map=lexicon, families=FAMILIES)
    assert_matches_oracle(res, oracle)


def test_scan_parallel_matches_brute_force(random_corpus, lexicon, monkeypatch):
    path, oracle = random_corpus
    monkeypatch.setattr(pipeline, "CHUNK_BYTES", 16384)
    res = scan_corpus(path, class_map=lexicon, families=FAMILIES, workers=4)
    assert_matches_oracle(res, oracle)


def test_worker_counts_agree_exactly(random_corpus, lexicon, monkeypatch):
    path, _ = random_corpus
    monkeypatch.setattr(pipeline, "CHUNK_BYTES", 32768)
    results = [
        scan_corpus(path, class_map=lexicon, families=FAMILIES, workers=w)
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
    full = scan_corpus(path, class_map=lexicon, families=FAMILIES)
    assert_matches_oracle(full, oracle)
    want = util.result_state(full)
    for n in range(1, len(FAMILIES) + 1):
        for families in itertools.combinations(FAMILIES, n):
            for workers in (1, 2):
                res = scan_corpus(path, class_map=lexicon, families=families,
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
    res = scan_corpus(path, class_map=lexicon, families=FAMILIES)
    assert res.counts["n_tz_skips"] == 1
    assert res.overall.summary().n_posts == 2  # bad-tz post still scored overall
    assert sum(a.summary().n_posts for a in res.bins["hour"].values()) == 1
    assert res.bins["tense"][Tense.PAST].summary().n_posts == 1  # "went" still tense-sliced
    assert res.bins["pronoun"]["i"].summary().n_posts == 1


def test_parse_and_empty_skips_counted(tmp_path, lexicon):
    lines = [
        "not json at all",
        '{"id":"1","text":"!!! ...","timestamp_utc":"2020-01-01T05:00:00Z","timezone":"UTC"}',
        '{"id":"2","text":"neut000","timestamp_utc":"2020-01-01T05:00:00Z","timezone":"UTC"}',
    ]
    path = write_corpus(tmp_path, lines)
    res = scan_corpus(path, class_map=lexicon, families=("hour",))
    assert res.counts["n_records"] == 3
    assert res.counts["n_parse_skips"] == 1
    assert res.counts["n_empty_skips"] == 1
    assert res.overall.summary().n_posts == 1
    assert res.skip_events[0].line_no == 1
    assert res.skip_events[0].path == path
    # records = scored + parse skips + empty skips
    counts, scored = res.counts, res.overall.summary().n_posts
    assert counts["n_records"] == scored + counts["n_parse_skips"] + counts["n_empty_skips"]


GOOD_RECORD = (
    b'{"id":"%d","text":"calm000 anx000 day","timestamp_utc":"2020-01-01T05:00:00Z",'
    b'"timezone":"UTC"}'
)


def assert_all_records_accounted(res: ScanResult):
    skips = res.counts["n_parse_skips"] + res.counts["n_empty_skips"]
    assert res.counts["n_records"] == res.overall.summary().n_posts + skips


@pytest.mark.parametrize("workers", [1, 2])
def test_invalid_utf8_line_is_a_parse_skip(tmp_path, lexicon, workers, monkeypatch):
    monkeypatch.setattr(pipeline, "CHUNK_BYTES", 1)
    path = tmp_path / "corpus.jsonl"
    bad = b'{"id":"2","text":"bad \xff\xfe","timestamp_utc":"2020-01-01T05:00:00Z","timezone":"UTC"}'
    path.write_bytes(b"\n".join([GOOD_RECORD % 1, bad, GOOD_RECORD % 3]) + b"\n")
    res = scan_corpus(str(path), class_map=lexicon, families=FAMILIES, workers=workers)
    assert res.counts["n_records"] == 3
    assert res.counts["n_parse_skips"] == 1
    assert res.overall.summary().n_posts == 2
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
        res = scan_corpus(str(path), class_map=lexicon, families=FAMILIES,
                          workers=workers)
        assert_all_records_accounted(res)
        assert res.counts["n_records"] == sum(map(is_record, lines))
        assert res.overall.summary().n_posts == sum(len(line) > 40 for line in lines)

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
def test_any_block_size_keeps_the_result(tmp_path, lexicon, workers, examples, monkeypatch):
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
            res = scan_corpus(str(path), class_map=lexicon, families=FAMILIES, fmt=fmt,
                              workers=workers)
            return util.result_state(res), res.skip_events

        size = draw.draw(st.integers(1, len(data) + 1))
        assert scan(size, workers) == scan(len(data) + 1, 1)

    check()


@pytest.mark.parametrize("workers", [1, 2])
def test_skip_events_name_their_file(tmp_path, lexicon, workers, monkeypatch):
    monkeypatch.setattr(pipeline, "CHUNK_BYTES", 16)
    first = write_corpus(tmp_path, ["bad one", GOOD_RECORD.decode() % 1, "bad two"], "a.jsonl")
    second = write_corpus(tmp_path, [GOOD_RECORD.decode() % 2, "", "bad three"], "b.jsonl")
    res = scan_corpus(first, second, class_map=lexicon, families=FAMILIES,
                      workers=workers)
    assert [(e.path, e.line_no) for e in res.skip_events] == [
        (first, 1), (first, 3), (second, 3)
    ]
    assert res.counts["n_records"] == 5 and res.counts["n_parse_skips"] == 3
    assert res.overall.summary().n_posts == 2


def test_missing_later_corpus_fails_before_any_record_is_read(tmp_path, lexicon, monkeypatch):
    first = write_corpus(tmp_path, [GOOD_RECORD.decode() % 1])
    parsed = []
    real_parse = pipeline.parse_record
    monkeypatch.setattr(pipeline, "parse_record", lambda *a: parsed.append(a) or real_parse(*a))
    with pytest.raises(CorpusError, match="missing.jsonl"):
        scan_corpus(first, str(tmp_path / "missing.jsonl"), class_map=lexicon, workers=1)
    assert parsed == []


def test_corpus_that_is_not_a_regular_file_is_refused(tmp_path, lexicon, monkeypatch):
    # Each file is opened to be checked and again to be read, so a device
    # or pipe cannot be a corpus. The open does not wait for a writer, so
    # a FIFO is refused at once, alone or after another file, and so is a
    # later file that is replaced by a FIFO before its turn; the alarm
    # turns a scan that blocks in its open into a failure, not a hang.
    monkeypatch.setattr(pipeline, "CHUNK_BYTES", 64)  # blocks enough for two workers
    first = write_corpus(tmp_path, [GOOD_RECORD.decode() % i for i in range(4)])
    fifo = str(tmp_path / "fifo")
    os.mkfifo(fifo)
    second = tmp_path / "second.jsonl"

    def hung(*_):
        raise AssertionError("the scan blocked opening a corpus path")

    def read_then_replace(files):
        for index, block in enumerate(READ_BLOCKS(files)):
            if index == 0:
                second.unlink()
                os.mkfifo(second)
            yield block

    handler = signal.signal(signal.SIGALRM, hung)
    try:
        for other in (os.devnull, fifo):
            for paths in ((other,), (first, other)):
                signal.alarm(10)
                with pytest.raises(CorpusError, match=f"not a regular file: {other}$"):
                    scan_corpus(*paths, class_map=lexicon, workers=2)
        monkeypatch.setattr(pipeline, "_blocks", read_then_replace)
        for workers in (1, 2):
            second.unlink(missing_ok=True)
            second.write_bytes(GOOD_RECORD % 9 + b"\n")
            signal.alarm(10)
            with pytest.raises(CorpusError, match=f"not a regular file: {re.escape(str(second))}$"):
                scan_corpus(first, str(second), class_map=lexicon, workers=workers)
            util.assert_no_child_left()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)


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
def test_splitting_into_files_keeps_the_result(tmp_path_factory, lexicon, mixed_lines,
                                               workers, examples, monkeypatch):
    tmp = tmp_path_factory.mktemp("split")
    monkeypatch.setattr(pipeline, "CHUNK_BYTES", 8192)
    whole = scan_corpus(write_corpus(tmp, mixed_lines), class_map=lexicon,
                        families=FAMILIES)
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
        res = scan_corpus(*paths, class_map=lexicon, families=FAMILIES, workers=workers)
        assert util.result_state(res) == expected

    check()


@pytest.mark.parametrize("workers,examples", [(1, 150), (2, 10)])
def test_neutral_terms_in_the_class_map_keep_the_scan(tmp_path_factory, lexicon, tables,
                                                      workers, examples, monkeypatch):
    # A 0-coded (neutral) term in the class map scans as its absence in every
    # family, also when it is a word the tense or pronoun rules read: the
    # token table computes each key's rule bits itself.
    tmp = tmp_path_factory.mktemp("neutral")
    monkeypatch.setattr(pipeline, "CHUNK_BYTES", 2048)
    class_map = {term: code for term, code in lexicon.items() if code}
    # The words of the rules, a few of each table, and -ed/-ing words that
    # only the suffix rules read.
    rule_words = sorted({
        *sorted(tables.irregular_past)[::40], *sorted(tables.irregular_base)[::40],
        *sorted(tables.ed_stoplist)[::10],
        *(base + "s" for base in sorted(tables.irregular_base)[::80]),
        *AUX_PAST, *AUX_PRESENT, *FUTURE_SIGNAL_WORDS, FUTURE_BIGRAM_FIRST, *FUTURE_BIGRAM_SECOND,
        *PRONOUNS, "walked", "wanted", "played", "bed", "seed", "working", "morning", "thing",
        "sing", "bring",
    })

    @given(st.lists(st.sampled_from(rule_words), min_size=1, max_size=30), st.data())
    @settings(max_examples=examples, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def check(neutral, data):
        # Posts of the neutral terms, class terms and other rule words.
        words = st.one_of(st.sampled_from(neutral), st.sampled_from([*class_map, *rule_words]))
        texts = st.lists(words, max_size=12).map(" ".join)
        zones = st.sampled_from([*util.TIMEZONES, "Mars/Colony"])
        records = data.draw(st.lists(st.tuples(texts, st.integers(0, 6 * 24 * 3600), zones),
                                     max_size=80))
        lines = [json.dumps({"id": str(i), "text": text, "timezone": tz,
                             "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                                            time.gmtime(1_600_000_000 + sec))})
                 for i, (text, sec, tz) in enumerate(records)]
        path = write_corpus(tmp, [*lines, "not json"])
        whole = class_map | dict.fromkeys(neutral, 0)
        for family in FAMILIES:
            got, want = (scan_corpus(path, class_map=m, families=(family,), workers=workers)
                         for m in (whole, class_map))
            assert util.result_state(got) == util.result_state(want)
            assert got.skip_events == want.skip_events

    check()


def test_unknown_family_rejected(lexicon):
    with pytest.raises(ValueError):
        ScanResult(("hour", "minute"))


def test_merge_results_accumulates(random_corpus, lexicon):
    path, oracle = random_corpus
    a = scan_corpus(path, class_map=lexicon, families=("hour",))
    b = scan_corpus(path, class_map=lexicon, families=("hour",))
    a.merge_from(b)
    assert a.overall.summary().n_posts == 2 * oracle["overall"][0]
    assert a.counts["n_records"] == 2 * oracle["n_records"]


def test_one_worker_scan_holds_one_block(tmp_path, lexicon, monkeypatch):
    # Peak traced memory grows by about one block per block byte: the scan
    # holds the block it is scanning and no copy, no joined block and no
    # block read ahead. A scan that also held the previous block, or a
    # joined copy, would grow by two bytes or more per block byte.
    path = write_corpus(tmp_path, util.random_corpus_lines(random.Random(5), 16_000))
    # A first scan pays for one-time imports and caches; without it, the
    # slope would depend on which test ran first.
    scan_corpus(path, class_map=lexicon, families=FAMILIES)
    peaks = {}
    for size in (1 << 18, 1 << 20):
        monkeypatch.setattr(pipeline, "CHUNK_BYTES", size)
        tracemalloc.start()
        try:
            scan_corpus(path, class_map=lexicon, families=FAMILIES)
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
        res = scan_corpus(path, class_map=lexicon, families=FAMILIES, workers=2)
        assert_matches_oracle(res, oracle)
        assert bool(sent) == (chunk_bytes < len(data))
        assert all(len(pickle.dumps(header)) < 1024 for header, _ in sent)
        assert all(header[2] == len(block) for header, block in sent)
        if sent:
            assert b"".join(block for _, block in sent) == data
        util.assert_no_child_left()


def test_block_cut_at_a_line_end_keeps_the_result(tmp_path, lexicon, monkeypatch):
    # Every line is as long as GOOD_RECORD, so a block of CHUNK_BYTES ends
    # exactly at a line end, where a buffered file reads one line past it.
    # A worker must split the bytes it is sent into the block's lines.
    width = len(GOOD_RECORD % 10)
    lines = [GOOD_RECORD % i if i % 7 else b"not json".ljust(width, b"#") for i in range(10, 100)]
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")

    def scan(size, workers):
        monkeypatch.setattr(pipeline, "CHUNK_BYTES", size)
        res = scan_corpus(str(path), class_map=lexicon, families=FAMILIES,
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


def test_two_worker_scan_parent_holds_one_block(tmp_path, lexicon, monkeypatch):
    # At two workers the parent reads each block only to cut and number it
    # and drops it before the next, so its traced peak grows by about one
    # block per block byte. A parent that kept the blocks in flight, or
    # their pickles, would grow by several bytes per block byte.
    path = write_corpus(tmp_path, util.random_corpus_lines(random.Random(5), 16_000))
    scan_corpus(path, class_map=lexicon, families=FAMILIES, workers=2)  # warm-up
    peaks = {}
    for size in (1 << 18, 1 << 20):
        monkeypatch.setattr(pipeline, "CHUNK_BYTES", size)
        tracemalloc.start()
        try:
            scan_corpus(path, class_map=lexicon, families=FAMILIES, workers=2)
            peaks[size] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    slope = (peaks[1 << 20] - peaks[1 << 18]) / ((1 << 20) - (1 << 18))
    assert slope < 1.6, peaks


def wide_corpus(tmp_path, n_posts: int) -> str:
    """Posts of 1 to 24 tokens with any mix of anxiety and calm tokens, over every
    hour and weekday: each bin holds hundreds of histogram keys, most of them in
    both halves of the corpus."""
    rng = random.Random(12)
    lines = []
    for i in range(n_posts):
        n_tok = rng.randint(1, 24)
        n_anx = rng.randint(0, n_tok)
        n_calm = rng.randint(0, n_tok - n_anx)
        words = [util.ANX_WORDS[0]] * n_anx + [util.CALM_WORDS[0]] * n_calm
        text = " ".join(words + ["day"] * (n_tok - n_anx - n_calm))
        lines.append(json.dumps({"id": str(i), "text": text, "timezone": "UTC",
                                 "timestamp_utc": f"2020-01-{1 + i % 28:02d}T{i % 24:02d}:00:00Z"}))
    return write_corpus(tmp_path, lines)


def held_when_read(obj) -> int:
    """Traced bytes of ``obj`` read back from its pickle, with the pickle itself."""
    data = pickle.dumps(obj)
    tracemalloc.start()
    try:
        pickle.loads(data)
        return len(data) + tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_two_worker_parent_holds_one_part_of_a_reply(tmp_path, lexicon, monkeypatch):
    # A worker's reply is its counters and then one message per bin, and the
    # parent merges each part into its total before it reads the next. So
    # over what the result holds, the parent's traced peak grows by at most
    # one block, the largest bin read back from its pickle, and a slack for
    # the pipes' buffers and the parent's bookkeeping (64 KiB). A parent that
    # read a whole second result would hold it beside the first: here that
    # is about 0.5 MB over the result, against a bound of about 0.15 MB.
    path = wide_corpus(tmp_path, 20_000)
    families = ("hour", "weekday")
    monkeypatch.setattr(pipeline, "CHUNK_BYTES", 1 << 14)
    scan_corpus(path, class_map=lexicon, families=families, workers=2)  # warm-up
    tracemalloc.start()
    try:
        res = scan_corpus(path, class_map=lexicon, families=families, workers=2)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    util.assert_no_child_left()
    bins = [res.overall, *(agg for family in families for agg in res.bins[family].values())]
    bound = 2 * pipeline.CHUNK_BYTES + max(map(held_when_read, bins)) + (64 << 10)
    assert held > 4 * bound  # a second result could not hide in the bound
    assert peak - held <= bound, (peak, held, bound)


def test_worker_dead_partway_through_its_bins_is_a_corpus_error(tmp_path, lexicon, monkeypatch):
    # A worker that dies after some of its bin messages, partway through the
    # next, is a dead worker at its last block, like one that dies in a
    # block; the parent kills and reaps the other.
    path = write_corpus(tmp_path, util.random_corpus_lines(random.Random(3), 100))
    monkeypatch.setattr(pipeline, "CHUNK_BYTES", 256)
    parent, sent = os.getpid(), []

    def send(fh, obj, lines=()):
        if os.getpid() != parent and isinstance(obj, tuple) and len(obj) == 3:
            sent.append(obj)  # a bin message: (family, key, bin)
            if len(sent) == 5:
                data = pickle.dumps(obj)
                fh.write(data[:len(data) // 2])
                fh.flush()
                os._exit(1)
        return _send(fh, obj, lines)

    monkeypatch.setattr(workers, "_send", send)
    with pytest.raises(CorpusError, match=r"^a scan worker died at \S*corpus\.jsonl line \d+$"):
        scan_corpus(path, class_map=lexicon, families=["hour"], workers=2)
    util.assert_no_child_left()


def run_worker(*blocks, scan):
    """Run a scan worker in-process on the given blocks of ``pipeline._blocks``; return its
    reply, read whole as the parent reads it: its result, or the exception it met."""
    sent, replies = io.BytesIO(), io.BytesIO()
    for index, line_no, lines in blocks:
        _send(sent, (index, line_no, sum(map(len, lines))), lines)
    _send(sent, None)
    sent.seek(0)
    _scan_worker(sent, replies, scan)
    replies.seek(0)
    while (head := pickle.load(replies)) is None:  # a request for the next block
        pass
    return head if isinstance(head, Exception) else workers._reply(replies, head, None)


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
            scan_corpus(path, class_map=lexicon, families=["hour"], workers=2)
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
        scan_corpus(path, class_map=lexicon, families=["hour"], workers=2)
    util.assert_no_child_left()


def test_worker_exception_is_raised_in_the_parent(tmp_path, lexicon, monkeypatch):
    # An exception a worker meets is its last message, which the parent raises.
    path = write_corpus(tmp_path, util.random_corpus_lines(random.Random(3), 100))
    monkeypatch.setattr(pipeline, "CHUNK_BYTES", 256)

    def fail(lines, line_no, fmt):  # data_lines, called once per block
        raise ValueError(f"cannot scan line {line_no}")

    monkeypatch.setattr(pipeline, "data_lines", fail)
    with pytest.raises(ValueError, match=r"^cannot scan line \d+$"):
        scan_corpus(path, class_map=lexicon, families=["hour"], workers=2)
    util.assert_no_child_left()
    # The same worker in this process, without a fork.
    scan = partial(pipeline._scan, (path,), "jsonl", frozenset(["hour"]), {})
    reply = run_worker((0, 7, [b"\n"]), scan=scan)
    assert isinstance(reply, ValueError) and str(reply) == "cannot scan line 7"


def test_worker_whose_last_message_is_read_is_reaped_not_killed(tmp_path, lexicon, monkeypatch):
    # The worker that scans line 1 raises; its exception, its last message,
    # leaves it only its os._exit, which is not cut short: the parent reaps
    # it without a signal. The other worker, still in its block, is killed.
    path = write_corpus(tmp_path, util.random_corpus_lines(random.Random(3), 100))
    monkeypatch.setattr(pipeline, "CHUNK_BYTES", 256)

    def fail_or_hang(lines, line_no, fmt):  # data_lines, called once per block
        if line_no == 1:
            raise ValueError(f"worker {os.getpid()} failed")
        time.sleep(60)  # killed long before it wakes

    kills, real_kill = [], os.kill

    def kill(pid, sig):
        kills.append((pid, sig))
        real_kill(pid, sig)

    monkeypatch.setattr(pipeline, "data_lines", fail_or_hang)
    monkeypatch.setattr(os, "kill", kill)
    with pytest.raises(ValueError, match=r"^worker \d+ failed$") as info:
        scan_corpus(path, class_map=lexicon, families=["hour"], workers=2)
    util.assert_no_child_left()
    failed = int(str(info.value).split()[1])
    assert len(kills) == 1 and kills[0][0] != failed and kills[0][1] == signal.SIGKILL, kills


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

            def read_then_fault(files):
                for block in READ_BLOCKS(files):
                    if not done:
                        done.append(fault(paths[2]))
                    yield block

            monkeypatch.setattr(pipeline, "_blocks", read_then_fault)
            with pytest.raises(CorpusError) as info:
                scan_corpus(*map(str, paths), class_map=lexicon, families=["hour"],
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
        fh, key = pipeline._open(path)
        fh.close()
        files.append((path, key))
    scan = partial(pipeline._scan, tuple(paths), "jsonl", frozenset(FAMILIES),
                   token_table(lexicon, tables))
    blocks = list(pipeline._blocks(files))
    results = []
    for k in range(3):
        res = run_worker(*blocks[k::3], scan=scan)
        assert isinstance(res, ScanResult) and res.skip_events
        results.append(res)
    whole = scan_corpus(*paths, class_map=lexicon, families=FAMILIES)
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
# its first block, while the other scans on. pipeline.data_lines runs once
# per block and pipeline._bin_lookups once per result, in the workers only.
# Then checks that no child process is left.
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
    return real_data_lines(*args)

def die_in_first_worker(*args):
    if len(forks) == 1:
        os._exit(1)
    return real_data_lines(*args)

def fork():
    forks.append(None)
    return real_fork()

real_data_lines, real_fork = pipeline.data_lines, os.fork
os.fork = fork
pipeline.CHUNK_BYTES = 256
if sys.argv[3] == "second-span":
    pipeline.data_lines = die_on_second_block
elif sys.argv[3] == "first-worker":
    pipeline.data_lines = die_in_first_worker
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
        calls, real_data_lines = [], pipeline.data_lines

        def die_on_second_block(*args):  # data_lines, called once per block
            calls.append(None)
            if len(calls) == 2:
                os._exit(1)
            return real_data_lines(*args)

        monkeypatch.setattr(pipeline, "data_lines", die_on_second_block)
    else:
        monkeypatch.setattr(pipeline, "_bin_lookups", lambda res: os._exit(1))
    with pytest.raises(CorpusError, match=f"^{message}$"):
        scan_corpus(path, class_map=lexicon, families=["hour"], workers=2)
    util.assert_no_child_left()


@pytest.mark.parametrize("failing_fork", [1, 2, 3])
def test_failed_fork_exits_2_and_leaves_no_child(tmp_path, monkeypatch, capsys, failing_fork):
    # os.fork fails (EAGAIN: the process limit) at the first, second or third
    # worker of three: the run is an i/o error, and the workers already
    # forked are killed and reaped.
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text(util.lexicon_text(), encoding="utf-8")
    path = write_corpus(tmp_path, util.random_corpus_lines(random.Random(3), 100))
    monkeypatch.setattr(pipeline, "CHUNK_BYTES", 256)  # blocks enough for three workers
    forks, real_fork = [], os.fork

    def fork():
        forks.append(None)
        if len(forks) == failing_fork:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    code = cli.main(["replicate", "--lexicon", str(lexicon), "--corpus", path, "--workers", "3",
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert (code, len(forks)) == (2, failing_fork), err
    assert err == f"anxarc: i/o error: [Errno {errno.EAGAIN}] {os.strerror(errno.EAGAIN)}\n"
    util.assert_no_child_left()


# Runs the CLI at two workers whose scans wait in pipeline.data_lines, each
# once it has printed its pid, until the parent is signalled and kills them.
WAITING_WORKERS_RUN = """
import os, signal, sys, time
sys.path.insert(0, sys.argv[1])
from anxarc import cli, pipeline

def wait(*args):
    # One write, as the two workers share the pipe (print writes each of
    # its pieces apart when output is unbuffered, and the lines interleave).
    os.write(1, b"waiting %d\\n" % os.getpid())
    os.close(1)  # only the parent holds the test's pipes: they close when it exits
    os.close(2)
    time.sleep(60)

# The dispositions of a foreground job, whatever the test runner's are.
signal.signal(signal.SIGINT, signal.default_int_handler)
signal.signal(signal.SIGTERM, signal.SIG_DFL)
pipeline.data_lines = wait
pipeline.CHUNK_BYTES = 256
sys.exit(cli.main(["analyze-hour", "--lexicon", "lexicon.tsv", "--corpus", "corpus.jsonl",
                   "--workers", "2", "--out", "out"]))
"""


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.mark.parametrize("sig,code", [(signal.SIGINT, 130), (signal.SIGTERM, 143)])
def test_signal_stops_a_two_worker_scan_cleanly(tmp_path, sig, code):
    # SIGINT and SIGTERM to the parent of a two-worker scan: one line, no
    # traceback, the shell's exit code, and both workers killed and reaped.
    (tmp_path / "lexicon.tsv").write_text(util.lexicon_text(), encoding="utf-8")
    write_corpus(tmp_path, util.random_corpus_lines(random.Random(3), 100))
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.Popen([sys.executable, "-c", WAITING_WORKERS_RUN, src], cwd=tmp_path,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    pids = []
    try:
        for _ in range(2):
            line = proc.stdout.readline()
            assert line.startswith("waiting "), (line, proc.stderr.read())
            pids.append(int(line.split()[1]))
        proc.send_signal(sig)
        _, err = proc.communicate(timeout=60)
        left = [pid for pid in pids if _alive(pid)]
    finally:
        for pid in pids:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
        proc.kill()
        proc.wait()
    assert (proc.returncode, err) == (code, "anxarc: interrupted\n")
    assert left == []


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
res = pipeline.scan_corpus("corpus.jsonl", class_map=load_lexicon("lexicon.tsv"),
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


def test_worker_module_leaves_out_the_pipeline():
    # The workers run the scan function they are given over the blocks they
    # are given, so their module needs nothing of the scan's.
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import anxarc.workers; "
            "print(*(m for m in sys.argv[2:] if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code, src, "anxarc.workers", "anxarc.pipeline"],
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout.split() == ["anxarc.workers"], proc.stderr


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
