from __future__ import annotations

import io
import json
import os
import random
import tempfile
import weakref
from datetime import datetime, timezone
from unittest import mock
from zoneinfo import ZoneInfo

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anxarc import corpus, pipeline
from anxarc.corpus import (
    CorpusError,
    UnknownTimezoneError,
    data_lines,
    localize,
    parse_rfc3339,
    parse_record,
)
from anxarc.pipeline import scan_corpus

GOOD_JSONL = (
    '{"id":"1","text":"i hope it works",'
    '"timestamp_utc":"2020-06-15T12:00:00Z","timezone":"America/New_York"}'
)


def test_parse_jsonl_record():
    assert parse_record(GOOD_JSONL, "jsonl") == (
        "i hope it works",
        datetime(2020, 6, 15, 12, 0, tzinfo=timezone.utc),
        "America/New_York",
    )


def test_parse_tsv_record():
    line = "42\thello world\t2020-01-01T00:00:00Z\t UTC "
    assert parse_record(line, "tsv") == (
        "hello world", datetime(2020, 1, 1, tzinfo=timezone.utc), "UTC"
    )


@pytest.mark.parametrize(
    "line,fmt",
    [
        ("not json", "jsonl"),
        ('{"id":"1","text":"x"}', "jsonl"),  # missing keys
        ('{"id":"","text":"x","timestamp_utc":"2020-01-01T00:00:00Z","timezone":"UTC"}', "jsonl"),
        ('{"id":"1","text":"x","timestamp_utc":"yesterday","timezone":"UTC"}', "jsonl"),
        ('{"id":"1","text":"x","timestamp_utc":"2020-01-01T00:00:00","timezone":"UTC"}', "jsonl"),
        ("a\tb\tc", "tsv"),  # 3 columns
        ("a\tb\tc\td\te", "tsv"),  # 5 columns
        # One case for each check of a field's type.
        ('{"id":"1","text":"x","timestamp_utc":0,"timezone":"UTC"}', "jsonl"),
        ('{"id":null,"text":"x","timestamp_utc":"2020-01-01T00:00:00Z","timezone":"UTC"}', "jsonl"),
        ('{"id":"1","text":7,"timestamp_utc":"2020-01-01T00:00:00Z","timezone":"UTC"}', "jsonl"),
        ('{"id":"1","text":"x","timestamp_utc":"2020-01-01T00:00:00Z","timezone":5}', "jsonl"),
        ('{"id":"1","text":"x","timestamp_utc":"2020-01-01T00:00:00Z","timezone":" "}', "jsonl"),
        ('["1","x","2020-01-01T00:00:00Z","UTC"]', "jsonl"),  # not an object
    ],
)
def test_malformed_records_raise(line, fmt):
    with pytest.raises(ValueError):
        parse_record(line, fmt)


# An id is a non-empty string or a JSON integer; a boolean is neither,
# although Python's bool is an int.
@pytest.mark.parametrize("rid", ["true", "false"])
def test_id_that_is_not_a_string_or_an_integer_is_a_bad_record(rid):
    with pytest.raises(ValueError, match="^id must be a non-empty string$"):
        parse_record(GOOD_JSONL.replace('"id":"1"', f'"id":{rid}'), "jsonl")
    assert parse_record(GOOD_JSONL.replace('"id":"1"', '"id":0'), "jsonl")[0] == "i hope it works"


def reference_parse_jsonl(line: str) -> tuple[str, datetime, str]:
    """parse_record's JSON checks written over plain json.loads."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc.msg}") from None
    if not isinstance(obj, dict):
        raise ValueError("record is not a JSON object")
    missing = [k for k in ("id", "text", "timestamp_utc", "timezone") if k not in obj]
    if missing:
        raise ValueError(f"missing keys: {', '.join(missing)}")
    rid, text, ts, tz = obj["id"], obj["text"], obj["timestamp_utc"], obj["timezone"]
    if isinstance(rid, int) and not isinstance(rid, bool):
        rid = str(rid)
    if not isinstance(rid, str) or not rid:
        raise ValueError("id must be a non-empty string")
    if not isinstance(text, str):
        raise ValueError("text must be a string")
    if not isinstance(tz, str) or not tz.strip():
        raise ValueError("timezone must be a non-empty string")
    if not isinstance(ts, str):
        raise ValueError("timestamp_utc must be a string")
    try:
        stamp = parse_rfc3339(ts)
    except ValueError as exc:
        raise ValueError(f"bad timestamp: {exc}") from None
    return text, stamp, tz.strip()


def outcome(parse, line):
    try:
        return parse(line)
    except ValueError as exc:
        return str(exc)


_field_values = st.one_of(
    st.sampled_from(["1", "", "i went home", " UTC ", "Asia/Tokyo", "2020-01-01T05:00:00Z",
                     "2020-01-01T05:00:00", "2020-13-01T00:00:00Z", "\ufeff"]),
    st.text(max_size=8), st.integers(-2, 2), st.none(), st.booleans(), st.floats(),
    st.lists(st.integers(), max_size=2), st.dictionaries(st.text(max_size=2), st.none(), max_size=1),
)
_objects = st.fixed_dictionaries(
    {}, optional={k: _field_values for k in ("id", "text", "timestamp_utc", "timezone", "x")}
)
_records = st.fixed_dictionaries({
    "id": st.sampled_from(["1", "abc", 7, -1]),
    "text": st.text(max_size=8),
    "timestamp_utc": st.sampled_from(["2020-01-01T05:00:00Z", "2020-06-15T14:00:00+02:00",
                                      "0001-01-01T00:00:00+01:00"]),
    "timezone": st.sampled_from(["UTC", " Asia/Tokyo ", "Mars/Colony"]),
})
_values = st.one_of(_records, _objects,
                    st.sampled_from([[], [1, {}], 0, -3, 1e400, float("nan"), "x", "", None, True]))
_edges = st.one_of(st.just(""), st.sampled_from(
    [" ", "\t", "\r", "\n", "\ufeff", "\u00a0", "x", "{}", " 1", "]", ",", "//"]
))
_json_lines = st.one_of(
    _values.map(json.dumps),
    st.builds(lambda pre, v, post: pre + json.dumps(v) + post, _edges, _values, _edges),
    st.builds(lambda v, k: json.dumps(v)[:k], _values, st.integers(0, 60)),
    st.text(max_size=12),
)


@given(_json_lines)
@settings(max_examples=1500, deadline=None)
def test_parse_record_matches_json_loads_reference(line):
    expected = outcome(reference_parse_jsonl, line)
    assert outcome(lambda x: parse_record(x, "jsonl"), line) == expected
    assert outcome(lambda x: parse_record(x.encode("utf-8"), "jsonl"), line) == expected


def test_deeply_nested_json_is_a_bad_record():
    for line in ("[" * 100_000 + "]" * 100_000, ' {"id": ' + "[" * 100_000):
        with pytest.raises(ValueError, match="invalid JSON: nested too deeply"):
            parse_record(line, "jsonl")


def test_rfc3339_offset_normalized_to_utc():
    dt = parse_rfc3339("2020-06-15T14:00:00+02:00")
    assert dt == datetime(2020, 6, 15, 12, 0, tzinfo=timezone.utc)


# ISO 8601 forms that are not RFC 3339; some Python versions' fromisoformat
# reads them (the week date as 2019-12-30).
@pytest.mark.parametrize("stamp", [
    "2020-W01-1T05:00:00Z", "20200101T050000Z", "2020-01-01T05Z", "2020-01-01T05:00:00+0530",
    "2020-01-01T05:00:00+05:30:00", "2020-01-01T05:00:00,5Z", "2020-01-01T05:00:00.Z",
    "\uff12020-01-01T05:00:00Z",  # a fullwidth digit
])
def test_iso_8601_beyond_rfc3339_is_a_bad_timestamp(stamp):
    with pytest.raises(ValueError, match="bad timestamp: not an RFC 3339 date-time"):
        parse_record(GOOD_JSONL.replace("2020-06-15T12:00:00Z", stamp), "jsonl")


# Every RFC 3339 fraction length, a lowercase "t" or "z" and a space separator
# parse to the same instant on every supported Python; past microseconds the
# fraction is cut.
@pytest.mark.parametrize("stamp,microsecond", [
    ("2020-06-15T12:00:00.5Z", 500000),
    ("2020-06-15T12:00:00.25Z", 250000),
    ("2020-06-15T12:00:00.1234Z", 123400),
    ("2020-06-15T12:00:00.12345Z", 123450),
    ("2020-06-15T12:00:00.1234567Z", 123456),
    ("2020-06-15T17:30:00.123456789+05:30", 123456),
    ("2020-06-15t12:00:00Z", 0),
    ("2020-06-15T12:00:00z", 0),
    ("2020-06-15 12:00:00Z", 0),
])
def test_rfc3339_forms_parse_alike(stamp, microsecond):
    _, dt, _ = parse_record(GOOD_JSONL.replace("2020-06-15T12:00:00Z", stamp), "jsonl")
    assert dt == datetime(2020, 6, 15, 12, 0, 0, microsecond, tzinfo=timezone.utc)
    assert dt.tzinfo is timezone.utc


def lines_of(data: bytes) -> list[bytes]:
    """``data`` cut after each line feed, as a block holds its lines."""
    return io.BytesIO(data).readlines()


def file_blocks(data: bytes, size: int) -> list[tuple[int, list[bytes]]]:
    """(first line number, lines) of each block that ``pipeline._blocks`` cuts from ``data``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "corpus")
        with open(path, "wb") as fh:
            fh.write(data)
        fh, key = pipeline._open(path)
        fh.close()
        with mock.patch.object(pipeline, "CHUNK_BYTES", size):
            return [(line_no, lines) for _, line_no, lines in pipeline._blocks([(path, key)])]


def read_posts(data: bytes, fmt="jsonl", size=1 << 20):
    """Parse every data line: (posts, [(line_no, reason)] of the skipped lines)."""
    posts, skips = [], []
    for first_line_no, block in file_blocks(data, size):
        for line_no, line in data_lines(block, first_line_no, fmt):
            try:
                posts.append(parse_record(line, fmt))
            except ValueError as exc:
                skips.append((line_no, str(exc)))
    return posts, skips


def test_stream_yields_in_order_and_counts():
    lines = [GOOD_JSONL, "broken", GOOD_JSONL.replace("i hope", "we hope")]
    data = ("\n".join(lines) + "\n").encode("utf-8")
    for size in (1, 10, len(data)):
        posts, skips = read_posts(data, size=size)
        assert [text for text, _, _ in posts] == ["i hope it works", "we hope it works"]
        assert [line_no for line_no, _ in skips] == [2]


def test_tsv_skip_event_and_continue():
    text = "a\tb\tc\n1\thello\t2020-01-01T00:00:00Z\tUTC\n"
    posts, skips = read_posts(text.encode("utf-8"), "tsv")
    assert len(posts) == 1
    assert [line_no for line_no, _ in skips] == [1]


def test_tsv_header_skipped_silently():
    text = "id\ttext\ttimestamp_utc\ttimezone\n1\thi\t2020-01-01T00:00:00Z\tUTC\n"
    block = lines_of(text.encode("utf-8"))
    assert [n for n, _ in data_lines(block, 1, "tsv")] == [2]
    posts, skips = read_posts(text.encode("utf-8"), "tsv")
    assert len(posts) == 1 and skips == []
    # Only line 1 of a file is a header, not the first line of a later block.
    assert [n for n, _ in data_lines(block, 5, "tsv")] == [5, 6]
    assert [n for n, _ in data_lines(block, 1, "jsonl")] == [1, 2]


@pytest.mark.parametrize("fmt,lines,reason", [
    ("jsonl", [GOOD_JSONL, GOOD_JSONL], "invalid JSON: Unexpected UTF-8 BOM"),
    ("tsv", ["id\ttext\ttimestamp_utc\ttimezone", "1\thi\t2020-01-01T00:00:00Z\tUTC"],
     "bad timestamp: not an RFC 3339 date-time: 'timestamp_utc'"),
])
def test_byte_order_mark_spoils_the_first_line_of_a_corpus(tmp_path, lexicon, fmt, lines,
                                                           reason):
    # A corpus is not stripped of a leading UTF-8 byte order mark: the first
    # JSONL record is a parse skip, and a TSV header is no longer a header
    # but a malformed record.
    path = tmp_path / f"corpus.{fmt}"
    path.write_bytes(b"\xef\xbb\xbf" + "".join(line + "\n" for line in lines).encode("utf-8"))
    res = scan_corpus(str(path), class_map=lexicon, families=("hour",), fmt=fmt)
    assert res.counts["n_records"] == 2 and res.counts["n_parse_skips"] == 1
    assert [(e.line_no, e.reason.startswith(reason)) for e in res.skip_events] == [(1, True)]


def test_empty_file_empty_stream():
    assert file_blocks(b"", 4) == []
    assert list(data_lines([], 1, "jsonl")) == []


def test_byte_stream_source():
    posts, skips = read_posts(GOOD_JSONL.encode("utf-8") + b"\n")
    assert posts == [parse_record(GOOD_JSONL, "jsonl")]
    assert skips == []


def test_parse_record_accepts_utf8_bytes():
    assert parse_record(GOOD_JSONL.encode("utf-8"), "jsonl") == parse_record(GOOD_JSONL, "jsonl")
    with pytest.raises(ValueError, match="invalid UTF-8 at byte 2"):
        parse_record(b'{"\xff\xfe":1}', "jsonl")


def test_invalid_utf8_line_skipped_alone():
    good = GOOD_JSONL.encode("utf-8")
    posts, skips = read_posts(b"\n".join([good, b'{"id": "\xff\xfe"}', good]))
    assert len(posts) == 2
    assert len(skips) == 1
    assert skips[0][0] == 2
    assert skips[0][1].startswith("invalid UTF-8")


def test_blank_lines_not_counted():
    lines = list(data_lines(lines_of(("\n\n" + GOOD_JSONL + "\n\n").encode("utf-8")), 1, "jsonl"))
    assert lines == [(3, GOOD_JSONL)]


def test_line_ends():
    # Only a line feed ends a line; trailing carriage returns are dropped,
    # and a bare one inside a line stays.
    block = lines_of(b"a\r\n\r\nb\r\r\nc\rd\ne")
    assert block == [b"a\r\n", b"\r\n", b"b\r\r\n", b"c\rd\n", b"e"]
    assert list(data_lines(block, 7, "jsonl")) == [(7, "a"), (9, "b"), (10, "c\rd"), (11, "e")]


@given(st.lists(st.sampled_from([b"\n", b"\r", b"\r\n", b"x", b"yz", b"\xff"]), max_size=30)
       .map(b"".join), st.data())
@settings(max_examples=500, deadline=None)
def test_read_blocks_cuts_whole_lines(data, draw):
    size = draw.draw(st.integers(1, len(data) + 1))
    blocks = file_blocks(data, size)
    lines = [line for _, block in blocks for line in block]
    # The file, cut after each line feed and nowhere else.
    assert lines == lines_of(data)
    offset = 0
    for first_line_no, block in blocks:
        assert first_line_no == 1 + data.count(b"\n", 0, offset)
        offset += sum(map(len, block))
        # A block ends at the first line that takes it past ``size`` bytes:
        # at most ``size`` bytes before its last line, and more in every
        # block but the last.
        assert sum(map(len, block[:-1])) <= size
        if block is not blocks[-1][1]:
            assert sum(map(len, block)) > size


def test_read_blocks_cut_at_a_line_end_depends_on_the_stream():
    # A line that ends exactly at ``size`` does not end a block of the
    # buffered file, which reads one more line. A scan worker, sent a
    # block's bytes, splits them back into the same lines.
    data = b"ab\ncd\nef\n"
    blocks = file_blocks(data, 3)
    assert blocks == [(1, [b"ab\n", b"cd\n"]), (3, [b"ef\n"])]
    for _, block in blocks:
        assert io.BytesIO(b"".join(block)).readlines() == block


class _Lines(list):
    """A block that, unlike a plain list, can be weakly referenced."""


class _WatchedFile:
    """A corpus file that records, at each read, whether the last block is still alive."""

    def __init__(self, fh):
        self.fh = fh
        self.last = None
        self.live_at_read = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def __getattr__(self, name):  # tell, fileno
        return getattr(self.fh, name)

    def readlines(self, size: int) -> list[bytes]:
        self.live_at_read.append(self.last is not None and self.last() is not None)
        lines = _Lines(self.fh.readlines(size))
        self.last = weakref.ref(lines)
        return lines


def test_read_blocks_drops_a_block_before_reading_the_next(tmp_path, monkeypatch):
    path = tmp_path / "corpus"
    path.write_bytes(b"".join(b"line %d\n" % i for i in range(100)))
    real_open, watched = pipeline._open, []

    def watched_open(name):
        fh, key = real_open(name)
        watched.append(_WatchedFile(fh))
        return watched[-1], key

    fh, key = real_open(str(path))
    fh.close()
    monkeypatch.setattr(pipeline, "CHUNK_BYTES", 64)
    monkeypatch.setattr(pipeline, "_open", watched_open)
    for _, _, block in pipeline._blocks([(str(path), key)]):
        del block
    assert len(watched[0].live_at_read) > 2
    assert not any(watched[0].live_at_read)


def test_a_file_that_grows_is_read_up_to_its_checked_size(tmp_path, monkeypatch):
    # Lines added once the scan has begun are neither read nor scanned, and
    # the error names the first line that starts at or after the checked
    # size: the line after the last one read.
    monkeypatch.setattr(pipeline, "CHUNK_BYTES", 8)
    path = tmp_path / "corpus"
    for data, line_no in [(b"".join(b"line %d\n" % i for i in range(10)), 11), (b"ab\ncd", 3)]:
        path.write_bytes(data)
        fh, key = pipeline._open(str(path))
        fh.close()
        read = []
        with pytest.raises(CorpusError, match=rf"\(from line {line_no}\)$"):
            for _, _, lines in pipeline._blocks([(str(path), key)]):
                if not read:
                    with open(path, "ab") as grow:
                        grow.write(b"more\n" * 100)
                read += lines
        assert b"".join(read) == data


def test_unknown_format_rejected(tmp_path, lexicon):
    path = tmp_path / "corpus.jsonl"
    path.write_text(GOOD_JSONL + "\n", encoding="utf-8")
    with pytest.raises(CorpusError):
        scan_corpus(str(path), class_map=lexicon, fmt="xml")
    with pytest.raises(CorpusError):
        parse_record(GOOD_JSONL, "xml")
    with pytest.raises(ValueError):  # a worker count below one
        scan_corpus(str(path), class_map=lexicon, workers=0)


def test_missing_file_is_fatal():
    with pytest.raises(CorpusError):
        pipeline._open("/nonexistent/corpus.jsonl")


@pytest.mark.parametrize("stamp", ["0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-05:00"])
def test_timestamp_outside_datetime_range_is_a_bad_record(stamp):
    with pytest.raises(ValueError, match="bad timestamp"):
        parse_record(GOOD_JSONL.replace("2020-06-15T12:00:00Z", stamp), "jsonl")


# localize: expected values computed independently from the tz database
# (2020-06-15 is a Monday; New York is UTC-4 on that date; 2020-01-01 is a
# Wednesday).
def test_localize_new_york_summer():
    _, stamp, zone = parse_record(GOOD_JSONL, "jsonl")
    assert localize(stamp, zone) == (8, 0)


def test_localize_utc_newyear():
    assert localize(datetime(2020, 1, 1, tzinfo=timezone.utc), "UTC") == (0, 2)


def test_localize_fields_are_hour_and_weekday():
    # 2020-01-01 is a Wednesday (weekday 2); Tokyo is UTC+9 all year.
    for dt, zone, expected in (
        (datetime(2020, 1, 1, 8, tzinfo=timezone.utc), "UTC", (8, 2)),
        (datetime(2020, 1, 5, 23, 30, tzinfo=timezone.utc), "UTC", (23, 6)),
        (datetime(2020, 1, 5, 15, tzinfo=timezone.utc), "Asia/Tokyo", (0, 0)),
    ):
        assert localize(dt, zone) == expected


def test_localize_utc_identity_hour():
    rng = random.Random(7)
    for _ in range(50):
        dt = datetime(2019, 3, rng.randint(1, 28), rng.randint(0, 23), tzinfo=timezone.utc)
        assert localize(dt, "UTC")[0] == dt.hour


def test_localize_dst_shift():
    # New York is UTC-5 in January (EST) but UTC-4 in June (EDT).
    winter = datetime(2020, 1, 15, 12, 0, tzinfo=timezone.utc)
    summer = datetime(2020, 6, 15, 12, 0, tzinfo=timezone.utc)
    assert localize(winter, "America/New_York")[0] == 7
    assert localize(summer, "America/New_York")[0] == 8


def test_localize_unknown_timezone():
    with pytest.raises(UnknownTimezoneError):
        localize(datetime(2020, 1, 1, tzinfo=timezone.utc), "Mars/Colony")


def test_unknown_timezone_is_looked_up_once(tmp_path, lexicon, monkeypatch):
    # A name that does not resolve is cached as such, like a zone that does.
    looked_up = []

    def counting_zone_info(name):
        looked_up.append(name)
        return ZoneInfo(name)

    path = tmp_path / "corpus.jsonl"
    bad = GOOD_JSONL.replace("America/New_York", "Mars/Colony")
    path.write_text("".join(bad.replace('"id":"1"', f'"id":"{i}"') + "\n" for i in range(100)),
                    encoding="utf-8")
    monkeypatch.setattr(corpus, "ZoneInfo", counting_zone_info)
    corpus._zone.cache_clear()
    try:
        res = scan_corpus(str(path), class_map=lexicon, families=("hour",))
    finally:
        corpus._zone.cache_clear()
    assert looked_up == ["Mars/Colony"]
    assert res.counts["n_records"] == 100 and res.counts["n_tz_skips"] == 100


def test_localize_past_year_9999_is_a_timezone_skip():
    with pytest.raises(UnknownTimezoneError):
        localize(datetime(9999, 12, 31, 23, tzinfo=timezone.utc), "Asia/Tokyo")


def test_localize_ranges_over_random_instants():
    rng = random.Random(11)
    zones = ["UTC", "America/New_York", "Asia/Tokyo", "Australia/Sydney", "Europe/London"]
    start = datetime(2015, 1, 1, tzinfo=timezone.utc).timestamp()
    end = datetime(2021, 12, 31, tzinfo=timezone.utc).timestamp()
    for _ in range(500):
        dt = datetime.fromtimestamp(start + rng.random() * (end - start), tz=timezone.utc)
        hour, weekday = localize(dt, rng.choice(zones))
        assert 0 <= hour <= 23
        assert 0 <= weekday <= 6
