from __future__ import annotations

import io
import random
from datetime import datetime, timezone

import pytest

from anxarc.corpus import (
    CorpusError,
    LocalTime,
    Post,
    UnknownTimezoneError,
    localize,
    open_corpus,
    parse_rfc3339,
    parse_record,
)

GOOD_JSONL = (
    '{"id":"1","text":"i hope it works",'
    '"timestamp_utc":"2020-06-15T12:00:00Z","timezone":"America/New_York"}'
)


def test_parse_jsonl_record():
    post = parse_record(GOOD_JSONL, "jsonl")
    assert post.id == "1"
    assert post.text == "i hope it works"
    assert post.timestamp_utc == datetime(2020, 6, 15, 12, 0, tzinfo=timezone.utc)
    assert post.timezone == "America/New_York"


def test_parse_tsv_record():
    line = "42\thello world\t2020-01-01T00:00:00Z\tUTC"
    post = parse_record(line, "tsv")
    assert post.id == "42"
    assert post.text == "hello world"


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
    ],
)
def test_malformed_records_raise(line, fmt):
    with pytest.raises(ValueError):
        parse_record(line, fmt)


def test_rfc3339_offset_normalized_to_utc():
    dt = parse_rfc3339("2020-06-15T14:00:00+02:00")
    assert dt == datetime(2020, 6, 15, 12, 0, tzinfo=timezone.utc)


def test_stream_yields_in_order_and_counts():
    lines = [GOOD_JSONL, "broken", GOOD_JSONL.replace('"1"', '"2"')]
    reader = open_corpus(io.StringIO("\n".join(lines) + "\n"), "jsonl")
    posts = list(reader)
    assert [p.id for p in posts] == ["1", "2"]
    assert reader.n_records == 3
    assert reader.n_yielded == 2
    assert reader.n_skipped == 1
    assert reader.skip_events[0].line_no == 2
    assert reader.n_yielded + reader.n_skipped == reader.n_records


def test_tsv_skip_event_and_continue():
    text = "a\tb\tc\n1\thello\t2020-01-01T00:00:00Z\tUTC\n"
    reader = open_corpus(io.StringIO(text), "tsv")
    posts = list(reader)
    assert len(posts) == 1
    assert reader.n_skipped == 1
    assert reader.skip_events[0].line_no == 1


def test_tsv_header_skipped_silently():
    text = "id\ttext\ttimestamp_utc\ttimezone\n1\thi\t2020-01-01T00:00:00Z\tUTC\n"
    reader = open_corpus(io.StringIO(text), "tsv")
    assert len(list(reader)) == 1
    assert reader.n_records == 1
    assert reader.n_skipped == 0


def test_empty_file_empty_stream():
    reader = open_corpus(io.StringIO(""), "jsonl")
    assert list(reader) == []
    assert reader.n_records == 0
    assert reader.n_skipped == 0


def test_byte_stream_source():
    reader = open_corpus(io.BytesIO(GOOD_JSONL.encode("utf-8") + b"\n"), "jsonl")
    posts = list(reader)
    assert len(posts) == 1
    assert posts[0].id == "1"


def test_parse_record_accepts_utf8_bytes():
    assert parse_record(GOOD_JSONL.encode("utf-8"), "jsonl").id == "1"
    with pytest.raises(ValueError, match="invalid UTF-8 at byte 2"):
        parse_record(b'{"\xff\xfe":1}', "jsonl")


def test_invalid_utf8_line_skipped_alone():
    good = GOOD_JSONL.encode("utf-8")
    reader = open_corpus(io.BytesIO(b"\n".join([good, b'{"id": "\xff\xfe"}', good])), "jsonl")
    assert len(list(reader)) == 2
    assert reader.n_records == 3
    assert reader.n_skipped == 1
    assert reader.skip_events[0].line_no == 2
    assert reader.skip_events[0].reason.startswith("invalid UTF-8")


def test_blank_lines_not_counted():
    reader = open_corpus(io.StringIO("\n\n" + GOOD_JSONL + "\n\n"), "jsonl")
    assert len(list(reader)) == 1
    assert reader.n_records == 1


def test_unknown_format_rejected():
    with pytest.raises(CorpusError):
        open_corpus(io.StringIO(""), "xml")


def test_missing_file_is_fatal():
    reader = open_corpus("/nonexistent/corpus.jsonl", "jsonl")
    with pytest.raises(CorpusError):
        list(reader)


# localize: expected values computed independently from the tz database
# (2020-06-15 is a Monday; New York is UTC-4 on that date; 2020-01-01 is a
# Wednesday).
def test_localize_new_york_summer():
    post = parse_record(GOOD_JSONL, "jsonl")
    assert localize(post) == LocalTime(hour=8, weekday=0)


def test_localize_utc_newyear():
    post = Post("x", "", datetime(2020, 1, 1, tzinfo=timezone.utc), "UTC")
    assert localize(post) == LocalTime(hour=0, weekday=2)


def test_localize_utc_identity_hour():
    rng = random.Random(7)
    for _ in range(50):
        dt = datetime(2019, 3, rng.randint(1, 28), rng.randint(0, 23), tzinfo=timezone.utc)
        post = Post("x", "", dt, "UTC")
        assert localize(post).hour == dt.hour


def test_localize_dst_shift():
    # New York is UTC-5 in January (EST) but UTC-4 in June (EDT).
    winter = Post("w", "", datetime(2020, 1, 15, 12, 0, tzinfo=timezone.utc), "America/New_York")
    summer = Post("s", "", datetime(2020, 6, 15, 12, 0, tzinfo=timezone.utc), "America/New_York")
    assert localize(winter).hour == 7
    assert localize(summer).hour == 8


def test_localize_unknown_timezone():
    post = Post("x", "", datetime(2020, 1, 1, tzinfo=timezone.utc), "Mars/Colony")
    with pytest.raises(UnknownTimezoneError):
        localize(post)


def test_localize_ranges_over_random_instants():
    rng = random.Random(11)
    zones = ["UTC", "America/New_York", "Asia/Tokyo", "Australia/Sydney", "Europe/London"]
    start = datetime(2015, 1, 1, tzinfo=timezone.utc).timestamp()
    end = datetime(2021, 12, 31, tzinfo=timezone.utc).timestamp()
    for _ in range(500):
        dt = datetime.fromtimestamp(start + rng.random() * (end - start), tz=timezone.utc)
        lt = localize(Post("x", "", dt, rng.choice(zones)))
        assert 0 <= lt.hour <= 23
        assert 0 <= lt.weekday <= 6
