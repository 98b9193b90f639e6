"""Corpus records: one line to a post, and its timestamp localized.

``data_lines`` numbers a block's lines and keeps its data lines, and
``parse_record`` parses each into a plain ``(text, timestamp_utc,
timezone)`` tuple; ``localize`` turns the last two into a plain ``(hour,
weekday)`` tuple. This module opens no file: ``pipeline`` reads the corpus
files and cuts them into blocks. Two record formats are supported:

* ``jsonl`` -- one JSON object per line with keys ``id``, ``text``,
  ``timestamp_utc``, ``timezone``;
* ``tsv`` -- four tab-separated columns in that order, with an optional
  literal header line.

Timestamps are RFC 3339; timezones are IANA names resolved through the
system timezone database. Malformed records never abort the stream: they
become counted skips that surface in the final reports.
"""

from __future__ import annotations

import json
import re
from datetime import datetime, timezone
from functools import lru_cache
from typing import Iterator, NamedTuple
from zoneinfo import ZoneInfo, ZoneInfoNotFoundError

FORMATS = ("jsonl", "tsv")

_TSV_HEADER = "id\ttext\ttimestamp_utc\ttimezone"


class CorpusError(ValueError):
    """Fatal corpus-level failure (unreadable source, unknown format)."""


class UnknownTimezoneError(ValueError):
    """The post's timezone does not resolve in the timezone database."""

    def __init__(self, tz_name: str):
        super().__init__(f"unknown timezone {tz_name!r}")
        self.tz_name = tz_name


class SkipEvent(NamedTuple):
    # The stream position, (file index, line number), leads: events sort in
    # stream order.
    file_index: int
    line_no: int
    path: str
    reason: str


# An RFC 3339 date-time in ASCII digits ("(?a)"); a space may stand for the "T".
_RFC3339 = re.compile(r"(?a)(\d{4}-\d\d-\d\d[Tt ]\d\d:\d\d:\d\d)(?:\.(\d+))?(?:[Zz]|([+-]\d\d:\d\d))")


def parse_rfc3339(text: str) -> datetime:
    """Parse an RFC 3339 timestamp to an aware UTC datetime, to the microsecond.

    Only RFC 3339 is read, so the result does not depend on the Python
    version's ``fromisoformat`` grammar; a longer fraction is cut.
    """
    match = _RFC3339.fullmatch(text.strip())
    if match is None:
        raise ValueError(f"not an RFC 3339 date-time: {text!r}")
    stamp, fraction, offset = match.groups()
    if fraction:
        stamp += "." + fraction[:6].ljust(6, "0")
    dt = datetime.fromisoformat(stamp + (offset or "+00:00"))
    try:
        return dt.astimezone(timezone.utc)
    except OverflowError:
        raise ValueError(f"timestamp out of range in UTC: {text!r}") from None


# Room for several times the timezone database's names; the bound only keeps
# a corpus of endless distinct bad names from growing the cache without limit.
@lru_cache(maxsize=4096)
def _zone(name: str) -> ZoneInfo | None:
    """The zone of an IANA name, or None if it does not resolve (cached too)."""
    try:
        return ZoneInfo(name)
    except (ZoneInfoNotFoundError, ValueError, KeyError):
        return None


def localize(timestamp_utc: datetime, zone: str) -> tuple[int, int]:
    """Civil local ``(hour, weekday)`` of a UTC instant in a zone, DST-aware.

    The hour is 0-23 and the weekday 0-6, Monday = 0.

    Raises UnknownTimezoneError if the timezone does not resolve, or if the
    local time falls outside the years 1-9999 that ``datetime`` holds;
    callers treat that as a skip for time-based slices only.
    """
    tz = _zone(zone)
    if tz is None:
        raise UnknownTimezoneError(zone)
    try:
        local = timestamp_utc.astimezone(tz)
    except OverflowError:
        raise UnknownTimezoneError(zone) from None
    return local.hour, local.weekday()


# The C scanner that json.loads runs after skipping leading whitespace. Called
# directly it skips json.loads' wrapper; its result is kept only when it
# consumed the whole line, and every other line goes through json.loads, so
# values and error messages are the same as json.loads gives.
_scan_json = json.JSONDecoder().scan_once

_KEYS = ("id", "text", "timestamp_utc", "timezone")


def _loads(line: str) -> object:
    try:
        obj, end = _scan_json(line, 0)
        if end == len(line):
            return obj
    except (StopIteration, json.JSONDecodeError):
        pass
    return json.loads(line)


def parse_record(line: str | bytes, fmt: str) -> tuple[str, datetime, str]:
    """Parse one corpus line, as text or UTF-8 bytes, to ``(text, timestamp_utc, timezone)``.

    The id is validated but not returned. Raises ValueError with a reason on
    bad records, including bytes that are not valid UTF-8.
    """
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"invalid UTF-8 at byte {exc.start}") from None
    if fmt == "jsonl":
        try:
            obj = _loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON: {exc.msg}") from None
        except RecursionError:
            raise ValueError("invalid JSON: nested too deeply") from None
        if not isinstance(obj, dict):
            raise ValueError("record is not a JSON object")
        try:
            rid, text, ts, tz = obj["id"], obj["text"], obj["timestamp_utc"], obj["timezone"]
        except KeyError:
            missing = [k for k in _KEYS if k not in obj]
            raise ValueError(f"missing keys: {', '.join(missing)}") from None
    elif fmt == "tsv":
        fields = line.split("\t")
        if len(fields) != 4:
            raise ValueError(f"expected 4 tab-separated fields, got {len(fields)}")
        rid, text, ts, tz = fields
    else:
        raise CorpusError(f"unknown corpus format {fmt!r}")

    # An integer id is accepted, as its decimal string would be; a bool is not.
    if not (isinstance(rid, str) and rid or type(rid) is int):
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


def data_lines(
    lines: list[bytes], first_line_no: int, fmt: str
) -> Iterator[tuple[int, str | bytes]]:
    """Yield (line_no, line) for every data line of a block of whole lines.

    Each line is decoded as UTF-8 on its own, so a bad byte spoils only its
    own line: that line is yielded as its raw bytes, which ``parse_record``
    rejects as a parse skip. A trailing ``\\r`` is dropped, blank lines are
    skipped without counting as records, and a literal TSV header on line 1
    is skipped.
    """
    for line_no, raw in enumerate(lines, first_line_no):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError:
            yield line_no, raw
            continue
        line = line.rstrip("\r\n")
        if not line.strip():
            continue
        if fmt == "tsv" and line_no == 1 and line == _TSV_HEADER:
            continue
        yield line_no, line
