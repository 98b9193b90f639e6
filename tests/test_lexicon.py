from __future__ import annotations

import io
import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from anxarc._kernel import ANX, CALM
from anxarc.lexicon import (
    DEFAULT_TAU_ANX,
    DEFAULT_TAU_CALM,
    DuplicateTermError,
    EmptyLexiconError,
    LexiconError,
    LexiconParseError,
    class_terms,
    load_lexicon,
)
from util import big_lexicon_text, lexicon_text, loads_lexicon, read_assoc, reference_load


def expected_code(value: float, tau_anx: float = DEFAULT_TAU_ANX,
                  tau_calm: float = DEFAULT_TAU_CALM) -> int:
    """The class code that the threshold rule gives an association; 0 if neutral."""
    if value >= tau_anx:
        return ANX
    if value <= tau_calm:
        return CALM
    return 0


def test_load_three_rows():
    lex = loads_lexicon("calm\t-2.5\npanic\t3.0\nroad\t0.0\n", (1.0, -1.0))
    assert lex == {"calm": CALM, "panic": ANX, "road": 0}


def test_header_line_is_skipped():
    lex = loads_lexicon("term\tassociation\npanic\t3.0\n")
    assert lex == {"panic": ANX}


def test_byte_stream_input():
    lex = load_lexicon(io.BytesIO(b"panic\t3.0\ncalm\t-2.0\nroad\t0.5\n"))
    assert lex == {"panic": ANX, "calm": CALM, "road": 0}


def test_duplicate_term_is_error():
    with pytest.raises(DuplicateTermError) as exc:
        loads_lexicon("panic\t3.0\npanic\t2.0\n")
    assert exc.value.term == "panic"


def test_non_numeric_association_is_parse_error_with_line():
    with pytest.raises(LexiconParseError) as exc:
        loads_lexicon("panic\tthree\n")
    assert exc.value.line_no == 1


@pytest.mark.parametrize(
    "text",
    [
        "panic\t3.0\textra\n",  # wrong field count
        "panic\n",
        "panic\t4.5\n",  # out of range
        "panic\t-3.5\n",
        "\t1.0\n",  # empty term
        "two words\t1.0\n",  # internal whitespace
    ],
)
def test_malformed_lines_rejected(text):
    with pytest.raises(LexiconParseError):
        loads_lexicon(text)


@pytest.mark.parametrize("term,tokens", [
    ("panic!", ["panic"]), ("'tis", ["tis"]), ("a.m.", ["a.m"]), ("#panic", ["panic"]),
    ("@panic", []), ("http://x", []), ("www.x", []), ("i\u0307", ["i"]),
    ("two words", ["two", "words"]), ("two\x0bwords", ["two", "words"]),
])
def test_a_term_that_no_token_can_equal_is_refused(term, tokens):
    # The tokenizer strips, drops or splits such a term in every post, so it
    # could never score; the error names the tokens it is read as.
    with pytest.raises(LexiconParseError) as exc:
        loads_lexicon(f"calm\t-2.0\n{term}\t3.0\n")
    assert str(exc.value) == f"line 2: term {term!r} is read as the tokens {tokens}"
    assert loads_lexicon("won't\t3.0\na.m\t-3.0\n\u00e9t\u00e9\t1.0\n") == {
        "won't": ANX, "a.m": CALM, "\u00e9t\u00e9": ANX}


@pytest.mark.parametrize("text,value", [
    # Python's float() grammar: a sign, an exponent, "_" between digits and
    # any Unicode decimal digits load.
    ("+1.5", 1.5), ("1e0", 1.0), ("0.5_0", 0.5), ("١.٥", 1.5), ("１.5", 1.5),
    # It also reads these, which then fail the range check.
    ("nan", "outside"), ("inf", "outside"), ("-Infinity", "outside"),
    ("0x1", "non-numeric"), ("1,5", "non-numeric"),
])
def test_association_grammar(text, value):
    if isinstance(value, str):
        with pytest.raises(LexiconParseError, match=value):
            loads_lexicon(f"panic\t{text}\n")
        return
    assert loads_lexicon(f"panic\t{text}\n") == {"panic": expected_code(value)}


def test_parse_error_carries_correct_line_number():
    with pytest.raises(LexiconParseError) as exc:
        loads_lexicon("fine\t1.0\nbad\toops\n")
    assert exc.value.line_no == 2


# Characters at which str.splitlines() breaks a line and a lexicon does not.
_NOT_LINE_ENDS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_salt = st.text(alphabet=_NOT_LINE_ENDS, max_size=3)


@given(st.lists(st.sampled_from(["row", ""]), max_size=6), st.data())
def test_parse_error_line_counts_line_feeds_only(rows, data):
    # Good and blank rows with the bad one among them, each salted at both
    # ends (where the characters are stripped as whitespace).
    rows = [f"w{i}\t{i % 7 - 3}" if row else row for i, row in enumerate(rows)]
    bad_at = data.draw(st.integers(0, len(rows)))
    rows.insert(bad_at, data.draw(st.sampled_from(["bad", "x\toops", "a\tb\tc", "x\t9", "\t1"])))
    salted = [data.draw(_salt) + row + data.draw(_salt) for row in rows]
    text = "\n".join(salted) + "\n"
    offset = len("\n".join(salted[:bad_at])) + (1 if bad_at else 0)
    with pytest.raises(LexiconParseError) as exc:
        loads_lexicon(text)
    assert exc.value.line_no == 1 + text.count("\n", 0, offset) == bad_at + 1


def test_empty_source_is_error():
    with pytest.raises(EmptyLexiconError):
        loads_lexicon("")
    with pytest.raises(EmptyLexiconError):
        loads_lexicon("\n\n")


def test_bad_thresholds_rejected():
    with pytest.raises(LexiconError):
        loads_lexicon("panic\t3.0\n", (-1.0, 1.0))
    with pytest.raises(LexiconError):
        loads_lexicon("panic\t3.0\n", (0.0, -1.0))


def test_terms_lower_cased_at_load():
    lex = loads_lexicon("PANIC\t3.0\nROAD\t0.0\n")
    assert lex == {"panic": ANX, "road": 0}


def test_classify_term_boundaries():
    lex = loads_lexicon("panic\t3.0\nroad\t0.0\ncalm\t-2.5\nedge\t1.0\nlow\t-1.0\n", (1.0, -1.0))
    # edge is at tau_anx and low at tau_calm; road is neutral, coded 0.
    assert lex == {"panic": ANX, "road": 0, "calm": CALM, "edge": ANX, "low": CALM}


def test_stats_hand_count():
    lex = loads_lexicon("calm\t-2.5\npanic\t3.0\nroad\t0.0\n", (1.0, -1.0))
    assert class_terms(lex) == (["panic"], ["calm"], ["road"])


def test_stats_partition_on_random_lexicons():
    # Counts must partition the total for arbitrary association values, and
    # agree with the threshold rule, also for associations exactly at a threshold.
    rng = random.Random(99)
    for _ in range(1000):
        n = rng.randint(1, 40)
        tau_anx = round(rng.uniform(0.1, 2.9), 3)
        tau_calm = -round(rng.uniform(0.1, 2.9), 3)
        values = [rng.choice([tau_anx, tau_calm, round(rng.uniform(-3, 3), 3)]) for _ in range(n)]
        lines = [f"w{i}\t{v!r}" for i, v in enumerate(values)]
        lex = loads_lexicon("\n".join(lines) + "\n", (tau_anx, tau_calm))
        anx, calm, neutral = class_terms(lex)
        assert len(anx) + len(calm) + len(neutral) == n
        codes = [expected_code(v, tau_anx, tau_calm) for v in values]
        assert len(anx) == codes.count(ANX)
        assert len(calm) == codes.count(CALM)


def test_classify_consistent_with_stats(lexicon):
    codes = [expected_code(v) for v in read_assoc(lexicon_text()).values()]
    assert tuple(map(len, class_terms(lexicon))) == (
        codes.count(ANX), codes.count(CALM), codes.count(0))


def test_exactly_one_class_per_entry(lexicon):
    assert set(lexicon) == set(read_assoc(lexicon_text()))
    assert set(lexicon.values()) <= {ANX, CALM, 0}
    # Each loaded term is in exactly one sorted list: the one of its class.
    anx, calm, neutral = class_terms(lexicon)
    assert all(terms == sorted(terms) for terms in (anx, calm, neutral))
    assert sorted(anx + calm + neutral) == sorted(lexicon)
    assert [lexicon[t] for t in anx + calm + neutral] == (
        [ANX] * len(anx) + [CALM] * len(calm) + [0] * len(neutral))


def test_round_trip(lexicon):
    # Each term written back at an association of its class loads to the same lexicon.
    value = {ANX: 3.0, CALM: -3.0, 0: 0.0}
    rows = [f"{t}\t{value[code]}\n" for t, code in lexicon.items()]
    assert loads_lexicon("term\tassociation\n" + "".join(rows)) == lexicon


def test_class_map_contains_only_affect_terms(lexicon):
    expected = {t: expected_code(v) for t, v in read_assoc(lexicon_text()).items()}
    assert lexicon == expected
    assert list(lexicon) == list(expected)  # in file order


# Lines of a lexicon file: well-formed rows, headers and blank lines, each
# padded with characters that are stripped as whitespace, and faulty lines.
_pad = st.sampled_from(["", " ", "\r", "\x0c", "\u2028"])
_term = st.one_of(st.sampled_from(["panic", "PANIC", "calm", "\u00e9t\u00e9", "term"]),
                  st.text("abcdefghij", min_size=1, max_size=6))
_value = st.one_of(st.sampled_from(["3.0", "-2.5", "0", "1.0", "-1.0", "+1e0", "association"]),
                   st.floats(-3.0, 3.0).map(repr))
_good_line = st.one_of(
    st.tuples(_pad, _term, _pad, _value, _pad).map(lambda p: f"{p[0]}{p[1]}{p[2]}\t{p[3]}{p[4]}"),
    st.sampled_from(["term\tassociation", "TERM\tassociation", "", " ", "\r", "\u2028"]),
).map(str.encode)
_bad_line = st.one_of(
    st.sampled_from([b"panic", b"a\tb\tc", b"\t1.0", b"two words\t1.0", b"x\toops", b"x\t4.5",
                     b"x\t-3.5", b"x\tnan", b"x\tinf", b"x\t\xff", b"\xc3", b"\xe2\x80",
                     b"\xef\xbb\xbfpanic\t3.0", b"panic!\t3.0", b"#x\t1", b"@x\t-1",
                     b"http://x\t0", b"a.m.\t1", b"i\xcc\x87\t1"]),
    st.binary(max_size=6),
)


def _outcome(load, raw: bytes, thresholds):
    """A load's result, as its items in order, or its error's type,
    message and line."""
    try:
        lex = load(raw, thresholds)
    except LexiconError as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)
    return list(lex.items())


@given(st.lists(_good_line, max_size=12), st.lists(_bad_line, max_size=2), st.booleans(),
       st.sampled_from([(DEFAULT_TAU_ANX, DEFAULT_TAU_CALM), (2.0, -0.5)]), st.data())
def test_line_walk_matches_the_whole_text_loader(lines, bad, newline_at_end, thresholds, data):
    # Walking the lines one at a time gives what decoding the whole file and
    # splitting it gives: the same map in the same order, or the same error.
    for line in bad:
        lines.insert(data.draw(st.integers(0, len(lines))), line)
    raw = b"\n".join(lines) + (b"\n" if newline_at_end else b"")
    got = _outcome(lambda r, t: load_lexicon(io.BytesIO(r), t), raw, thresholds)
    assert got == _outcome(reference_load, raw, thresholds)


class _Pipe(io.RawIOBase):
    """A byte stream that cannot seek, such as a pipe; it returns at most
    five bytes a read."""

    def __init__(self, data: bytes):
        self._data = data

    def readable(self) -> bool:
        return True

    def seekable(self) -> bool:
        return False

    def readinto(self, buffer) -> int:
        n = min(len(buffer), len(self._data), 5)
        buffer[:n] = self._data[:n]
        self._data = self._data[n:]
        return n


@given(st.lists(st.one_of(_good_line, _bad_line), max_size=12), st.booleans(),
       st.sampled_from([(DEFAULT_TAU_ANX, DEFAULT_TAU_CALM), (2.0, -0.5)]))
def test_non_seekable_stream_loads_alike(lines, newline_at_end, thresholds):
    # The loader never seeks: a pipe-like stream gives what a BytesIO gives.
    raw = b"\n".join(lines) + (b"\n" if newline_at_end else b"")
    got = _outcome(lambda r, t: load_lexicon(io.BufferedReader(_Pipe(r), 16), t), raw, thresholds)
    assert got == _outcome(lambda r, t: load_lexicon(io.BytesIO(r), t), raw, thresholds)


def test_bad_byte_is_reported_before_an_earlier_malformed_row():
    with pytest.raises(LexiconParseError) as exc:
        loads_lexicon("a\tb\tc\nok\t1\n")  # well-formed UTF-8 so far
    assert exc.value.line_no == 1
    with pytest.raises(LexiconParseError) as exc:
        load_lexicon(io.BytesIO(b"a\tb\tc\nok\t1\n\xff\n"))
    assert str(exc.value) == "line 3: invalid UTF-8 at byte 11"
    assert exc.value.line_no == 3
    # The same holds for a duplicate term: one on line 2, a bad byte on line 4.
    with pytest.raises(DuplicateTermError):
        loads_lexicon("a\t1\na\t2\nok\t0\n")
    with pytest.raises(LexiconParseError) as exc:
        load_lexicon(io.BytesIO(b"a\t1\na\t2\nok\t0\nx\xff\t1\n"))
    assert str(exc.value) == "line 4: invalid UTF-8 at byte 14"
    assert exc.value.line_no == 4


def test_byte_order_mark_is_a_parse_error():
    for raw in (b"\xef\xbb\xbfpanic\t3.0\ncalm\t-2.0\n", b"\xef\xbb\xbfterm\tassociation\n",
                b"\xef\xbb\xbf\n"):
        with pytest.raises(LexiconParseError) as exc:
            load_lexicon(io.BytesIO(raw))
        assert str(exc.value) == "line 1: UTF-8 byte order mark at the start of the file"
    # A bad byte anywhere is still reported first; a mark after line 1 is
    # part of its term, which no token can then equal.
    with pytest.raises(LexiconParseError) as exc:
        load_lexicon(io.BytesIO(b"\xef\xbb\xbfpanic\t3.0\nx\xff\t1\n"))
    assert str(exc.value) == "line 2: invalid UTF-8 at byte 14"
    with pytest.raises(LexiconParseError) as exc:
        loads_lexicon("panic\t3.0\n\ufeffcalm\t-2.0\n")
    assert str(exc.value) == "line 2: term %r is read as the tokens ['calm']" % "\ufeffcalm"


def test_load_holds_the_file_once():
    # A file that the caller holds in memory is not copied: the loader's
    # peak over what it returns is a small part of the file's size.
    raw = big_lexicon_text().encode("utf-8")
    tracemalloc.start()
    try:
        lex = load_lexicon(io.BytesIO(raw))
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(lex) == 14_000
    assert peak - retained < 0.5 * len(raw), (peak - retained, len(raw))


def test_load_streams_the_file(tmp_path):
    # Read from a path, the file is held one line at a time: the loader's
    # peak over what it returns (a map of each term to its class code, no
    # association value) is a small part of the file's size.
    path = tmp_path / "lexicon.tsv"
    path.write_text(big_lexicon_text(), encoding="utf-8")
    size = path.stat().st_size
    tracemalloc.start()
    try:
        lex = load_lexicon(str(path))
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tuple(map(len, class_terms(lex))) == (1_400, 1_400, 11_200)
    assert peak - retained < 0.5 * size, (peak - retained, size)
