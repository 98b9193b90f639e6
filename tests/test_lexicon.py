from __future__ import annotations

import io
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from anxarc._kernel import ANX, CALM
from anxarc.lexicon import (
    DuplicateTermError,
    EmptyLexiconError,
    LexiconError,
    LexiconParseError,
    LexiconStats,
    TermClass,
    lexicon_stats,
    load_lexicon,
)
from util import loads_lexicon


def test_load_three_rows():
    lex = loads_lexicon("calm\t-2.5\npanic\t3.0\nroad\t0.0\n", (1.0, -1.0))
    assert len(lex) == 3
    assert lex.association("panic") == 3.0
    assert lex.association("calm") == -2.5


def test_header_line_is_skipped():
    lex = loads_lexicon("term\tassociation\npanic\t3.0\n")
    assert len(lex) == 1


def test_byte_stream_input():
    lex = load_lexicon(io.BytesIO(b"panic\t3.0\ncalm\t-2.0\n"))
    assert len(lex) == 2


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
    lex = loads_lexicon("PANIC\t3.0\n")
    assert "panic" in lex
    assert "PANIC" not in lex


def test_classify_term_boundaries():
    lex = loads_lexicon("panic\t3.0\nroad\t0.0\ncalm\t-2.5\nedge\t1.0\nlow\t-1.0\n", (1.0, -1.0))
    assert lex.classify("panic") is TermClass.ANXIETY
    assert lex.classify("road") is TermClass.NEUTRAL
    assert lex.classify("calm") is TermClass.CALM
    assert lex.classify("edge") is TermClass.ANXIETY  # >= tau_anx
    assert lex.classify("low") is TermClass.CALM  # <= tau_calm
    assert lex.classify("zyzzyva") is TermClass.UNKNOWN


def test_stats_hand_count():
    lex = loads_lexicon("calm\t-2.5\npanic\t3.0\nroad\t0.0\n", (1.0, -1.0))
    assert lexicon_stats(lex) == LexiconStats(3, 1, 1, 1)


def test_stats_partition_on_random_lexicons():
    # Counts must partition the total for arbitrary association values, and
    # agree with classify, also for associations exactly at a threshold.
    rng = random.Random(99)
    for _ in range(1000):
        n = rng.randint(1, 40)
        tau_anx = round(rng.uniform(0.1, 2.9), 3)
        tau_calm = -round(rng.uniform(0.1, 2.9), 3)
        values = [rng.choice([tau_anx, tau_calm, round(rng.uniform(-3, 3), 3)]) for _ in range(n)]
        lines = [f"w{i}\t{v!r}" for i, v in enumerate(values)]
        lex = loads_lexicon("\n".join(lines) + "\n", (tau_anx, tau_calm))
        stats = lexicon_stats(lex)
        assert stats.total == n
        assert stats.n_anxiety + stats.n_calm + stats.n_neutral == stats.total
        classes = [lex.classify(f"w{i}") for i in range(n)]
        assert stats.n_anxiety == classes.count(TermClass.ANXIETY)
        assert stats.n_calm == classes.count(TermClass.CALM)


def test_classify_consistent_with_stats(lexicon):
    counted = {TermClass.ANXIETY: 0, TermClass.CALM: 0, TermClass.NEUTRAL: 0}
    for entry in lexicon:
        counted[lexicon.classify(entry.term)] += 1
    stats = lexicon_stats(lexicon)
    assert counted[TermClass.ANXIETY] == stats.n_anxiety
    assert counted[TermClass.CALM] == stats.n_calm
    assert counted[TermClass.NEUTRAL] == stats.n_neutral


def test_exactly_one_class_per_entry(lexicon):
    for entry in lexicon:
        cls = lexicon.classify(entry.term)
        assert cls in (TermClass.ANXIETY, TermClass.CALM, TermClass.NEUTRAL)


def test_round_trip(lexicon):
    text = "term\tassociation\n" + "".join(f"{e.term}\t{e.association!r}\n" for e in lexicon)
    again = loads_lexicon(text, (lexicon.tau_anx, lexicon.tau_calm))
    assert len(again) == len(lexicon)
    for entry in lexicon:
        assert again.association(entry.term) == entry.association
    assert again.class_map == lexicon.class_map


def test_class_map_contains_only_affect_terms(lexicon):
    for term, code in lexicon.class_map.items():
        assert code in (ANX, CALM)
        assert lexicon.classify(term) in (TermClass.ANXIETY, TermClass.CALM)
    n_affect = sum(
        1 for e in lexicon if lexicon.classify(e.term) is not TermClass.NEUTRAL
    )
    assert len(lexicon.class_map) == n_affect
