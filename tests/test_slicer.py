from __future__ import annotations

import functools
import json
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import util
from anxarc._kernel import (ANX, CALM, FUTURE, NEXT, PAST, PERIOD, PRESENT, PRONOUN_SHIFT,
                            score_text, tokenize)
from anxarc.slicer import (
    AUX_PAST,
    AUX_PRESENT,
    FUTURE_BIGRAM_FIRST,
    FUTURE_BIGRAM_SECOND,
    FUTURE_SIGNAL_WORDS,
    PRONOUN_KEYS_BY_BITS,
    PRONOUNS,
    Tense,
    VerbTableError,
    VerbTables,
    _is_past_word,
    _is_present_word,
    classify_tense,
    load_verb_tables,
    tense_of,
    token_table,
)


def load_cases(fixtures_dir: Path) -> list[dict]:
    return json.loads((fixtures_dir / "tense_cases.json").read_text())["cases"]


def test_bundled_tables_nonempty(tables):
    assert len(tables.irregular_past) > 150
    assert len(tables.irregular_base) > 500
    assert len(tables.ed_stoplist) > 20


def test_aux_sets_exact():
    assert AUX_PRESENT == {"is", "are", "am", "do", "does", "have", "has", "can", "may", "must"}
    assert AUX_PAST == {"was", "were", "did", "had", "could", "might"}


def test_future_signal_words_exact():
    assert FUTURE_SIGNAL_WORDS == {"will", "won't", "shall", "expect", "believe", "hope", "tomorrow"}


def test_empty_tables_rejected():
    with pytest.raises(VerbTableError):
        VerbTables(frozenset(), frozenset({"go"}), frozenset())


def test_missing_override_dir(tmp_path):
    with pytest.raises(VerbTableError):
        load_verb_tables(tmp_path / "nope")


def test_table_override_dir(tmp_path, tables):
    for name, words in (
        ("irregular_past.txt", ["went"]),
        ("irregular_base.txt", ["go"]),
        ("ed_stoplist.txt", ["hundred"]),
    ):
        (tmp_path / name).write_text("\n".join(words) + "\n")
    custom = load_verb_tables(tmp_path)
    assert custom.irregular_past == {"went"}
    assert custom.irregular_base == {"go"}
    assert custom.ed_stoplist == {"hundred"}


def test_byte_order_mark_in_a_table_is_refused(tmp_path):
    # A mark would join the first word, or turn a file's first "#" comment
    # into a word.
    for name in ("irregular_past.txt", "irregular_base.txt", "ed_stoplist.txt"):
        (tmp_path / name).write_text("# a comment\ngo\n", encoding="utf-8")
    (tmp_path / "ed_stoplist.txt").write_text("\ufeff# a comment\nhundred\n", encoding="utf-8")
    with pytest.raises(VerbTableError, match="ed_stoplist.txt starts with a UTF-8 byte order mark"):
        load_verb_tables(tmp_path)


def test_a_table_word_with_whitespace_inside_is_refused(tmp_path):
    # No token holds whitespace, so such a word could never match; a comment
    # may hold spaces.
    for name in ("irregular_past.txt", "irregular_base.txt", "ed_stoplist.txt"):
        (tmp_path / name).write_text("# a comment\ngo\n", encoding="utf-8")
    (tmp_path / "irregular_past.txt").write_text("# a comment\nwent\n  Used\tto \n", encoding="utf-8")
    with pytest.raises(VerbTableError, match=r"irregular_past.txt line 3: word contains whitespace: "
                                             r"'Used\\tto'$"):
        load_verb_tables(tmp_path)


# The per-post detectors of the tense rules, kept here as references for the
# tests below; has_future_signal does not go through classify_tense, so the
# check against it is independent.

def detect_past_verb(tokens, tables):
    return any(_is_past_word(tok, tables) for tok in tokens)


def detect_present_verb(tokens, tables):
    return any(_is_present_word(tok, tables) for tok in tokens)


def has_future_signal(tokens):
    prev = None
    for tok in tokens:
        if tok in FUTURE_SIGNAL_WORDS or prev == "next" and tok in FUTURE_BIGRAM_SECOND:
            return True
        prev = tok
    return False


def test_detect_past_examples(tables):
    assert detect_past_verb(["she", "walked", "home"], tables)
    assert detect_past_verb(["he", "went", "home"], tables)
    assert not detect_past_verb(["nice", "red", "car"], tables)
    assert not detect_past_verb(["a", "hundred", "people"], tables)


def test_detect_present_examples(tables):
    assert detect_present_verb(["he", "runs", "daily"], tables)
    assert detect_present_verb(["i", "am", "here"], tables)
    assert not detect_present_verb(["old", "photo"], tables)


def test_classify_spec_examples(tables):
    assert classify_tense(["i", "will", "go", "tomorrow"], tables) is Tense.FUTURE
    assert classify_tense(["i", "hope", "it", "works"], tables) is Tense.FUTURE
    assert classify_tense(["she", "walked", "home"], tables) is Tense.PAST
    assert classify_tense(["lovely", "day"], tables) is Tense.NO_VERB


def test_fixture_suite_full_agreement(tables, fixtures_dir):
    cases = load_cases(fixtures_dir)
    assert len(cases) >= 40
    mismatches = [
        (c["tokens"], c["label"], classify_tense(c["tokens"], tables).value)
        for c in cases
        if classify_tense(c["tokens"], tables).value != c["label"]
    ]
    assert mismatches == []


def test_fixture_suite_covers_required_branches(fixtures_dir):
    branches = " ".join(c["branch"] for c in load_cases(fixtures_dir))
    for needle in (
        "irregular past", "-ed suffix", "stop-list",
        "will", "won't", "shall", "expect", "believe", "hope", "tomorrow",
        "next day", "next week", "next month", "next year",
        "precedence", "no verb",
    ):
        assert needle in branches, f"fixture suite lacks branch {needle!r}"


def test_partition_is_total_and_single(tables):
    # Every token sequence gets exactly one label.
    rng = random.Random(13)
    vocab = ["went", "is", "will", "tomorrow", "day", "red", "walked", "runs",
             "hope", "thing", "next", "week", "photo", "i", "you"]
    labels = {t: 0 for t in Tense}
    for _ in range(2000):
        toks = [rng.choice(vocab) for _ in range(rng.randint(0, 8))]
        labels[classify_tense(toks, tables)] += 1
    assert sum(labels.values()) == 2000
    assert all(n > 0 for n in labels.values()), labels


def test_future_implies_signal_present_implies_no_signal(tables):
    rng = random.Random(17)
    vocab = ["went", "is", "will", "tomorrow", "day", "red", "walked", "runs",
             "hope", "thing", "next", "week", "photo", "i", "you", "going"]
    for _ in range(3000):
        toks = [rng.choice(vocab) for _ in range(rng.randint(0, 8))]
        label = classify_tense(toks, tables)
        if label is Tense.FUTURE:
            assert has_future_signal(toks)
        if label is Tense.PRESENT:
            assert not has_future_signal(toks)


def test_bigram_requires_adjacency(tables):
    assert not has_future_signal(["next", "big", "week"])
    assert has_future_signal(["next", "week"])
    assert not has_future_signal(["week", "next"])


def test_pronoun_keys_by_bits_holds_the_pronouns_of_each_bit():
    assert PRONOUN_KEYS_BY_BITS == tuple(
        tuple(p for i, p in enumerate(PRONOUNS) if bits >> i & 1)
        for bits in range(1 << len(PRONOUNS)))


def test_pronoun_keys_examples():
    assert util.pronoun_keys(["i", "told", "him"]) == {"i", "him"}
    assert util.pronoun_keys(["we", "love", "you"]) == {"we", "you"}
    assert util.pronoun_keys(["trust", "us"]) == set()
    assert util.pronoun_keys([]) == set()


def test_pronoun_keys_never_us_and_subset():
    rng = random.Random(23)
    vocab = list(PRONOUNS) + ["us", "it", "trust", "love", "i've", "y'all"]
    for _ in range(2000):
        toks = [rng.choice(vocab) for _ in range(rng.randint(0, 10))]
        keys = util.pronoun_keys(toks)
        assert keys == set(toks) & set(PRONOUNS)
        assert "us" not in keys
        assert keys <= set(PRONOUNS)


def test_pronoun_keys_monotone_under_extension():
    rng = random.Random(29)
    vocab = list(PRONOUNS) + ["calm", "storm", "us"]
    for _ in range(500):
        base = [rng.choice(vocab) for _ in range(rng.randint(0, 6))]
        extra = [rng.choice(vocab) for _ in range(rng.randint(0, 6))]
        assert util.pronoun_keys(base) <= util.pronoun_keys(base + extra)



# One pass with a token table gives the counts, tense and pronoun keys of the
# reference rules over the post's tokens, for the bundled tables and for a
# custom table directory.

TABLE_CLASS_MAP = {
    "panic": ANX, "worried": ANX, "dreading": ANX, "hopes": ANX, "red": ANX,
    "calm": CALM, "relaxed": CALM, "rested": CALM, "she": CALM, "week": ANX,
}


@pytest.fixture(scope="module")
def custom_tables(tmp_path_factory):
    # Odd but legal tables: verb forms that are also pronouns, period words
    # or future words, a base form whose +s/+es forms are real words, and
    # stoplisted -ed words of every length.
    root = tmp_path_factory.mktemp("verb_tables")
    for name, words in (
        ("irregular_past.txt", ["went", "ran", "them", "week"]),
        ("irregular_base.txt", ["go", "run", "mov", "her", "hope", "da", "i"]),
        ("ed_stoplist.txt", ["hundred", "bed", "red", "need", "rested"]),
    ):
        (root / name).write_text("\n".join(words) + "\n")
    return load_verb_tables(root)


def table_words(tables: VerbTables) -> st.SearchStrategy[str]:
    base = sorted(tables.irregular_base)
    suffixed = st.builds(lambda stem, end: stem + end, st.text("abcdeginrs'", max_size=5),
                         st.sampled_from(["ed", "ing", "s", "es"]))
    return st.one_of(
        st.sampled_from(sorted(tables.irregular_past)),
        st.sampled_from(base),
        st.sampled_from(base).map(lambda w: w + "s"),
        st.sampled_from(base).map(lambda w: w + "es"),
        st.sampled_from(sorted(tables.ed_stoplist)),
        st.sampled_from(sorted(AUX_PAST | AUX_PRESENT | FUTURE_SIGNAL_WORDS)),
        st.sampled_from(["next", "day", "week", "month", "year", "us", "ed", "ing", "king"]),
        st.sampled_from(PRONOUNS),
        st.sampled_from(sorted(TABLE_CLASS_MAP)),
        suffixed,
        st.text(max_size=4),
    )


# Chunks that the tokenizer drops or strips, so the next+period bigram is
# checked on tokens and not on raw chunks: "next @x week" holds the bigram,
# "#next" and "Week!" complete one.
NOISE = ["@x", "http://x", "#next", "Week!", "NEXT"]


def post_texts(tables: VerbTables) -> st.SearchStrategy[str]:
    pair = st.tuples(st.just("next"), st.sampled_from(sorted(FUTURE_BIGRAM_SECOND))).map(" ".join)
    chunk = st.one_of(table_words(tables), pair, st.sampled_from(NOISE))
    return st.lists(chunk, max_size=12).map(" ".join)


@functools.lru_cache(maxsize=None)
def tables_for(tables: VerbTables) -> dict[bool, dict[str, int]]:
    return {True: token_table(TABLE_CLASS_MAP, tables), False: token_table(TABLE_CLASS_MAP, None)}


def check_one_pass(text: str, tables: VerbTables) -> None:
    tokens = tokenize(text)
    classes = [TABLE_CLASS_MAP.get(tok) for tok in tokens]
    counts = (len(tokens), classes.count(ANX), classes.count(CALM))
    for with_tense, table in tables_for(tables).items():
        *got, flags = score_text(text, table)
        assert tuple(got) == counts
        keys = PRONOUN_KEYS_BY_BITS[flags >> PRONOUN_SHIFT]
        assert set(keys) == util.pronoun_keys(tokens)
        assert list(keys) == [p for p in PRONOUNS if p in keys]
        if with_tense:
            assert tense_of(flags) is classify_tense(tokens, tables)


@given(st.data())
@settings(max_examples=500, deadline=None)
def test_token_table_pass_matches_reference_rules(tables, data):
    check_one_pass(data.draw(post_texts(tables)), tables)


@given(st.data())
@settings(max_examples=500, deadline=None)
def test_token_table_pass_matches_reference_rules_custom_tables(custom_tables, data):
    check_one_pass(data.draw(post_texts(custom_tables)), custom_tables)


def test_token_table_examples(tables):
    table = token_table(TABLE_CLASS_MAP, tables)
    for text, tense, keys in (
        ("She worried.", Tense.PAST, ("she",)),
        ("i hope next week", Tense.FUTURE, ("i",)),
        ("I hope NEXT @x http://x #Week!", Tense.FUTURE, ("i",)),
        ("they run next big week", Tense.PRESENT, ("they",)),
        ("a hundred dreading", Tense.PRESENT, ()),
        ("lovely day next", Tense.NO_VERB, ()),
    ):
        tokens = tokenize(text)
        flags = score_text(text, table)[3]
        assert tense_of(flags) is tense is classify_tense(tokens, tables)
        assert PRONOUN_KEYS_BY_BITS[flags >> PRONOUN_SHIFT] == keys
        assert set(keys) == util.pronoun_keys(tokens)


def reference_token_table(class_map: dict[str, int], tables: VerbTables) -> dict[str, int]:
    """The table built from one set of every word, then the per-word rules."""
    table = dict(class_map)
    for i, pron in enumerate(PRONOUNS):
        table[pron] = table.get(pron, 0) | 1 << (PRONOUN_SHIFT + i)
    words = set(table) | tables.irregular_past | tables.irregular_base | tables.ed_stoplist
    words |= {base + end for base in tables.irregular_base for end in ("s", "es")}
    words |= AUX_PAST | AUX_PRESENT | FUTURE_SIGNAL_WORDS | FUTURE_BIGRAM_SECOND | {FUTURE_BIGRAM_FIRST}
    for word in words:
        table[word] = (table.get(word, 0)
                       | PAST * _is_past_word(word, tables)
                       | PRESENT * _is_present_word(word, tables)
                       | FUTURE * (word in FUTURE_SIGNAL_WORDS)
                       | NEXT * (word == FUTURE_BIGRAM_FIRST)
                       | PERIOD * (word in FUTURE_BIGRAM_SECOND))
    return table


def test_token_table_equals_the_reference_and_leaves_its_argument(tables, custom_tables):
    for verb_tables in (tables, custom_tables):
        before = dict(TABLE_CLASS_MAP)
        assert token_table(TABLE_CLASS_MAP, verb_tables) == reference_token_table(before, verb_tables)
        assert TABLE_CLASS_MAP == before


def test_token_table_builds_no_word_set(tables, custom_tables):
    # The class terms of a lexicon of the paper's size: the build may hold
    # little beyond the table it returns.
    lexicon = util.loads_lexicon(util.big_lexicon_text())
    class_map = {term: code for term, code in lexicon.items() if code}
    for verb_tables in (tables, custom_tables):
        tracemalloc.start()
        try:
            table = token_table(class_map, verb_tables)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - held <= 128 * 1024, (held, peak)
        assert table == reference_token_table(class_map, verb_tables)
