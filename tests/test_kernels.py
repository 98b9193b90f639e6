"""The text kernel agrees with a rule-by-rule oracle on every input."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from anxarc import _kernel

CLASS_MAP = {
    "panic": _kernel.ANX,
    "dread": _kernel.ANX,
    "won't": _kernel.ANX,
    "\u01c6": _kernel.ANX,
    "calm": _kernel.CALM,
    "chill": _kernel.CALM,
    "\u00b2": _kernel.CALM,
    "i\u0307": _kernel.CALM,
}

URL_PREFIXES = ("http://", "https://", "www.")


def oracle_tokenize(text: str) -> list[str]:
    """The five documented rules, applied to every chunk with no shortcut."""
    out = []
    for chunk in text.lower().split():
        if chunk.startswith(URL_PREFIXES):  # rule 1
            continue
        if chunk.startswith("@"):  # rule 2
            continue
        chars = list(chunk)  # rule 3
        while chars and not chars[0].isalnum():
            del chars[0]
        while chars and not chars[-1].isalnum():
            chars.pop()
        core = "".join(chars)
        if not core:  # rule 4
            continue
        if core.startswith(URL_PREFIXES):  # rule 5
            continue
        out.append(core)
    return out


def oracle_score(tokens: list[str]) -> tuple[int, int, int]:
    classes = [CLASS_MAP.get(tok) for tok in tokens]
    return len(tokens), classes.count(_kernel.ANX), classes.count(_kernel.CALM)


# Pieces that exercise every rule and the edges of the all-alphanumeric
# shortcut: prefixes, edge punctuation, contractions, whitespace other than
# a space, and characters whose isalnum/lower behaviour is unusual (dotted
# capital I lower-cases to "i" plus a combining dot, superscript digits,
# a titlecase digraph, combining marks, the Kelvin and Ohm signs).
PIECES = [
    "@", "#", "http://", "https://", "www.", "HTTP://", "WWW.", "'", "!", "(",
    ")", ".", ",", "...", "_", "won't", "WON'T", "panic", "Calm", "chill",
    "\u0130", "\u00b2", "\u01c5", "\u0301", "\u0307", "\u0345", "\u212a",
    "\u2126", "\u00df", "\u0663",
    " ", "  ", "\t", "\n", "\u00a0", "\u2028", "\x1c",
]

tricky_text = st.lists(
    st.one_of(st.sampled_from(PIECES), st.text(max_size=3)), max_size=40
).map("".join)


@given(st.text(max_size=300))
@settings(max_examples=1000, deadline=None)
def test_tokenize_matches_oracle(text):
    assert _kernel.tokenize(text) == oracle_tokenize(text)


@given(tricky_text)
@settings(max_examples=2000, deadline=None)
def test_tokenize_matches_oracle_on_tricky_text(text):
    assert _kernel.tokenize(text) == oracle_tokenize(text)


@given(st.text(max_size=300))
@settings(max_examples=500, deadline=None)
def test_score_text_matches_oracle(text):
    assert _kernel.score_text(text, CLASS_MAP)[:3] == oracle_score(oracle_tokenize(text))


@given(tricky_text)
@settings(max_examples=2000, deadline=None)
def test_score_text_matches_oracle_on_tricky_text(text):
    assert _kernel.score_text(text, CLASS_MAP)[:3] == oracle_score(oracle_tokenize(text))


# A token table over a small vocabulary: each value is a lexicon class code
# (0, ANX or CALM) plus up to two rule or pronoun bits, so some values are 0,
# and a key whose value is 0 gets no suffix bits. Posts mix the words, as
# they are and behind characters the tokenizer strips, with chunks it drops,
# so a next+period bigram can span a dropped chunk.
VOCAB = ["next", "week", "day", "panic", "calm", "walked", "shed", "bed", "ed", "sing", "going",
         "hundred", "i", "won't"]
RULE_BITS = [_kernel.PAST, _kernel.PRESENT, _kernel.FUTURE, _kernel.NEXT, _kernel.PERIOD,
             1 << _kernel.PRONOUN_SHIFT, 1 << _kernel.PRONOUN_SHIFT + 1]
token_tables = st.dictionaries(
    st.sampled_from(VOCAB),
    st.builds(lambda code, bits: code | sum(set(bits)), st.sampled_from([0, _kernel.ANX, _kernel.CALM]),
              st.lists(st.sampled_from(RULE_BITS), max_size=2)),
)
table_text = st.lists(
    st.one_of(
        st.sampled_from(VOCAB),
        st.sampled_from(VOCAB).map(lambda w: f"#{w.upper()}!"),
        st.sampled_from(["@x", "http://x", "...", "abcd", "x\u0307"]),
        st.text(max_size=3),
    ),
    max_size=20,
).map(" ".join)


def oracle_table_score(
    tokens: list[str], table: dict[str, int], miss: int | None
) -> tuple[int, int, int, int]:
    """The token-table contract of the module docstring, token by token;
    a miss gets the suffix bits only when ``miss`` is None."""
    flags = 0
    for tok in tokens:
        bits = table.get(tok, miss)
        if bits is None:
            if len(tok) >= 4 and tok.endswith("ed"):
                flags |= _kernel.PAST
            if len(tok) >= 5 and tok.endswith("ing"):
                flags |= _kernel.PRESENT
        else:
            flags |= bits
    for first, second in zip(tokens, tokens[1:]):
        if table.get(first, 0) & _kernel.NEXT and table.get(second, 0) & _kernel.PERIOD:
            flags |= _kernel.FUTURE
    codes = [table.get(tok, 0) & _kernel.CLASS_MASK for tok in tokens]
    return (len(tokens), codes.count(_kernel.ANX), codes.count(_kernel.CALM),
            flags & ~_kernel.CLASS_MASK)


@given(table_text, token_tables, st.sampled_from([None, 0]))
@settings(max_examples=2000, deadline=None)
def test_score_text_matches_token_table_oracle(text, table, miss):
    expected = oracle_table_score(oracle_tokenize(text), table, miss)
    assert _kernel.score_text(text, table, miss) == expected
    if miss is None:
        assert _kernel.score_text(text, table) == expected


# Lexicon and unknown words that are each their own token ("i\u0307" is not:
# its combining dot is stripped as an edge character).
WORDS = [w for w in sorted(CLASS_MAP) + ["road", "sky", "x", "étoile"] if oracle_tokenize(w) == [w]]


@given(st.lists(st.sampled_from(WORDS), max_size=40))
@settings(max_examples=300, deadline=None)
def test_score_text_of_joined_tokens_matches_oracle(tokens):
    assert _kernel.score_text(" ".join(tokens), CLASS_MAP)[:3] == oracle_score(tokens)
