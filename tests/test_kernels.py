"""The text kernel agrees with a rule-by-rule oracle on every input."""

from __future__ import annotations

import random

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
    assert _kernel.score_text(text, CLASS_MAP) == oracle_score(oracle_tokenize(text))


@given(tricky_text)
@settings(max_examples=2000, deadline=None)
def test_score_text_matches_oracle_on_tricky_text(text):
    assert _kernel.score_text(text, CLASS_MAP) == oracle_score(oracle_tokenize(text))


@given(st.lists(st.sampled_from(sorted(CLASS_MAP) + ["road", "sky", "x", "étoile"]), max_size=40))
@settings(max_examples=300, deadline=None)
def test_score_tokens_matches_oracle(tokens):
    assert _kernel.score_tokens(tokens, CLASS_MAP)[:3] == oracle_score(tokens)


def test_fused_equals_two_step_pure():
    rng = random.Random(6)
    words = ["panic", "calm", "ok!", "#tag", "@m", "www.x.co", "won't", "...", "naïve"]
    for _ in range(300):
        text = " ".join(rng.choice(words) for _ in range(rng.randint(0, 25)))
        toks = _kernel.tokenize(text)
        assert _kernel.score_text(text, CLASS_MAP) == _kernel.score_tokens(toks, CLASS_MAP)[:3]
