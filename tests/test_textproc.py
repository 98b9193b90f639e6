from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anxarc._kernel import tokenize


def test_spec_example():
    assert tokenize("I WON'T panic! #stress http://t.co/x") == ["i", "won't", "panic", "stress"]


def test_empty_input():
    assert tokenize("") == []
    assert tokenize("   \n\t ") == []


def test_mention_removed():
    assert tokenize("@friend hello") == ["hello"]
    assert tokenize("@friend") == []


@pytest.mark.parametrize(
    "text,expected",
    [
        ("http://example.com fine", ["fine"]),
        ("https://example.com/x?y=1", []),
        ("www.example.com ok", ["ok"]),
        ("(www.example.com)", []),  # URL exposed after stripping parens
        ("check HTTPS://X.CO now", ["check", "now"]),
        ("#MondayMood", ["mondaymood"]),
        ("#my_tag", ["my_tag"]),
        ("'quoted'", ["quoted"]),
        ("dogs' toys", ["dogs", "toys"]),
        ("won't can't y'all", ["won't", "can't", "y'all"]),
        ("a.b,c", ["a.b,c"]),  # internal punctuation is kept
        ("!!!", []),
        ("hello,", ["hello"]),
        ("5:30pm", ["5:30pm"]),
        ("one  two\tthree\nfour", ["one", "two", "three", "four"]),
        ("CAFÉ naïve", ["café", "naïve"]),
        ("email me a@b.com", ["email", "me", "a@b.com"]),
    ],
)
def test_rule_cases(text, expected):
    assert tokenize(text) == expected


def test_hashtag_body_kept_url_body_dropped():
    assert tokenize("#stress www.stress.com") == ["stress"]


@given(st.text(max_size=200))
@settings(max_examples=500, deadline=None)
def test_idempotent_on_own_output(text):
    once = tokenize(text)
    assert tokenize(" ".join(once)) == once


@given(st.text(max_size=200))
@settings(max_examples=300, deadline=None)
def test_tokens_have_no_whitespace_and_are_nonempty(text):
    for tok in tokenize(text):
        assert tok
        assert not any(ch.isspace() for ch in tok)


@given(st.text(max_size=200))
@settings(max_examples=300, deadline=None)
def test_output_bounded_by_whitespace_chunks(text):
    assert len(tokenize(text)) <= len(text.split())


@given(st.text(max_size=200))
@settings(max_examples=300, deadline=None)
def test_tokens_are_lowercase(text):
    for tok in tokenize(text):
        assert tok == tok.lower()
