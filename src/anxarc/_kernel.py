"""Hot-path text kernel: tokenization and one-pass post scoring.

Tokenization rules, applied to each whitespace-separated chunk of the
lower-cased input:

1. chunks with a URL prefix (``http://``, ``https://``, ``www.``) are dropped;
2. chunks starting with ``@`` (mentions) are dropped;
3. non-alphanumeric characters are stripped from both ends (this removes a
   leading ``#`` from hashtags while keeping the body, and keeps internal
   apostrophes so contractions like ``won't`` stay whole);
4. chunks that are empty after stripping are dropped;
5. stripped chunks that now expose a URL prefix are dropped (keeps
   tokenization idempotent on its own output).

Most chunks are plain words. A chunk for which ``str.isalnum()`` holds is
its own token: it cannot start with ``@`` or a URL prefix (both need a
non-alphanumeric character) and has no edges to strip, since rule 3 uses
the same per-character ``isalnum`` test. Only the other chunks go through
``_clean``.

``score_text`` is the one scoring call: it tokenizes a post by these rules
and scores it in the same pass, with a *token table* (built by
``anxarc.slicer.token_table``): a dict from word to int bits, one ``get``
per token. A value holds

* bits 0-1: the lexicon class code, ``ANX`` (1), ``CALM`` (2) or 0;
* ``PAST``, ``PRESENT``: the word alone is a past/present verb form;
* ``FUTURE``: the word is a future-signal word;
* ``NEXT``, ``PERIOD``: the word is ``next``, or a period word (``day``,
  ``week``, ...) that completes a ``next`` bigram;
* bits ``PRONOUN_SHIFT`` and up: one bit per pronoun key, in the order of
  ``anxarc.slicer.PRONOUNS``.

The post's flags are the OR of its tokens' bits without the class bits,
plus ``FUTURE`` when a ``next`` token is directly followed by a period word.
A word missing from the table gets only the suffix bits: ``PAST`` when it
has 4 or more characters and ends in ``ed``, ``PRESENT`` when it has 5 or
more and ends in ``ing``. The table contract is that every lexicon term and
every word some other rule names (a verb-table form, a stoplisted ``-ed``
word, an auxiliary, a future or period word, a pronoun) is a key, so the
suffix rules are all that can apply to a miss.
"""

from __future__ import annotations

# Class codes shared with the lexicon's class map; each is a single bit.
ANX = 1
CALM = 2
CLASS_MASK = 3

# Token-table and post-flag bits (see the module docstring).
PAST = 1 << 2
PRESENT = 1 << 3
FUTURE = 1 << 4
NEXT = 1 << 5
PERIOD = 1 << 6
PRONOUN_SHIFT = 7

# The only implementation; kept for callers that record which kernel ran.
IMPL = "pure"

_URL_PREFIXES = ("http://", "https://", "www.")


def _clean(chunk: str) -> str | None:
    if chunk.startswith(_URL_PREFIXES) or chunk.startswith("@"):
        return None
    i, j = 0, len(chunk)
    while i < j and not chunk[i].isalnum():
        i += 1
    while j > i and not chunk[j - 1].isalnum():
        j -= 1
    if i == j:
        return None
    core = chunk[i:j]
    if core.startswith(_URL_PREFIXES):
        return None
    return core


def tokenize(text: str) -> list[str]:
    """Normalize ``text`` into a list of lower-case word tokens."""
    out = []
    for chunk in text.lower().split():
        if chunk.isalnum():
            out.append(chunk)
        else:
            tok = _clean(chunk)
            if tok is not None:
                out.append(tok)
    return out


def score_text(
    text: str, table: dict[str, int], miss: int | None = None
) -> tuple[int, int, int, int]:
    """(n_tokens, n_anx, n_calm, flags) of raw text, in one pass.

    ``table`` is a token table (see the module docstring); a plain class
    map, whose values are only ``ANX``/``CALM``, gives the right counts
    and meaningless flags. ``miss`` is the value of a word missing from the
    table: None applies the suffix rules to it, 0 gives it no bits, which
    saves the suffix test when no caller reads the tense flags. No token
    list is built unless the post holds both a ``next`` and a period word
    and no other future signal.
    """
    n_tok = 0
    n_anx = 0
    n_calm = 0
    flags = 0
    get = table.get
    for chunk in text.lower().split():
        if chunk.isalnum():
            tok = chunk
        else:
            tok = _clean(chunk)
            if tok is None:
                continue
        n_tok += 1
        bits = get(tok, miss)
        if bits:
            flags |= bits
            if bits & ANX:
                n_anx += 1
            elif bits & CALM:
                n_calm += 1
        elif bits is None and tok[-1] in "dg":
            if tok[-1] == "d":
                if len(tok) >= 4 and tok[-2] == "e":
                    flags |= PAST
            elif len(tok) >= 5 and tok.endswith("ing"):
                flags |= PRESENT
    if flags & NEXT and flags & PERIOD and not flags & FUTURE:
        prev = 0
        for tok in tokenize(text):
            bits = get(tok, 0)
            if prev & NEXT and bits & PERIOD:
                flags |= FUTURE
                break
            prev = bits
    return n_tok, n_anx, n_calm, flags & ~CLASS_MASK
