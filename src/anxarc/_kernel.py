"""Hot-path text kernel: tokenization and lexicon class counting.

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
"""

from __future__ import annotations

# Class codes shared with the lexicon's class map.
ANX = 1
CALM = 2

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


def score_tokens(tokens: list[str], class_map: dict[str, int]) -> tuple[int, int, int]:
    """Count (total, anxiety, calm) tokens of an already-tokenized post.

    ``class_map`` maps terms to ``ANX``/``CALM``; terms absent from the map
    count only toward the total.
    """
    n_anx = 0
    n_calm = 0
    get = class_map.get
    for tok in tokens:
        c = get(tok)
        if c == ANX:
            n_anx += 1
        elif c == CALM:
            n_calm += 1
    return len(tokens), n_anx, n_calm


def score_text(text: str, class_map: dict[str, int]) -> tuple[int, int, int]:
    """Fused tokenize-and-count: (n_tokens, n_anx, n_calm) for raw text.

    Equivalent to ``score_tokens(tokenize(text), class_map)`` without
    materializing the token list.
    """
    n_tok = 0
    n_anx = 0
    n_calm = 0
    get = class_map.get
    for chunk in text.lower().split():
        if chunk.isalnum():
            tok = chunk
        else:
            tok = _clean(chunk)
            if tok is None:
                continue
        n_tok += 1
        c = get(tok)
        if c == ANX:
            n_anx += 1
        elif c == CALM:
            n_calm += 1
    return n_tok, n_anx, n_calm
