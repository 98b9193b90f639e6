"""Text normalization into lexicon-matchable token sequences.

The corpus is assumed pre-lemmatized and lower-cased upstream; this module
does not lemmatize. ``tokenize`` delegates to the text kernel; the exact
rules are documented in ``anxarc._kernel``.
"""

from __future__ import annotations

from . import _kernel


def tokenize(text: str) -> list[str]:
    """Normalize text into lower-case word tokens.

    URLs and @-mentions are removed, a leading '#' is stripped from
    hashtags, edge punctuation is stripped, and contractions are kept
    whole. Total function: empty input yields an empty list.
    """
    return _kernel.tokenize(text)
