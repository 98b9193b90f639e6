"""Per-post anxiety scores and mergeable per-bin aggregates.

A post's score is ``100 * (n_anx - n_calm) / n_tokens``: the percentage of
anxiety-associated tokens minus the percentage of calmness-associated
tokens. Neutral and out-of-vocabulary tokens count only in the denominator.

Bin aggregates are designed for parallel scans: each worker owns private
aggregates and a final merge reproduces the single-threaded result exactly,
in any order. A bin holds two integer sums: a histogram of the
``(n_anx - n_calm, n_tokens)`` pairs that fix each post's score, and the
anxiety-token count ``n_anx``. A report reads a bin through one pass over
the histogram (``BinAggregate.summary``), which derives its counts, both
scores and the per-score post counts of the t-tests, all exactly.

A histogram key is one int, ``n * n + n + diff`` for the pair ``(diff, n)``,
smaller than a tuple in memory and pickled. A token is anxiety or calm,
never both, so ``|diff| <= n``: the key lies in ``[n**2, n**2 + 2n]``, its
``math.isqrt`` is ``n``, and the pair decodes exactly.
"""

from __future__ import annotations

from math import isqrt
from typing import Iterable, NamedTuple

from .stats import exact_sum


def post_score_value(n_tokens: int, n_anx: int, n_calm: int) -> float:
    # Single rounding: the integer numerator is exact, so the result is the
    # correctly rounded value of the rational 100*(n_anx-n_calm)/n_tokens.
    return (100 * (n_anx - n_calm)) / n_tokens


class Summary(NamedTuple):
    """A bin as a report reads it; its first six fields are a time table's columns."""

    n_posts: int
    n_tokens: int
    n_anx: int
    n_calm: int
    micro_score: float | None  # pooled-token-count score; None for an empty bin
    macro_score: float | None  # mean of the per-post scores; None for an empty bin
    score_counts: dict[float, int]  # per-post score -> number of posts with that score


class BinAggregate:
    """An exact score histogram plus the anxiety-token count for one slice bin."""

    __slots__ = ("hist", "n_anx")

    def __init__(self) -> None:
        # n_tokens**2 + n_tokens + n_anx - n_calm (unique, as |n_anx - n_calm|
        # <= n_tokens) -> number of posts with that pair.
        self.hist: dict[int, int] = {}
        self.n_anx = 0

    @staticmethod
    def update_counts(bins: Iterable[BinAggregate], n_tokens: int, n_anx: int, n_calm: int) -> None:
        """Add one post to every bin in ``bins``; needs ``n_tokens >= 1`` and
        ``n_anx + n_calm <= n_tokens``."""
        key = n_tokens * n_tokens + n_tokens + n_anx - n_calm
        for agg in bins:
            agg.n_anx += n_anx
            hist = agg.hist
            hist[key] = hist.get(key, 0) + 1

    def merge_from(self, other: BinAggregate) -> None:
        self.n_anx += other.n_anx
        hist = self.hist
        for key, count in other.hist.items():
            hist[key] = hist.get(key, 0) + count

    def summary(self) -> Summary:
        """The bin's counts, scores and per-score post counts, from one pass over the histogram."""
        n_posts = n_tokens = diff_sum = 0
        counts: dict[float, int] = {}
        for key, count in self.hist.items():
            n_tok = isqrt(key)
            diff = key - n_tok * n_tok - n_tok
            n_posts += count
            n_tokens += n_tok * count
            diff_sum += diff * count
            score = post_score_value(n_tok, diff, 0)
            counts[score] = counts.get(score, 0) + count
        micro = macro = None
        if n_posts:
            micro = post_score_value(n_tokens, diff_sum, 0)
            macro = exact_sum(counts.items()) / n_posts
        return Summary(n_posts, n_tokens, self.n_anx, self.n_anx - diff_sum, micro, macro, counts)
