"""Per-post anxiety scores and mergeable per-bin aggregates.

A post's score is ``100 * (n_anx - n_calm) / n_tokens``: the percentage of
anxiety-associated tokens minus the percentage of calmness-associated
tokens. Neutral and out-of-vocabulary tokens count only in the denominator.

Bin aggregates are designed for parallel scans: each worker owns private
aggregates and a final merge reproduces the single-threaded result exactly,
in any order. Every field is an integer sum: the token counters, and a
histogram of the ``(n_anx - n_calm, n_tokens)`` pairs that fix each post's
score, from which the macro score and the t-tests are computed exactly.
"""

from __future__ import annotations

from typing import Iterable

from .stats import exact_sum


def post_score_value(n_tokens: int, n_anx: int, n_calm: int) -> float:
    # Single rounding: the integer numerator is exact, so the result is the
    # correctly rounded value of the rational 100*(n_anx-n_calm)/n_tokens.
    return (100 * (n_anx - n_calm)) / n_tokens


class BinAggregate:
    """Mergeable counters plus an exact score histogram for one slice bin."""

    __slots__ = ("n_posts", "n_tokens", "n_anx", "n_calm", "hist")

    def __init__(self) -> None:
        self.n_posts = 0
        self.n_tokens = 0
        self.n_anx = 0
        self.n_calm = 0
        # (n_anx - n_calm, n_tokens) -> number of posts with that pair.
        self.hist: dict[tuple[int, int], int] = {}

    @staticmethod
    def update_counts(bins: Iterable[BinAggregate], n_tokens: int, n_anx: int, n_calm: int) -> None:
        """Add one post with ``n_tokens >= 1`` to every bin in ``bins``."""
        key = (n_anx - n_calm, n_tokens)
        for agg in bins:
            agg.n_posts += 1
            agg.n_tokens += n_tokens
            agg.n_anx += n_anx
            agg.n_calm += n_calm
            hist = agg.hist
            hist[key] = hist.get(key, 0) + 1

    def merge_from(self, other: BinAggregate) -> None:
        self.n_posts += other.n_posts
        self.n_tokens += other.n_tokens
        self.n_anx += other.n_anx
        self.n_calm += other.n_calm
        hist = self.hist
        for key, count in other.hist.items():
            hist[key] = hist.get(key, 0) + count

    def score_counts(self) -> dict[float, int]:
        """Per-post score -> number of posts in the bin with that score."""
        counts: dict[float, int] = {}
        for (diff, n_tokens), count in self.hist.items():
            score = post_score_value(n_tokens, diff, 0)
            counts[score] = counts.get(score, 0) + count
        return counts

    @property
    def micro_score(self) -> float | None:
        """Pooled-token-count score; None for an empty bin."""
        if self.n_tokens == 0:
            return None
        return post_score_value(self.n_tokens, self.n_anx, self.n_calm)

    @property
    def macro_score(self) -> float | None:
        """Mean of the per-post scores; None for an empty bin."""
        if self.n_posts == 0:
            return None
        return exact_sum(self.score_counts().items()) / self.n_posts
