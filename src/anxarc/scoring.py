"""Per-post anxiety scores and mergeable per-bin aggregates.

A post's score is ``100 * (n_anx - n_calm) / n_tokens``: the percentage of
anxiety-associated tokens minus the percentage of calmness-associated
tokens. Neutral and out-of-vocabulary tokens count only in the denominator.

Bin aggregates are designed for parallel scans: each worker owns private
aggregates and a final merge reproduces the single-threaded result exactly,
in any order. A bin holds two integer sums: a histogram of the
``(n_anx - n_calm, n_tokens)`` pairs that fix each post's score, and the
anxiety-token count ``n_anx``. The post, token and calm-token counts are
derived from them at report time (``BinAggregate.totals``); the macro score
and the t-tests are computed exactly from the histogram.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .stats import exact_sum


def post_score_value(n_tokens: int, n_anx: int, n_calm: int) -> float:
    # Single rounding: the integer numerator is exact, so the result is the
    # correctly rounded value of the rational 100*(n_anx-n_calm)/n_tokens.
    return (100 * (n_anx - n_calm)) / n_tokens


class Totals(NamedTuple):
    """A bin's exact counters, as ``BinAggregate.totals`` derives them."""

    n_posts: int
    n_tokens: int
    n_anx: int
    n_calm: int

    @property
    def micro_score(self) -> float | None:
        """Pooled-token-count score; None for an empty bin."""
        if self.n_tokens == 0:
            return None
        return post_score_value(self.n_tokens, self.n_anx, self.n_calm)


class BinAggregate:
    """An exact score histogram plus the anxiety-token count for one slice bin."""

    __slots__ = ("hist", "n_anx")

    def __init__(self) -> None:
        # (n_anx - n_calm, n_tokens) -> number of posts with that pair.
        self.hist: dict[tuple[int, int], int] = {}
        self.n_anx = 0

    @staticmethod
    def update_counts(bins: Iterable[BinAggregate], n_tokens: int, n_anx: int, n_calm: int) -> None:
        """Add one post with ``n_tokens >= 1`` to every bin in ``bins``."""
        key = (n_anx - n_calm, n_tokens)
        for agg in bins:
            agg.n_anx += n_anx
            hist = agg.hist
            hist[key] = hist.get(key, 0) + 1

    def merge_from(self, other: BinAggregate) -> None:
        self.n_anx += other.n_anx
        hist = self.hist
        for key, count in other.hist.items():
            hist[key] = hist.get(key, 0) + count

    def totals(self) -> Totals:
        """The bin's post, token, anxiety and calm counts, from one pass over the histogram."""
        n_posts = n_tokens = diff_sum = 0
        for (diff, n_tok), count in self.hist.items():
            n_posts += count
            n_tokens += n_tok * count
            diff_sum += diff * count
        return Totals(n_posts, n_tokens, self.n_anx, self.n_anx - diff_sum)

    def score_counts(self) -> dict[float, int]:
        """Per-post score -> number of posts in the bin with that score."""
        counts: dict[float, int] = {}
        for (diff, n_tokens), count in self.hist.items():
            score = post_score_value(n_tokens, diff, 0)
            counts[score] = counts.get(score, 0) + count
        return counts

    @property
    def macro_score(self) -> float | None:
        """Mean of the per-post scores; None for an empty bin."""
        counts = self.score_counts()
        if not counts:
            return None
        return exact_sum(counts.items()) / sum(counts.values())
