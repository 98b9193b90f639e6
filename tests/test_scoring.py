from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from anxarc._kernel import score_text
from anxarc.scoring import BinAggregate, post_score_value
from anxarc.stats import TTestResult, student_t_two_sided_p, welch_t
from util import hist_pairs, loads_lexicon

LEX = loads_lexicon(
    "panic\t3.0\ndread\t2.0\nrelax\t-2.0\ncalm\t-2.5\nstorm\t0.0\nroad\t0.0\n"
)


def one_post(tokens: list[str]) -> BinAggregate:
    agg = BinAggregate()
    BinAggregate.update_counts([agg], *score_text(" ".join(tokens), LEX)[:3])
    return agg


def state(agg: BinAggregate) -> tuple:
    return (*agg.summary()[:4], hist_pairs(agg))


def filled(posts) -> BinAggregate:
    agg = BinAggregate()
    for post in posts:
        BinAggregate.update_counts([agg], *post)
    return agg


def test_score_post_cancel():
    agg = one_post(["storm", "panic", "relax"])
    assert state(agg) == (1, 3, 1, 1, {(0, 3): 1})
    assert agg.summary().macro_score == 0.0


def test_score_post_mixed_with_unknown():
    # "ok" is out of vocabulary: counts only in the denominator.
    agg = one_post(["panic", "dread", "calm", "ok"])
    assert agg.summary()[1:4] == (4, 2, 1)
    assert agg.summary().macro_score == 25.0


def test_score_post_extreme_bound():
    assert one_post(["calm", "calm", "calm"]).summary().macro_score == -100.0


def test_repeated_tokens_count_each_occurrence():
    agg = one_post(["panic", "panic", "road"])
    assert agg.n_anx == 2
    assert agg.summary().macro_score == post_score_value(3, 2, 0)


def test_empty_tokens_error():
    # A post with no tokens has no score; the scan counts it as an empty skip.
    assert score_text("", LEX) == (0, 0, 0, 0)
    with pytest.raises(ZeroDivisionError):
        post_score_value(0, 0, 0)


def test_score_value_matches_exact_rational():
    rng = random.Random(3)
    for _ in range(500):
        n = rng.randint(1, 50)
        a = rng.randint(0, n)
        c = rng.randint(0, n - a)
        assert post_score_value(n, a, c) == float(Fraction(100 * (a - c), n))


def test_update_counts_adds_the_post_to_every_bin():
    bins = [BinAggregate() for _ in range(3)]
    BinAggregate.update_counts(bins, 5, 2, 1)
    BinAggregate.update_counts(bins[1:], 4, 0, 0)
    BinAggregate.update_counts([], 3, 1, 0)
    assert state(bins[0]) == (1, 5, 2, 1, {(1, 5): 1})
    assert state(bins[1]) == state(bins[2]) == (2, 9, 2, 1, {(1, 5): 1, (0, 4): 1})


def test_update_single_post():
    agg = filled([(4, 2, 1)])
    assert agg.summary() == (1, 4, 2, 1, 25.0, 25.0, {25.0: 1})


def test_update_pools_token_counts():
    agg = filled([(4, 2, 1), (3, 0, 3)])
    # Pooled: 100 * (2 - 4) / 7
    assert agg.summary().micro_score == pytest.approx(-28.571428571428573, abs=1e-12)
    assert agg.summary().macro_score == pytest.approx((25.0 - 100.0) / 2, abs=1e-12)


def test_equal_scores_share_a_histogram_count():
    agg = filled([(2, 1, 0), (4, 2, 0), (4, 3, 1)])
    assert hist_pairs(agg) == {(1, 2): 1, (2, 4): 2}
    assert agg.summary().score_counts == {50.0: 3}


def test_merge_identities():
    merged = BinAggregate()
    merged.merge_from(BinAggregate())
    assert state(merged) == state(BinAggregate())
    assert merged.summary() == (0, 0, 0, 0, None, None, {})

    agg = filled([(4, 2, 1)])
    same = filled([(4, 2, 1)])
    same.merge_from(BinAggregate())
    assert state(same) == state(agg)


def test_merge_equals_sequential_updates():
    a, b = filled([(4, 2, 1)]), filled([(3, 0, 3)])
    c = filled([(4, 2, 1), (3, 0, 3)])
    a.merge_from(b)
    assert state(a) == state(c)
    assert a.summary() == c.summary()


def test_sharded_recount_oracle():
    # 1000 synthetic posts split across 8 shards vs one single pass.
    rng = random.Random(41)
    posts = []
    for _ in range(1000):
        n = rng.randint(1, 30)
        a = rng.randint(0, n)
        c = rng.randint(0, n - a)
        posts.append((n, a, c))

    single = filled(posts)
    shards = [filled(posts[i::8]) for i in range(8)]
    total = shards[0]
    for sh in shards[1:]:
        total.merge_from(sh)

    # Brute-force recount, independent of BinAggregate.
    expected = (
        len(posts),
        sum(n for n, _, _ in posts),
        sum(a for _, a, _ in posts),
        sum(c for _, _, c in posts),
        dict(Counter((a - c, n) for n, a, c in posts)),
    )
    assert state(single) == expected
    assert state(total) == expected


def test_order_independence_of_counters():
    rng = random.Random(43)
    posts = [(rng.randint(1, 9), 1, 1) for _ in range(200)]
    shuffled = posts[:]
    rng.shuffle(shuffled)
    one, two = filled(posts), filled(shuffled)
    assert state(one) == state(two)
    assert one.summary() == two.summary()


def test_scores_bounded():
    rng = random.Random(47)
    agg = BinAggregate()
    for _ in range(500):
        n = rng.randint(1, 20)
        a = rng.randint(0, n)
        c = rng.randint(0, n - a)
        assert -100.0 <= post_score_value(n, a, c) <= 100.0
        BinAggregate.update_counts([agg], n, a, c)
    assert -100.0 <= agg.summary().micro_score <= 100.0
    assert -100.0 <= agg.summary().macro_score <= 100.0


def test_law_of_large_numbers_micro():
    # 10^6 tokens at p_anx=0.3, p_calm=0.1 -> micro within 0.5 of 20.
    rng = random.Random(53)
    p, q = 0.3, 0.1
    agg = BinAggregate()
    tokens_left = 1_000_000
    while tokens_left > 0:
        n = min(20, tokens_left)
        a = c = 0
        for _ in range(n):
            r = rng.random()
            if r < p:
                a += 1
            elif r < p + q:
                c += 1
        BinAggregate.update_counts([agg], n, a, c)
        tokens_left -= n
    assert agg.summary().micro_score == pytest.approx(100 * (p - q), abs=0.5)


# Property tests: histograms give exactly what per-post score lists gave.


@st.composite
def post_counts(draw):
    n = draw(st.integers(1, 60))
    a = draw(st.integers(0, n))
    c = draw(st.integers(0, n - a))
    return n, a, c


def list_welch(a: list[float], b: list[float]) -> TTestResult:
    """Welch's test over per-post score lists with math.fsum, as a reference."""
    n_a, n_b = len(a), len(b)
    m_a, m_b = math.fsum(a) / n_a, math.fsum(b) / n_b
    v_a = math.fsum((s - m_a) ** 2 for s in a) / (n_a - 1)
    v_b = math.fsum((s - m_b) ** 2 for s in b) / (n_b - 1)
    if v_a == 0.0 and v_b == 0.0:
        df = float(n_a + n_b - 2)
        if m_a == m_b:
            return TTestResult(0.0, df, 1.0, False, 0.05)
        return TTestResult(math.inf if m_a > m_b else -math.inf, df, 0.0, True, 0.05)
    se_a, se_b = v_a / n_a, v_b / n_b
    pooled = se_a + se_b
    t = (m_a - m_b) / math.sqrt(pooled)
    df = pooled * pooled / (se_a * se_a / (n_a - 1) + se_b * se_b / (n_b - 1))
    p = student_t_two_sided_p(t, df)
    return TTestResult(t, df, p, p < 0.05, 0.05)


@given(st.lists(post_counts(), min_size=0, max_size=200))
def test_macro_score_equals_fsum_over_post_scores(posts):
    # Every field of a bin's summary, against the posts its histogram holds;
    # an empty bin has zero counts and no scores.
    scores = [post_score_value(*post) for post in posts]
    n_tokens = sum(n for n, _, _ in posts)
    n_anx, n_calm = sum(a for _, a, _ in posts), sum(c for _, _, c in posts)
    summary = filled(posts).summary()
    assert summary[:4] == (len(posts), n_tokens, n_anx, n_calm)
    if posts:
        assert summary.micro_score == float(Fraction(100 * (n_anx - n_calm), n_tokens))
        assert summary.macro_score == math.fsum(scores) / len(scores)
    else:
        assert summary.micro_score is None and summary.macro_score is None
    assert Counter(summary.score_counts) == Counter(scores)


@given(st.lists(post_counts(), min_size=2, max_size=120),
       st.lists(post_counts(), min_size=2, max_size=120))
def test_welch_on_histograms_equals_list_welch(posts_a, posts_b):
    got = welch_t(filled(posts_a).summary().score_counts, filled(posts_b).summary().score_counts)
    want = list_welch([post_score_value(*p) for p in posts_a],
                      [post_score_value(*p) for p in posts_b])
    assert got == want


@given(st.lists(st.tuples(post_counts(), st.integers(0, 5)), max_size=120), st.randoms())
def test_merge_any_order_and_grouping(tagged, rnd):
    posts = [post for post, _ in tagged]
    shards = [filled(post for post, shard in tagged if shard == k) for k in range(6)]
    rnd.shuffle(shards)
    # Merge neighbours pairwise in a random grouping until one is left.
    while len(shards) > 1:
        i = rnd.randrange(len(shards) - 1)
        shards[i].merge_from(shards.pop(i + 1))
    merged = shards[0]
    assert state(merged) == state(filled(posts))
    assert merged.summary() == filled(posts).summary()


@st.composite
def wide_post_counts(draw):
    # Small counts make neighbouring pairs (and so neighbouring keys) likely.
    n = draw(st.integers(1, 8) | st.integers(1, 10**12))
    a = draw(st.integers(0, n))
    c = draw(st.integers(0, n - a))
    return n, a, c


@given(st.lists(st.tuples(wide_post_counts(), st.integers(0, 3)), max_size=40), st.randoms())
def test_integer_keys_are_exact_at_any_token_count(tagged, rnd):
    posts = [post for post, _ in tagged]
    keys = {}
    for n, a, c in posts:
        agg = filled([(n, a, c)])
        assert hist_pairs(agg) == {(a - c, n): 1}
        keys[a - c, n] = next(iter(agg.hist))
    assert len(set(keys.values())) == len(keys)

    shards = [filled(post for post, shard in tagged if shard == k) for k in range(4)]
    rnd.shuffle(shards)
    while len(shards) > 1:
        i = rnd.randrange(len(shards) - 1)
        shards[i].merge_from(shards.pop(i + 1))
    merged = shards[0]
    # The tuple-keyed reference: the pairs and every summary field, from the posts.
    scores = [post_score_value(*post) for post in posts]
    n_tokens = sum(n for n, _, _ in posts)
    n_anx, n_calm = sum(a for _, a, _ in posts), sum(c for _, _, c in posts)
    micro = float(Fraction(100 * (n_anx - n_calm), n_tokens)) if posts else None
    macro = math.fsum(scores) / len(scores) if posts else None
    assert hist_pairs(merged) == Counter((a - c, n) for n, a, c in posts)
    assert merged.summary() == (len(posts), n_tokens, n_anx, n_calm, micro, macro, Counter(scores))
