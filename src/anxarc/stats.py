"""Significance tests and correlation measures over bin scores and arcs.

Welch's unequal-variance two-sided t-test is the only test variant offered:
bin sizes and variances differ wildly across slices, making the pooled
test unsafe. The Student-t tail probability is computed from scratch via
the regularized incomplete beta function (continued-fraction evaluation),
keeping the artifact free of runtime numeric dependencies; the test suite
validates it against a pre-computed reference oracle.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, NamedTuple, Sequence

DEFAULT_ALPHA = 0.05

_CF_MAX_ITER = 300
_CF_EPS = 3e-16
_CF_FPMIN = 1e-300


class InsufficientSampleError(ValueError):
    """A sample is too small for the requested statistic."""


class ConstantInputError(ValueError):
    """Correlation is undefined for a constant input vector."""


class TTestResult(NamedTuple):
    t: float
    df: float
    p: float
    significant: bool
    alpha: float


def _betacf(a: float, b: float, x: float) -> float:
    # Modified Lentz evaluation of the incomplete-beta continued fraction.
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_FPMIN:
        d = _CF_FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_FPMIN:
            d = _CF_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _CF_FPMIN:
            c = _CF_FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_FPMIN:
            d = _CF_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _CF_FPMIN:
            c = _CF_FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            break
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("shape parameters must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # Use the continued fraction on the side where it converges fast.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_two_sided_p(t: float, df: float) -> float:
    """P(|T_df| >= |t|) for the Student-t distribution."""
    if df <= 0.0:
        raise ValueError("degrees of freedom must be positive")
    if math.isinf(t):
        return 0.0
    if t == 0.0:
        return 1.0
    x = df / (df + t * t)
    return regularized_incomplete_beta(df / 2.0, 0.5, x)


def exact_sum(pairs: Iterable[tuple[float, int]]) -> float:
    """Correctly rounded sum of ``value * count`` over (value, count) pairs.

    Bit-for-bit what ``math.fsum`` gives over the list holding each value
    ``count`` times: every float is a ratio ``p / q`` with ``q`` a power of
    two, so the sum is exact in integers over the largest ``q`` and is
    rounded once by int true division.
    """
    terms = [(v.as_integer_ratio(), c) for v, c in pairs]
    denom = max((q for (_, q), _ in terms), default=1)
    return sum(c * p * (denom // q) for (p, q), c in terms) / denom


def _mean_var(counts: Mapping[float, int], n: int) -> tuple[float, float]:
    m = exact_sum(counts.items()) / n
    v = exact_sum(((s - m) ** 2, c) for s, c in counts.items()) / (n - 1)
    return m, v


def welch_t(
    counts_a: Mapping[float, int],
    counts_b: Mapping[float, int],
    alpha: float = DEFAULT_ALPHA,
) -> TTestResult:
    """Welch's unequal-variance two-sided t-test.

    Each sample is given as a map from score to the number of observations
    with that score; the result is the same as over the expanded lists.
    Degenerate inputs get sentinel behavior instead of exceptions: two
    constant equal samples give t=0, p=1; constant samples with different
    means give t=+/-inf, p=0 (df falls back to n_a + n_b - 2 in both cases).
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    n_a, n_b = sum(counts_a.values()), sum(counts_b.values())
    if n_a < 2 or n_b < 2:
        raise InsufficientSampleError(
            f"welch_t needs at least 2 observations per sample, got {n_a} and {n_b}"
        )
    m_a, v_a = _mean_var(counts_a, n_a)
    m_b, v_b = _mean_var(counts_b, n_b)

    if v_a == 0.0 and v_b == 0.0:
        df = float(n_a + n_b - 2)
        if m_a == m_b:
            return TTestResult(0.0, df, 1.0, False, alpha)
        t = math.inf if m_a > m_b else -math.inf
        return TTestResult(t, df, 0.0, True, alpha)

    se_a = v_a / n_a
    se_b = v_b / n_b
    pooled = se_a + se_b
    t = (m_a - m_b) / math.sqrt(pooled)
    df = pooled * pooled / (se_a * se_a / (n_a - 1) + se_b * se_b / (n_b - 1))
    p = student_t_two_sided_p(t, df)
    return TTestResult(t, df, p, p < alpha, alpha)


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson product-moment correlation, in [-1, 1]."""
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 2:
        raise InsufficientSampleError("pearson needs at least 2 points")
    mx = math.fsum(x) / n
    my = math.fsum(y) / n
    sxx = math.fsum((a - mx) ** 2 for a in x)
    syy = math.fsum((b - my) ** 2 for b in y)
    if sxx == 0.0 or syy == 0.0:
        raise ConstantInputError("correlation is undefined for constant input")
    sxy = math.fsum((a - mx) * (b - my) for a, b in zip(x, y))
    r = sxy / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))


def _average_ranks(values: Sequence[float]) -> list[float]:
    n = len(values)
    order = sorted(range(n), key=values.__getitem__)
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman rank correlation with average ranks for ties."""
    return pearson(_average_ranks(x), _average_ranks(y))
