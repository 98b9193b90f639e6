from __future__ import annotations

import json
import math
import random
from collections import Counter

import pytest

from anxarc.stats import (
    ConstantInputError,
    InsufficientSampleError,
    TTestResult,
    pearson,
    regularized_incomplete_beta,
    spearman,
    student_t_two_sided_p,
    welch_t,
)


@pytest.fixture(scope="module")
def oracle(fixtures_dir):
    return json.loads((fixtures_dir / "stat_oracle.json").read_text())


def test_identical_samples():
    res = welch_t(Counter([1, 2, 3]), Counter([1, 2, 3]))
    assert res.t == 0.0
    assert res.p == 1.0
    assert not res.significant


def test_small_sample_rejected():
    with pytest.raises(InsufficientSampleError):
        welch_t(Counter([1.0]), Counter([1.0, 2.0]))
    with pytest.raises(InsufficientSampleError):
        welch_t(Counter([1.0, 2.0]), Counter([3.0]))
    with pytest.raises(InsufficientSampleError):
        pearson([1.0], [2.0])


def test_constant_equal_sentinel():
    res = welch_t(Counter([2.0, 2.0, 2.0]), Counter([2.0, 2.0]))
    assert res == TTestResult(0.0, 3.0, 1.0, False, 0.05)


def test_zero_variance_different_means_sentinel():
    res = welch_t(Counter([0.0, 0.0, 0.0, 0.0]), Counter([1.0, 1.0, 1.0, 1.0]))
    assert math.isinf(res.t) and res.t < 0
    assert res.p == 0.0
    assert res.significant
    flipped = welch_t(Counter([1.0, 1.0]), Counter([0.0, 0.0]))
    assert flipped.t == math.inf


def test_one_constant_sample_regular_path():
    res = welch_t(Counter([5.0, 5.0, 5.0]), Counter([1.0, 2.0, 3.0]))
    assert math.isfinite(res.t)
    assert 0.0 <= res.p <= 1.0


def test_welch_matches_frozen_oracle(oracle):
    for case in oracle["welch"]:
        res = welch_t(Counter(case["a"]), Counter(case["b"]))
        assert res.t == pytest.approx(case["t"], abs=1e-9)
        assert res.df == pytest.approx(case["df"], abs=1e-9)
        assert res.p == pytest.approx(case["p"], abs=1e-6)


def test_pearson_matches_frozen_oracle(oracle):
    for case in oracle["pearson"]:
        assert pearson(case["x"], case["y"]) == pytest.approx(case["r"], abs=1e-9)


def test_spearman_matches_frozen_oracle(oracle):
    for case in oracle["spearman"]:
        assert spearman(case["x"], case["y"]) == pytest.approx(case["r"], abs=1e-9)


def test_pearson_trivial_cases():
    assert pearson([1, 2, 3], [1, 2, 3]) == 1.0
    assert pearson([1, 2, 3], [-1, -2, -3]) == -1.0


def test_pearson_hand_computed():
    # x=[1,2,3,4], y=[2,4,5,9]: cov_sum=11, sxx=5, syy=26 -> 11/sqrt(130).
    assert pearson([1, 2, 3, 4], [2, 4, 5, 9]) == pytest.approx(11 / math.sqrt(130), abs=1e-12)


def test_pearson_constant_input_error():
    with pytest.raises(ConstantInputError):
        pearson([1, 1, 1], [1, 2, 3])
    with pytest.raises(ConstantInputError):
        pearson([1, 2, 3], [5, 5, 5])


def test_pearson_length_mismatch():
    # spearman's ranks keep the lengths, so pearson's check is its check too.
    with pytest.raises(ValueError, match="^length mismatch: 2 vs 3$"):
        pearson([1, 2], [1, 2, 3])
    with pytest.raises(ValueError, match="^length mismatch: 2 vs 3$"):
        spearman([1, 2], [1, 2, 3])


def test_pearson_affine_invariance():
    rng = random.Random(3)
    x = [rng.gauss(0, 1) for _ in range(30)]
    y = [rng.gauss(0, 1) + 0.5 * v for v in x]
    base = pearson(x, y)
    assert pearson([3.0 * v + 7 for v in x], y) == pytest.approx(base, abs=1e-12)
    assert pearson(x, [0.25 * v - 2 for v in y]) == pytest.approx(base, abs=1e-12)


def test_spearman_rank_invariance():
    x = [1.0, 2.0, 5.0, 9.0]
    assert spearman(x, [math.exp(v) for v in x]) == 1.0
    assert spearman(x, [-v ** 3 for v in x]) == -1.0


def test_welch_antisymmetry_and_invariances():
    rng = random.Random(5)
    for _ in range(1000):
        a = [rng.gauss(0, 1) for _ in range(rng.randint(2, 12))]
        b = [rng.gauss(rng.uniform(-1, 1), 1.5) for _ in range(rng.randint(2, 12))]
        ab = welch_t(Counter(a), Counter(b))
        ba = welch_t(Counter(b), Counter(a))
        assert ab.t == pytest.approx(-ba.t, abs=1e-12)
        assert ab.df == pytest.approx(ba.df, abs=1e-9)
        assert ab.p == pytest.approx(ba.p, abs=1e-12)


def test_welch_shift_scale_invariance():
    rng = random.Random(7)
    a = [rng.gauss(0, 1) for _ in range(15)]
    b = [rng.gauss(0.4, 2) for _ in range(9)]
    base = welch_t(Counter(a), Counter(b))
    shifted = welch_t(Counter(v + 100 for v in a), Counter(v + 100 for v in b))
    assert shifted.t == pytest.approx(base.t, rel=1e-9)
    assert shifted.p == pytest.approx(base.p, rel=1e-6)
    scaled = welch_t(Counter(4.0 * v for v in a), Counter(4.0 * v for v in b))
    assert scaled.t == pytest.approx(base.t, rel=1e-12)
    assert scaled.df == pytest.approx(base.df, rel=1e-12)
    assert scaled.p == pytest.approx(base.p, rel=1e-9)


def test_p_monotone_decreasing_in_abs_t():
    for df in (1.5, 3.0, 10.0, 42.0, 500.0):
        previous = 1.0
        for t in [0.0, 0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 50.0]:
            p = student_t_two_sided_p(t, df)
            assert p <= previous + 1e-15
            assert student_t_two_sided_p(-t, df) == p
            previous = p
        assert student_t_two_sided_p(math.inf, df) == student_t_two_sided_p(-math.inf, df) == 0.0
    for df in (0.0, -1.0):
        with pytest.raises(ValueError):
            student_t_two_sided_p(1.0, df)


def test_incomplete_beta_edges():
    assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
    assert regularized_incomplete_beta(2.0, 3.0, -0.5) == 0.0
    for a, b in [(0.0, 3.0), (2.0, -1.0)]:
        with pytest.raises(ValueError):
            regularized_incomplete_beta(a, b, 0.5)
    # I_x(1,1) is the identity.
    for x in (0.1, 0.5, 0.9):
        assert regularized_incomplete_beta(1.0, 1.0, x) == pytest.approx(x, abs=1e-14)
    # Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
    for a, b, x in [(2.5, 4.0, 0.3), (0.5, 0.5, 0.77), (30.0, 0.5, 0.9)]:
        lhs = regularized_incomplete_beta(a, b, x)
        rhs = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
        assert lhs == pytest.approx(rhs, abs=1e-13)


def test_alpha_validation():
    with pytest.raises(ValueError):
        welch_t(Counter([1, 2]), Counter([3, 4]), alpha=0.0)
    with pytest.raises(ValueError):
        welch_t(Counter([1, 2]), Counter([3, 4]), alpha=1.0)


def test_significance_flag_tracks_alpha():
    a = [0.0, 0.1, -0.1, 0.05, -0.05]
    b = [2.0, 2.1, 1.9, 2.05, 1.95]
    strict = welch_t(Counter(a), Counter(b), alpha=1e-12)
    loose = welch_t(Counter(a), Counter(b), alpha=0.5)
    assert loose.significant
    assert strict.significant == (strict.p < 1e-12)
