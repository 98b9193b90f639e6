from __future__ import annotations

import io
import json
import math

import pytest

from anxarc.synth import (
    MAX_PLANTED_TOKENS,
    ArcReport,
    ArcSpec,
    ArcSpecError,
    EmptyBinError,
    evaluate_arc,
    generate,
    generate_file,
)
from util import loads_lexicon


def flat_spec(**overrides) -> ArcSpec:
    base = dict(
        bins=tuple(range(24)),
        p_anx=(0.2,) * 24,
        p_calm=(0.1,) * 24,
        posts_per_bin=50,
        tokens_per_post=(5, 15),
        seed=11,
        axis="hour",
    )
    base.update(overrides)
    return ArcSpec(**base)


def sinusoidal_spec(posts_per_bin=200, seed=11) -> ArcSpec:
    p_anx = tuple(0.15 + 0.10 * math.sin(2 * math.pi * h / 24) for h in range(24))
    return flat_spec(p_anx=p_anx, p_calm=(0.15,) * 24, posts_per_bin=posts_per_bin, seed=seed)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(bins=()),
        dict(bins=(0, 0)),
        dict(bins=(24,)),
        dict(bins=(0,), p_anx=(0.2, 0.3)),
        dict(p_anx=(-0.1,) * 24),
        dict(p_anx=(0.7,) * 24, p_calm=(0.4,) * 24),  # sums above 1
        dict(posts_per_bin=0),
        dict(tokens_per_post=(0, 5)),
        dict(tokens_per_post=(6, 5)),
        dict(axis="minute"),
    ],
)
def test_spec_validation(overrides):
    with pytest.raises(ArcSpecError):
        flat_spec(**overrides)


def test_planted_tokens_are_capped():
    def spec(posts_per_bin, max_tokens=10):
        # 20 bins x posts_per_bin x max_tokens planted tokens at most.
        return flat_spec(bins=tuple(range(20)), p_anx=(0.2,) * 20, p_calm=(0.1,) * 20,
                         posts_per_bin=posts_per_bin, tokens_per_post=(1, max_tokens))

    assert MAX_PLANTED_TOKENS == 20 * 5_000_000 * 10
    assert spec(5_000_000).posts_per_bin == 5_000_000
    with pytest.raises(ArcSpecError, match="more than the 1000000000 allowed"):
        spec(5_000_001)
    with pytest.raises(ArcSpecError):
        spec(1, MAX_PLANTED_TOKENS)


def test_weekday_axis_bin_range():
    spec = flat_spec(axis="weekday", bins=tuple(range(7)), p_anx=(0.2,) * 7, p_calm=(0.1,) * 7)
    assert spec.planted_scores == [pytest.approx(10.0)] * 7
    with pytest.raises(ArcSpecError):
        flat_spec(axis="weekday", bins=(7,), p_anx=(0.2,), p_calm=(0.1,))


def test_from_dict_scalar_broadcast():
    spec = ArcSpec.from_dict(
        {
            "bins": [0, 1, 2],
            "p_anx": [0.1, 0.2, 0.3],
            "p_calm": 0.05,
            "posts_per_bin": 10,
            "tokens_per_post": [2, 4],
            "seed": 3,
        }
    )
    assert spec.p_calm == (0.05, 0.05, 0.05)
    assert spec.axis == "hour"


def test_from_dict_missing_key():
    with pytest.raises(ArcSpecError):
        ArcSpec.from_dict({"bins": [0]})


def test_generate_deterministic(lexicon):
    spec = flat_spec(posts_per_bin=20)
    a, b = io.StringIO(), io.StringIO()
    assert generate(spec, lexicon, a) == generate(spec, lexicon, b) == 24 * 20
    assert a.getvalue() == b.getvalue()


def test_generate_seed_changes_output(lexicon):
    a, b = io.StringIO(), io.StringIO()
    generate(flat_spec(posts_per_bin=5), lexicon, a)
    generate(flat_spec(posts_per_bin=5, seed=12), lexicon, b)
    assert a.getvalue() != b.getvalue()


def test_generated_records_are_wellformed(lexicon):
    buf = io.StringIO()
    spec = flat_spec(posts_per_bin=5, tokens_per_post=(3, 7))
    generate(spec, lexicon, buf)
    seen_bins = set()
    for line in buf.getvalue().splitlines():
        obj = json.loads(line)
        assert set(obj) == {"id", "text", "timestamp_utc", "timezone"}
        assert obj["timezone"] == "UTC"
        hour = int(obj["timestamp_utc"][11:13])
        seen_bins.add(hour)
        assert 3 <= len(obj["text"].split()) <= 7
    assert seen_bins == set(range(24))


@pytest.mark.parametrize("axis,n_bins", [("hour", 24), ("weekday", 7)])
def test_record_frame_is_json_dumps_of_the_record(axis, n_bins):
    # Terms that JSON must escape (quote, backslash, a control character)
    # and non-ASCII letters, which ensure_ascii=False writes as they are.
    lex = loads_lexicon('a"b\t2.0\n\\\t3.0\nback\\slash\t-2.0\nctl\x01x\t-1.5\n'
                        "ñandú\t2.5\nstraße\t0.0\nπόλη\t0.5\n")
    spec = flat_spec(axis=axis, bins=tuple(range(n_bins)), p_anx=(0.3,) * n_bins,
                     p_calm=(0.3,) * n_bins, posts_per_bin=20, tokens_per_post=(1, 6))
    buf = io.StringIO()
    assert generate(spec, lex, buf) == n_bins * 20
    lines = buf.getvalue().split("\n")
    assert lines.pop() == ""
    for line in lines:
        rec = json.loads(line)
        assert line == json.dumps({"id": rec["id"], "text": rec["text"],
                                   "timestamp_utc": rec["timestamp_utc"],
                                   "timezone": rec["timezone"]}, ensure_ascii=False)
    # Every hostile term was planted, each escaped as JSON writes it.
    words = set(" ".join(json.loads(line)["text"] for line in lines).split())
    assert words == set(lex)
    assert all(s in buf.getvalue() for s in ('a\\"b', "back\\\\slash", "ctl\\u0001x", "ñandú"))


def test_generate_requires_all_classes():
    no_calm = loads_lexicon("panic\t3.0\nroad\t0.0\n")
    with pytest.raises(ArcSpecError):
        generate(flat_spec(), no_calm, io.StringIO())


def test_zero_probabilities_give_exactly_zero_scores(lexicon, tmp_path):
    spec = flat_spec(p_anx=(0.0,) * 24, p_calm=(0.0,) * 24, posts_per_bin=10)
    path = str(tmp_path / "zero.jsonl")
    generate_file(spec, lexicon, path)
    # Without affect tokens every bin must recover exactly 0... but a
    # constant arc has no defined correlation, so recover bins directly.
    from anxarc.pipeline import scan_corpus

    res = scan_corpus(path, class_map=lexicon, families=("hour",))
    for h in range(24):
        assert res.bins["hour"][h].summary().micro_score == 0.0


def test_pure_anxiety_bin_hits_plus_100(lexicon, tmp_path):
    p_anx = (0.0,) * 23 + (1.0,)
    spec = flat_spec(p_anx=p_anx, p_calm=(0.0,) * 24, posts_per_bin=10)
    path = str(tmp_path / "one.jsonl")
    generate_file(spec, lexicon, path)
    from anxarc.pipeline import scan_corpus

    res = scan_corpus(path, class_map=lexicon, families=("hour",))
    assert res.bins["hour"][23].summary().micro_score == 100.0
    assert res.bins["hour"][0].summary().micro_score == 0.0


def test_evaluate_arc_recovers_sinusoid(lexicon, tmp_path):
    spec = sinusoidal_spec(posts_per_bin=400)
    path = str(tmp_path / "sin.jsonl")
    generate_file(spec, lexicon, path)
    report = evaluate_arc(path, lexicon, spec)
    assert isinstance(report, ArcReport)
    assert report.pearson_r > 0.9
    assert report.spearman_r > 0.8
    assert len(report.recovered) == 24


def test_evaluate_arc_empty_bin_error(lexicon, tmp_path):
    spec = flat_spec(bins=(0, 1), p_anx=(0.2, 0.2), p_calm=(0.1, 0.1), posts_per_bin=5)
    path = str(tmp_path / "partial.jsonl")
    generate_file(spec, lexicon, path)
    full = flat_spec(posts_per_bin=5)
    with pytest.raises(EmptyBinError) as exc:
        evaluate_arc(path, lexicon, full)
    assert exc.value.bin_id == 2


def test_arc_self_correlation_is_one(lexicon, tmp_path):
    spec = sinusoidal_spec(posts_per_bin=120, seed=5)
    path = str(tmp_path / "self.jsonl")
    generate_file(spec, lexicon, path)
    report = evaluate_arc(path, lexicon, spec)
    from anxarc.stats import pearson

    assert pearson(report.recovered, report.recovered) == 1.0


def test_weekday_generation_lands_on_weekdays(lexicon, tmp_path):
    spec = flat_spec(
        axis="weekday",
        bins=tuple(range(7)),
        p_anx=(0.2,) * 7,
        p_calm=(0.1,) * 7,
        posts_per_bin=8,
    )
    path = str(tmp_path / "week.jsonl")
    generate_file(spec, lexicon, path)
    from anxarc.pipeline import scan_corpus

    res = scan_corpus(path, class_map=lexicon, families=("weekday",))
    for d in range(7):
        assert res.bins["weekday"][d].summary().n_posts == 8


def test_unbiased_recovery_at_scale(lexicon, tmp_path):
    # One bin, 10^6 tokens: |recovered - planted| < 0.5 (binomial s.e.
    # is ~0.055 at these probabilities, so 0.5 is a 9-sigma bound).
    spec = flat_spec(
        bins=(0,), p_anx=(0.25,), p_calm=(0.10,),
        posts_per_bin=50_000, tokens_per_post=(20, 20), seed=77,
    )
    path = str(tmp_path / "big.jsonl")
    generate_file(spec, lexicon, path)
    from anxarc.pipeline import scan_corpus

    res = scan_corpus(path, class_map=lexicon, families=("hour",))
    assert res.bins["hour"][0].summary().n_tokens == 1_000_000
    assert abs(res.bins["hour"][0].summary().micro_score - 15.0) < 0.5


def test_monotone_fidelity_across_sizes(lexicon, tmp_path):
    # Mean pearson over 10 seeds is nondecreasing across 3 corpus sizes.
    sizes = (4, 40, 400)
    means = []
    for size in sizes:
        rs = []
        for seed in range(10):
            spec = sinusoidal_spec(posts_per_bin=size, seed=100 + seed)
            path = str(tmp_path / f"fid_{size}_{seed}.jsonl")
            generate_file(spec, lexicon, path)
            rs.append(evaluate_arc(path, lexicon, spec).pearson_r)
        means.append(sum(rs) / len(rs))
    assert means[0] <= means[1] <= means[2]
