"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The throughput criterion
generates a 1,000,000-post corpus, so this module takes a few minutes.
"""

from __future__ import annotations

import contextlib
import json
import math
import random
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import util
from anxarc import pipeline
from anxarc.cli import main as cli_main
from anxarc.pipeline import FAMILIES, scan_corpus
from anxarc._kernel import score_text
from anxarc.scoring import BinAggregate
from anxarc.slicer import PRONOUNS, classify_tense, load_verb_tables
from anxarc.stats import pearson, spearman, welch_t
from anxarc.synth import ArcSpec, evaluate_arc, generate_file

REPO = Path(__file__).resolve().parent.parent


@contextlib.contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({title}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({title}): PASS")


@pytest.fixture(scope="module")
def lex():
    return util.make_lexicon()


@pytest.fixture(scope="module")
def acceptance_tmp(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


def sinusoidal_spec(posts_per_bin: int, seed: int) -> ArcSpec:
    return ArcSpec(
        bins=tuple(range(24)),
        p_anx=tuple(0.15 + 0.10 * math.sin(2 * math.pi * h / 24) for h in range(24)),
        p_calm=(0.15,) * 24,
        posts_per_bin=posts_per_bin,
        tokens_per_post=(10, 30),
        seed=seed,
    )


def test_criterion_1_arc_recovery(lex, acceptance_tmp):
    """24-bin sinusoidal planted arc at 10,000 posts/bin: Pearson r >= 0.9."""
    with criterion(1, "arc recovery"):
        start = time.perf_counter()
        spec = sinusoidal_spec(posts_per_bin=10_000, seed=20240601)
        path = str(acceptance_tmp / "arc_corpus.jsonl")
        n = generate_file(spec, lex, path)
        assert n == 240_000
        report = evaluate_arc(path, lex, spec)
        elapsed = time.perf_counter() - start
        print(f"  pearson_r={report.pearson_r:.4f} spearman_r={report.spearman_r:.4f} "
              f"({elapsed:.1f}s)")
        assert report.pearson_r >= 0.9
        assert elapsed < 120.0


def test_criterion_2_oracle_equivalence(lex, acceptance_tmp, monkeypatch):
    """50 random corpora: every bin counter equals a brute-force recount at
    worker counts 1, 4, and 8."""
    monkeypatch.setattr(pipeline, "CHUNK_BYTES", 16384)
    with criterion(2, "oracle equivalence"):
        tables = load_verb_tables()
        for case in range(50):
            rng = random.Random(5000 + case)
            path = acceptance_tmp / f"oracle_{case}.jsonl"
            path.write_text("\n".join(util.random_corpus_lines(rng, 1000)) + "\n")
            oracle = util.brute_force_recount(str(path), util.lexicon_text(), tables)
            for workers in (1, 4, 8):
                res = scan_corpus(str(path), class_map=lex, families=FAMILIES,
                                  workers=workers)
                assert util.counters_of(res.overall) == oracle["overall"], (case, workers)
                assert util.counters_of(res.pronoun_overall) == oracle["pronoun_overall"]
                for h in range(24):
                    assert util.counters_of(res.bins["hour"][h]) == oracle["hour"][h]
                for d in range(7):
                    assert util.counters_of(res.bins["weekday"][d]) == oracle["weekday"][d]
                for t, agg in res.bins["tense"].items():
                    assert util.counters_of(agg) == oracle["tense"][t.value]
                for p in PRONOUNS:
                    assert util.counters_of(res.bins["pronoun"][p]) == oracle["pronoun"][p]
            path.unlink()


# 25-case scoring fixture: token multiset as (n_anx, n_calm, n_neutral,
# n_unknown); the expected value is the exact rational 100*(a-c)/n.
SCORE_CASES_EXACT = [
    (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 0, 0),
    (1, 0, 1, 0), (2, 1, 0, 1), (0, 3, 0, 0), (1, 0, 2, 1), (2, 0, 0, 0),
    (5, 2, 3, 0), (1, 4, 0, 0), (1, 0, 9, 0), (4, 0, 0, 0), (0, 1, 0, 1),
    (6, 6, 0, 0), (3, 3, 3, 4),
]
SCORE_CASES_REAL = [
    (2, 1, 0, 0), (1, 0, 0, 2), (1, 2, 0, 0), (1, 3, 1, 1), (2, 0, 1, 0),
    (0, 2, 0, 1), (2, 2, 2, 1), (5, 1, 1, 0),
]


def test_criterion_3_scoring_formula():
    """A one-post bin's score matches the hand formula on a 25-case fixture table."""
    with criterion(3, "scoring formula"):
        lex = util.loads_lexicon("a1\t2.0\na2\t2.0\nc1\t-2.0\nc2\t-2.0\nn1\t0.0\nn2\t0.0\n")
        assert len(SCORE_CASES_EXACT) + len(SCORE_CASES_REAL) == 25

        def tokens_for(a, c, n, u):
            toks = ["a1", "a2"] * (a // 2) + ["a1"] * (a % 2)
            toks += ["c1", "c2"] * (c // 2) + ["c1"] * (c % 2)
            toks += ["n1", "n2"] * (n // 2) + ["n1"] * (n % 2)
            toks += [f"unk{i}" for i in range(u)]
            return toks

        def one_post_bin(tokens):
            agg = BinAggregate()
            BinAggregate.update_counts([agg], *score_text(" ".join(tokens), lex)[:3])
            return agg

        for a, c, n, u in SCORE_CASES_EXACT:
            total = a + c + n + u
            agg = one_post_bin(tokens_for(a, c, n, u))
            assert agg.summary()[1:4] == (total, a, c)
            expected = Fraction(100 * (a - c), total)
            assert agg.summary().macro_score == float(expected), (a, c, n, u)

        for a, c, n, u in SCORE_CASES_REAL:
            total = a + c + n + u
            agg = one_post_bin(tokens_for(a, c, n, u))
            expected = 100.0 * (a - c) / total
            assert agg.summary().macro_score == pytest.approx(expected, abs=1e-12)


def test_criterion_4_tense_classifier(fixtures_dir):
    """100% agreement with the shipped hand-labeled fixture suite."""
    with criterion(4, "tense classifier"):
        tables = load_verb_tables()
        cases = json.loads((fixtures_dir / "tense_cases.json").read_text())["cases"]
        assert len(cases) >= 40
        branches = " ".join(c["branch"] for c in cases)
        for needle in ("irregular past", "-ed suffix", "stop-list", "will", "won't",
                       "shall", "expect", "believe", "hope", "tomorrow", "next day",
                       "next week", "next month", "next year", "precedence"):
            assert needle in branches
        disagreements = [
            c for c in cases
            if classify_tense(c["tokens"], tables).value != c["label"]
        ]
        assert disagreements == []


def test_criterion_5_pronoun_slicing(lex, acceptance_tmp):
    """pronoun_keys == tokens intersect the 10-key set, never 'us'; multi-
    pronoun posts land in every matching bin."""
    with criterion(5, "pronoun slicing"):
        rng = random.Random(616)
        vocab = list(PRONOUNS) + ["us", "it", "storm", "calm000", "anx000",
                                  "i've", "y'all", "trust", "love", "know"]
        key_set = set(PRONOUNS)
        for _ in range(10_000):
            toks = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
            keys = util.pronoun_keys(toks)
            assert keys == set(toks) & key_set
            assert "us" not in keys

        # Bin membership: every matching pronoun bin receives the post.
        posts = []
        expected = {p: 0 for p in PRONOUNS}
        n_with = 0
        for i in range(400):
            toks = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
            posts.append({"id": str(i), "text": " ".join(toks),
                          "timestamp_utc": "2021-01-01T10:00:00Z", "timezone": "UTC"})
            present = set(toks) & key_set
            n_with += bool(present)
            for p in present:
                expected[p] += 1
        path = acceptance_tmp / "pronouns.jsonl"
        path.write_text("\n".join(json.dumps(p) for p in posts) + "\n")
        res = scan_corpus(str(path), class_map=lex, families=("pronoun",))
        for p in PRONOUNS:
            assert res.bins["pronoun"][p].summary().n_posts == expected[p], p
        assert res.pronoun_overall.summary().n_posts == n_with


def test_criterion_6_statistics(fixtures_dir):
    """Frozen-oracle agreement, invariants on 1,000 random pairs, and alpha
    calibration at most 10 false positives in 100 runs."""
    with criterion(6, "statistics"):
        oracle = json.loads((fixtures_dir / "stat_oracle.json").read_text())
        n_fixtures = sum(len(oracle[k]) for k in ("welch", "pearson", "spearman"))
        assert n_fixtures == 20
        for case in oracle["welch"]:
            res = welch_t(Counter(case["a"]), Counter(case["b"]))
            assert res.t == pytest.approx(case["t"], abs=1e-9)
            assert res.df == pytest.approx(case["df"], abs=1e-9)
            assert res.p == pytest.approx(case["p"], abs=1e-6)
        for case in oracle["pearson"]:
            assert pearson(case["x"], case["y"]) == pytest.approx(case["r"], abs=1e-9)
        for case in oracle["spearman"]:
            assert spearman(case["x"], case["y"]) == pytest.approx(case["r"], abs=1e-9)

        rng = random.Random(1234)
        for _ in range(1000):
            a = [rng.gauss(0, 1) for _ in range(rng.randint(2, 15))]
            b = [rng.gauss(0.5, 2) for _ in range(rng.randint(2, 15))]
            ab, ba = welch_t(Counter(a), Counter(b)), welch_t(Counter(b), Counter(a))
            assert ab.t == pytest.approx(-ba.t, abs=1e-12)
            assert ab.p == pytest.approx(ba.p, abs=1e-12)
            same = welch_t(Counter(a), Counter(a))
            assert same.t == 0.0 and same.p == 1.0

        false_positives = 0
        for seed in range(100):
            r = random.Random(90_000 + seed)
            a = [r.gauss(0.0, 1.0) for _ in range(100)]
            b = [r.gauss(0.0, 1.0) for _ in range(100)]
            if welch_t(Counter(a), Counter(b), alpha=0.05).significant:
                false_positives += 1
        print(f"  alpha calibration: {false_positives}/100 flagged at alpha=0.05")
        assert false_positives <= 10


@pytest.fixture(scope="module")
def million_corpus(lex, acceptance_tmp):
    spec = ArcSpec(
        bins=tuple(range(24)),
        p_anx=(0.18,) * 24,
        p_calm=(0.12,) * 24,
        posts_per_bin=41_667,  # 24 bins -> 1,000,008 posts
        tokens_per_post=(10, 30),
        seed=31337,
    )
    path = str(acceptance_tmp / "million.jsonl")
    t0 = time.perf_counter()
    n = generate_file(spec, lex, path)
    print(f"  [setup] generated {n} posts in {time.perf_counter() - t0:.1f}s")
    assert n >= 1_000_000
    return path


def test_criterion_7_determinism_and_throughput(lex, acceptance_tmp, million_corpus):
    """analyze-hour over 1,000,000 posts in < 60s; byte-identical reports
    across reruns and worker counts 1, 2, 4."""
    with criterion(7, "determinism and throughput"):
        lex_file = acceptance_tmp / "lex.tsv"
        lex_file.write_text(util.lexicon_text())

        def run(out_dir: str, workers: int) -> bytes:
            code = cli_main([
                "analyze-hour",
                "--lexicon", str(lex_file),
                "--corpus", million_corpus,
                "--workers", str(workers),
                "--out", str(acceptance_tmp / out_dir),
            ])
            assert code == 0
            return (acceptance_tmp / out_dir / "hour.csv").read_bytes()

        t0 = time.perf_counter()
        first = run("run1", workers=1)
        elapsed = time.perf_counter() - t0
        print(f"  analyze-hour over 1,000,008 posts: {elapsed:.1f}s (workers=1)")
        assert elapsed < 60.0

        assert run("run2", workers=1) == first, "rerun changed bytes"
        assert run("run3", workers=2) == first, "workers=2 changed bytes"
        assert run("run4", workers=4) == first, "workers=4 changed bytes"


def test_criterion_8_replication_script(lex, acceptance_tmp):
    """The replicate command emits the four tables plus comparisons, and the
    docs state the expected qualitative shapes."""
    with criterion(8, "replication script"):
        lex_file = acceptance_tmp / "lex.tsv"
        lex_file.write_text(util.lexicon_text())
        rng = random.Random(77)
        corpus = acceptance_tmp / "stand_in.jsonl"
        corpus.write_text("\n".join(util.random_corpus_lines(rng, 3000)) + "\n")
        out = acceptance_tmp / "replication"
        code = cli_main([
            "replicate",
            "--lexicon", str(lex_file),
            "--corpus", str(corpus),
            "--out", str(out),
        ])
        assert code == 0
        for name in ("hour", "weekday", "tense", "pronoun", "comparisons"):
            assert (out / f"{name}.csv").exists(), name

        notes = (REPO / "docs" / "replication.md").read_text().lower()
        for phrase in ("8", "noon", "wednesday", "weekend", "past", "future",
                       "pronoun", "baseline"):
            assert phrase in notes, phrase
