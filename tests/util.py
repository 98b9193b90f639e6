"""Shared helpers for the test suite.

``brute_force_recount`` is the independent single-threaded oracle used to
check pipeline aggregation: it re-reads the corpus with plain json/dict
code, reads the associations from the lexicon TSV with its own parser and
applies the threshold rule to them itself (neither ``load_lexicon`` nor the
kernel's class map), and accumulates bare counter lists -- no BinAggregate,
no merge machinery.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
from datetime import datetime, timezone
from zoneinfo import ZoneInfo

from anxarc._kernel import ANX, CALM, tokenize
from anxarc.lexicon import (
    _HEADER,
    ASSOC_MAX,
    ASSOC_MIN,
    DEFAULT_TAU_ANX,
    DEFAULT_TAU_CALM,
    DuplicateTermError,
    EmptyLexiconError,
    LexiconParseError,
    load_lexicon,
)
from anxarc.slicer import PRONOUNS, VerbTables, classify_tense

ANX_WORDS = [f"anx{i:03d}" for i in range(30)]
CALM_WORDS = [f"calm{i:03d}" for i in range(20)]
NEUTRAL_WORDS = [f"neut{i:03d}" for i in range(50)]

TIMEZONES = [
    "UTC",
    "America/New_York",
    "America/Los_Angeles",
    "America/Toronto",
    "Europe/London",
    "Asia/Tokyo",
    "Australia/Sydney",
]

VERB_WORDS = [
    "went", "walked", "is", "are", "was", "runs", "hope", "will",
    "tomorrow", "going", "believe", "said", "working", "need",
]
FILLER_WORDS = ["day", "thing", "coffee", "city", "photo", "music", "sky", "next"]


def lexicon_text() -> str:
    rows = ["term\tassociation"]
    rows += [f"{w}\t2.5" for w in ANX_WORDS]
    rows += [f"{w}\t-2.5" for w in CALM_WORDS]
    rows += [f"{w}\t0.0" for w in NEUTRAL_WORDS]
    return "\n".join(rows) + "\n"


def loads_lexicon(
    text: str,
    thresholds: tuple[float, float] = (DEFAULT_TAU_ANX, DEFAULT_TAU_CALM),
) -> dict[str, int]:
    """Load a lexicon from an in-memory string."""
    return load_lexicon(io.BytesIO(text.encode("utf-8")), thresholds)


def make_lexicon() -> dict[str, int]:
    return loads_lexicon(lexicon_text())


def big_lexicon_text(n_terms: int = 14_000, seed: int = 0) -> str:
    """A lexicon of the paper's size: a tenth of the terms anxiety, a tenth calm."""
    rng = random.Random(seed)
    rows = ["term\tassociation"]
    for i in range(n_terms):
        word = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(rng.randint(4, 9)))
        value = rng.uniform(1.0, 3.0) if i % 10 == 0 else rng.uniform(-3.0, -1.0) if i % 10 == 1 \
            else rng.uniform(-0.99, 0.99)
        rows.append(f"{word}{i}\t{value:.3f}")
    return "\n".join(rows) + "\n"


def read_assoc(lexicon_tsv: str) -> dict[str, float]:
    """Every term's association in the text of a lexicon like
    ``lexicon_text()``: a header, then one lower-case
    ``term<TAB>association`` row a line."""
    header, *rows = lexicon_tsv.splitlines()
    assert tuple(header.split("\t")) == _HEADER
    return {term: float(value) for term, value in (row.split("\t") for row in rows)}


def reference_load(raw: bytes, thresholds: tuple[float, float]) -> dict[str, int]:
    """The loader that decodes the whole file and splits the text: the rule
    that ``load_lexicon``, which walks the lines one at a time, must keep
    for every input, errors included. The thresholds are taken as valid."""
    tau_anx, tau_calm = thresholds
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = raw.count(b"\n", 0, exc.start) + 1
        raise LexiconParseError(line_no, f"invalid UTF-8 at byte {exc.start}") from None
    if text.startswith("\ufeff"):
        raise LexiconParseError(1, "UTF-8 byte order mark at the start of the file")

    lexicon: dict[str, int] = {}
    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise LexiconParseError(
                line_no, f"expected 2 tab-separated fields, got {len(fields)}"
            )
        term, assoc_text = fields[0].strip(), fields[1].strip()
        if line_no == 1 and (term, assoc_text) == _HEADER:
            continue
        term = term.lower()
        if not term:
            raise LexiconParseError(line_no, "empty term")
        if len(term.split()) != 1:
            raise LexiconParseError(line_no, f"term contains whitespace: {term!r}")
        try:
            value = float(assoc_text)
        except ValueError:
            raise LexiconParseError(
                line_no, f"non-numeric association: {assoc_text!r}"
            ) from None
        if not (ASSOC_MIN <= value <= ASSOC_MAX):
            raise LexiconParseError(
                line_no,
                f"association {value} outside [{ASSOC_MIN}, {ASSOC_MAX}]",
            )
        if term in lexicon:
            raise DuplicateTermError(term, line_no)
        if value >= tau_anx:
            lexicon[term] = ANX
        elif value <= tau_calm:
            lexicon[term] = CALM
        else:
            lexicon[term] = 0

    if not lexicon:
        raise EmptyLexiconError("lexicon source contains no records")
    return lexicon


def random_post_text(rng: random.Random) -> str:
    pools = [ANX_WORDS, CALM_WORDS, NEUTRAL_WORDS, list(PRONOUNS), VERB_WORDS, FILLER_WORDS]
    n = rng.randint(0, 14)
    words = [rng.choice(rng.choice(pools)) for _ in range(n)]
    if rng.random() < 0.15:
        words.append("http://t.co/xyz")
    if rng.random() < 0.1:
        words.append("@someone")
    if rng.random() < 0.1:
        words.append("#mood")
    rng.shuffle(words)
    return " ".join(words)


def random_corpus_lines(rng: random.Random, n_posts: int, bad_tz_rate: float = 0.02) -> list[str]:
    """Well-formed JSONL lines with varied times, zones, and content."""
    lines = []
    start = datetime(2015, 1, 1, tzinfo=timezone.utc).timestamp()
    end = datetime(2021, 12, 31, tzinfo=timezone.utc).timestamp()
    for i in range(n_posts):
        stamp = datetime.fromtimestamp(
            start + rng.random() * (end - start), tz=timezone.utc
        ).strftime("%Y-%m-%dT%H:%M:%SZ")
        tz = "Mars/Colony" if rng.random() < bad_tz_rate else rng.choice(TIMEZONES)
        record = {
            "id": str(i),
            "text": random_post_text(rng),
            "timestamp_utc": stamp,
            "timezone": tz,
        }
        lines.append(json.dumps(record, ensure_ascii=False))
    return lines


def pronoun_keys(tokens: list[str]) -> set[str]:
    """Distinct pronoun keys appearing among the tokens; possibly empty.

    The reference rule for ``slicer.PRONOUN_KEYS_BY_BITS``: a post with
    several pronouns belongs to every matching pronoun bin.
    """
    return set(PRONOUNS).intersection(tokens)


def _zero() -> list[int]:
    return [0, 0, 0, 0]  # posts, tokens, anx, calm


def _bump(counter: list[int], n_tok: int, n_anx: int, n_calm: int) -> None:
    counter[0] += 1
    counter[1] += n_tok
    counter[2] += n_anx
    counter[3] += n_calm


def brute_force_recount(path: str, lexicon_tsv: str, tables: VerbTables) -> dict:
    """Independent single-threaded recount of every bin counter.

    ``lexicon_tsv`` is the text of a lexicon as ``read_assoc`` takes it. A
    token counts as anxiety at or above ``DEFAULT_TAU_ANX`` and as calm at
    or below ``DEFAULT_TAU_CALM``.
    """
    assoc = read_assoc(lexicon_tsv)
    counts = {
        "overall": _zero(),
        "pronoun_overall": _zero(),
        "hour": {h: _zero() for h in range(24)},
        "weekday": {d: _zero() for d in range(7)},
        "tense": {t: _zero() for t in ("past", "present", "future", "noverb")},
        "pronoun": {p: _zero() for p in PRONOUNS},
        "n_records": 0,
        "n_empty": 0,
        "n_tz": 0,
    }
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            if not raw.strip():
                continue
            counts["n_records"] += 1
            obj = json.loads(raw)
            toks = tokenize(obj["text"])
            if not toks:
                counts["n_empty"] += 1
                continue
            n_tok = len(toks)
            values = [assoc[t] for t in toks if t in assoc]
            n_anx = sum(1 for v in values if v >= DEFAULT_TAU_ANX)
            n_calm = sum(1 for v in values if v <= DEFAULT_TAU_CALM)
            _bump(counts["overall"], n_tok, n_anx, n_calm)

            try:
                zone = ZoneInfo(obj["timezone"])
            except Exception:
                counts["n_tz"] += 1
            else:
                stamp = datetime.fromisoformat(
                    obj["timestamp_utc"].replace("Z", "+00:00")
                ).astimezone(zone)
                _bump(counts["hour"][stamp.hour], n_tok, n_anx, n_calm)
                _bump(counts["weekday"][stamp.weekday()], n_tok, n_anx, n_calm)

            label = classify_tense(toks, tables).value
            _bump(counts["tense"][label], n_tok, n_anx, n_calm)

            present = set(toks) & set(PRONOUNS)
            if present:
                _bump(counts["pronoun_overall"], n_tok, n_anx, n_calm)
                for p in present:
                    _bump(counts["pronoun"][p], n_tok, n_anx, n_calm)
    return counts


def counters_of(agg) -> list[int]:
    return list(agg.summary()[:4])


def hist_pairs(agg) -> dict[tuple[int, int], int]:
    """A bin's histogram as ``{(n_anx - n_calm, n_tokens): count}``.

    A bin keys the pair ``(diff, n)`` by ``n * n + n + diff``, with
    ``|diff| <= n``, so ``n`` is the key's integer square root.
    """
    pairs = {}
    for key, count in agg.hist.items():
        n_tok = math.isqrt(key)
        pairs[key - n_tok * n_tok - n_tok, n_tok] = count
    return pairs


def result_state(res) -> dict:
    """Every field of a ScanResult as plain values; skip events by reason only."""

    def agg_state(agg) -> tuple:
        return (*counters_of(agg), hist_pairs(agg))

    state = {}
    for name, value in vars(res).items():
        if name == "skip_events":
            value = [event.reason for event in value]
        elif name == "bins":
            value = {family: {key: agg_state(agg) for key, agg in bins.items()}
                     for family, bins in value.items()}
        elif name != "counts":
            value = agg_state(value)
        state[name] = value
    return state


def assert_no_child_left() -> None:
    """Assert this process has no child process left, alive or a zombie."""
    try:
        child = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    raise AssertionError(f"a child process is left: (pid, status) {child}")
