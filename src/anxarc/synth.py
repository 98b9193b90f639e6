"""Synthetic corpora with planted anxiety arcs, and arc-recovery evaluation.

The generator plants a known per-bin probability of anxiety/calm tokens and
the evaluator measures how faithfully the full pipeline (tokenize -> score
-> bin) recovers the resulting arc. Token draws are i.i.d.; no verb or
pronoun structure is synthesized (tense/pronoun behavior is validated by
hand-built fixtures in the test suite instead).

Randomness comes from Python's Mersenne Twister (``random.Random``), whose
``random()`` stream is documented and guaranteed stable for a given seed;
all draws are derived from ``random()`` only, so identical (spec, lexicon)
inputs produce byte-identical corpora anywhere. Each bin uses its own
generator seeded from (seed, bin index), which keeps per-bin output
independent of generation order. A post's words are drawn from the sorted
pools that ``lexicon.class_terms`` splits a loaded lexicon (term -> class
code) into, and its record is one fixed frame around the JSON-escaped
text: the bytes of ``json.dumps`` of the four-key record
(``ensure_ascii=False``), since the id, the stamp and ``UTC`` are ASCII
with nothing to escape.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import IO

from .lexicon import class_terms
from .pipeline import FAMILY_KEYS, scan_corpus
from .stats import pearson, spearman

AXES = ("hour", "weekday")

# Fixed anchor dates (UTC) used for planted timestamps: an ordinary
# mid-June week; 2021-06-14 is a Monday.
_HOUR_AXIS_DATE = "2021-06-15"
_WEEKDAY_AXIS_MONDAY = 14

# The most tokens a spec may plant: len(bins) * posts_per_bin *
# tokens_per_post[1]. A larger spec would write a corpus of many gigabytes.
MAX_PLANTED_TOKENS = 10**9


class ArcSpecError(ValueError):
    """Invalid arc specification."""


class EmptyBinError(ValueError):
    """A corpus bin required by the evaluation contains no posts."""

    def __init__(self, axis: str, bin_id: int):
        super().__init__(f"{axis} bin {bin_id} contains no posts")
        self.axis = axis
        self.bin_id = bin_id


@dataclass(frozen=True)
class ArcSpec:
    """A planted arc: per-bin affect-token probabilities plus sizing."""

    bins: tuple[int, ...]
    p_anx: tuple[float, ...]
    p_calm: tuple[float, ...]
    posts_per_bin: int
    tokens_per_post: tuple[int, int]
    seed: int
    axis: str = "hour"

    def __post_init__(self):
        if self.axis not in AXES:
            raise ArcSpecError(f"axis must be one of {AXES}, got {self.axis!r}")
        limit = len(FAMILY_KEYS[self.axis])
        if not self.bins:
            raise ArcSpecError("bins must be non-empty")
        if len(set(self.bins)) != len(self.bins):
            raise ArcSpecError("bins must be distinct")
        for b in self.bins:
            if not 0 <= b < limit:
                raise ArcSpecError(f"bin {b} outside [0, {limit})")
        if not (len(self.bins) == len(self.p_anx) == len(self.p_calm)):
            raise ArcSpecError("bins, p_anx, and p_calm must have equal lengths")
        for pa, pc in zip(self.p_anx, self.p_calm):
            # Written so that NaN, for which every comparison is false, fails.
            if not (0 <= pa and 0 <= pc and pa + pc <= 1):
                raise ArcSpecError(
                    f"need p_anx, p_calm >= 0 and p_anx + p_calm <= 1, got ({pa}, {pc})"
                )
        if self.posts_per_bin < 1:
            raise ArcSpecError("posts_per_bin must be >= 1")
        lo, hi = self.tokens_per_post
        if lo < 1 or hi < lo:
            raise ArcSpecError(f"tokens_per_post must satisfy 1 <= min <= max, got ({lo}, {hi})")
        planted = len(self.bins) * self.posts_per_bin * hi
        if planted > MAX_PLANTED_TOKENS:
            raise ArcSpecError(
                f"spec plants up to {planted} tokens (bins x posts_per_bin x "
                f"tokens_per_post max), more than the {MAX_PLANTED_TOKENS} allowed"
            )

    @property
    def planted_scores(self) -> list[float]:
        """Expected per-bin score: 100 * (p_anx - p_calm)."""
        return [100.0 * (pa - pc) for pa, pc in zip(self.p_anx, self.p_calm)]

    @classmethod
    def from_dict(cls, obj: dict) -> ArcSpec:
        try:
            bins = tuple(_int("bins", b) for b in obj["bins"])
            lo, hi = obj["tokens_per_post"]
            return cls(
                bins=bins,
                p_anx=_per_bin("p_anx", obj["p_anx"], len(bins)),
                p_calm=_per_bin("p_calm", obj["p_calm"], len(bins)),
                posts_per_bin=_int("posts_per_bin", obj["posts_per_bin"]),
                tokens_per_post=(_int("tokens_per_post", lo), _int("tokens_per_post", hi)),
                seed=_int("seed", obj["seed"]),
                axis=str(obj.get("axis", "hour")),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            if isinstance(exc, ArcSpecError):
                raise
            raise ArcSpecError(f"bad arc spec: {exc}") from None

    @classmethod
    def from_json(cls, path: str) -> ArcSpec:
        try:
            with open(path, encoding="utf-8") as fh:
                obj = json.load(fh)
        except (ValueError, RecursionError) as exc:  # not UTF-8, or not JSON
            raise ArcSpecError(f"cannot parse arc spec: {exc}") from None
        if not isinstance(obj, dict):
            raise ArcSpecError("arc spec must be a JSON object")
        return cls.from_dict(obj)


def _int(name: str, value) -> int:
    # A JSON integer, not a bool: int() would truncate 2.7 and read "7".
    if type(value) is not int:
        raise ArcSpecError(f"{name} must be an integer, got {value!r}")
    return value


def _per_bin(name: str, value, n_bins: int) -> tuple[float, ...]:
    # A scalar probability broadcasts to every bin. Each is a JSON number,
    # not a bool or a string: float() would read true and "0".
    values = value if type(value) is list else [value] * n_bins
    if any(type(v) not in (int, float) for v in values):
        raise ArcSpecError(f"{name} must be a number or a list of numbers, got {value!r}")
    if len(values) != n_bins:
        raise ArcSpecError(f"expected {n_bins} per-bin values, got {len(values)}")
    return tuple(map(float, values))


@dataclass(frozen=True)
class ArcReport:
    axis: str
    bins: tuple[int, ...]
    planted: tuple[float, ...]
    recovered: tuple[float, ...]
    pearson_r: float
    spearman_r: float


def _class_terms(lexicon: dict[str, int]) -> tuple[list[str], list[str], list[str]]:
    """``class_terms``, with a term of each class required."""
    pools = class_terms(lexicon)
    missing = [name for name, pool in zip(("anxiety", "calm", "neutral"), pools) if not pool]
    if missing:
        raise ArcSpecError(
            f"lexicon must contain at least one term of each class; missing: {missing}"
        )
    return pools


def generate(spec: ArcSpec, lexicon: dict[str, int], sink: IO[str]) -> int:
    """Write a planted-arc corpus as JSONL; returns the number of posts.

    Deterministic: identical (spec, lexicon) inputs yield byte-identical
    output. Posts carry UTC timestamps placed inside their bin.
    """
    anx, calm, neutral = _class_terms(lexicon)
    lo, hi = spec.tokens_per_post
    span = hi - lo + 1

    for idx, bin_id in enumerate(spec.bins):
        rng = random.Random(spec.seed * 1_000_003 + idx)
        p_anx = spec.p_anx[idx]
        p_cut = p_anx + spec.p_calm[idx]
        # The bin's stamps up to the minute: that hour of one day, or noon of that weekday.
        day_hour = (f"{_HOUR_AXIS_DATE}T{bin_id:02d}" if spec.axis == "hour"
                    else f"2021-06-{_WEEKDAY_AXIS_MONDAY + bin_id:02d}T12")
        for i in range(spec.posts_per_bin):
            minute, second = int(rng.random() * 60), int(rng.random() * 60)
            words = []
            for _ in range(lo + int(rng.random() * span)):
                r = rng.random()
                pool = anx if r < p_anx else calm if r < p_cut else neutral
                words.append(pool[int(rng.random() * len(pool))])
            text = json.dumps(" ".join(words), ensure_ascii=False)
            sink.write(f'{{"id": "{spec.axis}{bin_id:02d}-{i}", "text": {text}, "timestamp_utc": '
                       f'"{day_hour}:{minute:02d}:{second:02d}Z", "timezone": "UTC"}}\n')
    return len(spec.bins) * spec.posts_per_bin


def generate_file(spec: ArcSpec, lexicon: dict[str, int], path: str) -> int:
    _class_terms(lexicon)  # checked before the open, which empties an existing file
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        return generate(spec, lexicon, fh)


def evaluate_arc(corpus_path: str, class_map: dict[str, int], spec: ArcSpec,
                 workers: int = 1) -> ArcReport:
    """Run the full pipeline over a corpus and compare recovered vs planted arc."""
    result = scan_corpus(corpus_path, class_map=class_map, families=(spec.axis,), workers=workers)
    bins = result.bins[spec.axis]
    recovered = [bins[bin_id].summary().micro_score for bin_id in spec.bins]
    if None in recovered:  # the score of a bin without posts
        raise EmptyBinError(spec.axis, spec.bins[recovered.index(None)])
    planted = spec.planted_scores
    return ArcReport(
        axis=spec.axis,
        bins=tuple(spec.bins),
        planted=tuple(planted),
        recovered=tuple(recovered),
        pearson_r=pearson(planted, recovered),
        spearman_r=spearman(planted, recovered),
    )
