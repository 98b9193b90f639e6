"""Seeded inputs for the scan benchmark, and an independent recount of them.

Everything here is a pure function of the seed: the same seed gives
byte-identical lexicon and corpus files. The generators record exactly what
they planted (records, and each kind of skip), so the reports can be checked
against the planted counts; ``recount`` re-derives every bin counter with
plain json/zoneinfo code and its own tokenizer, independent of the scan.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from datetime import datetime, timedelta, timezone
from pathlib import Path
from zoneinfo import ZoneInfo

# NRC-scale lexicon: about 14k terms, a tenth anxiety and a tenth calm.
LEXICON_TERMS = 14_000
_ANX_SHARE = 0.10
_CALM_SHARE = 0.10

# Planted 24-hour arc (the README's example arc) for the synth corpus.
ARC_P_ANX = (0.05, 0.07, 0.09, 0.12, 0.15, 0.18, 0.21, 0.24, 0.25, 0.24, 0.21, 0.18,
             0.15, 0.12, 0.09, 0.07, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05)
ARC_P_CALM = 0.15
ARC_TOKENS_PER_POST = (10, 30)

# DST-observing and fractional-offset zones; the first seven are the test
# suite's zone list.
ZONES = (
    "UTC", "America/New_York", "America/Los_Angeles", "America/Toronto",
    "Europe/London", "Asia/Tokyo", "Australia/Sydney",
    "Europe/Berlin", "America/Sao_Paulo", "Asia/Kolkata", "Australia/Adelaide",
    "America/St_Johns", "Pacific/Auckland", "Asia/Kathmandu", "America/Santiago",
)
BAD_ZONES = ("Mars/Colony", "Atlantis/Lost_City", "Nowhere/Special")

PRONOUN_FORMS = ("i", "I", "me", "you", "You", "he", "him", "she", "her", "we", "We",
                 "they", "them", "us", "my", "our")
VERB_FORMS = ("went", "walked", "is", "are", "was", "were", "runs", "hope", "will",
              "going", "believe", "said", "working", "need", "worried", "feels",
              "thinking", "did", "had", "expect", "shall", "could", "finished")
FILLERS = ("day", "thing", "coffee", "city", "photo", "music", "sky", "next",
           "week", "tomorrow", "tonight", "ok", "lol", "café", "naïve")
CONTRACTIONS = ("won't", "it's", "can't", "I'm", "didn't", "we're", "they'll")

# Kinds of skip planted in the mixed corpus, with their share of records.
PARSE_SKIP_KINDS = {
    "bad_json": 0.004,
    "not_object": 0.001,
    "missing_key": 0.003,
    "bad_field": 0.002,
    "bad_timestamp": 0.004,
}
EMPTY_SHARE = 0.006
BAD_ZONE_SHARE = 0.008
BLANK_LINE_SHARE = 0.001

_EPOCH_LO = datetime(2015, 1, 1, tzinfo=timezone.utc).timestamp()
_EPOCH_HI = datetime(2022, 1, 1, tzinfo=timezone.utc).timestamp()


def sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# ---------------------------------------------------------------- lexicon

def _pseudo_words(rng: random.Random, n: int, taken: set[str]) -> list[str]:
    onsets = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z",
              "br", "dr", "gl", "kr", "pl", "st", "tr", "sh", "ch", "th")
    vowels = ("a", "e", "i", "o", "u", "ai", "ou", "ea")
    codas = ("", "", "n", "r", "s", "t", "m", "ck")
    words: list[str] = []
    while len(words) < n:
        k = 2 + int(rng.random() * 3)
        word = "".join(onsets[int(rng.random() * len(onsets))] + vowels[int(rng.random() * len(vowels))]
                       for _ in range(k)) + codas[int(rng.random() * len(codas))]
        if word not in taken:
            taken.add(word)
            words.append(word)
    return words


def write_lexicon(path: Path, seed: int) -> dict[str, list[str]]:
    """Write an NRC-scale TSV lexicon; returns its terms by class."""
    rng = random.Random(f"lexicon-{seed}")
    real = {w.lower() for w in PRONOUN_FORMS + VERB_FORMS + FILLERS}
    taken = set(real)
    words = _pseudo_words(rng, LEXICON_TERMS - len(real), taken)
    n_anx = int(LEXICON_TERMS * _ANX_SHARE)
    n_calm = int(LEXICON_TERMS * _CALM_SHARE)
    classes = {"anxiety": words[:n_anx], "calm": words[n_anx:n_anx + n_calm],
               "neutral": words[n_anx + n_calm:] + sorted(real)}
    rows = ["term\tassociation"]
    for word in classes["anxiety"]:
        rows.append(f"{word}\t{1.0 + 2.0 * rng.random():.3f}")
    for word in classes["calm"]:
        rows.append(f"{word}\t{-1.0 - 2.0 * rng.random():.3f}")
    for word in classes["neutral"]:
        rows.append(f"{word}\t{-0.99 + 1.98 * rng.random():.3f}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return classes


# ---------------------------------------------------------------- corpora

def write_synth(path: Path, lexicon_path: Path, seed: int, posts_per_bin: int) -> dict:
    """The planted-arc hour corpus, written by the package's own generator."""
    from anxarc.lexicon import load_lexicon
    from anxarc.synth import ArcSpec, generate_file

    spec = ArcSpec(
        bins=tuple(range(24)),
        p_anx=ARC_P_ANX,
        p_calm=(ARC_P_CALM,) * 24,
        posts_per_bin=posts_per_bin,
        tokens_per_post=ARC_TOKENS_PER_POST,
        seed=seed,
    )
    n = generate_file(spec, load_lexicon(str(lexicon_path)), str(path))
    return {
        "planted": {"n_records": n, "n_parse_skips": 0, "n_empty_skips": 0, "n_tz_skips": 0},
        "skip_kinds": {},
        "arc": spec.planted_scores,
        "posts_per_bin": posts_per_bin,
    }


_DECORATIONS = (
    "#{}", "@{}", "http://t.co/{}", "https://example.com/{}", "www.{}.org", "{}!", "{}...",
    "({})", '"{}"', "{}\U0001F61F", "--", "...", "\U0001F61F", "{},", "{}'s", "Re:{}",
)


class _MixedText:
    """Realistic post text: lexicon words mixed with mentions, URLs, hashtags,
    edge punctuation, contractions, pronouns and verb forms."""

    def __init__(self, rng: random.Random, classes: dict[str, list[str]]):
        self.rng = rng
        self.anx = classes["anxiety"]
        self.calm = classes["calm"]
        self.neutral = classes["neutral"]

    def _pick(self, pool):
        return pool[int(self.rng.random() * len(pool))]

    def _word(self) -> str:
        r = self.rng.random()
        if r < 0.18:
            return self._pick(self.anx)
        if r < 0.33:
            return self._pick(self.calm)
        return self._pick(self.neutral)

    def _piece(self) -> str:
        r = self.rng.random()
        if r < 0.55:
            return self._word()
        if r < 0.65:
            return self._pick(PRONOUN_FORMS)
        if r < 0.76:
            return self._pick(VERB_FORMS)
        if r < 0.82:
            return self._pick(FILLERS)
        if r < 0.85:
            return self._pick(CONTRACTIONS)
        word = self._word()
        if r < 0.88:
            return word.capitalize() if r < 0.87 else word.upper()
        return _DECORATIONS[int(self.rng.random() * len(_DECORATIONS))].format(word)

    def post(self) -> str:
        # A plain lexicon word comes first, so every post has a token.
        pieces = [self._word()] + [self._piece() for _ in range(int(self.rng.random() * 26))]
        sep = "  " if self.rng.random() < 0.05 else " "
        return sep.join(pieces)

    def empty(self) -> str:
        return self._pick(("", "   ", "@someone http://t.co/xyz", "...", "# !!", "www.x.org --",
                           "\U0001F61F\U0001F61F"))


def _stamp(rng: random.Random) -> str:
    dt = datetime.fromtimestamp(_EPOCH_LO + rng.random() * (_EPOCH_HI - _EPOCH_LO), tz=timezone.utc)
    r = rng.random()
    if r < 0.6:
        return dt.strftime("%Y-%m-%dT%H:%M:%SZ")
    if r < 0.75:
        return dt.replace(microsecond=int(rng.random() * 1e6)).isoformat().replace("+00:00", "Z")
    if r < 0.85:
        return dt.isoformat()
    offset = timezone(timedelta(minutes=30 * (int(rng.random() * 49) - 24)))
    return dt.astimezone(offset).isoformat()


def _bad_stamp(rng: random.Random):
    return ("2021-02-30T10:00:00Z", "yesterday", "2021-06-15 10:00:00", "", "2021-13-01T00:00:00Z",
            1623760000)[int(rng.random() * 6)]


def mixed_lines(seed: int, n_records: int, classes: dict[str, list[str]]) -> tuple[list[str], dict]:
    """JSONL lines of the mixed corpus plus the exact count of each planted kind."""
    rng = random.Random(f"mixed-{seed}")
    text = _MixedText(rng, classes)
    for zone in ZONES:
        ZoneInfo(zone)  # a missing zone would silently turn into tz skips
    cuts = []
    acc = 0.0
    for kind, share in list(PARSE_SKIP_KINDS.items()) + [("empty", EMPTY_SHARE), ("bad_zone", BAD_ZONE_SHARE)]:
        acc += share
        cuts.append((acc, kind))
    kinds = {kind: 0 for _, kind in cuts}
    lines: list[str] = []
    for i in range(n_records):
        if rng.random() < BLANK_LINE_SHARE:
            lines.append("")
        r = rng.random()
        kind = next((k for cut, k in cuts if r < cut), "ok")
        rec = {"id": i if rng.random() < 0.1 else f"p{i}", "text": text.post(), "timestamp_utc": _stamp(rng),
               "timezone": ZONES[int(rng.random() * len(ZONES))]}
        if kind == "missing_key":
            del rec[("id", "text", "timestamp_utc", "timezone")[int(rng.random() * 4)]]
        elif kind == "bad_field":
            field, value = (("id", ""), ("text", 17), ("timezone", "  "), ("id", None))[int(rng.random() * 4)]
            rec[field] = value
        elif kind == "bad_timestamp":
            rec["timestamp_utc"] = _bad_stamp(rng)
        elif kind == "empty":
            rec["text"] = text.empty()
        elif kind == "bad_zone":
            rec["timezone"] = BAD_ZONES[int(rng.random() * len(BAD_ZONES))]
        line = json.dumps(rec, ensure_ascii=False)
        if kind == "bad_json":
            line = (line[: len(line) // 2], "{'id': 1}", '{"id": "x", "text": }')[int(rng.random() * 3)]
        elif kind == "not_object":
            line = ("[1, 2, 3]", '"just text"', "42", "null")[int(rng.random() * 4)]
        if kind != "ok":
            kinds[kind] += 1
        lines.append(line)
    planted = {
        "n_records": n_records,
        "n_parse_skips": sum(kinds[k] for k in PARSE_SKIP_KINDS),
        "n_empty_skips": kinds["empty"],
        "n_tz_skips": kinds["bad_zone"],
    }
    return lines, {"planted": planted, "skip_kinds": kinds}


def write_lines(path: Path, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def split_lines(lines: list[str], parts: int) -> list[list[str]]:
    """Contiguous, order-preserving split into ``parts`` near-equal pieces."""
    size = -(-len(lines) // parts)
    return [lines[i:i + size] for i in range(0, len(lines), size)]


# ---------------------------------------------------------------- host speed

def calibration_lines(n: int = 3_000) -> list[str]:
    """Mixed-corpus lines that are the same for every seed."""
    words = _pseudo_words(random.Random("calibration"), 3_000, set())
    return mixed_lines(0, n, {"anxiety": words[:300], "calm": words[300:600],
                              "neutral": words[600:]})[0]


def calibration_work(lines: list[str]) -> int:
    """Fixed pure-Python work, none of it anxarc code: parse and tokenize each line."""
    tokens = 0
    for line in lines:
        parsed = _parse(line)
        if parsed is not None:
            tokens += len(_tokenize(parsed[0]))
    return tokens


# ---------------------------------------------------------------- recount

# Strips non-alphanumeric characters from both ends: ``[^\W_]`` is exactly
# what ``str.isalnum`` accepts.
_EDGES = re.compile(r"[\W_]*(.*?)[\W_]*", re.S)
_URL_PREFIXES = ("http://", "https://", "www.")


def _tokenize(text: str) -> list[str]:
    # The documented tokenizer rules, written out independently of the kernel.
    out = []
    for chunk in text.lower().split():
        if chunk.isalnum():  # cannot hold "@", "." or ":", so nothing to drop or strip
            out.append(chunk)
            continue
        if chunk.startswith(_URL_PREFIXES + ("@",)):
            continue
        core = _EDGES.fullmatch(chunk).group(1)
        if core and not core.startswith(_URL_PREFIXES):
            out.append(core)
    return out


def _class_of(lexicon_path: Path) -> dict[str, str]:
    # The CLI runs with the default thresholds, +1.0 and -1.0.
    classes = {}
    with open(lexicon_path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            term, assoc = line.rstrip("\n").split("\t")
            value = float(assoc)
            if value >= 1.0:
                classes[term] = "anx"
            elif value <= -1.0:
                classes[term] = "calm"
    return classes


def _parse(line: str):
    try:
        obj = json.loads(line)
    except ValueError:
        return None
    if not isinstance(obj, dict) or not {"id", "text", "timestamp_utc", "timezone"} <= obj.keys():
        return None
    rid, text, stamp, zone = obj["id"], obj["text"], obj["timestamp_utc"], obj["timezone"]
    if isinstance(rid, int):
        rid = str(rid)
    if not (isinstance(rid, str) and rid and isinstance(text, str) and isinstance(zone, str)
            and zone.strip() and isinstance(stamp, str)):
        return None
    stamp = stamp.strip()
    if stamp[-1:] in ("Z", "z"):
        stamp = stamp[:-1] + "+00:00"
    try:
        when = datetime.fromisoformat(stamp)
    except ValueError:
        return None
    if when.tzinfo is None:
        return None
    return text, when, zone.strip()


def recount(paths: list[Path], lexicon_path: Path, families: tuple[str, ...]) -> dict:
    """Every bin's [posts, tokens, anx, calm] plus the skip counts, recounted."""
    from anxarc.slicer import PRONOUNS, classify_tense, load_verb_tables

    tables = load_verb_tables()
    classes = _class_of(lexicon_path)
    pronouns = set(PRONOUNS)
    bins: dict[tuple[str, str], list[int]] = {}
    skips = {"n_records": 0, "n_parse_skips": 0, "n_empty_skips": 0, "n_tz_skips": 0}
    zones: dict[str, ZoneInfo | None] = {}

    def bump(family: str, key, n_tok: int, n_anx: int, n_calm: int) -> None:
        counter = bins.setdefault((family, str(key)), [0, 0, 0, 0])
        counter[0] += 1
        counter[1] += n_tok
        counter[2] += n_anx
        counter[3] += n_calm

    for path in paths:
        with open(path, encoding="utf-8") as fh:
            for raw in fh:
                if not raw.strip():
                    continue
                skips["n_records"] += 1
                parsed = _parse(raw.rstrip("\n").rstrip("\r"))
                if parsed is None:
                    skips["n_parse_skips"] += 1
                    continue
                text, when, zone = parsed
                toks = _tokenize(text)
                if not toks:
                    skips["n_empty_skips"] += 1
                    continue
                labels = [classes.get(t) for t in toks]
                n = (len(toks), labels.count("anx"), labels.count("calm"))
                bump("overall", "all", *n)
                if "hour" in families or "weekday" in families:
                    if zone not in zones:
                        try:
                            zones[zone] = ZoneInfo(zone)
                        except (KeyError, ValueError):
                            zones[zone] = None
                    if zones[zone] is None:
                        skips["n_tz_skips"] += 1
                    else:
                        local = when.astimezone(zones[zone])
                        if "hour" in families:
                            bump("hour", local.hour, *n)
                        if "weekday" in families:
                            bump("weekday", local.weekday(), *n)
                if "tense" in families:
                    bump("tense", classify_tense(toks, tables).value, *n)
                if "pronoun" in families:
                    found = pronouns.intersection(toks)
                    if found:
                        bump("overall", "all_pronoun", *n)
                    for key in found:
                        bump("pronoun", key, *n)
    return {"skips": skips, "bins": bins}
