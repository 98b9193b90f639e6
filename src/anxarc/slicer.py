"""Slice assignment: hour/weekday bins, rule-based tense labels, pronoun keys.

Tense detection is deliberately a deterministic, auditable heuristic: small
bundled tables of irregular/base verb forms plus suffix rules, no POS
tagger. Tables are user-replaceable via a directory of plain-text files
(``irregular_past.txt``, ``irregular_base.txt``, ``ed_stoplist.txt``).

Each per-word tense rule is written once: ``_is_past_word``,
``_is_present_word`` and membership in ``FUTURE_SIGNAL_WORDS``.
``classify_tense``, the reference rule, applies them itself to every token
of a post (only the ``next day/week/month/year`` bigram spans two tokens). A
scan does not call it per post: ``token_table`` applies them to each word
once and folds the result, the pronoun keys and the lexicon's class map
into one word -> bits dict, once per scan, and ``anxarc._kernel.score_text``
ORs the bits of a post's tokens in the same pass that tokenizes the post
and counts its lexicon classes.
``tense_of`` turns those flags into the label ``classify_tense`` gives, and
``PRONOUN_KEYS_BY_BITS`` into the post's pronoun keys: the distinct
``PRONOUNS`` among its tokens.

The table's keys are the class-map terms and every word that a set rule
names: irregular past and base forms, base+``s`` and base+``es``, the
auxiliaries, the future-signal words, ``next`` and the period words, the
pronouns and the ``-ed`` stoplist. Each value is what the per-token rules
give for that word alone. So for a word outside the table no set rule can
fire, and only the two suffix rules are left (4+ characters ending in
``ed`` is past, 5+ ending in ``ing`` is present), which the kernel applies
itself: a miss is exact.
"""

from __future__ import annotations

import enum
import os
from itertools import chain

from ._kernel import FUTURE, NEXT, PAST, PERIOD, PRESENT, PRONOUN_SHIFT, tokenize


class Tense(enum.Enum):
    PAST = "past"
    PRESENT = "present"
    FUTURE = "future"
    NO_VERB = "noverb"


# The fixed pronoun key set. "us" is deliberately absent: in lower-cased
# corpora it is indistinguishable from the country abbreviation.
PRONOUNS: tuple[str, ...] = ("i", "me", "you", "he", "him", "she", "her", "we", "they", "them")

AUX_PRESENT = frozenset({"is", "are", "am", "do", "does", "have", "has", "can", "may", "must"})
AUX_PAST = frozenset({"was", "were", "did", "had", "could", "might"})

# Future-signal surface forms; a post is future tense when one of these
# co-occurs with a present-tense verb.
FUTURE_SIGNAL_WORDS = frozenset({"will", "won't", "shall", "expect", "believe", "hope", "tomorrow"})
FUTURE_BIGRAM_FIRST = "next"
FUTURE_BIGRAM_SECOND = frozenset({"day", "week", "month", "year"})

# Tense rules are applied in this order; the first match wins.
TENSE_PRECEDENCE = "past>future>present"


class VerbTableError(ValueError):
    """A verb table file is missing, unreadable or empty, or holds a word no token can equal."""


class VerbTables:
    """The word lists of the tense rules; both irregular tables are non-empty."""

    def __init__(self, irregular_past: frozenset[str], irregular_base: frozenset[str],
                 ed_stoplist: frozenset[str]):
        if not irregular_past or not irregular_base:
            raise VerbTableError("irregular verb tables must be non-empty")
        self.irregular_past = irregular_past
        self.irregular_base = irregular_base
        self.ed_stoplist = ed_stoplist


def _read_wordlist(path: str, text: str) -> frozenset[str]:
    words = set()
    for line_no, line in enumerate(text.splitlines(), 1):
        word = line.strip().lower()
        if word and not word.startswith("#"):
            # The tokenizer is the rule: a word that no token can equal never matches.
            if not word.isalnum() and (tokens := tokenize(word)) != [word]:
                raise VerbTableError(f"verb table {path} line {line_no}: "
                                     f"word {word!r} is read as the tokens {tokens}")
            words.add(word)
    return frozenset(words)


_TABLE_FILES = ("irregular_past.txt", "irregular_base.txt", "ed_stoplist.txt")


def load_verb_tables(directory: str | os.PathLike[str] | None = None) -> VerbTables:
    """Load verb tables from a directory, or the bundled defaults."""
    if directory is None:
        directory = os.path.join(os.path.dirname(__file__), "data")
    lists = []
    for name in _TABLE_FILES:
        path = os.path.join(directory, name)
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise VerbTableError(f"cannot read verb table {path}: {exc}") from None
        if text.startswith("\ufeff"):
            raise VerbTableError(f"verb table {path} starts with a UTF-8 byte order mark")
        lists.append(_read_wordlist(path, text))
    return VerbTables(*lists)


def _is_past_word(word: str, tables: VerbTables) -> bool:
    """True iff the word looks like a past-tense verb form."""
    return (word in tables.irregular_past or word in AUX_PAST
            or len(word) >= 4 and word.endswith("ed") and word not in tables.ed_stoplist)


def _is_present_word(word: str, tables: VerbTables) -> bool:
    """True iff the word looks like a present-tense verb form."""
    base = tables.irregular_base
    return (word in AUX_PRESENT or word in base or len(word) >= 5 and word.endswith("ing")
            or word.endswith("s") and (word[:-1] in base
                                       or word.endswith("es") and word[:-2] in base))


def classify_tense(tokens: list[str], tables: VerbTables) -> Tense:
    """Assign exactly one tense label; precedence past > future > present.

    Past if a token is a past form, else no verb unless a token is a
    present form. A present post is future when a future-signal word or a
    ``next day/week/month/year`` bigram of adjacent tokens occurs in it.
    """
    if any(_is_past_word(tok, tables) for tok in tokens):
        return Tense.PAST
    if not any(_is_present_word(tok, tables) for tok in tokens):
        return Tense.NO_VERB
    if any(tok in FUTURE_SIGNAL_WORDS or prev == FUTURE_BIGRAM_FIRST and tok in FUTURE_BIGRAM_SECOND
           for prev, tok in zip([None, *tokens], tokens)):
        return Tense.FUTURE
    return Tense.PRESENT


def token_table(class_map: dict[str, int], tables: VerbTables | None) -> dict[str, int]:
    """Word -> class code | rule bits | pronoun bits, for ``_kernel.score_text``.

    With ``tables`` None (no tense slice) only the class and pronoun bits
    are filled in; the suffix bits ``score_text`` gives a miss are then
    never read.
    """
    table = dict(class_map)
    for i, pron in enumerate(PRONOUNS):
        table[pron] = table.get(pron, 0) | 1 << (PRONOUN_SHIFT + i)
    if tables is None:
        return table
    # The keys are copied first, since the loop adds to the table. A word in
    # two lists gets the same bits twice, which OR leaves as they are.
    base = tables.irregular_base
    for word in chain(list(table), tables.irregular_past, base, (w + "s" for w in base),
                      (w + "es" for w in base), tables.ed_stoplist, AUX_PAST, AUX_PRESENT,
                      FUTURE_SIGNAL_WORDS, FUTURE_BIGRAM_SECOND, (FUTURE_BIGRAM_FIRST,)):
        table[word] = (table.get(word, 0)
                       | PAST * _is_past_word(word, tables)
                       | PRESENT * _is_present_word(word, tables)
                       | FUTURE * (word in FUTURE_SIGNAL_WORDS)
                       | NEXT * (word == FUTURE_BIGRAM_FIRST)
                       | PERIOD * (word in FUTURE_BIGRAM_SECOND))
    return table


def tense_of(flags: int) -> Tense:
    """The ``classify_tense`` label of a post from its ``score_text`` flags."""
    if flags & PAST:
        return Tense.PAST
    if flags & PRESENT:
        return Tense.FUTURE if flags & FUTURE else Tense.PRESENT
    return Tense.NO_VERB


# Pronoun keys of a post, indexed by ``flags >> PRONOUN_SHIFT``.
# Each pronoun doubles the list: the keys without it, then the same keys with it.
_keys: list[tuple[str, ...]] = [()]
for _pron in PRONOUNS:
    _keys += [k + (_pron,) for k in _keys]
PRONOUN_KEYS_BY_BITS: tuple[tuple[str, ...], ...] = tuple(_keys)
del _keys, _pron
