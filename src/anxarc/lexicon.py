"""Word-anxiety association lexicon: loading and validation.

The lexicon file format is two-column TSV, ``term<TAB>association``, one
record per line (lines end at ``\n``, as in a corpus), UTF-8, with an
optional literal ``term<TAB>association`` header. Associations are real
values in [-3.0, +3.0]; positive means anxiety-associated, negative means
calmness-associated. Terms are single words and are lower-cased at load.
A loaded lexicon is one dict that maps every term to its class code:
``ANX``, ``CALM`` or 0 for a neutral term, the codes of the text kernel's
token table; no association value is kept. The loader reads and decodes
one line at a time and never holds the whole file. ``class_terms`` splits
a loaded lexicon into its sorted anxiety, calm and neutral terms:
``lexicon-stats`` counts them and ``synth`` draws from them.
"""

from __future__ import annotations

from typing import IO

from ._kernel import ANX, CALM

ASSOC_MIN = -3.0
ASSOC_MAX = 3.0

DEFAULT_TAU_ANX = 1.0
DEFAULT_TAU_CALM = -1.0

_HEADER = ("term", "association")


class LexiconError(ValueError):
    """Base class for lexicon load/validation failures."""


class LexiconParseError(LexiconError):
    """A malformed record; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class DuplicateTermError(LexiconError):
    """The same term appeared twice; carries the offending term."""

    def __init__(self, term: str, line_no: int):
        super().__init__(f"line {line_no}: duplicate term {term!r}")
        self.term = term
        self.line_no = line_no


class EmptyLexiconError(LexiconError):
    """The source contained no records."""


def class_terms(lexicon: dict[str, int]) -> tuple[list[str], list[str], list[str]]:
    """The sorted anxiety, calm and neutral terms; each term is in exactly one."""
    pools: dict[int, list[str]] = {ANX: [], CALM: [], 0: []}
    for term, code in lexicon.items():
        pools[code].append(term)
    return sorted(pools[ANX]), sorted(pools[CALM]), sorted(pools[0])


def load_lexicon(
    source: str | IO[bytes],
    thresholds: tuple[float, float] = (DEFAULT_TAU_ANX, DEFAULT_TAU_CALM),
) -> dict[str, int]:
    """Load a TSV lexicon from a path or an open binary stream; a stream is
    read once from its current position and never sought.

    Returns term -> class code: ``ANX`` at or above ``tau_anx``, ``CALM``
    at or below ``tau_calm``, 0 (neutral) between them. Raises
    LexiconParseError, DuplicateTermError, or EmptyLexiconError on
    malformed input.
    """
    tau_anx, tau_calm = thresholds
    if not (tau_calm < 0.0 < tau_anx):
        raise LexiconError(
            f"thresholds must satisfy tau_calm < 0 < tau_anx, got {thresholds}"
        )
    if isinstance(source, str):
        with open(source, "rb") as fh:
            return load_lexicon(fh, thresholds)

    lexicon: dict[str, int] = {}
    lines = enumerate(source, start=1)
    offset = 0  # bytes of the file before the line being decoded
    try:
        try:
            # A line's "\n" (and a CRLF's "\r") goes with the whitespace stripped from its fields.
            for line_no, raw in lines:
                line = raw.decode()
                offset += len(raw)
                if line_no == 1 and line.startswith("\ufeff"):
                    raise LexiconParseError(1, "UTF-8 byte order mark at the start of the file")
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
                lexicon[term] = ANX if value >= tau_anx else CALM if value <= tau_calm else 0
        except LexiconError:
            # A bad byte anywhere is reported ahead of a malformed record:
            # decode the rest of the file to find one.
            for line_no, raw in lines:
                raw.decode()
                offset += len(raw)
            raise
    except UnicodeDecodeError as exc:
        raise LexiconParseError(line_no, f"invalid UTF-8 at byte {offset + exc.start}") from None

    if not lexicon:
        raise EmptyLexiconError("lexicon source contains no records")
    return lexicon
