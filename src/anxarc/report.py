"""Report tables: CSV and JSON emission with frozen schemas.

Column orders, metadata keys, and float formatting are part of the stable
output contract documented in docs/format.md; golden-file tests pin the
exact bytes. Every table carries self-describing metadata (tool version,
scoring variant, thresholds, skip counts) so no emitted number is
unlabeled.

One rule writes every CSV cell (``cell``): a missing value is empty, a
boolean ``true``/``false``, a float ``%.6e`` in a column named ``p`` and
``%.6f`` in any other (so a non-finite float is ``inf``, ``-inf`` or
``nan``), and any other value its ``str``. A CSV meta value is its ``str``
kept to one line (``_META_ESCAPES``). JSON keeps values as they are,
but a non-finite float is the string its CSV cell holds. In either format
a lone surrogate is written as its escape (``\\udcff``).
"""

from __future__ import annotations

import json
import math
import os
from typing import NamedTuple

from . import __version__
from .slicer import TENSE_PRECEDENCE


def cell(column: str, value: object) -> str:
    """The CSV text of ``value`` in ``column``."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6e}" if column == "p" else f"{value:.6f}"
    return str(value)


# A CSV meta value stays on its line: each backslash is doubled and each
# line boundary of ``str.splitlines`` is written as its Python escape.
_META_ESCAPES = str.maketrans(
    {c: repr(c)[1:-1] for c in "\\\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"})


def _json_value(key: str, value: object) -> object:
    """A non-finite float as the string the CSV writes for it; JSON has no such number."""
    if isinstance(value, float) and not math.isfinite(value):
        return cell(key, value)
    return value


class Table(NamedTuple):
    name: str
    meta: dict[str, object]
    columns: list[str]
    rows: list[list[object]]

    def to_csv(self) -> str:
        lines = [f"# {key}=" + format(value).translate(_META_ESCAPES)
                 for key, value in self.meta.items()]
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(map(cell, self.columns, row)))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "meta": {key: _json_value(key, value) for key, value in self.meta.items()},
            "columns": self.columns,
            "rows": [
                {col: _json_value(col, v) for col, v in zip(self.columns, row)} for row in self.rows
            ],
        }
        return json.dumps(payload, ensure_ascii=False, indent=2, allow_nan=False) + "\n"

    def write(self, directory: str, fmt: str) -> str:
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{self.name}.{fmt}")
        # A meta value such as a path from an undecodable file name holds a
        # lone surrogate; it is written as its escape, ``\udcff``.
        with open(path, "w", encoding="utf-8", errors="backslashreplace", newline="\n") as fh:
            fh.write(self.to_json() if fmt == "json" else self.to_csv())
        return path


def base_meta(**extra: object) -> dict[str, object]:
    """Shared metadata header; insertion order is part of the format.

    Every report is self-describing: tool version, both scoring variants,
    and the tense-precedence rule appear even where a given table does not
    use them.
    """
    meta: dict[str, object] = {
        "generator": "anxarc",
        "version": __version__,
        "micro_score": "100*(anxiety_tokens-calm_tokens)/tokens, pooled per bin",
        "macro_score": "mean of per-post scores in the bin",
        "tense_precedence": TENSE_PRECEDENCE,
    }
    meta.update(extra)
    return meta
