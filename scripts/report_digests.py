#!/usr/bin/env python3
"""Regenerate tests/fixtures/report_digests.json, the sha256 of every report of a fixed CLI matrix.

    python scripts/report_digests.py

Writes the seed-1 benchmark inputs (``scanbench/inputs.py``) to a temporary
directory and runs, with that directory as the working directory and the
inputs named by relative paths:
- ``replicate`` on the mixed corpus;
- ``analyze-tense`` and ``analyze-pronoun`` on the mixed corpus as one
  file: each reads one family's bits of the token table without the others;
- ``analyze-hour`` on the synth corpus.

Each report is hashed without its ``# corpus=`` line, so the digests hold
for the mixed corpus as one file and as four. ``tests/test_report_digests.py``
runs the matrix at ``--workers`` 1 and 2 and without the flag (the usable
CPUs), ``replicate``'s corpus both ways, and checks every report against the
committed digests. A change that alters
them says why, as it would for a golden file.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "tests" / "fixtures" / "report_digests.json"
SEED = 1
SYNTH_POSTS_PER_BIN = 1_500
MIXED_RECORDS = 32_768
MIXED_PARTS = 4

# command -> each way of naming its corpus; the digests are made from the first
MATRIX = {
    "replicate": (("mixed.jsonl",), tuple(f"mixed{i}.jsonl" for i in range(MIXED_PARTS))),
    "analyze-tense": (("mixed.jsonl",),),
    "analyze-pronoun": (("mixed.jsonl",),),
    "analyze-hour": (("synth.jsonl",),),
}


def write_inputs(folder: Path) -> None:
    """The seed-1 benchmark lexicon, synth corpus and mixed corpus (one file and split)."""
    for path in (ROOT / "src", ROOT / "scanbench"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import inputs

    lexicon = folder / "lexicon.tsv"
    classes = inputs.write_lexicon(lexicon, SEED)
    inputs.write_synth(folder / "synth.jsonl", lexicon, SEED, SYNTH_POSTS_PER_BIN)
    lines, _ = inputs.mixed_lines(SEED, MIXED_RECORDS, classes)
    inputs.write_lines(folder / "mixed.jsonl", lines)
    for i, part in enumerate(inputs.split_lines(lines, MIXED_PARTS)):
        inputs.write_lines(folder / f"mixed{i}.jsonl", part)


def run_digests(command: str, corpus: tuple[str, ...], workers: int | None,
                out: str) -> dict[str, str]:
    """Run ``command`` in the working directory, at ``workers`` or, for None, without
    ``--workers``; each report's sha256 without its ``# corpus=`` line."""
    from anxarc.cli import main

    flags = [] if workers is None else ["--workers", str(workers)]
    code = main([command, "--lexicon", "lexicon.tsv", "--corpus", *corpus, *flags, "--out", out])
    if code != 0:
        raise RuntimeError(f"{command} exited {code}")
    digests = {}
    for path in sorted(Path(out).iterdir()):
        kept = [line for line in path.read_bytes().splitlines(keepends=True)
                if not line.startswith(b"# corpus=")]
        digests[path.name] = hashlib.sha256(b"".join(kept)).hexdigest()
    return digests


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        os.chdir(tmp)
        digests = {command: run_digests(command, corpora[0], 1, command)
                   for command, corpora in MATRIX.items()}
        os.chdir(ROOT)
    OUT.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
