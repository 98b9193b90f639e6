#!/usr/bin/env python3
"""Regenerate tests/fixtures/report_digests.json: the bytes and exit codes of one fixed CLI matrix.

    python scripts/report_digests.py

Writes the inputs to a temporary directory and runs each entry of ``MATRIX``
there, in process through ``anxarc.cli.main``, on relative paths and with
no ``ANXARC_*`` variable set. A run is recorded as its exit code and the
sha256 of its stdout, its stderr and each file it writes (a report without
its ``# corpus=`` line, so one corpus file and four agree). The file holds
each entry's run on its first corpus at its first worker count;
``tests/test_report_digests.py`` checks every corpus and worker count of
every entry against it. A change to it says why, as for a golden file.

The matrix:
- on the mini fixtures: every scanning command, ``compare`` and
  ``eval-arc`` (exit 2, as hour 0 has no post) at ``--workers`` 1 and 2;
  ``synth``; ``lexicon-stats`` as CSV and as JSON, also on the seed-1 lexicon;
- on the seed-1 inputs of ``scanbench/inputs.py``: ``replicate`` (the mixed
  corpus as one file and as four) and ``analyze-hour`` at ``--workers`` 1,
  2, 3 and without the flag (the usable CPUs); ``replicate --out-format
  json``, ``analyze-tense`` and ``analyze-pronoun`` at 1, 2 and without it;
  ``eval-arc`` at 1 and 2; ``synth``; ``analyze-tense`` and ``replicate`` at
  1 and 2 with a lexicon whose only neutral terms are the corpus's real words;
- the CLI's error cases, named ``error-*``: exit 1 for a slice with no bin,
  an empty ``--verb-tables`` or one that is missing (read before the missing
  corpus) or holds the line ``used to``; exit 2 for a missing corpus, a
  duplicate term (in one class or across two) and a corpus with no
  scoreable post; exit 0 for a weekday ``compare``, which never reads its
  missing ``--verb-tables``.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "tests" / "fixtures" / "report_digests.json"
SEED = 1
SYNTH_POSTS_PER_BIN = 1_500
MIXED_RECORDS = 32_768
MIXED_PARTS = 4

MINI = ("--lexicon", "mini_lexicon.tsv")
BENCH = ("--lexicon", "lexicon.tsv")
MINI_CORPUS = (("mini_corpus.jsonl",),)
MIXED = (("mixed.jsonl",),)
NO_CORPUS = ((),)
NO_VERBS = ("--verb-tables", "no_such_dir")
TENSES = ("--slice-a", "tense=past", "--slice-b", "tense=future")
ALL = (1, 2, None)  # None: no --workers flag, so the usable CPUs
TWO = (1, 2)
ONCE = (None,)  # a command without --workers, or an error case

# entry -> (its arguments, each way of naming its corpus, each worker count)
MATRIX = {
    "replicate": (("replicate", *BENCH),
                  (*MIXED, tuple(f"mixed{i}.jsonl" for i in range(MIXED_PARTS))), (1, 2, 3, None)),
    "replicate-json": (("replicate", *BENCH, "--out-format", "json"), MIXED, ALL),
    "analyze-tense": (("analyze-tense", *BENCH), MIXED, ALL),
    "analyze-pronoun": (("analyze-pronoun", *BENCH), MIXED, ALL),
    "analyze-hour": (("analyze-hour", *BENCH), (("synth.jsonl",),), (1, 2, 3, None)),
    "eval-arc": (("eval-arc", *BENCH, "--arc-spec", "arc.json"), (("synth.jsonl",),), TWO),
    "verbs-analyze-tense": (("analyze-tense", "--lexicon", "verbs_lexicon.tsv"), MIXED, TWO),
    "verbs-replicate": (("replicate", "--lexicon", "verbs_lexicon.tsv"), MIXED, TWO),
    **{f"mini-{command}": ((command, *MINI), MINI_CORPUS, TWO)
       for command in ("analyze-hour", "analyze-weekday", "analyze-tense", "analyze-pronoun",
                       "replicate")},
    "mini-compare": (("compare", *MINI, *TENSES), MINI_CORPUS, TWO),
    "mini-eval-arc": (("eval-arc", *MINI, "--arc-spec", "small_arc.json"), MINI_CORPUS, TWO),
    "mini-synth": (("synth", *MINI, "--arc-spec", "small_arc.json"), NO_CORPUS, ONCE),
    "bench-synth": (("synth", *BENCH, "--arc-spec", "arc.json"), NO_CORPUS, ONCE),
    **{f"{name}-lexicon-stats-{fmt}": (("lexicon-stats", *lexicon, "--out-format", fmt),
                                       NO_CORPUS, ONCE)
       for name, lexicon in (("mini", MINI), ("bench", BENCH)) for fmt in ("csv", "json")},
    "error-compare-no-such-slice": (
        ("compare", *MINI, "--slice-a", "hour=24", "--slice-b", "hour=8"), MINI_CORPUS, ONCE),
    "error-compare-weekday-verb-tables-unread": (
        ("compare", *MINI, "--slice-a", "weekday=mon", "--slice-b", "weekday=tue", *NO_VERBS),
        MINI_CORPUS, ONCE),
    "error-compare-tense-verb-tables-first": (
        ("compare", *MINI, *TENSES, *NO_VERBS), (("no_such_corpus.jsonl",),), ONCE),
    "error-analyze-tense-empty-verb-tables": (
        ("analyze-tense", *MINI, "--verb-tables", ""), MINI_CORPUS, ONCE),
    "error-analyze-tense-verb-table-whitespace": (
        ("analyze-tense", *MINI, "--verb-tables", "spaced_verbs"), MINI_CORPUS, ONCE),
    "error-missing-corpus": (("analyze-hour", *MINI), (("no_such_corpus.jsonl",),), ONCE),
    "error-duplicate-term": (
        ("analyze-hour", "--lexicon", "duplicate_lexicon.tsv"), MINI_CORPUS, ONCE),
    "error-cross-class-duplicate-term": (
        ("analyze-hour", "--lexicon", "cross_class_duplicate_lexicon.tsv"), MINI_CORPUS, ONCE),
    "error-no-scoreable-post": (("analyze-hour", *MINI), (("unscoreable.jsonl",),), ONCE),
}


def write_inputs(folder: Path) -> None:
    """The mini fixtures, the seed-1 benchmark lexicon and corpora, and the matrix's own inputs."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scanbench")]
    import inputs

    for name in ("mini_lexicon.tsv", "mini_corpus.jsonl"):
        shutil.copy(OUT.parent / name, folder / name)
    lexicon = folder / "lexicon.tsv"
    classes = inputs.write_lexicon(lexicon, SEED)
    inputs.write_synth(folder / "synth.jsonl", lexicon, SEED, SYNTH_POSTS_PER_BIN)
    lines, _ = inputs.mixed_lines(SEED, MIXED_RECORDS, classes)
    inputs.write_lines(folder / "mixed.jsonl", lines)
    for i, part in enumerate(inputs.split_lines(lines, MIXED_PARTS)):
        inputs.write_lines(folder / f"mixed{i}.jsonl", part)
    arc = {"bins": list(range(24)), "p_anx": list(inputs.ARC_P_ANX), "p_calm": inputs.ARC_P_CALM,
           "posts_per_bin": SYNTH_POSTS_PER_BIN, "tokens_per_post": list(inputs.ARC_TOKENS_PER_POST),
           "seed": SEED}
    (folder / "arc.json").write_text(json.dumps(arc), encoding="utf-8")
    small = {"bins": [0, 8, 12, 18], "p_anx": [0.1, 0.4, 0.05, 0.2], "p_calm": 0.1,
             "posts_per_bin": 50, "tokens_per_post": [3, 9], "seed": SEED, "axis": "hour"}
    (folder / "small_arc.json").write_text(json.dumps(small), encoding="utf-8")
    for name, tail in (("duplicate", "panic\t2.0\n"),
                       ("cross_class_duplicate", "road\t0.0\nroad\t2.5\n")):
        (folder / f"{name}_lexicon.tsv").write_text(f"panic\t3.0\ncalm\t-2.0\n{tail}", encoding="utf-8")
    # The benchmark lexicon's class terms, with the corpus's real words
    # (the ones the tense and pronoun rules read) as its only neutral terms.
    real = {w.lower() for w in (*inputs.PRONOUN_FORMS, *inputs.VERB_FORMS, *inputs.FILLERS,
                                *inputs.CONTRACTIONS)}
    values = {"anxiety": "2.0", "calm": "-2.0", "neutral": "0.0"}
    classes = {**classes, "neutral": sorted(real)}
    (folder / "verbs_lexicon.tsv").write_text(
        "".join(f"{w}\t{values[c]}\n" for c in values for w in classes[c]), encoding="utf-8")
    (folder / "unscoreable.jsonl").write_text("not json\n", encoding="utf-8")
    spaced = folder / "spaced_verbs"
    shutil.copytree(ROOT / "src" / "anxarc" / "data", spaced)
    with open(spaced / "irregular_past.txt", "a", encoding="utf-8") as fh:
        fh.write("used to\n")


def run_digests(name: str, corpus: tuple[str, ...], workers: int | None) -> dict[str, object]:
    """Entry ``name``'s digests, run in the working directory on ``corpus`` at ``workers``
    (None: without ``--workers``) and writing into the cleared folder ``name``."""
    from anxarc.cli import main

    args, _, _ = MATRIX[name]
    out = Path(name)
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    argv = [*args, *(["--corpus", *corpus] if corpus else []),
            *([] if workers is None else ["--workers", str(workers)]),
            *(["--out-corpus", f"{name}/corpus.jsonl"] if args[0] == "synth" else ["--out", name])]
    # The CLI reads ANXARC_* variables as flags; the caller's must not reach the run.
    env = {key: os.environ.pop(key) for key in list(os.environ) if key.startswith("ANXARC_")}
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(argv)
    finally:
        os.environ.update(env)
    outputs = {"stdout": stdout.getvalue().encode(), "stderr": stderr.getvalue().encode(),
               **{path.name: path.read_bytes() for path in out.iterdir()}}
    digests: dict[str, object] = {"exit": code}
    for key, data in sorted(outputs.items()):
        kept = [line for line in data.splitlines(keepends=True)
                if not line.startswith(b"# corpus=")]
        digests[key] = hashlib.sha256(b"".join(kept)).hexdigest()
    return digests


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        os.chdir(tmp)
        try:
            digests = {name: run_digests(name, corpora[0], workers[0])
                       for name, (_, corpora, workers) in MATRIX.items()}
        finally:
            os.chdir(ROOT)
    OUT.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
