#!/usr/bin/env python3
"""Check that the CLI gives the same bytes and exit codes as another revision on one fixed matrix.

    python scripts/same_bytes.py REV

Extracts REV's ``src`` with ``git archive`` into a temporary directory (no
network, and nothing is added to the repository's metadata) and runs the
same CLI matrix on each side, REV's and this checkout's, with
``PYTHONPATH=<side>/src``. Each run has a folder of its own and keeps its
reports, stdout, stderr and exit code there. The script prints ``diff -r``
of the two sides' folders and exits 1 on any difference, 0 on none. The
temporary directory is removed afterwards.

The matrix:
- every command on the test fixtures (the mini lexicon and corpus), the
  scanning ones at ``--workers`` 1 and 2;
- ``analyze-hour`` on the seed-1 synth corpus at ``--workers`` 1, 2 and 3,
  and ``eval-arc`` on it at 1 and 2;
- ``replicate`` on the seed-1 mixed corpus as one file and as four, at
  ``--workers`` 1, 2 and 3;
- ``analyze-tense`` and ``replicate`` on the mixed corpus at ``--workers``
  1 and 2 with a lexicon of the benchmark lexicon's anxiety and calm terms
  whose only neutral terms are the corpus's real words: verb forms,
  ``-ed``/``-ing`` words, contractions, future and period words and
  pronouns;
- ``synth`` and ``lexicon-stats --out`` on the seed-1 benchmark lexicon;
  ``lexicon-stats`` writes CSV and JSON on both lexicons;
- the CLI's error cases, on the mini fixtures: a slice that names no bin
  (``compare --slice-a hour=24``, exit 1); a ``compare`` of two weekday
  slices with ``--verb-tables`` naming a missing directory, which is never
  read (exit 0); a ``compare`` of two tense slices with that directory and
  a missing corpus, where the verb tables fail first (exit 1); an
  ``analyze-tense`` with an empty ``--verb-tables`` (exit 1); an
  ``analyze-tense`` with verb tables whose ``irregular_past.txt`` ends in
  the line ``used to`` (exit 1); and a
  missing corpus file, a lexicon with a duplicate term, a lexicon with a
  duplicate term across classes (``road`` neutral, then anxiety) and a
  corpus with no scoreable post (exit 2).

The seed-1 inputs come from ``scanbench/inputs.py`` and are written once,
for both sides; the synth corpus by this checkout's generator.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
SEED = 1
SYNTH_POSTS_PER_BIN = 1_500
MIXED_RECORDS = 32_768

SCANS = ("analyze-hour", "analyze-weekday", "analyze-tense", "analyze-pronoun", "replicate")


def write_inputs(folder: Path) -> None:
    """The fixtures, the seed-1 benchmark lexicon and corpora, and two arc specs."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scanbench")]
    import inputs

    for name in ("mini_lexicon.tsv", "mini_corpus.jsonl"):
        shutil.copy(FIXTURES / name, folder / name)
    lexicon = folder / "lexicon.tsv"
    classes = inputs.write_lexicon(lexicon, SEED)
    inputs.write_synth(folder / "synth.jsonl", lexicon, SEED, SYNTH_POSTS_PER_BIN)
    lines, _ = inputs.mixed_lines(SEED, MIXED_RECORDS, classes)
    inputs.write_lines(folder / "mixed.jsonl", lines)
    for i, part in enumerate(inputs.split_lines(lines, 4)):
        inputs.write_lines(folder / f"mixed{i}.jsonl", part)
    arc = {"bins": list(range(24)), "p_anx": list(inputs.ARC_P_ANX), "p_calm": inputs.ARC_P_CALM,
           "posts_per_bin": SYNTH_POSTS_PER_BIN, "tokens_per_post": list(inputs.ARC_TOKENS_PER_POST),
           "seed": SEED}
    (folder / "arc.json").write_text(json.dumps(arc), encoding="utf-8")
    small = {"bins": [0, 8, 12, 18], "p_anx": [0.1, 0.4, 0.05, 0.2], "p_calm": 0.1,
             "posts_per_bin": 50, "tokens_per_post": [3, 9], "seed": SEED, "axis": "hour"}
    (folder / "small_arc.json").write_text(json.dumps(small), encoding="utf-8")
    (folder / "duplicate_lexicon.tsv").write_text("panic\t3.0\ncalm\t-2.0\npanic\t2.0\n",
                                                  encoding="utf-8")
    (folder / "cross_class_duplicate_lexicon.tsv").write_text(
        "panic\t3.0\ncalm\t-2.0\nroad\t0.0\nroad\t2.5\n", encoding="utf-8")
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


def matrix() -> dict[str, list[str]]:
    """Each run's folder name and arguments."""
    def inp(name: str) -> str:  # from a run's folder, the same path on both sides
        return f"../../inputs/{name}"

    mini = ["--lexicon", inp("mini_lexicon.tsv")]
    bench = ["--lexicon", inp("lexicon.tsv")]
    runs = {}
    for workers in ("1", "2", "3"):
        scan = [*bench, "--corpus", inp("synth.jsonl"), "--workers", workers]
        runs[f"synth-analyze-hour-w{workers}"] = ["analyze-hour", *scan]
        for name, files in (("one", ["mixed.jsonl"]),
                            ("four", [f"mixed{i}.jsonl" for i in range(4)])):
            runs[f"mixed-{name}-replicate-w{workers}"] = [
                "replicate", *bench, "--corpus", *map(inp, files), "--workers", workers]
        if workers == "3":
            continue
        for command in ("analyze-tense", "replicate"):
            runs[f"verbs-mixed-{command}-w{workers}"] = [
                command, "--lexicon", inp("verbs_lexicon.tsv"), "--corpus", inp("mixed.jsonl"),
                "--workers", workers]
        runs[f"synth-eval-arc-w{workers}"] = ["eval-arc", *scan, "--arc-spec", inp("arc.json")]
        scan = [*mini, "--corpus", inp("mini_corpus.jsonl"), "--workers", workers]
        for command in SCANS:
            runs[f"mini-{command}-w{workers}"] = [command, *scan]
        runs[f"mini-compare-w{workers}"] = ["compare", *scan, "--slice-a", "tense=past",
                                            "--slice-b", "tense=future"]
        runs[f"mini-eval-arc-w{workers}"] = ["eval-arc", *scan, "--arc-spec", inp("small_arc.json")]
    runs["mini-synth"] = ["synth", *mini, "--arc-spec", inp("small_arc.json")]
    runs["bench-synth"] = ["synth", *bench, "--arc-spec", inp("arc.json")]
    for fmt in ("csv", "json"):
        runs[f"mini-lexicon-stats-{fmt}"] = ["lexicon-stats", *mini, "--out-format", fmt]
        runs[f"bench-lexicon-stats-{fmt}"] = ["lexicon-stats", *bench, "--out-format", fmt]
    mini_scan = [*mini, "--corpus", inp("mini_corpus.jsonl")]
    no_verbs = ["--verb-tables", inp("no_such_dir")]
    runs["error-compare-no-such-slice"] = ["compare", *mini_scan, "--slice-a", "hour=24",
                                           "--slice-b", "hour=8"]
    runs["error-compare-weekday-verb-tables-unread"] = [
        "compare", *mini_scan, "--slice-a", "weekday=mon", "--slice-b", "weekday=tue", *no_verbs]
    runs["error-compare-tense-verb-tables-first"] = [
        "compare", *mini, "--corpus", inp("no_such_corpus.jsonl"), "--slice-a", "tense=past",
        "--slice-b", "tense=future", *no_verbs]
    runs["error-analyze-tense-empty-verb-tables"] = ["analyze-tense", *mini_scan, "--verb-tables", ""]
    runs["error-analyze-tense-verb-table-whitespace"] = [
        "analyze-tense", *mini_scan, "--verb-tables", inp("spaced_verbs")]
    runs["error-missing-corpus"] = ["analyze-hour", *mini, "--corpus", inp("no_such_corpus.jsonl")]
    runs["error-duplicate-term"] = ["analyze-hour", "--lexicon", inp("duplicate_lexicon.tsv"),
                                    "--corpus", inp("mini_corpus.jsonl")]
    runs["error-cross-class-duplicate-term"] = [
        "analyze-hour", "--lexicon", inp("cross_class_duplicate_lexicon.tsv"),
        "--corpus", inp("mini_corpus.jsonl")]
    runs["error-no-scoreable-post"] = ["analyze-hour", *mini, "--corpus", inp("unscoreable.jsonl")]
    return runs


def run_side(src: Path, results: Path) -> None:
    """Run the matrix with ``src`` first on the path, each run in ``results/<name>``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("ANXARC_")}
    env["PYTHONPATH"] = str(src)
    for name, args in matrix().items():
        out = results / name
        out.mkdir(parents=True)
        extra = ["--out-corpus", "corpus.jsonl"] if args[0] == "synth" else ["--out", "reports"]
        proc = subprocess.run([sys.executable, "-m", "anxarc.cli", *args, *extra], cwd=out,
                              env=env, capture_output=True)
        (out / "stdout").write_bytes(proc.stdout)
        (out / "stderr").write_bytes(proc.stderr)
        (out / "exit").write_text(f"{proc.returncode}\n")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="same_bytes-") as tmp:
        tmp = Path(tmp)
        tree = tmp / "rev"
        tree.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", argv[0], "src"],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
        (tmp / "inputs").mkdir()
        write_inputs(tmp / "inputs")
        for side, src in (("a", tree / "src"), ("b", ROOT / "src")):
            run_side(src, tmp / side)
        print(f"a: {argv[0]}, b: the working tree ({ROOT}); {len(matrix())} runs a side")
        diff = subprocess.run(["diff", "-r", "a", "b"], cwd=tmp)
    print("no difference" if diff.returncode == 0 else "DIFFERENT")
    return 0 if diff.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
