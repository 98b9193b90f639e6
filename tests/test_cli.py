from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import signal
import subprocess
import sys
import tracemalloc
from datetime import datetime
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import util
from anxarc import cli, pipeline
from anxarc._kernel import ANX, CALM
from anxarc.cli import main
from anxarc.lexicon import LexiconError, class_terms, load_lexicon
from anxarc.slicer import VerbTableError, load_verb_tables
from anxarc.synth import MAX_PLANTED_TOKENS, ArcSpec, ArcSpecError

MINI_LEX = "mini_lexicon.tsv"
MINI_CORPUS = "mini_corpus.jsonl"


@pytest.fixture()
def workdir(tmp_path, fixtures_dir, monkeypatch):
    """Scratch cwd with the mini fixtures copied in (relative paths keep
    report bytes location-independent, matching the goldens)."""
    shutil.copy(fixtures_dir / MINI_LEX, tmp_path / MINI_LEX)
    shutil.copy(fixtures_dir / MINI_CORPUS, tmp_path / MINI_CORPUS)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(*argv: str) -> int:
    return main(list(argv))


def analyze(cmd: str, workdir: Path, *extra: str, out: str = "reports") -> Path:
    code = run(
        f"analyze-{cmd}", "--lexicon", MINI_LEX, "--corpus", MINI_CORPUS,
        "--out", out, *extra,
    )
    assert code == 0
    suffix = "json" if "json" in extra else "csv"
    return workdir / out / f"{cmd}.{suffix}"


@pytest.mark.parametrize("name", ["hour", "weekday", "tense", "pronoun"])
def test_golden_tables(name, workdir, fixtures_dir):
    path = analyze(name, workdir)
    assert path.read_bytes() == (fixtures_dir / "golden" / f"{name}.csv").read_bytes()


def test_golden_hour_json(workdir, fixtures_dir):
    code = run("analyze-hour", "--lexicon", MINI_LEX, "--corpus", MINI_CORPUS,
               "--out", "reports", "--out-format", "json")
    assert code == 0
    got = (workdir / "reports" / "hour.json").read_bytes()
    assert got == (fixtures_dir / "golden" / "hour.json").read_bytes()


def test_golden_compare(workdir, fixtures_dir, capsys):
    code = run("compare", "--lexicon", MINI_LEX, "--corpus", MINI_CORPUS,
               "--slice-a", "tense=past", "--slice-b", "tense=future", "--out", "reports")
    assert code == 0
    got = (workdir / "reports" / "compare.csv").read_bytes()
    assert got == (fixtures_dir / "golden" / "compare.csv").read_bytes()
    assert capsys.readouterr().out.splitlines()[-1] == (
        "tense=past vs tense=future: t=1.000000 df=1.000000 p=5.000000e-01 "
        "(not significant at alpha=0.05)"
    )


def test_reruns_are_byte_identical(workdir):
    a = analyze("hour", workdir, out="r1").read_bytes()
    b = analyze("hour", workdir, out="r2").read_bytes()
    assert a == b


def test_worker_count_does_not_change_bytes(workdir, monkeypatch):
    base = analyze("hour", workdir, out="w1").read_bytes()
    monkeypatch.setattr(pipeline, "CHUNK_BYTES", 64)  # blocks enough for four workers
    multi = analyze("hour", workdir, "--workers", "4", out="w4").read_bytes()
    assert base == multi


def test_no_more_workers_than_blocks(workdir, monkeypatch, fixtures_dir):
    # The mini corpus is one block, which is scanned in-process; cut into
    # two blocks, two workers scan it.
    started = []
    real_fork = os.fork

    def fork():
        started.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    golden = (fixtures_dir / "golden" / "hour.csv").read_bytes()
    size = (workdir / MINI_CORPUS).stat().st_size
    for chunk_bytes, forks in ((pipeline.CHUNK_BYTES, 0), (-(-size // 2), 2)):
        monkeypatch.setattr(pipeline, "CHUNK_BYTES", chunk_bytes)
        started.clear()
        assert analyze("hour", workdir, "--workers", "3").read_bytes() == golden
        assert len(started) == forks


def test_scan_holds_the_class_map_only(workdir, monkeypatch):
    # When the first block is scanned, what the lexicon loader and the CLI
    # allocated and is still live is the class map: its table and its terms,
    # a fifth of the lexicon, and not the neutral terms or any association.
    (workdir / "big.tsv").write_text(util.big_lexicon_text(), encoding="utf-8")
    held = []
    real_data_lines = pipeline.data_lines

    def data_lines(*args):  # called once per block
        if not held:
            snapshot = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.Filter(True, load_lexicon.__code__.co_filename),
                 tracemalloc.Filter(True, cli.__file__)])
            held.append(sum(stat.size for stat in snapshot.statistics("filename")))
        return real_data_lines(*args)

    monkeypatch.setattr(pipeline, "data_lines", data_lines)
    tracemalloc.start()
    try:
        assert run("analyze-hour", "--lexicon", "big.tsv", "--corpus", MINI_CORPUS,
                   "--out", "reports") == 0
    finally:
        tracemalloc.stop()
    assert held and held[0] < 500_000, held


def test_scans_are_handed_the_class_terms_only(workdir, monkeypatch):
    # replicate and eval-arc hand the scan the anxiety and calm terms of the
    # lexicon and not its neutral terms: a whole map works alike but keeps
    # the neutral terms alive through the scan, which raises its peak memory.
    from anxarc import synth

    class_maps = []
    real_scan_corpus = pipeline.scan_corpus

    def scan_corpus(*paths, class_map, **kwargs):
        class_maps.append(class_map)
        return real_scan_corpus(*paths, class_map=class_map, **kwargs)

    monkeypatch.setattr(cli, "scan_corpus", scan_corpus)
    monkeypatch.setattr(synth, "scan_corpus", scan_corpus)
    _write_arc_spec(workdir / "arc.json", posts_per_bin=5)
    assert run("synth", "--lexicon", MINI_LEX, "--arc-spec", "arc.json",
               "--out-corpus", "synth.jsonl") == 0
    assert run("replicate", "--lexicon", MINI_LEX, "--corpus", MINI_CORPUS, "--out", "r") == 0
    assert run("eval-arc", "--lexicon", MINI_LEX, "--arc-spec", "arc.json",
               "--corpus", "synth.jsonl", "--out", "r", "--workers", "2") == 0
    lexicon = load_lexicon(MINI_LEX)
    assert class_terms(lexicon)[2]  # the lexicon has neutral terms to leave out
    assert class_maps == [{term: code for term, code in lexicon.items() if code}] * 2
    assert {code for class_map in class_maps for code in class_map.values()} == {ANX, CALM}


def test_tsv_corpus_roundtrip(workdir):
    rows = []
    for line in (workdir / MINI_CORPUS).read_text().splitlines():
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            continue
        rows.append("\t".join([obj["id"], obj["text"], obj["timestamp_utc"], obj["timezone"]]))
    (workdir / "corpus.tsv").write_text("\n".join(rows) + "\n")
    code = run("analyze-hour", "--lexicon", MINI_LEX, "--corpus", "corpus.tsv",
               "--format", "tsv", "--out", "tsvout")
    assert code == 0
    # Same posts minus the invalid-JSON line: scored counts must agree.
    csv_lines = (workdir / "tsvout" / "hour.csv").read_text().splitlines()
    all_row = [l for l in csv_lines if l.startswith("all,")][0]
    assert all_row.split(",")[1] == "9"


def test_multiple_corpus_files_merge(workdir):
    shutil.copy(workdir / MINI_CORPUS, workdir / "second.jsonl")
    code = run("analyze-hour", "--lexicon", MINI_LEX,
               "--corpus", MINI_CORPUS, "second.jsonl",
               "--out", "multi", "--out-format", "json")
    assert code == 0
    rows = json.loads((workdir / "multi" / "hour.json").read_text())["rows"]
    all_row = [r for r in rows if r["hour"] == "all"][0]
    assert all_row["n_posts"] == 18  # 9 scored posts per copy


def test_env_overrides(workdir, monkeypatch):
    monkeypatch.setenv("ANXARC_LEXICON", MINI_LEX)
    monkeypatch.setenv("ANXARC_CORPUS", MINI_CORPUS)
    monkeypatch.setenv("ANXARC_OUT", "envout")
    assert run("analyze-hour") == 0
    assert (workdir / "envout" / "hour.csv").exists()


@pytest.mark.parametrize("name,value", [
    ("TAU_ANX", "abc"), ("TAU_CALM", "-"), ("ALPHA", "x"), ("WORKERS", "two"),
    ("OUT_FORMAT", "xml"), ("FORMAT", "xml"),
])
def test_bad_env_values_exit_1(workdir, capsys, monkeypatch, name, value):
    # A bad variable is reported exactly as the same bad flag: argparse's
    # usage line and its message, exit 1, and nothing written. Only the
    # commands that run a t-test take --alpha.
    command = (["compare", "--slice-a", "tense=past", "--slice-b", "tense=future"]
               if name == "ALPHA" else ["analyze-hour"])
    argv = [*command, "--lexicon", MINI_LEX, "--corpus", MINI_CORPUS, "--out", "envout"]
    flag = "--" + name.lower().replace("_", "-")
    assert run(*argv, f"{flag}={value}") == 1
    by_flag = capsys.readouterr().err
    assert by_flag.startswith(f"usage: anxarc {command[0]} ")
    assert by_flag.splitlines()[-1].startswith(
        f"anxarc {command[0]}: error: argument {flag}: invalid ")
    assert repr(value) in by_flag.splitlines()[-1]
    monkeypatch.setenv("ANXARC_" + name, value)
    assert run(*argv) == 1
    assert capsys.readouterr().err == by_flag
    assert not (workdir / "envout").exists()


# Values for the options of the property below: a few that parse and a few
# that do not, and any text that an environment variable can hold (no NUL,
# no lone surrogate). An empty variable is unset, so values are not empty.
# The keys are in the order of the options of compare, which reads them all,
# and that is the order in which the variables are read.
_env_text = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
                    min_size=1, max_size=6)
_env_options = {
    "TAU_ANX": st.one_of(st.sampled_from(["1.0", "2.5", "0", "-1", "nan", "inf", " 3 "]), _env_text),
    "TAU_CALM": st.one_of(st.sampled_from(["-1.0", "-1.5", "-0", "1", "-inf", "-1e308"]), _env_text),
    "FORMAT": st.one_of(st.sampled_from(["jsonl", "tsv", "JSONL", "xml"]), _env_text),
    "OUT_FORMAT": st.one_of(st.sampled_from(["csv", "json", "xml"]), _env_text),
    # Fixed values only: no run may ask for more than 3 workers.
    "WORKERS": st.sampled_from(["0", "1", "2", "-1", "two"]),
    "ALPHA": st.one_of(st.sampled_from(["0.05", "0.5", "0", "1", "2.0", "1e-9", "nan"]), _env_text),
}


@given(st.fixed_dictionaries({}, optional=_env_options))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_env_values_read_as_their_flags(workdir, capsys, env_values):
    # The same options set by variables and by --flag=value give the same
    # exit code, the same stderr and the same report bytes.
    argv = ["compare", "--lexicon", MINI_LEX, "--corpus", MINI_CORPUS,
            "--slice-a", "tense=past", "--slice-b", "tense=future"]
    flags = [f"--{name.lower().replace('_', '-')}={env_values[name]}"
             for name in _env_options if name in env_values]
    outcomes = []
    for out, env, extra in (("byflag", {}, flags), ("byenv", env_values, [])):
        shutil.rmtree(workdir / out, ignore_errors=True)
        with pytest.MonkeyPatch.context() as mp:
            for name, value in env.items():
                mp.setenv("ANXARC_" + name, value)
            code = run(*argv, "--out", out, *extra)
        reports = sorted((workdir / out).iterdir()) if (workdir / out).exists() else []
        outcomes.append((code, capsys.readouterr().err,
                         [(path.name, path.read_bytes()) for path in reports]))
    assert outcomes[0] == outcomes[1]


def test_env_sets_every_option_of_its_command(workdir, capsys, monkeypatch, fixtures_dir):
    golden = fixtures_dir / "golden"
    # compare reads both slices from the environment.
    monkeypatch.setenv("ANXARC_SLICE_A", "tense=past")
    monkeypatch.setenv("ANXARC_SLICE_B", "tense=future")
    assert run("compare", "--lexicon", MINI_LEX, "--corpus", MINI_CORPUS, "--out", "cmp") == 0
    assert (workdir / "cmp" / "compare.csv").read_bytes() == (golden / "compare.csv").read_bytes()
    # lexicon-stats writes its table when ANXARC_OUT names a directory.
    monkeypatch.setenv("ANXARC_OUT", "stats")
    assert run("lexicon-stats", "--lexicon", MINI_LEX) == 0
    assert (workdir / "stats" / "lexicon_stats.csv").read_text() == LEXICON_STATS_CSV
    # An empty variable is unset: the defaults hold.
    for name in ("OUT", "TAU_ANX", "OUT_FORMAT", "WORKERS", "LEXICON"):
        monkeypatch.setenv("ANXARC_" + name, "")
    assert run("analyze-hour", "--lexicon", MINI_LEX, "--corpus", MINI_CORPUS) == 0
    assert (workdir / "hour.csv").read_bytes() == (golden / "hour.csv").read_bytes()
    # A negative value after the = is a value, not an option.
    monkeypatch.setenv("ANXARC_TAU_CALM", "-1.5")
    assert run("analyze-hour", "--lexicon", MINI_LEX, "--corpus", MINI_CORPUS, "--out", "env") == 0
    monkeypatch.delenv("ANXARC_TAU_CALM")
    assert run("analyze-hour", "--lexicon", MINI_LEX, "--corpus", MINI_CORPUS, "--out", "flag",
               "--tau-calm", "-1.5") == 0
    by_env = (workdir / "env" / "hour.csv").read_bytes()
    assert b"# tau_calm=-1.5\n" in by_env
    assert by_env == (workdir / "flag" / "hour.csv").read_bytes()


def test_env_for_an_option_the_command_lacks_is_ignored(synth_env, fixtures_dir, capsys,
                                                        monkeypatch):
    # A variable of an option that the command lacks is not read, even when
    # it holds no valid value. synth has no --workers, --format or --alpha.
    for name in ("WORKERS", "FORMAT", "ALPHA"):
        monkeypatch.setenv("ANXARC_" + name, "two")
    assert run("synth", "--lexicon", "lex.tsv", "--arc-spec", "arc.json",
               "--out-corpus", "corpus.jsonl") == 0
    assert capsys.readouterr().err == ""
    assert (synth_env / "corpus.jsonl").exists()
    # eval-arc has no --alpha or --format: it always reads JSONL.
    monkeypatch.delenv("ANXARC_WORKERS")
    monkeypatch.setenv("ANXARC_ALPHA", "2")
    monkeypatch.setenv("ANXARC_FORMAT", "xml")
    assert run("eval-arc", "--lexicon", "lex.tsv", "--arc-spec", "arc.json",
               "--corpus", "corpus.jsonl", "--out", "arc") == 0
    assert (synth_env / "arc" / "arc.json").exists()
    # analyze-hour has no --alpha or --verb-tables.
    monkeypatch.delenv("ANXARC_FORMAT")
    monkeypatch.setenv("ANXARC_VERB_TABLES", "missing")
    for name in (MINI_LEX, MINI_CORPUS):
        shutil.copy(fixtures_dir / name, synth_env / name)
    assert run("analyze-hour", "--lexicon", MINI_LEX, "--corpus", MINI_CORPUS) == 0
    assert (synth_env / "hour.csv").read_bytes() == (fixtures_dir / "golden" / "hour.csv").read_bytes()
    assert capsys.readouterr().err == ""


def test_each_command_declares_the_options_it_reads():
    # The parser says which command reads which option, and so which
    # ANXARC_* variables it reads, in this order: 74 pairs in all.
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    declared = {name: [a.option_strings[-1] for a in p._actions if a.nargs != 0]
                for name, p in sub.choices.items()}
    lex = ["--lexicon", "--tau-anx", "--tau-calm"]
    scan = [*lex, "--corpus", "--format", "--out", "--out-format", "--workers"]
    assert declared == {
        "analyze-hour": scan,
        "analyze-weekday": scan,
        "analyze-tense": [*scan, "--verb-tables"],
        "analyze-pronoun": scan,
        "compare": [*scan, "--verb-tables", "--alpha", "--slice-a", "--slice-b"],
        "synth": [*lex, "--arc-spec", "--out-corpus", "--seed"],
        "eval-arc": [*lex, "--out", "--out-format", "--workers", "--corpus", "--arc-spec"],
        "replicate": [*scan, "--verb-tables", "--alpha"],
        "lexicon-stats": [*lex, "--out", "--out-format"],
    }
    assert sum(map(len, declared.values())) == 74


def test_flag_beats_env(workdir, monkeypatch, fixtures_dir):
    monkeypatch.setenv("ANXARC_OUT", "envout")
    monkeypatch.setenv("ANXARC_TAU_ANX", "2.5")
    monkeypatch.setenv("ANXARC_CORPUS", "missing.jsonl")
    assert run("analyze-hour", "--lexicon", MINI_LEX, "--corpus", MINI_CORPUS,
               "--out", "flagout", "--tau-anx", "1.0") == 0
    got = (workdir / "flagout" / "hour.csv").read_bytes()
    assert got == (fixtures_dir / "golden" / "hour.csv").read_bytes()
    assert not (workdir / "envout").exists()
    # A bad variable is still an error, as the same flag given twice is.
    monkeypatch.setenv("ANXARC_TAU_ANX", "abc")
    assert run("analyze-hour", "--lexicon", MINI_LEX, "--corpus", MINI_CORPUS,
               "--out", "flagout", "--tau-anx", "1.0") == 1


def test_exit_code_usage_errors(workdir, capsys):
    assert run("analyze-hour", "--corpus", MINI_CORPUS) == 1  # no lexicon
    assert run("analyze-hour", "--lexicon", MINI_LEX) == 1  # no corpus
    assert run("compare", "--lexicon", MINI_LEX, "--corpus", MINI_CORPUS,
               "--slice-a", "tense=past", "--slice-b", "tense=future", "--alpha", "2.0") == 1
    assert run("analyze-hour", "--lexicon", MINI_LEX, "--corpus", MINI_CORPUS,
               "--workers", "0") == 1
    assert run("analyze-hour", "--lexicon", MINI_LEX, "--corpus", MINI_CORPUS,
               "--tau-anx", "-1") == 1
    assert run("bogus-command") == 1
    assert run("compare", "--lexicon", MINI_LEX, "--corpus", MINI_CORPUS,
               "--slice-a", "hour8", "--slice-b", "hour=9") == 1
    # A key out of range, of the wrong type or not in the family is no bin,
    # and a number is ASCII digits only (not "+8", "0_8" or an Arabic-Indic 8).
    for bad in ("pronoun=us", "hour=24", "hour=eight", "tense=pluperfect",
                "hour=+8", "hour=0_8", "hour=\u0668"):
        capsys.readouterr()
        assert run("compare", "--lexicon", MINI_LEX, "--corpus", MINI_CORPUS,
                   "--slice-a", bad, "--slice-b", "pronoun=i") == 1
        assert capsys.readouterr().err == f"anxarc: error: no such slice: {bad!r}\n"


def test_compare_checks_slice_keys_before_the_scan(workdir, capsys, monkeypatch):
    # A key that names no bin is a usage error before any corpus is read.
    def no_scan(*paths, **kwargs):
        raise AssertionError("the corpus was scanned")

    monkeypatch.setattr(cli, "scan_corpus", no_scan)
    for corpus in ("missing.jsonl", MINI_CORPUS):
        assert run("compare", "--lexicon", MINI_LEX, "--corpus", corpus,
                   "--slice-a", "hour=24", "--slice-b", "hour=8") == 1
        assert capsys.readouterr().err == "anxarc: error: no such slice: 'hour=24'\n"


@pytest.mark.parametrize("sig,code", [(signal.SIGINT, 130), (signal.SIGTERM, 143)])
def test_signal_during_a_run_prints_one_line(workdir, capsys, monkeypatch, sig, code):
    # The same run in this process, so the handler's lines are traced: a
    # SIGINT arrives as KeyboardInterrupt, a SIGTERM through cli's handler.
    def interrupted_scan(*paths, **kwargs):
        if sig == signal.SIGINT:
            raise KeyboardInterrupt
        os.kill(os.getpid(), sig)

    monkeypatch.setattr(cli, "scan_corpus", interrupted_scan)
    previous = signal.getsignal(signal.SIGTERM)
    assert run("analyze-hour", "--lexicon", MINI_LEX, "--corpus", MINI_CORPUS) == code
    assert capsys.readouterr() == ("", "anxarc: interrupted\n")
    assert signal.getsignal(signal.SIGTERM) is previous


def test_compare_rejects_a_slice_of_more_than_one_line(workdir, capsys, monkeypatch):
    # The slice texts are written as given into unquoted CSV cells, so one
    # that holds a line boundary is a usage error, from a flag or a
    # variable, before any corpus is read.
    def no_scan(*paths, **kwargs):
        raise AssertionError("the corpus was scanned")

    monkeypatch.setattr(cli, "scan_corpus", no_scan)
    common = ["--lexicon", MINI_LEX, "--corpus", MINI_CORPUS, "--slice-b", " tense = present"]
    for bad in ("tense=past\n", "tense=past\r", "tense=\npast", "hour=8\x0b", "hour=8\x1c",
                "hour=8\x85", "pronoun=i\u2028"):
        capsys.readouterr()
        assert run("compare", *common, "--slice-a", bad) == 1
        assert capsys.readouterr().err == f"anxarc: error: slice must be one line, got {bad!r}\n"
    monkeypatch.setenv("ANXARC_SLICE_A", "tense=past\n")
    assert run("compare", *common) == 1
    assert "slice must be one line" in capsys.readouterr().err


def _csv_rows(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines() if not line.startswith("#")]


def test_compare_slices_are_the_report_bins(workdir):
    # Each slice of compare is the bin that the analysis report shows for
    # it: the same post count and macro score.
    with open("corpus.jsonl", "w", encoding="utf-8") as fh:
        fh.write("\n".join(util.random_corpus_lines(random.Random(8), 400)) + "\n")
    common = ["--lexicon", MINI_LEX, "--corpus", "corpus.jsonl"]
    assert run("replicate", *common, "--out", "rep") == 0
    cells = {}
    for name in ("hour", "weekday", "tense", "pronoun"):
        header, *rows = _csv_rows(workdir / "rep" / f"{name}.csv")
        for row in rows:
            cell = dict(zip(header, row))
            cells[f"{name}={row[0]}"] = (cell["n_posts"], cell["macro_score"])
    # (slice a, its report row, slice b, its report row) of each compare run.
    for slice_a, row_a, slice_b, row_b in (
        ("hour=8", "hour=8", "weekday=0", "weekday=0"),
        ("tense=past", "tense=past", "pronoun=i", "pronoun=i"),
        ("weekday=mon", "weekday=0", "hour=08", "hour=8"),
    ):
        assert run("compare", *common, "--slice-a", slice_a, "--slice-b", slice_b,
                   "--out", "cmp") == 0
        header, row = _csv_rows(workdir / "cmp" / "compare.csv")
        cell = dict(zip(header, row))
        assert (cell["n_a"], cell["mean_a"]) == cells[row_a]
        assert (cell["n_b"], cell["mean_b"]) == cells[row_b]


def test_exit_code_data_errors(workdir):
    assert run("analyze-hour", "--lexicon", "missing.tsv", "--corpus", MINI_CORPUS) == 2
    assert run("analyze-hour", "--lexicon", MINI_LEX, "--corpus", "missing.jsonl") == 2
    (workdir / "bad_lex.tsv").write_text("panic\tnot_a_number\n")
    assert run("analyze-hour", "--lexicon", "bad_lex.tsv", "--corpus", MINI_CORPUS) == 2
    (workdir / "empty.jsonl").write_text("\n")
    assert run("analyze-hour", "--lexicon", MINI_LEX, "--corpus", "empty.jsonl") == 2


@pytest.mark.parametrize("workers", ["1", "2"])
def test_invalid_utf8_is_counted_not_fatal(workdir, workers, monkeypatch):
    monkeypatch.setattr(pipeline, "CHUNK_BYTES", 64)  # blocks enough for two workers
    lines = (workdir / MINI_CORPUS).read_bytes().splitlines()
    lines.insert(1, b'{"id":"x","text":"\xff\xfe"}')
    (workdir / "bad_utf8.jsonl").write_bytes(b"\n".join(lines) + b"\n")
    assert run("analyze-hour", "--lexicon", MINI_LEX, "--corpus", "bad_utf8.jsonl",
               "--out", "badout", "--workers", workers) == 0
    report = (workdir / "badout" / "hour.csv").read_text().splitlines()
    meta = {k: int(v) for k, v in (l[2:].split("=") for l in report if l.startswith("# n_"))}
    scored = int(next(l for l in report if l.startswith("all,")).split(",")[1])
    assert scored == 9  # every post of the mini corpus is still scored
    assert meta["n_records"] == len([l for l in lines if l.strip()])
    assert meta["n_records"] == scored + meta["n_parse_skips"] + meta["n_empty_skips"]


# Well-typed records span the whole datetime range with any offset and
# zones that may not resolve; other records may lack keys or hold any JSON
# value in them.
_good_fields = {
    "id": st.text(min_size=1, max_size=5),
    "text": st.sampled_from(["i went home", "we panic", "calm sea", ""]),
    "timestamp_utc": st.builds(
        lambda dt, off: dt.isoformat() + off,
        st.one_of(
            st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59)),
            st.sampled_from([datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59)]),
        ),
        st.sampled_from(["Z", "+00:00", "+14:00", "-12:00", "+23:59", "-23:59", ""]),
    ),
    "timezone": st.sampled_from(["UTC", "Asia/Tokyo", "Pacific/Kiritimati", "Etc/GMT+12",
                                 "Mars/Colony", "America", " ", "../UTC"]),
}
_json_values = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                         st.text(max_size=20), st.lists(st.integers(), max_size=2))
_records = st.one_of(
    st.fixed_dictionaries(_good_fields),
    st.fixed_dictionaries({}, optional={k: st.one_of(v, _json_values)
                                        for k, v in _good_fields.items()}),
).map(lambda obj: json.dumps(obj).encode("utf-8"))
_corpus_lines = st.lists(
    st.one_of(st.binary(max_size=60), _records).map(lambda b: b.replace(b"\n", b"")),
    max_size=10,
)


@pytest.mark.parametrize("workers,examples", [("1", 150), ("2", 10)])
def test_no_corpus_bytes_exit_1(workdir, capsys, monkeypatch, workers, examples):
    monkeypatch.setattr(pipeline, "CHUNK_BYTES", 64)  # blocks enough for two workers
    @given(_corpus_lines)
    @settings(max_examples=examples, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def check(lines):
        (workdir / "fuzz.jsonl").write_bytes(b"\n".join(lines))
        capsys.readouterr()
        code = run("replicate", "--lexicon", MINI_LEX, "--corpus", "fuzz.jsonl",
                   "--out", "fuzzout", "--workers", workers)
        assert code in (0, 2)
        assert "Traceback" not in capsys.readouterr().err

    check()


# Near-valid TSV rows: 3, 4 or 5 fields (a tab in the text makes 5), bad
# ids, stamps and zones, invalid UTF-8 and a header line anywhere, with LF
# or CRLF line ends; and arbitrary bytes.
_tsv_fields = (
    st.sampled_from(["1", "p2", "", " "]),
    st.sampled_from(["i went home", "we panic", "calm\tsea", "", "caf\u00e9 panic"]),
    st.sampled_from(["2021-06-15T08:00:00Z", "2021-06-15T08:00:00+14:00", "2021-06-15 08:00",
                     "0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-12:00", "now", ""]),
    st.sampled_from(["UTC", "Asia/Tokyo", "Etc/GMT+12", "Mars/Colony", " ", "../UTC"]),
)
_tsv_rows = st.one_of(
    st.tuples(*_tsv_fields).map("\t".join).map(lambda row: row.encode("utf-8")),
    st.tuples(*_tsv_fields[:3]).map("\t".join).map(lambda row: row.encode("utf-8")),
    st.sampled_from([b"id\ttext\ttimestamp_utc\ttimezone",
                     b"7\tcaf\xe9 panic\t2021-06-15T08:00:00Z\tUTC", b"\xff\tx\ty\tz", b""]),
    st.binary(max_size=40),
)
_tsv_files = st.lists(
    st.tuples(_tsv_rows, st.sampled_from([b"\n", b"\r\n"])).map(b"".join), max_size=10,
).map(b"".join)


@pytest.mark.parametrize("workers,examples", [("1", 150), ("2", 10)])
def test_fuzzed_tsv_corpus_exits_as_documented(workdir, capsys, monkeypatch, workers, examples):
    monkeypatch.setattr(pipeline, "CHUNK_BYTES", 64)  # blocks enough for two workers
    @given(_tsv_files)
    @settings(max_examples=examples, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def check(data):
        (workdir / "fuzz.tsv").write_bytes(data)
        capsys.readouterr()
        code = run("replicate", "--lexicon", MINI_LEX, "--corpus", "fuzz.tsv", "--format", "tsv",
                   "--out", "fuzzout", "--workers", workers)
        err = capsys.readouterr().err
        if code == 2:
            assert err == "anxarc: data error: zero scoreable posts in the corpus\n"
            return
        assert code == 0 and err == ""
        report = (workdir / "fuzzout" / "hour.csv").read_text().splitlines()
        meta = {k: int(v) for k, v in (l[2:].split("=") for l in report if l.startswith("# n_"))}
        scored = int(next(l for l in report if l.startswith("all,")).split(",")[1])
        assert scored > 0
        assert meta["n_records"] == scored + meta["n_parse_skips"] + meta["n_empty_skips"]

    check()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_deeply_nested_json_is_a_parse_skip(workdir, capsys, workers, monkeypatch):
    monkeypatch.setattr(pipeline, "CHUNK_BYTES", 64)  # blocks enough for two workers
    lines = (workdir / MINI_CORPUS).read_text().splitlines()
    lines.insert(2, "[" * 100_000 + "]" * 100_000)
    lines.insert(4, '{"id": ' + "[" * 100_000 + "]" * 100_000 + "}")
    (workdir / "deep.jsonl").write_text("\n".join(lines) + "\n")
    code = run("analyze-hour", "--lexicon", MINI_LEX, "--corpus", "deep.jsonl",
               "--out", "deepout", "--workers", workers)
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err
    report = (workdir / "deepout" / "hour.csv").read_text().splitlines()
    meta = {k: int(v) for k, v in (l[2:].split("=") for l in report if l.startswith("# n_"))}
    assert meta["n_parse_skips"] == 1 + 2  # the mini corpus holds one bad record
    assert meta["n_records"] == len([line for line in lines if line.strip()])


def test_missing_second_corpus_exits_2_at_two_workers(workdir):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "anxarc.cli", "analyze-hour", "--lexicon", MINI_LEX,
         "--corpus", MINI_CORPUS, "missing.jsonl", "--workers", "2", "--out", "out"],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert "missing.jsonl" in proc.stderr
    assert "Traceback" not in proc.stderr


# The scan's block reader, taken once: a test that patches it twice must not
# wrap its own wrapper.
READ_BLOCKS = pipeline._blocks


def run_with_corpus_changed(capsys, monkeypatch, change, workers):
    """Run analyze-hour at ``workers`` on the mini corpus, cut short or grown by a line
    after its first block is read; return the exit code and stderr lines."""
    monkeypatch.setattr(pipeline, "CHUNK_BYTES", 64)  # blocks enough for two workers
    data = Path(MINI_CORPUS).read_bytes()

    def read_then_change(files):
        for index, block in enumerate(READ_BLOCKS(files)):
            if index == 0:
                with open(MINI_CORPUS, "r+b") as corpus:
                    if change == "truncate":
                        corpus.truncate(len(data) // 2)
                    else:
                        corpus.seek(0, os.SEEK_END)
                        corpus.write(data[:data.index(b"\n") + 1])
            yield block

    monkeypatch.setattr(pipeline, "_blocks", read_then_change)
    try:
        code = run("analyze-hour", "--lexicon", MINI_LEX, "--corpus", MINI_CORPUS,
                   "--workers", str(workers), "--out", "out")
    finally:
        Path(MINI_CORPUS).write_bytes(data)
    return code, capsys.readouterr().err.splitlines()


@pytest.mark.parametrize("change", ["truncate", "append"])
def test_corpus_changed_during_a_one_worker_scan_exits_2(workdir, capsys, monkeypatch, change):
    # The file is cut short, or gains a line, after its first block is read:
    # the scan then ends before the size checked at the start, or reads up
    # to it and finds a new size, which stops the run. The appended line,
    # line 12 of the 11-line corpus, is the first line not read.
    code, lines = run_with_corpus_changed(capsys, monkeypatch, change, 1)
    assert code == 2
    assert len(lines) == 1
    assert lines[0].startswith(
        f"anxarc: data error: corpus changed during the scan: {MINI_CORPUS} (from line "), lines
    if change == "append":
        assert lines[0].endswith("(from line 12)"), lines


def test_corpus_changed_during_a_two_worker_scan_exits_2(workdir, capsys, monkeypatch):
    # The same changes at two workers: the parent, the only reader of the
    # file, finds them at the file's end and stops the run with the line
    # a one-worker scan writes.
    for change in ("truncate", "append"):
        code, lines = run_with_corpus_changed(capsys, monkeypatch, change, 2)
        util.assert_no_child_left()
        assert code == 2 and len(lines) == 1, lines
        assert lines == run_with_corpus_changed(capsys, monkeypatch, change, 1)[1]
        if change == "append":
            assert lines[0].endswith("(from line 12)"), lines


def test_compare_undersized_slice_names_it(workdir, capsys):
    code = run("compare", "--lexicon", MINI_LEX, "--corpus", MINI_CORPUS,
               "--slice-a", "hour=0", "--slice-b", "hour=8", "--out", "cmp")
    assert code == 2
    err = capsys.readouterr().err
    assert "hour=0" in err


def test_compare_rejects_unknown_slice_family(workdir, capsys):
    code = run("compare", "--lexicon", MINI_LEX, "--corpus", MINI_CORPUS,
               "--slice-a", "overall=all", "--slice-b", "hour=8", "--out", "cmp")
    assert code == 1
    assert "unknown slice family 'overall'" in capsys.readouterr().err


def _strict_json(text: str) -> dict:
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


def _constant_corpus() -> str:
    """Two bins of constant, different scores (hour 5 and hour 8): t=+inf."""
    stamps = ["2020-01-01T05:00:00Z", "2020-01-01T08:00:00Z"]
    with open("const.jsonl", "w", encoding="utf-8") as fh:
        for i in range(4):
            text = "panic" if i % 2 == 0 else "road"
            fh.write(json.dumps({"id": str(i), "text": text, "timestamp_utc": stamps[i % 2],
                                 "timezone": "UTC"}) + "\n")
    return "const.jsonl"


def test_infinite_t_is_valid_json(workdir):
    # t=+inf is written as "inf".
    common = ["--lexicon", MINI_LEX, "--corpus", _constant_corpus(), "--out-format", "json"]
    assert run("compare", *common, "--slice-a", "hour=5", "--slice-b", "hour=8",
               "--out", "cmp") == 0
    row = _strict_json((workdir / "cmp" / "compare.json").read_text())["rows"][0]
    assert (row["t"], row["p"]) == ("inf", 0.0)
    assert run("replicate", *common, "--out", "rep") == 0
    rows = _strict_json((workdir / "rep" / "comparisons.json").read_text())["rows"]
    assert rows[0]["slice_a"] == "hour=5" and rows[0]["t"] == "inf"
    for name in ("hour", "weekday", "tense", "pronoun"):
        _strict_json((workdir / "rep" / f"{name}.json").read_text())


def test_compare_prints_infinite_t(workdir, capsys):
    assert run("compare", "--lexicon", MINI_LEX, "--corpus", _constant_corpus(),
               "--slice-a", "hour=5", "--slice-b", "hour=8", "--out", "cmp") == 0
    assert capsys.readouterr().out == (
        "wrote cmp/compare.csv\n"
        "hour=5 vs hour=8: t=inf df=2.000000 p=0.000000e+00 (significant at alpha=0.05)\n")
    assert (workdir / "cmp" / "compare.csv").read_text().splitlines()[-1] == (
        "hour=5,hour=8,2,2,100.000000,0.000000,inf,2.000000,0.000000e+00,true,0.050000")


def test_compare_self_is_p1(workdir, capsys):
    code = run("compare", "--lexicon", MINI_LEX, "--corpus", MINI_CORPUS,
               "--slice-a", "tense=past", "--slice-b", "tense=past", "--out", "cmp")
    assert code == 0
    out = capsys.readouterr().out
    assert "not significant" in out


def test_lexicon_stats_output(workdir, capsys):
    assert run("lexicon-stats", "--lexicon", MINI_LEX) == 0
    out = capsys.readouterr().out
    assert "terms: 12" in out
    assert "anxiety: 4" in out
    assert "calm: 4" in out
    assert "neutral: 4" in out


LEXICON_STATS_CSV = """\
# generator=anxarc
# version=0.1.0
# micro_score=100*(anxiety_tokens-calm_tokens)/tokens, pooled per bin
# macro_score=mean of per-post scores in the bin
# tense_precedence=past>future>present
# lexicon=mini_lexicon.tsv
# tau_anx=1.0
# tau_calm=-1.0
class,count,fraction
anxiety,4,0.333333
calm,4,0.333333
neutral,4,0.333333
total,12,1.000000
"""

LEXICON_STATS_JSON = """\
{
  "meta": {
    "generator": "anxarc",
    "version": "0.1.0",
    "micro_score": "100*(anxiety_tokens-calm_tokens)/tokens, pooled per bin",
    "macro_score": "mean of per-post scores in the bin",
    "tense_precedence": "past>future>present",
    "lexicon": "mini_lexicon.tsv",
    "tau_anx": 1.0,
    "tau_calm": -1.0
  },
  "columns": [
    "class",
    "count",
    "fraction"
  ],
  "rows": [
    {
      "class": "anxiety",
      "count": 4,
      "fraction": 0.3333333333333333
    },
    {
      "class": "calm",
      "count": 4,
      "fraction": 0.3333333333333333
    },
    {
      "class": "neutral",
      "count": 4,
      "fraction": 0.3333333333333333
    },
    {
      "class": "total",
      "count": 12,
      "fraction": 1.0
    }
  ]
}
"""


@pytest.mark.parametrize("fmt,expected", [("csv", LEXICON_STATS_CSV), ("json", LEXICON_STATS_JSON)],
                         ids=["csv", "json"])
def test_lexicon_stats_table_bytes(workdir, capsys, fmt, expected):
    assert run("lexicon-stats", "--lexicon", MINI_LEX, "--out", "stats", "--out-format", fmt) == 0
    path = os.path.join("stats", f"lexicon_stats.{fmt}")
    assert capsys.readouterr().out.endswith(f"wrote {path}\n")
    assert (workdir / path).read_bytes() == expected.encode()


def _write_arc_spec(path: Path, **overrides) -> dict:
    spec = {
        "axis": "hour",
        "bins": list(range(24)),
        "p_anx": [0.15 + 0.1 * math.sin(2 * math.pi * h / 24) for h in range(24)],
        "p_calm": 0.15,
        "posts_per_bin": 120,
        "tokens_per_post": [5, 15],
        "seed": 9,
    }
    spec.update(overrides)
    path.write_text(json.dumps(spec))
    return spec


@pytest.fixture()
def synth_env(tmp_path, monkeypatch):
    (tmp_path / "lex.tsv").write_text(util.lexicon_text())
    _write_arc_spec(tmp_path / "arc.json")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_synth_eval_arc_roundtrip(synth_env, capsys):
    assert run("synth", "--lexicon", "lex.tsv", "--arc-spec", "arc.json",
               "--out-corpus", "corpus.jsonl") == 0
    assert run("eval-arc", "--lexicon", "lex.tsv", "--arc-spec", "arc.json",
               "--corpus", "corpus.jsonl", "--out", "reports") == 0
    report = json.loads((synth_env / "reports" / "arc.json").read_text())
    assert report["meta"]["pearson_r"] > 0.9
    assert len(report["rows"]) == 24


def test_eval_arc_prints_each_file_it_writes(synth_env, capsys):
    # One wrote line per report file, in write order, before the correlations.
    assert run("synth", "--lexicon", "lex.tsv", "--arc-spec", "arc.json",
               "--out-corpus", "corpus.jsonl") == 0
    capsys.readouterr()
    for fmt, written in [("csv", ["arc.json", "arc.csv"]), ("json", ["arc.json"])]:
        out = f"out_{fmt}"
        assert run("eval-arc", "--lexicon", "lex.tsv", "--arc-spec", "arc.json",
                   "--corpus", "corpus.jsonl", "--out", out, "--out-format", fmt) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:-1] == [f"wrote {os.path.join(out, name)}" for name in written]
        assert lines[-1].startswith("pearson_r=")
        assert sorted(os.listdir(out)) == sorted(written)


def test_meta_path_with_a_line_break_stays_on_its_line(workdir, fixtures_dir):
    # A path is written into the CSV meta header with each line break as
    # its escape, so the header keeps one line per key.
    shutil.copy(MINI_LEX, "lex\nx.tsv")
    assert run("analyze-hour", "--lexicon", "lex\nx.tsv", "--corpus", MINI_CORPUS,
               "--out", "out") == 0
    report = (workdir / "out" / "hour.csv").read_text(encoding="utf-8")
    assert "# lexicon=lex\\nx.tsv\n" in report
    golden = (fixtures_dir / "golden" / "hour.csv").read_text(encoding="utf-8")
    assert report.replace("lex\\nx.tsv", MINI_LEX) == golden


def test_path_that_is_not_utf8_is_written_escaped(workdir, fixtures_dir, capsys):
    # A file name whose bytes are not UTF-8 reaches the meta header as lone
    # surrogates (b"\xff" as "\udcff"). A report writes each as its escape,
    # in CSV and in JSON, and the run succeeds with no traceback.
    bad = {"--lexicon": os.fsdecode(b"lex\xff.tsv"), "--corpus": os.fsdecode(b"c\xff.jsonl")}
    given = {"--lexicon": MINI_LEX, "--corpus": MINI_CORPUS}
    for option, name in bad.items():
        shutil.copy(given[option], name)
        for fmt in ("csv", "json"):
            paths = {**given, option: name}
            out = f"out-{option[2:]}-{fmt}"
            assert run("analyze-hour", *(x for pair in paths.items() for x in pair),
                       "--out", out, "--out-format", fmt) == 0
            assert capsys.readouterr().err == ""
            report = (workdir / out / f"hour.{fmt}").read_text(encoding="utf-8")
            golden = (fixtures_dir / "golden" / f"hour.{fmt}").read_text(encoding="utf-8")
            assert report.replace(name.replace("\udcff", "\\udcff"), given[option]) == golden
            if fmt == "json":
                assert json.loads(report)["meta"][option[2:]] == name


def test_synth_deterministic_and_seed_override(synth_env):
    run("synth", "--lexicon", "lex.tsv", "--arc-spec", "arc.json", "--out-corpus", "a.jsonl")
    run("synth", "--lexicon", "lex.tsv", "--arc-spec", "arc.json", "--out-corpus", "b.jsonl")
    run("synth", "--lexicon", "lex.tsv", "--arc-spec", "arc.json", "--out-corpus", "c.jsonl",
        "--seed", "77")
    a = (synth_env / "a.jsonl").read_bytes()
    assert a == (synth_env / "b.jsonl").read_bytes()
    assert a != (synth_env / "c.jsonl").read_bytes()


def test_synth_config_errors(synth_env, tmp_path, capsys):
    (tmp_path / "bad_arc.json").write_text('{"bins": [0]}')
    assert run("synth", "--lexicon", "lex.tsv", "--arc-spec", "bad_arc.json",
               "--out-corpus", "x.jsonl") == 1
    # Lexicon without a calm class is a configuration error for synth. It is
    # found before the output is opened, so a file already there keeps its bytes.
    (tmp_path / "anx_only.tsv").write_text("panic\t3.0\nroad\t0.0\n")
    (tmp_path / "x.jsonl").write_bytes(b"kept\n")
    capsys.readouterr()
    assert run("synth", "--lexicon", "anx_only.tsv", "--arc-spec", "arc.json",
               "--out-corpus", "x.jsonl") == 1
    assert capsys.readouterr().err == ("anxarc: config error: lexicon must contain at least "
                                       "one term of each class; missing: ['calm']\n")
    assert (tmp_path / "x.jsonl").read_bytes() == b"kept\n"


def test_hour_argmax_argmin_recovered(synth_env):
    # Sharp peak at hour 6 and dip at hour 18, with gaps to the runner-up
    # bins (10 score points) far above desk-scale sampling noise (~1.6).
    p_anx = [0.15] * 24
    p_anx[6] = 0.30
    p_anx[18] = 0.02
    _write_arc_spec(synth_env / "spike.json", p_anx=p_anx, p_calm=0.12, posts_per_bin=300)
    run("synth", "--lexicon", "lex.tsv", "--arc-spec", "spike.json", "--out-corpus", "corpus.jsonl")
    assert run("analyze-hour", "--lexicon", "lex.tsv", "--corpus", "corpus.jsonl",
               "--out", "reports", "--out-format", "json") == 0
    rows = json.loads((synth_env / "reports" / "hour.json").read_text())["rows"]
    scores = {r["hour"]: r["micro_score"] for r in rows if r["hour"] != "all"}
    assert max(scores, key=scores.get) == 6
    assert min(scores, key=scores.get) == 18


def test_hour_report_has_24_rows_plus_overall(synth_env):
    _write_arc_spec(synth_env / "one_hour.json", bins=[8], p_anx=[0.3], p_calm=0.1,
                    posts_per_bin=40)
    run("synth", "--lexicon", "lex.tsv", "--arc-spec", "one_hour.json",
        "--out-corpus", "h8.jsonl")
    assert run("analyze-hour", "--lexicon", "lex.tsv", "--corpus", "h8.jsonl",
               "--out", "reports", "--out-format", "json") == 0
    rows = json.loads((synth_env / "reports" / "hour.json").read_text())["rows"]
    assert len(rows) == 25
    empty = [r for r in rows if r["hour"] != "all" and r["n_posts"] == 0]
    assert len(empty) == 23
    assert all(r["micro_score"] is None for r in empty)


def test_weekday_planted_calm_weekend(synth_env):
    _write_arc_spec(
        synth_env / "week.json",
        axis="weekday",
        bins=list(range(7)),
        p_anx=[0.2, 0.2, 0.2, 0.2, 0.2, 0.05, 0.05],
        p_calm=[0.1, 0.1, 0.1, 0.1, 0.1, 0.3, 0.3],
        posts_per_bin=400,
    )
    run("synth", "--lexicon", "lex.tsv", "--arc-spec", "week.json", "--out-corpus", "wk.jsonl")
    assert run("analyze-weekday", "--lexicon", "lex.tsv", "--corpus", "wk.jsonl",
               "--out", "reports", "--out-format", "json") == 0
    rows = json.loads((synth_env / "reports" / "weekday.json").read_text())["rows"]
    scores = {r["weekday"]: r["micro_score"] for r in rows if r["weekday"] != "all"}
    lowest_two = sorted(scores, key=scores.get)[:2]
    assert set(lowest_two) == {5, 6}


def test_weekday_uniform_spread_small(synth_env):
    _write_arc_spec(
        synth_env / "flat.json",
        axis="weekday",
        bins=list(range(7)),
        p_anx=0.2,
        p_calm=0.1,
        posts_per_bin=2000,
        tokens_per_post=[10, 30],
    )
    run("synth", "--lexicon", "lex.tsv", "--arc-spec", "flat.json", "--out-corpus", "flat.jsonl")
    assert run("analyze-weekday", "--lexicon", "lex.tsv", "--corpus", "flat.jsonl",
               "--out", "reports", "--out-format", "json") == 0
    rows = json.loads((synth_env / "reports" / "weekday.json").read_text())["rows"]
    scores = [r["micro_score"] for r in rows if r["weekday"] != "all"]
    assert max(scores) - min(scores) < 2.0


def test_tense_all_past_corpus(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "lex.tsv").write_text(util.lexicon_text())
    lines = [
        json.dumps({"id": str(i), "text": "she walked home anx000",
                    "timestamp_utc": "2021-01-01T10:00:00Z", "timezone": "UTC"})
        for i in range(10)
    ]
    (tmp_path / "past.jsonl").write_text("\n".join(lines) + "\n")
    assert run("analyze-tense", "--lexicon", "lex.tsv", "--corpus", "past.jsonl",
               "--out", "reports", "--out-format", "json") == 0
    rows = json.loads((tmp_path / "reports" / "tense.json").read_text())["rows"]
    by_tense = {r["tense"]: r for r in rows}
    assert by_tense["past"]["pct_verb_posts"] == 100.0
    assert by_tense["present"]["n_posts"] == 0
    assert by_tense["future"]["n_posts"] == 0


def test_tense_fixture_corpus_distribution(tmp_path, monkeypatch, fixtures_dir):
    # Ten hand-labeled posts: 4 past, 3 present, 2 future, 1 noverb.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "lex.tsv").write_text(util.lexicon_text())
    texts = [
        ("she walked home", "past"),
        ("he went out", "past"),
        ("i was tired", "past"),
        ("they told me", "past"),
        ("i am here", "present"),
        ("she runs daily", "present"),
        ("we do care", "present"),
        ("i will go tomorrow", "future"),
        ("i hope it works", "future"),
        ("lovely day", "noverb"),
    ]
    lines = [
        json.dumps({"id": str(i), "text": text,
                    "timestamp_utc": "2021-01-01T10:00:00Z", "timezone": "UTC"})
        for i, (text, _) in enumerate(texts)
    ]
    (tmp_path / "mix.jsonl").write_text("\n".join(lines) + "\n")
    assert run("analyze-tense", "--lexicon", "lex.tsv", "--corpus", "mix.jsonl",
               "--out", "reports", "--out-format", "json") == 0
    rows = json.loads((tmp_path / "reports" / "tense.json").read_text())["rows"]
    by_tense = {r["tense"]: r["n_posts"] for r in rows}
    assert by_tense == {"past": 4, "present": 3, "future": 2, "noverb": 1, "all": 10}


def test_pronoun_hand_counts(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "lex.tsv").write_text(util.lexicon_text())
    texts = ["i told him", "we love you", "no pronouns here"]
    lines = [
        json.dumps({"id": str(i), "text": t,
                    "timestamp_utc": "2021-01-01T10:00:00Z", "timezone": "UTC"})
        for i, t in enumerate(texts)
    ]
    (tmp_path / "pron.jsonl").write_text("\n".join(lines) + "\n")
    assert run("analyze-pronoun", "--lexicon", "lex.tsv", "--corpus", "pron.jsonl",
               "--out", "reports", "--out-format", "json") == 0
    rows = json.loads((tmp_path / "reports" / "pronoun.json").read_text())["rows"]
    counts = {r["pronoun"]: r["n_posts"] for r in rows}
    assert counts["i"] == 1 and counts["him"] == 1
    assert counts["we"] == 1 and counts["you"] == 1
    assert counts["me"] == 0
    assert counts["all_pronoun"] == 2  # the pronoun-post baseline
    assert counts["all"] == 3  # post without pronouns still counts overall


def test_compare_planted_power(synth_env):
    # Bins planted 25 vs -25: the difference must be significant.
    _write_arc_spec(
        synth_env / "duo.json",
        bins=[8, 12],
        p_anx=[0.25, 0.0],
        p_calm=[0.0, 0.25],
        posts_per_bin=1000,
    )
    run("synth", "--lexicon", "lex.tsv", "--arc-spec", "duo.json", "--out-corpus", "duo.jsonl")
    code = run("compare", "--lexicon", "lex.tsv", "--corpus", "duo.jsonl",
               "--slice-a", "hour=8", "--slice-b", "hour=12", "--out", "cmp",
               "--out-format", "json")
    assert code == 0
    row = json.loads((synth_env / "cmp" / "compare.json").read_text())["rows"][0]
    assert row["significant"] is True
    assert row["n_a"] == 1000 and row["n_b"] == 1000
    assert row["mean_a"] > 15 > -15 > row["mean_b"]


def test_replicate_emits_four_tables_and_comparisons(synth_env):
    run("synth", "--lexicon", "lex.tsv", "--arc-spec", "arc.json", "--out-corpus", "corpus.jsonl")
    assert run("replicate", "--lexicon", "lex.tsv", "--corpus", "corpus.jsonl",
               "--out", "rep") == 0
    for name in ("hour", "weekday", "tense", "pronoun", "comparisons"):
        assert (synth_env / "rep" / f"{name}.csv").exists(), name


def test_version_flag(capsys):
    assert run("--version") == 0
    assert "anxarc" in capsys.readouterr().out


def assert_one_error_line(code: int, err: str, expected_code: int) -> None:
    assert code == expected_code, err
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("anxarc: ") and err.count("\n") == 1, err


def test_lexicon_invalid_utf8_exits_2(workdir, capsys):
    (workdir / "bad_lex.tsv").write_bytes(b"panic\t3.0\r\ncalm\t-2.0\nqu\xffiet\t-1.0\n")
    for argv in (["lexicon-stats"], ["analyze-hour", "--corpus", MINI_CORPUS, "--out", "o"]):
        code = run(*argv, "--lexicon", "bad_lex.tsv")
        err = capsys.readouterr().err
        assert_one_error_line(code, err, 2)
        assert "line 3: invalid UTF-8 at byte 23" in err


def test_byte_order_mark_in_the_lexicon_exits_2(workdir, capsys):
    # The mark would otherwise join the first term, or turn the header into
    # a row with a non-numeric association.
    for text in ("panic\t3.0\ncalm\t-2.0\nroad\t0.0\n", "term\tassociation\npanic\t3.0\n"):
        (workdir / "bom_lex.tsv").write_bytes(b"\xef\xbb\xbf" + text.encode())
        for argv in (["lexicon-stats"], ["analyze-hour", "--corpus", MINI_CORPUS, "--out", "o"]):
            code = run(*argv, "--lexicon", "bom_lex.tsv")
            err = capsys.readouterr().err
            assert_one_error_line(code, err, 2)
            assert err.endswith("line 1: UTF-8 byte order mark at the start of the file\n"), err


def test_verb_tables_invalid_utf8_exits_1(workdir, capsys):
    tables = workdir / "verbs"
    tables.mkdir()
    for name in ("irregular_past.txt", "irregular_base.txt", "ed_stoplist.txt"):
        (tables / name).write_bytes((resources.files("anxarc") / "data" / name).read_bytes())
    with open(tables / "ed_stoplist.txt", "ab") as fh:
        fh.write(b"caf\xe9\n")
    code = run("analyze-tense", "--lexicon", MINI_LEX, "--corpus", MINI_CORPUS,
               "--verb-tables", str(tables), "--out", "o")
    err = capsys.readouterr().err
    assert_one_error_line(code, err, 1)
    assert "ed_stoplist.txt" in err


def test_verb_table_word_with_whitespace_exits_1(workdir, capsys):
    tables = workdir / "verbs"
    tables.mkdir()
    for name in ("irregular_past.txt", "irregular_base.txt", "ed_stoplist.txt"):
        (tables / name).write_bytes((resources.files("anxarc") / "data" / name).read_bytes())
    n_lines = len((tables / "irregular_past.txt").read_bytes().splitlines())
    with open(tables / "irregular_past.txt", "ab") as fh:
        fh.write(b"used to\n")
    code = run("analyze-tense", "--lexicon", MINI_LEX, "--corpus", MINI_CORPUS,
               "--verb-tables", str(tables), "--out", "o")
    err = capsys.readouterr().err
    assert_one_error_line(code, err, 1)
    assert err.endswith(f"irregular_past.txt line {n_lines + 1}: word contains whitespace: 'used to'\n")
    assert not (workdir / "o").exists()


def test_verb_tables_of_a_compare_without_tense_are_never_read(workdir, capsys):
    # Two weekday slices of two posts each: a missing --verb-tables directory
    # changes neither the exit code nor a byte of the report or of stdout.
    argv = ["compare", "--lexicon", MINI_LEX, "--corpus", MINI_CORPUS,
            "--slice-a", "weekday=mon", "--slice-b", "weekday=tue", "--out", "o"]
    seen = []
    for extra in ([], ["--verb-tables", "no_such_dir"]):
        assert run(*argv, *extra) == 0
        seen.append(((workdir / "o" / "compare.csv").read_bytes(), capsys.readouterr()))
    assert seen[0] == seen[1]


def test_empty_verb_tables_is_a_usage_error(workdir, capsys, monkeypatch):
    # An empty --verb-tables names no directory: the tables are not read
    # from the current one (here edited copies), and nothing is written.
    for name in ("irregular_past.txt", "irregular_base.txt", "ed_stoplist.txt"):
        (workdir / name).write_text("went\n", encoding="utf-8")
    argv = ["analyze-tense", "--lexicon", MINI_LEX, "--corpus", MINI_CORPUS, "--out", "o"]
    for flag in (["--verb-tables", ""], ["--verb-tables="]):
        code = run(*argv, *flag)
        err = capsys.readouterr().err
        assert_one_error_line(code, err, 1)
        assert err == "anxarc: error: --verb-tables must name a directory, got ''\n"
        assert not (workdir / "o").exists()
    # An empty ANXARC_VERB_TABLES is unset: the bundled tables are read.
    monkeypatch.setenv("ANXARC_VERB_TABLES", "")
    assert run(*argv) == 0
    assert "# verb_tables=bundled\n" in (workdir / "o" / "tense.csv").read_text(encoding="utf-8")


def test_verb_tables_are_read_before_the_corpus(workdir, capsys):
    code = run("compare", "--lexicon", MINI_LEX, "--corpus", "no_such_corpus.jsonl",
               "--slice-a", "tense=past", "--slice-b", "tense=future",
               "--verb-tables", "no_such_dir", "--out", "o")
    err = capsys.readouterr().err
    assert_one_error_line(code, err, 1)
    assert err.startswith("anxarc: config error: cannot read verb table no_such_dir"), err


@pytest.mark.parametrize("text", [
    b'{"bins": [0, 1],',
    b'\xff{"bins": [0]}',
    b'[' * 100_000,
    b'{"bins": [0, 1], "p_anx": 0.2, "p_calm": 0.1, "posts_per_bin": 1e400, '
    b'"tokens_per_post": [1, 2], "seed": 1}',
    b'{"bins": [0, 1], "p_anx": 0.2, "p_calm": 0.1, "posts_per_bin": 2, '
    b'"tokens_per_post": [1, 1e400], "seed": 1}',
    b'{"bins": [0, 1], "p_anx": 0.2, "p_calm": 0.1, "posts_per_bin": 2, '
    b'"tokens_per_post": [1, 2], "seed": -1e400}',
    b'{"bins": [0, 1], "p_anx": NaN, "p_calm": 0.1, "posts_per_bin": 2, '
    b'"tokens_per_post": [1, 2], "seed": 1}',
    b'{"bins": [0, 1], "p_anx": [0.2, 0.1], "p_calm": [0.1, NaN], "posts_per_bin": 2, '
    b'"tokens_per_post": [1, 2], "seed": 1}',
    b'{"bins": [0, 1], "p_anx": 0.2, "p_calm": 0.1, "posts_per_bin": 1000000000000, '
    b'"tokens_per_post": [1, 2], "seed": 1}',
    # Counts, bins and seeds are JSON integers, not numbers to truncate.
    b'{"bins": [0.9, 1.5, "2"], "p_anx": 0.2, "p_calm": 0.1, "posts_per_bin": 2, '
    b'"tokens_per_post": [1, 2], "seed": 1}',
    b'{"bins": [0, 1], "p_anx": 0.2, "p_calm": 0.1, "posts_per_bin": 2.7, '
    b'"tokens_per_post": [1, 2], "seed": 1}',
    b'{"bins": [0, 1], "p_anx": 0.2, "p_calm": 0.1, "posts_per_bin": 2, '
    b'"tokens_per_post": [1.2, 3.9], "seed": 1}',
    b'{"bins": [0, 1], "p_anx": 0.2, "p_calm": 0.1, "posts_per_bin": 2, '
    b'"tokens_per_post": [1, 2], "seed": "7"}',
    b'{"bins": [0, 1], "p_anx": 0.2, "p_calm": 0.1, "posts_per_bin": true, '
    b'"tokens_per_post": [1, 2], "seed": 1}',
    # Probabilities are JSON numbers or arrays of them: float() would read
    # "00" character by character and true as 1.
    b'{"bins": [0, 1], "p_anx": "00", "p_calm": 0.1, "posts_per_bin": 2, '
    b'"tokens_per_post": [1, 2], "seed": 1}',
    b'{"bins": [0, 1], "p_anx": 0, "p_calm": true, "posts_per_bin": 2, '
    b'"tokens_per_post": [1, 2], "seed": 1}',
    b'{"bins": [0, 1], "p_anx": [true, false], "p_calm": 0, "posts_per_bin": 2, '
    b'"tokens_per_post": [1, 2], "seed": 1}',
], ids=["truncated", "not-utf8", "nested", "posts-inf", "tokens-inf", "seed-inf",
        "p-anx-nan", "p-calm-nan", "over-the-cap", "bins-float", "posts-float",
        "tokens-float", "seed-string", "posts-bool", "p-anx-string", "p-calm-bool",
        "p-anx-bool-list"])
def test_arc_spec_faults_exit_1(synth_env, capsys, text):
    (synth_env / "bad.json").write_bytes(text)
    # eval-arc reads the spec before the corpus, which need not exist. It
    # runs first, so a spec wrongly let through fails the test there
    # instead of having synth write the whole corpus it asks for.
    for argv in (["eval-arc", "--corpus", "c.jsonl"], ["synth", "--out-corpus", "x.jsonl"]):
        code = run(*argv, "--lexicon", "lex.tsv", "--arc-spec", "bad.json")
        err = capsys.readouterr().err
        assert_one_error_line(code, err, 1)
        assert err.startswith("anxarc: config error: ")


def test_eval_arc_of_two_corpus_files_exits_1(synth_env, capsys):
    # eval-arc's --corpus takes one file: argparse rejects a second before
    # any file is read, so a missing arc spec or lexicon does not turn this
    # usage error into an i/o or data error.
    for lexicon, arc_spec in (("lex.tsv", "arc.json"), ("lex.tsv", "missing.json"),
                              ("missing.tsv", "arc.json")):
        code = run("eval-arc", "--lexicon", lexicon, "--arc-spec", arc_spec,
                   "--corpus", "a.jsonl", "b.jsonl", "--out", "reports")
        assert code == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "anxarc: error: unrecognized arguments: b.jsonl")
        assert not (synth_env / "reports").exists()


def test_arc_spec_with_too_few_per_bin_values_exits_1(synth_env, capsys):
    _write_arc_spec(synth_env / "short.json", p_anx=[0.2] * 23)
    code = run("synth", "--lexicon", "lex.tsv", "--arc-spec", "short.json",
               "--out-corpus", "x.jsonl")
    assert code == 1
    assert capsys.readouterr().err == (
        "anxarc: config error: expected 24 per-bin values, got 23\n")
    assert not (synth_env / "x.jsonl").exists()


def test_eval_arc_of_a_flat_arc_exits_2(synth_env, capsys):
    _write_arc_spec(synth_env / "flat.json", p_anx=0.2, posts_per_bin=20)
    assert run("synth", "--lexicon", "lex.tsv", "--arc-spec", "flat.json",
               "--out-corpus", "flat.jsonl") == 0
    capsys.readouterr()
    code = run("eval-arc", "--lexicon", "lex.tsv", "--arc-spec", "flat.json",
               "--corpus", "flat.jsonl", "--out", "reports")
    err = capsys.readouterr().err
    assert_one_error_line(code, err, 2)
    assert "constant" in err


def test_eval_arc_of_a_bin_without_posts_exits_2(synth_env, capsys, monkeypatch):
    monkeypatch.setattr(pipeline, "CHUNK_BYTES", 64)  # blocks enough for two workers
    _write_arc_spec(synth_env / "two.json", bins=[0, 1], p_anx=[0.1, 0.3], posts_per_bin=5)
    _write_arc_spec(synth_env / "three.json", bins=[0, 1, 2], p_anx=[0.1, 0.3, 0.2],
                    posts_per_bin=5)
    assert run("synth", "--lexicon", "lex.tsv", "--arc-spec", "two.json",
               "--out-corpus", "two.jsonl") == 0
    capsys.readouterr()
    for workers in ("1", "2"):
        code = run("eval-arc", "--lexicon", "lex.tsv", "--arc-spec", "three.json",
                   "--corpus", "two.jsonl", "--out", "reports", "--workers", workers)
        err = capsys.readouterr().err
        assert code == 2
        assert err == "anxarc: data error: hour bin 2 contains no posts\n"


def test_cli_import_leaves_out_what_a_scan_does_not_need():
    # Every run pays for importing the CLI; a scan needs none of these.
    unwanted = ["dataclasses", "inspect", "anxarc.synth", "multiprocessing",
                "importlib.resources", "pathlib", "tempfile"]
    src = str(Path(__file__).resolve().parent.parent / "src")
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import anxarc.cli; "
             "print(','.join(m for m in sys.argv[2:] if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe, src, *unwanted],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


# Near-valid documents: the pieces of a valid file mixed with byte-order
# marks, CRLF line ends, duplicates, non-finite and out-of-range numbers,
# wrong types and arbitrary bytes.
_ends = st.sampled_from([b"\n", b"\r\n"])
_lexicon_lines = st.one_of(
    st.sampled_from([
        b"term\tassociation", b"\xef\xbb\xbfterm\tassociation", b"panic\t3.0", b"PANIC\t1",
        b"calm\t-2.6", b"road\t0.0", b"dread\t2", b"relax\t-1.0", b"x\tNaN", b"x\tInfinity",
        b"x\t-inf", b"x\t1e400", b"x\t3.0000001", b"x\t", b"\t1.0", b"two words\t1.0",
        b"a\tb\tc", b"x", b"", b" ", b"w\xe9\t1.0", b"\xff",
    ]),
    st.binary(max_size=12),
)
_lexicon_files = st.lists(st.tuples(_lexicon_lines, _ends).map(b"".join), max_size=8).map(b"".join)


@given(_lexicon_files)
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_lexicon_exits_as_documented(synth_env, fixtures_dir, capsys, data):
    (synth_env / "fuzz.tsv").write_bytes(data)
    _write_arc_spec(synth_env / "small.json", bins=[0, 1], p_anx=[0.1, 0.3],
                    posts_per_bin=2, tokens_per_post=[1, 3])
    shutil.copy(fixtures_dir / MINI_CORPUS, synth_env / MINI_CORPUS)
    try:
        lexicon = load_lexicon(str(synth_env / "fuzz.tsv"))
    except LexiconError:
        lexicon = None
    for argv, ok_code in (
        (["lexicon-stats"], 0),
        (["analyze-hour", "--corpus", MINI_CORPUS, "--out", "o"], 0),
        (["synth", "--arc-spec", "small.json", "--out-corpus", "s.jsonl"],
         # synth needs a term of every class.
         0 if lexicon is not None and all(class_terms(lexicon)) else 1),
    ):
        capsys.readouterr()
        code = run(*argv, "--lexicon", "fuzz.tsv")
        assert_one_error_line(code, capsys.readouterr().err, 2 if lexicon is None else ok_code)


_spec_values = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    # Sizes up to the cap on planted tokens and past it.
    st.integers(1, 2 * MAX_PLANTED_TOKENS),
    st.lists(st.integers(1, 2 * MAX_PLANTED_TOKENS), min_size=2, max_size=2).map(sorted),
    st.sampled_from([0, 1, 2, -1, 0.0, 0.1, 0.5, 1.5, "1", None, True, [], {}, [0, 1], [1, 2],
                     [2, 1], [0.2, 0.1], [0.1, float("nan")], [1, float("inf")], [23, 24],
                     [0, 0], "weekday", "minute"]),
)
_spec_base = {"axis": "hour", "bins": [0, 1], "p_anx": [0.1, 0.3], "p_calm": 0.1,
              "posts_per_bin": 2, "tokens_per_post": [1, 3], "seed": 1}
_spec_dicts = st.builds(
    lambda base, changes, drop: {k: v for k, v in {**base, **changes}.items() if k not in drop},
    st.just(_spec_base),
    st.dictionaries(st.sampled_from(sorted(_spec_base)), _spec_values, min_size=1, max_size=3),
    st.sets(st.sampled_from(sorted(_spec_base)), max_size=1),
)
_spec_files = st.one_of(
    st.builds(
        lambda obj, bom, crlf, cut, big: (
            bom + json.dumps(obj, indent=1).replace("\n", crlf).replace("Infinity", big)
        ).encode("utf-8")[:cut],
        _spec_dicts, st.sampled_from(["", "\ufeff"]), st.sampled_from(["\n", "\r\n"]),
        st.sampled_from([None, 1, 40]), st.sampled_from(["Infinity", "1e400"]),
    ),
    st.sampled_from([b"[]", b"null", b'"spec"', b"\xff\xfe{}"]),
    st.binary(max_size=20),
)


@given(_spec_files)
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_arc_spec_exits_as_documented(synth_env, capsys, data):
    if not (synth_env / "c.jsonl").exists():
        _write_arc_spec(synth_env / "arc.json", posts_per_bin=5)
        assert run("synth", "--lexicon", "lex.tsv", "--arc-spec", "arc.json",
                   "--out-corpus", "c.jsonl") == 0
    (synth_env / "fuzz.json").write_bytes(data)
    try:
        spec = ArcSpec.from_json(str(synth_env / "fuzz.json"))
        valid = True
    except ArcSpecError:
        valid = False
    commands = [
        # A spec whose bins hold no posts, or whose arc is flat or one bin
        # long, is a data error.
        (["eval-arc", "--corpus", "c.jsonl", "--out", "o"], (0, 2)),
    ]
    # synth writes every token a spec plants: a valid spec near the cap
    # would take minutes, so only specs that plant few tokens run it.
    if not valid or len(spec.bins) * spec.posts_per_bin * spec.tokens_per_post[1] <= 1000:
        commands.insert(0, (["synth", "--out-corpus", "s.jsonl"], (0,)))
    for argv, ok_codes in commands:
        capsys.readouterr()
        code = run(*argv, "--lexicon", "lex.tsv", "--arc-spec", "fuzz.json")
        err = capsys.readouterr().err
        assert code in (ok_codes if valid else (1,)), err
        assert_one_error_line(code, err, code)
    if code == 0:
        report = json.loads((synth_env / "o" / "arc.json").read_text())
        for value in [report["meta"]["pearson_r"], report["meta"]["spearman_r"],
                      *(cell for row in report["rows"] for cell in row.values())]:
            assert math.isfinite(value)


_word_lines = st.one_of(
    st.sampled_from([b"went", b"go", b"walked", b"# comment", b"", b"  ", b"\xef\xbb\xbfwent",
                     b"GO", b"caf\xc3\xa9", b"caf\xe9", b"\xff"]),
    st.binary(max_size=8),
)
_word_files = st.lists(st.tuples(_word_lines, _ends).map(b"".join), max_size=5).map(b"".join)


@given(st.tuples(_word_files, _word_files, _word_files), st.sets(st.integers(0, 2), max_size=1))
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_verb_tables_exit_as_documented(workdir, capsys, files, missing):
    tables = workdir / "verbs"
    shutil.rmtree(tables, ignore_errors=True)
    tables.mkdir()
    for i, (name, data) in enumerate(zip(
            ("irregular_past.txt", "irregular_base.txt", "ed_stoplist.txt"), files)):
        if i not in missing:
            (tables / name).write_bytes(data)
    try:
        load_verb_tables(str(tables))
        valid = True
    except VerbTableError:
        valid = False
    for argv, ok_codes in (
        (["analyze-tense"], (0,)),
        (["replicate"], (0,)),
        # Either tense slice may hold fewer than 2 posts.
        (["compare", "--slice-a", "tense=past", "--slice-b", "tense=present"], (0, 2)),
    ):
        capsys.readouterr()
        code = run(*argv, "--lexicon", MINI_LEX, "--corpus", MINI_CORPUS,
                   "--verb-tables", "verbs", "--out", "o")
        err = capsys.readouterr().err
        assert code in (ok_codes if valid else (1,)), err
        assert_one_error_line(code, err, code)
