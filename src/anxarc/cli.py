"""Command-line surface: analysis commands, significance tests, synth harness.

Exit codes are a stable contract: 0 success, 1 usage/configuration error,
2 data error; a run stopped by SIGINT or SIGTERM prints ``anxarc:
interrupted`` and exits 130 or 143, the shell's codes for them. A command
declares only the options it reads, and each can also be set by an
environment variable: ``--tau-anx`` by ``ANXARC_TAU_ANX``.
A set variable is read as the command's own ``--flag=value`` placed before
the command line's flags, so argparse types, checks and defaults both alike,
a bad value is reported as the flag would be, and the command line wins. An
empty variable counts as unset; ``ANXARC_CORPUS`` names one file.
The ``synth`` module is imported only by the ``synth`` and ``eval-arc``
commands, so the start-up of every other run does not pay for it.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from contextlib import contextmanager

from . import __version__
from .corpus import FORMATS, CorpusError
from .lexicon import DEFAULT_TAU_ANX, DEFAULT_TAU_CALM, LexiconError, class_terms, load_lexicon
from .pipeline import FAMILIES, FAMILY_KEYS, ScanResult, scan_corpus
from .report import Table, base_meta, cell
from .slicer import Tense, VerbTableError
from .stats import DEFAULT_ALPHA, ConstantInputError, InsufficientSampleError, welch_t

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

ENV_PREFIX = "ANXARC_"

WEEKDAY_LABELS = ("mon", "tue", "wed", "thu", "fri", "sat", "sun")

_TIME_COLUMNS = ["n_posts", "n_tokens", "n_anx", "n_calm", "micro_score", "macro_score"]

_COMPARE_COLUMNS = [
    "slice_a", "slice_b", "n_a", "n_b", "mean_a", "mean_b",
    "t", "df", "p", "significant", "alpha",
]
_COMPARE_TEST = "welch two-sided t-test on per-post scores"


class UsageError(Exception):
    """Bad flags or configuration; exits with code 1."""


class ConfigError(Exception):
    """A bad arc spec; exits with code 1."""


class DataError(Exception):
    """Bad input data; exits with code 2."""


class _Terminated(BaseException):
    """SIGTERM, raised where the run is, as SIGINT raises KeyboardInterrupt.

    Not an Exception: a forked scan worker leaves through its ``os._exit``
    instead of sending it to the parent as its result.
    """


def _terminate(signum, frame):
    raise _Terminated


def _check(args: argparse.Namespace) -> None:
    """The range checks that the flags' types and choices cannot make."""
    if "alpha" in args and not (0.0 < args.alpha < 1.0):
        raise UsageError(f"--alpha must be in (0, 1), got {args.alpha}")
    if "workers" in args and args.workers < 1:
        raise UsageError(f"--workers must be >= 1, got {args.workers}")
    if getattr(args, "verb_tables", None) == "":
        raise UsageError("--verb-tables must name a directory, got ''")
    if not (args.tau_calm < 0.0 < args.tau_anx):
        raise UsageError(
            f"thresholds must satisfy --tau-calm < 0 < --tau-anx, "
            f"got ({args.tau_anx}, {args.tau_calm})"
        )


def _load_lexicon(args: argparse.Namespace) -> dict[str, int]:
    return load_lexicon(args.lexicon, (args.tau_anx, args.tau_calm))


def _class_map(args: argparse.Namespace) -> dict[str, int]:
    # A scan is handed the anxiety and calm terms only: the neutral terms
    # (most of a lexicon) are freed before its token table is built.
    return {term: code for term, code in _load_lexicon(args).items() if code}


def _scan(args: argparse.Namespace, families: tuple[str, ...]) -> ScanResult:
    res = scan_corpus(*args.corpus, class_map=_class_map(args), families=families, fmt=args.format,
                      verb_tables=getattr(args, "verb_tables", None), workers=args.workers)
    if not res.overall.hist:
        raise DataError("zero scoreable posts in the corpus")
    return res


def _scan_meta(args: argparse.Namespace, res: ScanResult, **extra: object) -> dict[str, object]:
    meta = base_meta(
        lexicon=args.lexicon,
        corpus=";".join(args.corpus),
        corpus_format=args.format,
        tau_anx=args.tau_anx,
        tau_calm=args.tau_calm,
        **extra,
    )
    meta.update(res.counts)
    return meta


def _agg_cells(agg) -> tuple:
    """One bin's ``_TIME_COLUMNS`` cells; the first is ``n_posts``."""
    return agg.summary()[:6]


def _write(table: Table, args: argparse.Namespace) -> None:
    print(f"wrote {table.write(args.out, args.out_format)}")


def _hour_table(args: argparse.Namespace, res: ScanResult) -> Table:
    rows = [[h, *_agg_cells(agg)] for h, agg in res.bins["hour"].items()]
    rows.append(["all", *_agg_cells(res.overall)])
    return Table(
        name="hour",
        meta=_scan_meta(args, res),
        columns=["hour", *_TIME_COLUMNS],
        rows=rows,
    )


def _weekday_table(args: argparse.Namespace, res: ScanResult) -> Table:
    rows = [[d, WEEKDAY_LABELS[d], *_agg_cells(agg)] for d, agg in res.bins["weekday"].items()]
    rows.append(["all", "all", *_agg_cells(res.overall)])
    return Table(
        name="weekday",
        meta=_scan_meta(args, res),
        columns=["weekday", "label", *_TIME_COLUMNS],
        rows=rows,
    )


def _tense_table(args: argparse.Namespace, res: ScanResult) -> Table:
    cells = {tense: _agg_cells(agg) for tense, agg in res.bins["tense"].items()}
    verb_posts = sum(c[0] for tense, c in cells.items() if tense is not Tense.NO_VERB)
    rows = []
    for tense, c in cells.items():
        pct = 100.0 * c[0] / verb_posts if verb_posts and tense is not Tense.NO_VERB else None
        rows.append([tense.value, pct, *c])
    rows.append(["all", None, *_agg_cells(res.overall)])
    return Table(
        name="tense",
        meta=_scan_meta(
            args,
            res,
            verb_tables=args.verb_tables or "bundled",
            pct_denominator="verb-bearing posts (past+present+future)",
        ),
        columns=["tense", "pct_verb_posts", *_TIME_COLUMNS],
        rows=rows,
    )


def _pronoun_table(args: argparse.Namespace, res: ScanResult) -> Table:
    overall_cells = _agg_cells(res.pronoun_overall)
    n_pronoun_posts = overall_cells[0]
    rows = []
    for pron, agg in res.bins["pronoun"].items():
        cells = _agg_cells(agg)
        pct = 100.0 * cells[0] / n_pronoun_posts if n_pronoun_posts else None
        rows.append([pron, pct, *cells])
    rows.append(["all_pronoun", None, *overall_cells])
    rows.append(["all", None, *_agg_cells(res.overall)])
    return Table(
        name="pronoun",
        meta=_scan_meta(
            args,
            res,
            pronoun_keys=",".join(res.bins["pronoun"]),
            pct_denominator="posts containing at least one pronoun key",
            multi_pronoun_rule="a post with k distinct pronouns counts in all k bins",
        ),
        columns=["pronoun", "pct_pronoun_posts", *_TIME_COLUMNS],
        rows=rows,
    )


# Each slice family and the builder of its table, in report order.
_TABLES = {"hour": _hour_table, "weekday": _weekday_table, "tense": _tense_table,
           "pronoun": _pronoun_table}


def cmd_analyze(args: argparse.Namespace) -> int:
    res = _scan(args, (args.family,))
    _write(_TABLES[args.family](args, res), args)
    return EXIT_OK


def _slice_key(text: str) -> tuple[str, object]:
    """The family and typed bin key of a ``family=key`` slice, checked against ``FAMILY_KEYS``."""
    family, sep, key = text.partition("=")
    family = family.strip().lower()
    key = key.strip().lower()
    if not sep or not key:
        raise UsageError(f"slice must look like family=key (e.g. hour=8), got {text!r}")
    if text.splitlines() != [text]:  # the text is the label of unquoted CSV cells
        raise UsageError(f"slice must be one line, got {text!r}")
    if family not in FAMILY_KEYS:
        raise UsageError(f"unknown slice family {family!r}; choose from {FAMILIES}")
    if family == "weekday" and key in WEEKDAY_LABELS:
        key = str(WEEKDAY_LABELS.index(key))
    elif key.isascii() and key.isdigit():  # not int(): it also reads "+8", "0_8" and "٨" as 8
        key = key.lstrip("0") or "0"
    bins = {(k.value if isinstance(k, Tense) else str(k)): k for k in FAMILY_KEYS[family]}
    if key not in bins:
        raise UsageError(f"no such slice: {text!r}")
    return family, bins[key]


def cmd_compare(args: argparse.Namespace) -> int:
    # A slice that names no bin is a usage error before any post is read.
    slices = [_slice_key(text) for text in (args.slice_a, args.slice_b)]
    res = _scan(args, tuple({family for family, _ in slices}))
    table = _comparisons_table("compare", args, res, [(args.slice_a, args.slice_b)])
    values = dict(zip(_COMPARE_COLUMNS, table.rows[0]))
    for side in ("a", "b"):
        if values[f"n_{side}"] < 2:
            raise DataError(f"slice {values['slice_' + side]!r} has fewer than 2 scored posts")
    _write(table, args)
    t, df, p = (cell(col, values[col]) for col in ("t", "df", "p"))
    verdict = "significant" if values["significant"] else "not significant"
    print(f"{args.slice_a} vs {args.slice_b}: t={t} df={df} p={p} ({verdict} at alpha={args.alpha})")
    return EXIT_OK


@contextmanager
def _synth():
    """The synth module, imported on first use, with its errors made the CLI's own."""
    from . import synth

    try:
        yield synth
    except synth.ArcSpecError as exc:
        raise ConfigError(exc) from None
    except synth.EmptyBinError as exc:
        raise DataError(exc) from None


def cmd_synth(args: argparse.Namespace) -> int:
    from dataclasses import replace

    with _synth() as synth:
        spec = synth.ArcSpec.from_json(args.arc_spec)
        if args.seed is not None:
            spec = replace(spec, seed=args.seed)
        lexicon = _load_lexicon(args)
        n = synth.generate_file(spec, lexicon, args.out_corpus)
    print(f"wrote {n} posts to {args.out_corpus} (axis={spec.axis}, seed={spec.seed})")
    return EXIT_OK


def cmd_eval_arc(args: argparse.Namespace) -> int:
    with _synth() as synth:
        spec = synth.ArcSpec.from_json(args.arc_spec)
        report = synth.evaluate_arc(args.corpus, _class_map(args), spec, workers=args.workers)
    table = Table(
        name="arc",
        meta=base_meta(
            lexicon=args.lexicon,
            corpus=args.corpus,
            tau_anx=args.tau_anx,
            tau_calm=args.tau_calm,
            axis=report.axis,
            arc_spec=args.arc_spec,
            pearson_r=report.pearson_r,
            spearman_r=report.spearman_r,
        ),
        columns=["bin", "planted", "recovered"],
        rows=[list(row) for row in zip(report.bins, report.planted, report.recovered)],
    )
    # The arc report proper is JSON; a plot-ready CSV is emitted alongside
    # when CSV output was requested.
    for fmt in ("json", "csv") if args.out_format == "csv" else ("json",):
        print(f"wrote {table.write(args.out, fmt)}")
    print(f"pearson_r={report.pearson_r!r} spearman_r={report.spearman_r!r}")
    return EXIT_OK


_REPLICATE_PAIRS = [
    ("hour=5", "hour=8"),
    ("hour=8", "hour=10"),
    ("hour=10", "hour=12"),
    ("hour=12", "hour=14"),
    ("hour=14", "hour=18"),
    ("weekday=sun", "weekday=wed"),
    ("tense=past", "tense=present"),
    ("tense=past", "tense=future"),
    ("tense=present", "tense=future"),
]


def cmd_replicate(args: argparse.Namespace) -> int:
    res = _scan(args, FAMILIES)

    # The four headline tables from a single scan.
    for build in _TABLES.values():
        _write(build(args, res), args)

    # Headline pairwise tests, plus the two baselines.
    table = _comparisons_table("comparisons", args, res, _REPLICATE_PAIRS)
    table.rows.append(_compare_row("all", "all_pronoun", res.overall, res.pronoun_overall,
                                   args.alpha))
    _write(table, args)
    print("replication tables written; see docs/replication.md for the expected shapes")
    return EXIT_OK


def _comparisons_table(name: str, args: argparse.Namespace, res: ScanResult,
                       pairs: list[tuple[str, str]]) -> Table:
    """The Welch test of each pair of ``family=key`` slices, one row a pair."""
    rows = []
    for slice_a, slice_b in pairs:
        agg_a, agg_b = (res.bins[family][key]
                        for family, key in map(_slice_key, (slice_a, slice_b)))
        rows.append(_compare_row(slice_a, slice_b, agg_a, agg_b, args.alpha))
    return Table(name=name, meta=_scan_meta(args, res, test=_COMPARE_TEST),
                 columns=_COMPARE_COLUMNS, rows=rows)


def _compare_row(label_a: str, label_b: str, agg_a, agg_b, alpha: float) -> list[object]:
    (n_a, *_, mean_a, counts_a), (n_b, *_, mean_b, counts_b) = agg_a.summary(), agg_b.summary()
    cells = [label_a, label_b, n_a, n_b, mean_a, mean_b]
    if n_a < 2 or n_b < 2:
        return [*cells, None, None, None, None, alpha]
    r = welch_t(counts_a, counts_b, alpha)
    return [*cells, r.t, r.df, r.p, r.significant, r.alpha]


def cmd_lexicon_stats(args: argparse.Namespace) -> int:
    counts = list(zip(("anxiety", "calm", "neutral"), map(len, class_terms(_load_lexicon(args)))))
    total = sum(count for _, count in counts)
    print(f"terms: {total}")
    for name, count in counts:
        print(f"{name}: {count} ({100.0 * count / total:.2f}%)")
    if args.out:
        table = Table(
            name="lexicon_stats",
            meta=base_meta(lexicon=args.lexicon, tau_anx=args.tau_anx, tau_calm=args.tau_calm),
            columns=["class", "count", "fraction"],
            rows=[*([name, count, count / total] for name, count in counts), ["total", total, 1.0]],
        )
        _write(table, args)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    # Usage problems exit 1, not argparse's default 2 (2 is the data-error code).
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="anxarc",
        description="Anxiety scoring with a word lexicon and temporal arc analysis of post streams.",
        epilog="Each command takes only the options it reads; each can also be set by an ANXARC_* "
               "variable (--tau-anx by ANXARC_TAU_ANX). An empty one is unset; the command line wins.",
    )
    parser.add_argument("--version", action="version", version=f"anxarc {__version__}")

    lex = _Parser(add_help=False)
    lex.add_argument("--lexicon", required=True, help="path to the term<TAB>association lexicon TSV")
    lex.add_argument("--tau-anx", type=float, default=DEFAULT_TAU_ANX,
                     help=f"anxiety threshold (> 0, default {DEFAULT_TAU_ANX})")
    lex.add_argument("--tau-calm", type=float, default=DEFAULT_TAU_CALM,
                     help=f"calmness threshold (< 0, default {DEFAULT_TAU_CALM})")

    corp = _Parser(add_help=False)
    corp.add_argument("--corpus", nargs="+", required=True, help="corpus file(s)")
    corp.add_argument("--format", choices=FORMATS, default="jsonl", help="corpus format")

    scan = _Parser(add_help=False)
    scan.add_argument("--out", default=".", help="output directory (default: current directory)")
    scan.add_argument("--out-format", choices=("csv", "json"), default="csv")
    scan.add_argument("--workers", type=int, default=1, help="worker processes (default 1)")

    verbs = _Parser(add_help=False)
    verbs.add_argument("--verb-tables", help="directory overriding the bundled verb tables")

    alpha = _Parser(add_help=False)
    alpha.add_argument("--alpha", type=float, default=DEFAULT_ALPHA,
                       help=f"significance level (default {DEFAULT_ALPHA})")

    sub = parser.add_subparsers(dest="command", required=True)

    for family, extra, help_text in (
        ("hour", [], "per-hour anxiety scores (24 bins + overall)"),
        ("weekday", [], "per-weekday anxiety scores (Monday-first)"),
        ("tense", [verbs], "tense distribution and per-tense scores"),
        ("pronoun", [], "per-pronoun scores and baselines"),
    ):
        p = sub.add_parser(f"analyze-{family}", parents=[lex, corp, scan, *extra], help=help_text)
        p.set_defaults(func=cmd_analyze, family=family)

    p = sub.add_parser("compare", parents=[lex, corp, scan, verbs, alpha],
                       help="Welch t-test between two slices")
    p.add_argument("--slice-a", required=True, help="e.g. hour=8, weekday=wed, tense=past, pronoun=i")
    p.add_argument("--slice-b", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("synth", parents=[lex],
                       help="generate a planted-arc synthetic corpus (JSONL)")
    p.add_argument("--arc-spec", required=True, help="arc specification JSON file")
    p.add_argument("--out-corpus", required=True, help="output corpus path")
    p.add_argument("--seed", type=int, default=None, help="override the spec's seed")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("eval-arc", parents=[lex, scan],
                       help="recover an arc from a corpus and compare to the planted one")
    p.add_argument("--corpus", required=True, help="corpus file (JSONL)")
    p.add_argument("--arc-spec", required=True)
    p.set_defaults(func=cmd_eval_arc)

    p = sub.add_parser("replicate", parents=[lex, corp, scan, verbs, alpha],
                       help="emit all four analysis tables plus headline comparisons")
    p.set_defaults(func=cmd_replicate)

    # Its own --out, without a default: the table is written only when asked for.
    p = sub.add_parser("lexicon-stats", parents=[lex],
                       help="lexicon size and class proportions")
    p.add_argument("--out", help="write the class table to this directory")
    p.add_argument("--out-format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_lexicon_stats)

    return parser


def _env_argv(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """``argv`` with each set ``ANXARC_<FLAG>`` of its command put in as ``--flag=value``.

    The flags are the options of the command's own parser, so each of them,
    and no other, can be set. They go right after the command name, before
    the command line's own flags, which therefore win; the ``=`` keeps a
    value such as ``-1.5`` from being read as an option.
    """
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    command = sub.choices.get(argv[0]) if argv else None
    if command is None:  # no command, or --version/--help: nothing to set
        return argv
    env = []
    for action in command._actions:
        if action.nargs == 0:  # -h
            continue
        flag = action.option_strings[-1]
        value = os.environ.get(ENV_PREFIX + flag[2:].upper().replace("-", "_"))
        if value:
            env.append(f"{flag}={value}")
    return [argv[0], *env, *argv[1:]]


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_env_argv(parser, argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    # SIGTERM unwinds the run as SIGINT does, so every finally runs: workers
    # are killed and reaped. The caller's handler is put back after the run.
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        _check(args)
        return args.func(args)
    except UsageError as exc:
        print(f"anxarc: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConfigError, VerbTableError) as exc:
        print(f"anxarc: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, LexiconError, CorpusError, InsufficientSampleError,
            ConstantInputError) as exc:
        print(f"anxarc: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"anxarc: i/o error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (KeyboardInterrupt, _Terminated) as exc:
        print("anxarc: interrupted", file=sys.stderr)
        return 128 + (signal.SIGINT if isinstance(exc, KeyboardInterrupt) else signal.SIGTERM)
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
