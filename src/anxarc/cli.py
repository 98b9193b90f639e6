"""Command-line surface: analysis commands, significance tests, synth harness.

Exit codes are a stable contract: 0 success, 1 usage/configuration error,
2 data error. Every flag has an environment-variable override with the
``ANXARC_`` prefix (``--tau-anx`` -> ``ANXARC_TAU_ANX``); explicit flags win.
The ``synth`` module is imported only by the ``synth`` and ``eval-arc``
commands, so the start-up of every other run does not pay for it.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from typing import NamedTuple

from . import __version__
from .corpus import FORMATS, CorpusError
from .lexicon import DEFAULT_TAU_ANX, DEFAULT_TAU_CALM, Lexicon, LexiconError, lexicon_stats, load_lexicon
from .pipeline import FAMILIES, ScanResult, scan_corpus
from .report import Table, base_meta, fmt_p, fmt_stat
from .slicer import PRONOUNS, Tense, VerbTableError, load_verb_tables
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
_COMPARE_FORMATS = {"t": fmt_stat, "df": fmt_stat, "p": fmt_p}
_COMPARE_TEST = "welch two-sided t-test on per-post scores"


class UsageError(Exception):
    """Bad flags or configuration; exits with code 1."""


class ConfigError(Exception):
    """A bad arc spec; exits with code 1."""


class DataError(Exception):
    """Bad input data; exits with code 2."""


class RunConfig(NamedTuple):
    lexicon_path: str
    corpus_paths: list[str]
    corpus_format: str
    tau_anx: float
    tau_calm: float
    verb_tables_dir: str | None
    alpha: float
    out_dir: str
    out_format: str
    workers: int

    def validate(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise UsageError(f"--alpha must be in (0, 1), got {self.alpha}")
        if self.workers < 1:
            raise UsageError(f"--workers must be >= 1, got {self.workers}")
        if not (self.tau_calm < 0.0 < self.tau_anx):
            raise UsageError(
                f"thresholds must satisfy --tau-calm < 0 < --tau-anx, "
                f"got ({self.tau_anx}, {self.tau_calm})"
            )
        if self.corpus_format not in FORMATS:
            raise UsageError(f"--format must be one of {FORMATS}")
        if self.out_format not in ("csv", "json"):
            raise UsageError("--out-format must be csv or json")


def _env(name: str) -> str | None:
    return os.environ.get(ENV_PREFIX + name)


def _float_arg(value, name: str, fallback: float) -> float:
    if value is None:
        return fallback
    try:
        return float(value)
    except (TypeError, ValueError):
        raise UsageError(f"{name} must be a number, got {value!r}") from None


def _int_arg(value, name: str, fallback: int) -> int:
    if value is None:
        return fallback
    try:
        return int(value)
    except (TypeError, ValueError):
        raise UsageError(f"{name} must be an integer, got {value!r}") from None


def _first_set(*values):
    # Flag > environment > default; 0 and 0.0 are legitimate flag values,
    # so this must not use `or`.
    for v in values:
        if v is not None:
            return v
    return None


def _build_config(args: argparse.Namespace, need_corpus: bool = True) -> RunConfig:
    lexicon_path = _first_set(args.lexicon, _env("LEXICON"))
    if not lexicon_path:
        raise UsageError("--lexicon is required (or set ANXARC_LEXICON)")
    corpus_paths = list(getattr(args, "corpus", None) or [])
    if not corpus_paths and _env("CORPUS"):
        corpus_paths = [_env("CORPUS")]
    if need_corpus and not corpus_paths:
        raise UsageError("--corpus is required (or set ANXARC_CORPUS)")
    cfg = RunConfig(
        lexicon_path=lexicon_path,
        corpus_paths=corpus_paths,
        corpus_format=_first_set(getattr(args, "format", None), _env("FORMAT"), "jsonl"),
        tau_anx=_float_arg(_first_set(args.tau_anx, _env("TAU_ANX")),
                           "--tau-anx", DEFAULT_TAU_ANX),
        tau_calm=_float_arg(_first_set(args.tau_calm, _env("TAU_CALM")),
                            "--tau-calm", DEFAULT_TAU_CALM),
        verb_tables_dir=_first_set(getattr(args, "verb_tables", None), _env("VERB_TABLES")),
        alpha=_float_arg(_first_set(getattr(args, "alpha", None), _env("ALPHA")),
                         "--alpha", DEFAULT_ALPHA),
        out_dir=_first_set(getattr(args, "out", None), _env("OUT"), "."),
        out_format=_first_set(getattr(args, "out_format", None), _env("OUT_FORMAT"), "csv"),
        workers=_int_arg(_first_set(getattr(args, "workers", None), _env("WORKERS")),
                         "--workers", 1),
    )
    cfg.validate()
    return cfg


def _load_lexicon(cfg: RunConfig) -> Lexicon:
    return load_lexicon(cfg.lexicon_path, (cfg.tau_anx, cfg.tau_calm))


def _scan(cfg: RunConfig, families: tuple[str, ...], lexicon: Lexicon) -> ScanResult:
    tables = None
    if "tense" in families:
        tables = load_verb_tables(cfg.verb_tables_dir)
    res = scan_corpus(
        *cfg.corpus_paths,
        lexicon=lexicon,
        families=families,
        fmt=cfg.corpus_format,
        tables=tables,
        workers=cfg.workers,
    )
    if not res.overall.hist:
        raise DataError("zero scoreable posts in the corpus")
    return res


def _scan_meta(cfg: RunConfig, res: ScanResult, **extra: object) -> dict[str, object]:
    meta = base_meta(
        lexicon=cfg.lexicon_path,
        corpus=";".join(cfg.corpus_paths),
        corpus_format=cfg.corpus_format,
        tau_anx=cfg.tau_anx,
        tau_calm=cfg.tau_calm,
        **extra,
    )
    meta.update(res.skip_counts())
    return meta


def _agg_cells(agg) -> list[object]:
    """One bin's ``_TIME_COLUMNS`` cells; the first is ``n_posts``."""
    totals = agg.totals()
    return [*totals, totals.micro_score, agg.macro_score]


def _write(table: Table, cfg: RunConfig) -> str:
    path = table.write(cfg.out_dir, cfg.out_format)
    print(f"wrote {path}")
    return path


def _hour_table(cfg: RunConfig, res: ScanResult) -> Table:
    rows = [[h, *_agg_cells(res.hours[h])] for h in range(24)]
    rows.append(["all", *_agg_cells(res.overall)])
    return Table(
        name="hour",
        meta=_scan_meta(cfg, res),
        columns=["hour", *_TIME_COLUMNS],
        rows=rows,
    )


def _weekday_table(cfg: RunConfig, res: ScanResult) -> Table:
    rows = [[d, WEEKDAY_LABELS[d], *_agg_cells(res.weekdays[d])] for d in range(7)]
    rows.append(["all", "all", *_agg_cells(res.overall)])
    return Table(
        name="weekday",
        meta=_scan_meta(cfg, res),
        columns=["weekday", "label", *_TIME_COLUMNS],
        rows=rows,
    )


def _tense_table(cfg: RunConfig, res: ScanResult) -> Table:
    verb_tenses = (Tense.PAST, Tense.PRESENT, Tense.FUTURE)
    verb_cells = [_agg_cells(res.tenses[t]) for t in verb_tenses]
    verb_posts = sum(cells[0] for cells in verb_cells)
    rows = []
    for tense, cells in zip(verb_tenses, verb_cells):
        pct = 100.0 * cells[0] / verb_posts if verb_posts else None
        rows.append([tense.value, pct, *cells])
    rows.append([Tense.NO_VERB.value, None, *_agg_cells(res.tenses[Tense.NO_VERB])])
    rows.append(["all", None, *_agg_cells(res.overall)])
    return Table(
        name="tense",
        meta=_scan_meta(
            cfg,
            res,
            verb_tables=cfg.verb_tables_dir or "bundled",
            pct_denominator="verb-bearing posts (past+present+future)",
        ),
        columns=["tense", "pct_verb_posts", *_TIME_COLUMNS],
        rows=rows,
    )


def _pronoun_table(cfg: RunConfig, res: ScanResult) -> Table:
    overall_cells = _agg_cells(res.pronoun_overall)
    n_pronoun_posts = overall_cells[0]
    rows = []
    for pron in PRONOUNS:
        cells = _agg_cells(res.pronouns[pron])
        pct = 100.0 * cells[0] / n_pronoun_posts if n_pronoun_posts else None
        rows.append([pron, pct, *cells])
    rows.append(["all_pronoun", None, *overall_cells])
    rows.append(["all", None, *_agg_cells(res.overall)])
    return Table(
        name="pronoun",
        meta=_scan_meta(
            cfg,
            res,
            pronoun_keys=",".join(PRONOUNS),
            pct_denominator="posts containing at least one pronoun key",
            multi_pronoun_rule="a post with k distinct pronouns counts in all k bins",
        ),
        columns=["pronoun", "pct_pronoun_posts", *_TIME_COLUMNS],
        rows=rows,
    )


def _analyze(args: argparse.Namespace, family: str, build) -> int:
    cfg = _build_config(args)
    lexicon = _load_lexicon(cfg)
    res = _scan(cfg, (family,), lexicon)
    _write(build(cfg, res), cfg)
    return EXIT_OK


def cmd_analyze_hour(args: argparse.Namespace) -> int:
    return _analyze(args, "hour", _hour_table)


def cmd_analyze_weekday(args: argparse.Namespace) -> int:
    return _analyze(args, "weekday", _weekday_table)


def cmd_analyze_tense(args: argparse.Namespace) -> int:
    return _analyze(args, "tense", _tense_table)


def cmd_analyze_pronoun(args: argparse.Namespace) -> int:
    return _analyze(args, "pronoun", _pronoun_table)


def _parse_slice(text: str) -> tuple[str, str]:
    family, sep, key = text.partition("=")
    family = family.strip().lower()
    key = key.strip().lower()
    if not sep or not key:
        raise UsageError(f"slice must look like family=key (e.g. hour=8), got {text!r}")
    if family not in FAMILIES:
        raise UsageError(f"unknown slice family {family!r}; choose from {FAMILIES}")
    if family == "weekday" and key in WEEKDAY_LABELS:
        key = str(WEEKDAY_LABELS.index(key))
    return family, key


def _slice_bin(res: ScanResult, text: str):
    """The bin of a ``family=key`` slice; a key out of range is not in its family's dict."""
    family, key = _parse_slice(text)
    bins, key_type = {"hour": (res.hours, int), "weekday": (res.weekdays, int),
                      "tense": (res.tenses, Tense), "pronoun": (res.pronouns, str)}[family]
    try:
        return bins[key_type(key)]
    except (KeyError, ValueError):
        raise UsageError(f"no such slice: {text!r}") from None


def cmd_compare(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    families = tuple({_parse_slice(text)[0] for text in (args.slice_a, args.slice_b)})
    lexicon = _load_lexicon(cfg)
    res = _scan(cfg, families, lexicon)
    agg_a = _slice_bin(res, args.slice_a)
    agg_b = _slice_bin(res, args.slice_b)
    for label, agg in ((args.slice_a, agg_a), (args.slice_b, agg_b)):
        if agg.totals().n_posts < 2:
            raise DataError(f"slice {label!r} has fewer than 2 scored posts")
    row = _compare_row(args.slice_a, args.slice_b, agg_a, agg_b, cfg.alpha)
    table = Table(
        name="compare",
        meta=_scan_meta(cfg, res, test=_COMPARE_TEST),
        columns=_COMPARE_COLUMNS,
        rows=[row],
        csv_formats=_COMPARE_FORMATS,
    )
    _write(table, cfg)
    cell = dict(zip(_COMPARE_COLUMNS, row))
    verdict = "significant" if cell["significant"] else "not significant"
    print(
        f"{args.slice_a} vs {args.slice_b}: t={fmt_stat(cell['t'])} "
        f"df={fmt_stat(cell['df'])} p={fmt_p(cell['p'])} ({verdict} at alpha={cell['alpha']})"
    )
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

    cfg = _build_config(args, need_corpus=False)
    with _synth() as synth:
        spec = synth.ArcSpec.from_json(args.arc_spec)
        seed = args.seed if args.seed is not None else _env("SEED")
        if seed is not None:
            spec = replace(spec, seed=_int_arg(seed, "--seed", spec.seed))
        lexicon = _load_lexicon(cfg)
        n = synth.generate_file(spec, lexicon, args.out_corpus)
    print(f"wrote {n} posts to {args.out_corpus} (axis={spec.axis}, seed={spec.seed})")
    return EXIT_OK


def cmd_eval_arc(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    with _synth() as synth:
        spec = synth.ArcSpec.from_json(args.arc_spec)
        lexicon = _load_lexicon(cfg)
        if len(cfg.corpus_paths) != 1:
            raise UsageError("eval-arc takes exactly one --corpus file")
        report = synth.evaluate_arc(cfg.corpus_paths[0], lexicon, spec, workers=cfg.workers)
    table = Table(
        name="arc",
        meta=base_meta(
            lexicon=cfg.lexicon_path,
            corpus=cfg.corpus_paths[0],
            tau_anx=cfg.tau_anx,
            tau_calm=cfg.tau_calm,
            axis=report.axis,
            arc_spec=args.arc_spec,
            pearson_r=report.pearson_r,
            spearman_r=report.spearman_r,
        ),
        columns=["bin", "planted", "recovered"],
        rows=[
            [b, p, r]
            for b, p, r in zip(report.bins, report.planted, report.recovered)
        ],
    )
    # The arc report proper is JSON; a plot-ready CSV is emitted alongside
    # when CSV output was requested.
    path = table.write(cfg.out_dir, "json")
    if cfg.out_format == "csv":
        table.write(cfg.out_dir, "csv")
    print(f"wrote {path}")
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
    cfg = _build_config(args)
    lexicon = _load_lexicon(cfg)
    res = _scan(cfg, FAMILIES, lexicon)

    # The four headline tables from a single scan.
    for build in (_hour_table, _weekday_table, _tense_table, _pronoun_table):
        _write(build(cfg, res), cfg)

    # Headline pairwise tests, plus the two baselines.
    rows = []
    for slice_a, slice_b in _REPLICATE_PAIRS:
        agg_a = _slice_bin(res, slice_a)
        agg_b = _slice_bin(res, slice_b)
        rows.append(_compare_row(slice_a, slice_b, agg_a, agg_b, cfg.alpha))
    rows.append(_compare_row("all", "all_pronoun", res.overall, res.pronoun_overall, cfg.alpha))
    table = Table(
        name="comparisons",
        meta=_scan_meta(cfg, res, test=_COMPARE_TEST),
        columns=_COMPARE_COLUMNS,
        rows=rows,
        csv_formats=_COMPARE_FORMATS,
    )
    _write(table, cfg)
    print("replication tables written; see docs/replication.md for the expected shapes")
    return EXIT_OK


def _compare_row(label_a: str, label_b: str, agg_a, agg_b, alpha: float) -> list[object]:
    n_a, n_b = agg_a.totals().n_posts, agg_b.totals().n_posts
    if n_a < 2 or n_b < 2:
        return [label_a, label_b, n_a, n_b, agg_a.macro_score, agg_b.macro_score,
                None, None, None, None, alpha]
    r = welch_t(agg_a.score_counts(), agg_b.score_counts(), alpha)
    return [label_a, label_b, n_a, n_b, agg_a.macro_score, agg_b.macro_score,
            r.t, r.df, r.p, r.significant, r.alpha]


def cmd_lexicon_stats(args: argparse.Namespace) -> int:
    cfg = _build_config(args, need_corpus=False)
    lexicon = _load_lexicon(cfg)
    stats = lexicon_stats(lexicon)
    print(f"terms: {stats.total}")
    for name, count in (
        ("anxiety", stats.n_anxiety),
        ("calm", stats.n_calm),
        ("neutral", stats.n_neutral),
    ):
        print(f"{name}: {count} ({100.0 * count / stats.total:.2f}%)")
    if getattr(args, "out", None):
        table = Table(
            name="lexicon_stats",
            meta=base_meta(lexicon=cfg.lexicon_path, tau_anx=cfg.tau_anx, tau_calm=cfg.tau_calm),
            columns=["class", "count", "fraction"],
            rows=[
                ["anxiety", stats.n_anxiety, stats.n_anxiety / stats.total],
                ["calm", stats.n_calm, stats.n_calm / stats.total],
                ["neutral", stats.n_neutral, stats.n_neutral / stats.total],
                ["total", stats.total, 1.0],
            ],
        )
        _write(table, cfg)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    # Usage problems exit 1, not argparse's default 2 (2 is the data-error code).
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="anxarc",
        description="Lexicon-based anxiety scoring and temporal arc analysis of post streams.",
        epilog="Every flag can be set via an ANXARC_* environment variable "
               "(e.g. ANXARC_LEXICON); explicit flags win.",
    )
    parser.add_argument("--version", action="version", version=f"anxarc {__version__}")

    lex = _Parser(add_help=False)
    lex.add_argument("--lexicon", help="path to the term<TAB>association lexicon TSV")
    lex.add_argument("--tau-anx", type=float, default=None,
                     help=f"anxiety threshold (> 0, default {DEFAULT_TAU_ANX})")
    lex.add_argument("--tau-calm", type=float, default=None,
                     help=f"calmness threshold (< 0, default {DEFAULT_TAU_CALM})")

    corp = _Parser(add_help=False)
    corp.add_argument("--corpus", nargs="+", help="corpus file(s)")
    corp.add_argument("--format", choices=FORMATS, default=None, help="corpus format")

    out = _Parser(add_help=False)
    out.add_argument("--out", help="output directory (default: current directory)")
    out.add_argument("--out-format", choices=("csv", "json"), default=None)

    scan = _Parser(add_help=False)
    scan.add_argument("--workers", type=int, default=None, help="worker processes (default 1)")
    scan.add_argument("--verb-tables", help="directory overriding the bundled verb tables")
    scan.add_argument("--alpha", type=float, default=None,
                      help=f"significance level (default {DEFAULT_ALPHA})")

    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, help_text in (
        ("analyze-hour", cmd_analyze_hour, "per-hour anxiety scores (24 bins + overall)"),
        ("analyze-weekday", cmd_analyze_weekday, "per-weekday anxiety scores (Monday-first)"),
        ("analyze-tense", cmd_analyze_tense, "tense distribution and per-tense scores"),
        ("analyze-pronoun", cmd_analyze_pronoun, "per-pronoun scores and baselines"),
    ):
        p = sub.add_parser(name, parents=[lex, corp, out, scan], help=help_text)
        p.set_defaults(func=fn)

    p = sub.add_parser("compare", parents=[lex, corp, out, scan],
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

    p = sub.add_parser("eval-arc", parents=[lex, corp, out, scan],
                       help="recover an arc from a corpus and compare to the planted one")
    p.add_argument("--arc-spec", required=True)
    p.set_defaults(func=cmd_eval_arc)

    p = sub.add_parser("replicate", parents=[lex, corp, out, scan],
                       help="emit all four analysis tables plus headline comparisons")
    p.set_defaults(func=cmd_replicate)

    p = sub.add_parser("lexicon-stats", parents=[lex, out],
                       help="lexicon size and class proportions")
    p.set_defaults(func=cmd_lexicon_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
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


if __name__ == "__main__":
    sys.exit(main())
