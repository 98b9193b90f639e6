#!/usr/bin/env python3
"""Scan benchmark for anxarc: the real CLI, end to end and per layer.

    python3 scanbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of an anxarc checkout; the package is imported from
``src/`` there, and every input is generated from ``--seed``. Each measured
run is a fresh ``python -m anxarc.cli`` process whose reports are checked
against the planted counts and the first run's bytes; the first run is also
checked against an independent recount. ``--trace 0`` repeats the command
for ``--seconds`` and reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced runs (``tracer.py``) for ``--seconds`` and
reports the per-layer metrics. Human-readable lines come first; the last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Work files go to ``.scanbench/`` in the
checkout. NOTES.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent

SYNTH_POSTS_PER_BIN = 1_500
# One 32768-line scan chunk: short runs, so a run holds many samples. Split
# into four files, each file is one chunk in a pool of its own.
MIXED_RECORDS = 32_768
MIXED_FILES = 4
MIN_ARC_PEARSON = 0.99

# The calibration work (inputs.calibration_work, CALIBRATION_PASSES passes
# over fixed lines) takes about CALIBRATION_REF_S on the 2-vCPU host these
# figures were first taken on.
CALIBRATION_PASSES = 6
CALIBRATION_REF_S = 0.2

MIN_SAMPLES = 3
DEADLINE_S = 165.0  # the whole invocation must end within 180 s
PROCESS_TIMEOUT_S = 120.0

REPORTS = {
    "analyze-hour": ("hour.csv",),
    "replicate": ("hour.csv", "weekday.csv", "tense.csv", "pronoun.csv", "comparisons.csv"),
}
FAMILIES = {"analyze-hour": ("hour",), "replicate": ("hour", "weekday", "tense", "pronoun")}
SKIP_KEYS = ("n_records", "n_parse_skips", "n_empty_skips", "n_tz_skips")


@dataclass(frozen=True)
class Workload:
    command: str
    corpus: str
    files: int
    workers: int


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


WORKLOADS = {
    "hour-synth": Workload("analyze-hour", "synth", 1, 1),
    "replicate-mixed": Workload("replicate", "mixed", 1, 1),
    "replicate-mixed-w2": Workload("replicate", "mixed", MIXED_FILES, min(2, _nproc())),
}

END_TO_END_UNITS = {"posts_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB", "ok_rate": "ratio"}

# Per-layer metric -> unit. Layers of worker compute come from a
# workers=1 traced run; at workers>1 only the parent's layers
# (pipeline.*, corpus.read) come from the traced run of the workload itself.
LAYER_UNITS = {
    "corpus.read.s": "s",
    "corpus.parse_record.s": "s",
    "corpus.parse_record.calls": "count",
    "corpus.parse_skips": "count",
    "corpus.localize.s": "s",
    "corpus.localize.calls": "count",
    "corpus.tz_skips": "count",
    "kernel.score_text.s": "s",
    "kernel.score_text.calls": "count",
    "kernel.tokenize.s": "s",
    "kernel.tokenize.calls": "count",
    "kernel.score_tokens.s": "s",
    "kernel.tokens": "count",
    "slicer.classify_tense.s": "s",
    "slicer.pronoun_keys.s": "s",
    "scoring.update_counts.s": "s",
    "scoring.update_counts.calls": "count",
    "scoring.samples_held": "count",
    "pipeline.scan_s": "s",
    "pipeline.self_s": "s",
    "pipeline.merge_from.s": "s",
    "pipeline.merge_from.calls": "count",
    "pipeline.chunks": "count",
    "pipeline.pools": "count",
    "pipeline.pool_start_s": "s",
    "pipeline.ipc_bytes": "bytes",
    "pipeline.wait_s": "s",
    "stats.welch_t.s": "s",
    "stats.welch_t.calls": "count",
    "report.write.s": "s",
    "lexicon.load_lexicon.s": "s",
    "slicer.load_verb_tables.s": "s",
    "cli.import_s": "s",
    "tracing_overhead_s": "s",
}
PARENT_SIDE = ("pipeline.", "corpus.read.")


@dataclass
class Proc:
    code: int
    wall_s: float
    maxrss_mb: float
    stderr: str


class BenchError(Exception):
    """The benchmark cannot run here (missing checkout, inputs or time)."""


class Spawner:
    """The helper process (``spawner.py``) that starts and reaps every measured process."""

    def __init__(self, env: dict[str, str]):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawner.py")], env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], cwd: Path, timeout: float) -> Proc:
        err_path = cwd / "stderr.txt"
        request = {"argv": argv, "cwd": str(cwd), "stderr": str(err_path), "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise BenchError("the spawner process died")
        reply = json.loads(reply)
        return Proc(reply["code"], reply["wall_s"], reply["maxrss_kb"] / 1024.0,
                    err_path.read_text(encoding="utf-8", errors="replace")[-2000:])

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


class HostSpeed:
    """Times a fixed piece of pure-Python work between runs, to read the host's speed.

    The host's speed drifts by up to 2x over tens of seconds, and a run's CPU
    time drifts with its wall time. A wall time measured between two calibrations is
    converted to reference seconds: multiplied by CALIBRATION_REF_S over the
    mean of the two calibration times.
    """

    def __init__(self) -> None:
        self.lines = inputs.calibration_lines()
        self.times: list[float] = []
        self.calibrate()

    def calibrate(self) -> None:
        t0 = time.perf_counter()
        for _ in range(CALIBRATION_PASSES):
            inputs.calibration_work(self.lines)
        self.times.append(time.perf_counter() - t0)

    def scale(self) -> float:
        """Reference seconds per wall second between the last two calibrations."""
        return CALIBRATION_REF_S / statistics.mean(self.times[-2:])


# ---------------------------------------------------------------- report checks

def _split_csv(data: bytes) -> tuple[dict[str, str], list[dict[str, str]]]:
    text = data.decode("utf-8")
    meta_lines = [ln for ln in text.splitlines() if ln.startswith("# ")]
    meta = dict(ln[2:].split("=", 1) for ln in meta_lines)
    body = "\n".join(ln for ln in text.splitlines() if not ln.startswith("# "))
    return meta, list(csv.DictReader(io.StringIO(body)))


def _normalized(reports: dict[str, bytes]) -> dict[str, bytes]:
    # The corpus meta line names the input files, which differ between a
    # one-file and a split run; every other byte must match.
    return {name: b"\n".join(ln for ln in data.split(b"\n") if not ln.startswith(b"# corpus="))
            for name, data in reports.items()}


def _row_key(family: str, row: dict[str, str]) -> tuple[str, str]:
    key = row[family]
    if key in ("all", "all_pronoun"):
        return "overall", key
    return family, key


def checked(check, *args) -> list[str]:
    """Run one output check; a report too malformed to check fails the run, not the benchmark."""
    try:
        return check(*args)
    except (ValueError, KeyError) as exc:
        return [f"malformed output ({check.__name__}): {exc!r}"]


def check_planted(reports: dict[str, bytes], planted: dict[str, int]) -> list[str]:
    problems = []
    for name, data in reports.items():
        meta, _ = _split_csv(data)
        for key in SKIP_KEYS:
            if meta.get(key) != str(planted[key]):
                problems.append(f"{name}: {key}={meta.get(key)} but {planted[key]} planted")
    return problems


def check_recount(reports: dict[str, bytes], counted: dict) -> list[str]:
    problems = []
    bins = counted["bins"]
    for name, data in reports.items():
        family = name.split(".")[0]
        if family == "comparisons":
            continue
        _, rows = _split_csv(data)
        for row in rows:
            key = _row_key(family, row)
            got = [int(row[c]) for c in ("n_posts", "n_tokens", "n_anx", "n_calm")]
            want = bins.get(key, [0, 0, 0, 0])
            if got != want:
                problems.append(f"{name}: bin {key} counts {got}, recount {want}")
    return problems


def check_arc(reports: dict[str, bytes], info: dict) -> list[str]:
    _, rows = _split_csv(reports["hour.csv"])
    hours = [r for r in rows if r["hour"] != "all"]
    problems = [f"hour {r['hour']}: n_posts={r['n_posts']}, planted {info['posts_per_bin']}"
                for r in hours if int(r["n_posts"]) != info["posts_per_bin"]]
    recovered = [float(r["micro_score"]) for r in hours]
    r = statistics.correlation(info["arc"], recovered)
    if r < MIN_ARC_PEARSON:
        problems.append(f"recovered arc Pearson r={r:.4f} < {MIN_ARC_PEARSON}")
    return problems


# ---------------------------------------------------------------- traces

def trace_values(data: dict) -> dict[str, float]:
    """The per-layer metrics of one trace file written by tracer.py."""
    layers, counts = data["layers"], data["counts"]

    def s(name: str) -> float:
        return layers.get(name, {}).get("s", 0.0)

    def calls(name: str) -> int:
        return layers.get(name, {}).get("calls", 0)

    scan = layers.get("pipeline.scan", {"s": 0.0, "child_s": 0.0})
    return {
        "corpus.read.s": s("corpus.read"),
        "corpus.parse_record.s": s("corpus.parse_record"),
        "corpus.parse_record.calls": calls("corpus.parse_record"),
        "corpus.parse_skips": counts.get("corpus.parse_skips", 0),
        "corpus.localize.s": s("corpus.localize"),
        "corpus.localize.calls": calls("corpus.localize"),
        "corpus.tz_skips": counts.get("corpus.tz_skips", 0),
        "kernel.score_text.s": s("kernel.score_text"),
        "kernel.score_text.calls": calls("kernel.score_text"),
        "kernel.tokenize.s": s("kernel.tokenize"),
        "kernel.tokenize.calls": calls("kernel.tokenize"),
        "kernel.score_tokens.s": s("kernel.score_tokens"),
        "kernel.tokens": counts.get("kernel.tokens", 0),
        "slicer.classify_tense.s": s("slicer.classify_tense"),
        "slicer.pronoun_keys.s": s("slicer.pronoun_keys"),
        "scoring.update_counts.s": s("scoring.update_counts"),
        "scoring.update_counts.calls": calls("scoring.update_counts"),
        "scoring.samples_held": counts.get("scoring.samples_held", 0),
        "pipeline.scan_s": scan["s"],
        "pipeline.self_s": scan["s"] - scan["child_s"],
        "pipeline.merge_from.s": s("pipeline.merge_from"),
        "pipeline.merge_from.calls": calls("pipeline.merge_from"),
        "pipeline.chunks": counts.get("pipeline.chunks", 0),
        "pipeline.pools": calls("pipeline.pool_start"),
        "pipeline.pool_start_s": s("pipeline.pool_start"),
        "pipeline.ipc_bytes": counts.get("pipeline.ipc_bytes", 0),
        "pipeline.wait_s": s("pipeline.wait"),
        "stats.welch_t.s": s("stats.welch_t"),
        "stats.welch_t.calls": calls("stats.welch_t"),
        "report.write.s": s("report.write"),
    }


def check_trace(values: dict[str, float], planted: dict[str, int], full: bool) -> list[str]:
    """A full trace must see every record and skip that was planted."""
    problems = []
    if full:
        for metric, key in (("corpus.parse_record.calls", "n_records"),
                            ("corpus.parse_skips", "n_parse_skips"), ("corpus.tz_skips", "n_tz_skips")):
            if values[metric] != planted[key]:
                problems.append(f"trace: {metric}={values[metric]}, planted {key}={planted[key]}")
    if values["pipeline.self_s"] < 0:
        problems.append("trace: traced children take longer than the scan")
    return problems


# ---------------------------------------------------------------- the benchmark

@dataclass
class Inputs:
    lexicon: str
    single: str
    files: list[str]
    info: dict
    meta: dict


class Bench:
    """One invocation: the inputs of one workload and seed, and every run made on them."""

    def __init__(self, work: Path, name: str, seed: int, seconds: float, spawner: Spawner):
        self.started = time.perf_counter()
        self.work = work
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.spawner = spawner
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: list[str] = []
        self.reference: dict[str, bytes] = {}
        self.setup: list[dict] = []
        self.inputs = self._make_inputs()

    def _make_inputs(self) -> Inputs:
        lexicon = self.work / "lexicon.tsv"
        single = self.work / "corpus.jsonl"
        classes = inputs.write_lexicon(lexicon, self.seed)
        files = [single.name]
        if self.wl.corpus == "synth":
            info = inputs.write_synth(single, lexicon, self.seed, SYNTH_POSTS_PER_BIN)
        else:
            lines, info = inputs.mixed_lines(self.seed, MIXED_RECORDS, classes)
            inputs.write_lines(single, lines)
            if self.wl.files > 1:
                files = [f"corpus-{k + 1}.jsonl" for k in range(self.wl.files)]
                for name, part in zip(files, inputs.split_lines(lines, self.wl.files)):
                    inputs.write_lines(self.work / name, part)
        meta = {
            "corpus": self.wl.corpus,
            "corpus_files": len(files),
            "corpus_bytes": single.stat().st_size,
            "corpus_sha256": inputs.sha256_of(single),
            "lexicon_terms": inputs.LEXICON_TERMS,
            "lexicon_sha256": inputs.sha256_of(lexicon),
            "planted": info["planted"],
            "planted_skip_kinds": info["skip_kinds"],
        }
        return Inputs(lexicon.name, single.name, files, info, meta)

    def _remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def _spawn(self, argv: list[str]) -> Proc:
        timeout = min(PROCESS_TIMEOUT_S, self._remaining())
        if timeout <= 0:
            raise BenchError(f"out of time after {self.attempted} runs")
        return self.spawner.run(argv, self.work, timeout)

    def cli(self, files: list[str] | None = None, workers: int | None = None,
            trace: str | None = None) -> tuple[Proc, dict[str, bytes] | None, dict | None]:
        """One checked CLI run: the process, its reports and its trace values.

        ``trace`` is None for a plain ``python -m anxarc.cli`` run, or
        ``"full"`` / ``"parent"`` for a run under tracer.py. Reports and trace
        values are None when the run failed a check.
        """
        self.attempted += 1
        run = self.attempted
        out = f"out-{run}"
        trace_file = self.work / f"trace-{run}.json"
        args = [self.wl.command, "--lexicon", self.inputs.lexicon, "--corpus", *(files or self.inputs.files),
                "--workers", str(workers or self.wl.workers), "--out", out]
        if trace is None:
            argv = [sys.executable, "-m", "anxarc.cli", *args]
        else:
            argv = [sys.executable, str(HERE / "tracer.py"), trace_file.name,
                    *(["--parent-only"] if trace == "parent" else []), "--", *args]
        proc = self._spawn(argv)
        reports, values, problems = None, None, []
        if proc.code != 0:
            problems.append(f"exit code {proc.code}: {proc.stderr.strip()[-500:]}")
        else:
            try:
                reports = {n: (self.work / out / n).read_bytes() for n in REPORTS[self.wl.command]}
            except OSError as exc:
                problems.append(f"missing report: {exc}")
            else:
                problems += checked(check_planted, reports, self.inputs.info["planted"])
                if self.reference and _normalized(reports) != self.reference:
                    problems.append("report bytes differ from the first run's")
            if trace is not None:
                try:
                    data = json.loads(trace_file.read_text(encoding="utf-8"))
                except (OSError, ValueError) as exc:
                    problems.append(f"unreadable trace: {exc!r}")
                else:
                    values = trace_values(data)
                    if data["missing"]:
                        # A renamed function is a gap in the trace, not a wrong result.
                        note = f"tracer could not wrap: {', '.join(data['missing'])}"
                        if note not in self.notes:
                            self.notes.append(note)
                    problems += check_trace(values, self.inputs.info["planted"],
                                            trace == "full" and not data["missing"])
        shutil.rmtree(self.work / out, ignore_errors=True)
        if problems:
            self.failed += 1
            self.problems += [f"run {run}: {p}" for p in problems]
            return proc, None, None
        return proc, reports, values

    def make_reference(self) -> None:
        """The first run (one file, one worker): checked against the recount and, on synth, the arc."""
        _, reports, _ = self.cli(files=[self.inputs.single], workers=1)
        if reports is None:
            return
        planted = self.inputs.info["planted"]
        counted = inputs.recount([self.work / self.inputs.single],
                                 self.work / self.inputs.lexicon, FAMILIES[self.wl.command])
        problems = [f"recount {k}={counted['skips'][k]} but {planted[k]} planted"
                    for k in SKIP_KEYS if counted["skips"][k] != planted[k]]
        problems += checked(check_recount, reports, counted)
        if self.wl.corpus == "synth":
            problems += checked(check_arc, reports, self.inputs.info)
        if problems:
            self.failed += 1
            self.problems += [f"reference run: {p}" for p in problems]
        self.reference = _normalized(reports)

    def setup_probe(self) -> float:
        out = self.work / "setup.json"
        proc = self._spawn([sys.executable, str(HERE / "setup_probe.py"), self.inputs.lexicon, out.name])
        if proc.code != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        phases = json.loads(out.read_text(encoding="utf-8"))
        phases["wall_s"] = proc.wall_s
        self.setup.append(phases)
        return proc.wall_s

    def _median_setup(self, key: str) -> float:
        return statistics.median(s[key] for s in self.setup)

    def _keep_sampling(self, started: float, sample_s: list[float]) -> bool:
        """At least MIN_SAMPLES; then while one more sample fits in --seconds."""
        typical = statistics.median(sample_s) if sample_s else 0.0
        if typical + 5.0 > self._remaining():
            return False
        return len(sample_s) < MIN_SAMPLES or time.perf_counter() - started + typical <= self.seconds

    def measure(self) -> tuple[dict[str, float], dict]:
        self.make_reference()
        host = HostSpeed()
        setup_walls = [self.setup_probe() for _ in range(3)]
        host.calibrate()
        setup_ref = [w * host.scale() for w in setup_walls]
        walls, good_walls, ref_walls, rss = [], [], [], []
        n_records = self.inputs.info["planted"]["n_records"]
        started = time.perf_counter()
        while self._keep_sampling(started, walls):
            proc, reports, _ = self.cli()
            setup_walls.append(self.setup_probe())
            host.calibrate()
            scale = host.scale()
            setup_ref.append(setup_walls[-1] * scale)
            walls.append(proc.wall_s)
            if reports is not None:
                good_walls.append(proc.wall_s)
                ref_walls.append(proc.wall_s * scale)
                rss.append(proc.maxrss_mb)
        metrics = {
            # Pooled: all records read over all (reference) seconds. A median
            # of runs flips between the host's fast and slow phases.
            "posts_per_s": n_records * len(ref_walls) / sum(ref_walls) if ref_walls else 0.0,
            "setup_s": statistics.median(setup_ref),
            "peak_rss_mb": statistics.median(rss) if rss else 0.0,
            "ok_rate": (self.attempted - self.failed) / self.attempted,
        }
        detail = {
            "wall_posts_per_s": n_records * len(good_walls) / sum(good_walls) if good_walls else 0.0,
            "wall_setup_s": statistics.median(setup_walls),
            "samples": {"wall_posts_per_s": [n_records / w for w in good_walls],
                        "ref_posts_per_s": [n_records / w for w in ref_walls],
                        "peak_rss_mb": rss, "wall_setup_s": setup_walls, "ref_setup_s": setup_ref,
                        "calibration_s": host.times},
            "error_rate": self.failed / self.attempted,
        }
        return metrics, detail

    def trace(self) -> tuple[dict[str, float], dict]:
        self.make_reference()
        for _ in range(3):
            self.setup_probe()
        parallel = self.wl.workers > 1
        plain, traced, layer_runs = [], [], []
        started = time.perf_counter()
        while self._keep_sampling(started, [p + t for p, t in zip(plain, traced)]):
            # Alternate which of the pair runs first: the order of two
            # back-to-back runs biases their difference.
            if len(plain) % 2:
                proc, _, values = self.cli(trace="parent" if parallel else "full")
                plain.append(self.cli()[0].wall_s)
            else:
                plain.append(self.cli()[0].wall_s)
                proc, _, values = self.cli(trace="parent" if parallel else "full")
            traced.append(proc.wall_s)
            if parallel and values is not None:
                # Worker compute, split per layer, from a one-worker traced
                # run over the same files.
                worker = self.cli(workers=1, trace="full")[2]
                values = worker and {k: (v if k.startswith(PARENT_SIDE) else worker[k])
                                     for k, v in values.items()}
            if values is not None:
                layer_runs.append(values)
            self.setup_probe()
        metrics = {name: 0.0 for name in LAYER_UNITS}
        for name in (layer_runs[0] if layer_runs else ()):
            metrics[name] = statistics.median(run[name] for run in layer_runs)
        metrics["lexicon.load_lexicon.s"] = self._median_setup("load_lexicon_s")
        metrics["slicer.load_verb_tables.s"] = self._median_setup("load_verb_tables_s")
        metrics["cli.import_s"] = self._median_setup("import_s")
        # Paired: each traced run against the untraced run next to it.
        metrics["tracing_overhead_s"] = statistics.median(t - p for p, t in zip(plain, traced))
        detail = {
            "samples": {"untraced_wall_s": plain, "traced_wall_s": traced},
            "error_rate": self.failed / self.attempted,
            "layer_sources": (
                "pipeline.* and corpus.read.s from the parent of the workers>1 traced run; "
                "the other layers from a workers=1 traced run over the same files"
                if parallel else "every layer from the traced runs; set-up layers from the set-up probes"),
        }
        return metrics, detail


# ---------------------------------------------------------------- entry point

def _summary(name: str, trace: bool, metrics: dict, units: dict, detail: dict, bench: Bench) -> None:
    kind = "per-layer (traced)" if trace else "end-to-end"
    print(f"scanbench {name} seed={bench.seed}: {kind}, {bench.attempted} CLI runs, "
          f"{bench.failed} failed (error_rate {detail['error_rate']:g})")
    for key, samples in detail["samples"].items():
        if len(samples) >= 4:
            q1, q2, q3 = statistics.quantiles(samples, n=4)
            print(f"  {key:<28} n={len(samples):<3} median {q2:.6g}  quartiles {q1:.6g} .. {q3:.6g}")
        else:
            print(f"  {key:<28} n={len(samples):<3} {samples}")
    for metric, value in metrics.items():
        print(f"  {metric:<28} {value:.6g} {units[metric]}")
    for line in bench.problems[:20] + bench.notes:
        print(f"  note: {line}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "anxarc" / "cli.py").is_file():
        print(f"scanbench: {src}/anxarc not found; run from the root of an anxarc checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import anxarc
    from anxarc import _kernel

    if Path(anxarc.__file__).resolve().parent != (src / "anxarc").resolve():
        print(f"scanbench: imported anxarc from {anxarc.__file__}, not {src}", file=sys.stderr)
        return 2

    work = root / ".scanbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("ANXARC_")}
    env["PYTHONPATH"] = str(src)
    # Started while this process is still small; see spawner.py.
    spawner = Spawner(env)
    try:
        bench = Bench(work, args.workload, args.seed, args.seconds, spawner)
        metrics, detail = bench.trace() if args.trace else bench.measure()
    except BenchError as exc:
        print(f"scanbench: {exc}", file=sys.stderr)
        return 2
    finally:
        spawner.close()
        for path in work.iterdir():
            if path.is_dir():
                shutil.rmtree(path)
            elif path.suffix in (".jsonl", ".tsv"):
                path.unlink()

    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    env_record = {
        "workload": args.workload,
        "command": bench.wl.command,
        "workers": bench.wl.workers,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "kernel": _kernel.IMPL,
        "python": platform.python_version(),
        "nproc": _nproc(),
        **bench.inputs.meta,
        "attempted": bench.attempted,
        "failed": bench.failed,
        **detail,
        "problems": bench.problems,
        "notes": bench.notes,
    }
    (work / "result.json").write_text(json.dumps({"env": env_record, "metrics": metrics}, indent=1) + "\n",
                                      encoding="utf-8")
    _summary(args.workload, bool(args.trace), metrics, units, detail, bench)
    print("scanbench-env " + json.dumps({k: v for k, v in env_record.items() if k != "samples"}))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
