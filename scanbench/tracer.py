"""Run the anxarc CLI in this process with timers around each layer's public functions.

    python scanbench/tracer.py OUT.json [--parent-only] -- <anxarc arguments>

The timers are installed from outside the package, by replacing module and
class attributes (``pipeline.parse_record``, ``_kernel.tokenize``,
``BinAggregate.update_counts``, ``ScanResult.merge_from``, ``cli.welch_t``,
...) before the CLI runs. Per-call layers are summed in memory as
[seconds, calls, seconds spent in traced children]; the few coarse spans
(scans, pools, chunk waits, merges, tests, report writes) are kept whole.
Everything is written to OUT.json when the CLI returns, and the process
exits with the CLI's exit code.

``--parent-only`` times only what the parent of a ``--workers N`` scan does:
reading, pool start, waiting for chunk results, their pickled size, and
merging. The workers are forked from this process, so any per-post timer
installed here would also slow them down.
"""

from __future__ import annotations

import json
import multiprocessing
import multiprocessing.pool
import pickle
import sys
import time

perf = time.perf_counter


class Tracer:
    """Timers installed over module and class attributes, with their totals and spans."""

    def __init__(self) -> None:
        self.layers: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self.spans: list[tuple[str, str, float, float]] = []
        self.missing: list[str] = []
        self._stack = [self.acc("root")]

    def acc(self, name: str) -> list:
        # [seconds, calls, seconds in traced children, name]
        return self.layers.setdefault(name, [0.0, 0, 0.0, name])

    def _target(self, owner, attr: str):
        # A function renamed or removed by a later change leaves a gap in
        # the trace, which is reported, rather than stopping the run.
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return fn

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, owner, attr: str, name: str, *, span: bool = False,
             on_error: tuple[type, str] | None = None, on_result=None) -> None:
        fn = self._target(owner, attr)
        if fn is None:
            return
        acc = self.acc(name)
        stack = self._stack
        spans = self.spans
        count = self.count
        err_type, err_name = on_error if on_error else ((), "")

        def timed(*args, **kwargs):
            parent = stack[-1]
            stack.append(acc)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except err_type:
                count(err_name)
                raise
            finally:
                t1 = perf()
                stack.pop()
                acc[0] += t1 - t0
                acc[1] += 1
                parent[2] += t1 - t0
                if span:
                    spans.append((name, parent[3], t0, t1))
            if on_result is not None:
                on_result(result, parent)
            return result

        setattr(owner, attr, timed)

    def wrap_iterator(self, owner, attr: str, name: str) -> None:
        """Time each ``next`` on the iterators that ``owner.attr`` returns."""
        fn = self._target(owner, attr)
        if fn is None:
            return
        acc = self.acc(name)
        stack = self._stack

        class _Timed:
            def __init__(self, it):
                self.it = it

            def __iter__(self):
                return self

            def __next__(self):
                parent = stack[-1]
                t0 = perf()
                try:
                    return next(self.it)
                finally:
                    dt = perf() - t0
                    acc[0] += dt
                    acc[1] += 1
                    parent[2] += dt

        setattr(owner, attr, lambda *args, **kwargs: _Timed(fn(*args, **kwargs)))

    def to_json(self, exit_code: int) -> dict:
        return {
            "exit_code": exit_code,
            "layers": {k: {"s": v[0], "calls": v[1], "child_s": v[2]}
                       for k, v in self.layers.items() if k != "root"},
            "counts": self.counts,
            "spans": [{"name": n, "parent": p, "start": a, "end": b} for n, p, a, b in self.spans],
            "missing": self.missing,
        }


def samples_held(result) -> int:
    """Per-post score floats held across every bin of a ScanResult."""
    held = 0
    for value in vars(result).values():
        for agg in value.values() if isinstance(value, dict) else (value,):
            held += len(getattr(getattr(agg, "sample", None), "values", ()))
    return held


def install(tracer: Tracer, parent_only: bool) -> None:
    from anxarc import _kernel, cli, pipeline, report, scoring
    from anxarc.corpus import UnknownTimezoneError

    scan_acc = tracer.acc("pipeline.scan")

    def on_scan(result, _parent) -> None:
        tracer.count("scoring.samples_held", samples_held(result))

    def on_merge(_result, parent) -> None:
        if parent is scan_acc:
            tracer.count("pipeline.chunks")

    def on_wait(result, _parent) -> None:
        # Chunk results cross the pipe pickled; size them the same way.
        t0 = perf()
        tracer.count("pipeline.ipc_bytes", len(pickle.dumps(result)))
        dt = perf() - t0
        probe = tracer.acc("trace.ipc_probe")
        probe[0] += dt
        probe[1] += 1
        scan_acc[2] += dt

    tracer.wrap_iterator(pipeline, "iter_data_lines", "corpus.read")
    tracer.wrap(cli, "scan_corpus", "pipeline.scan", span=True, on_result=on_scan)
    tracer.wrap(pipeline.ScanResult, "merge_from", "pipeline.merge_from", span=True, on_result=on_merge)
    tracer.wrap(multiprocessing, "Pool", "pipeline.pool_start", span=True)
    tracer.wrap(multiprocessing.pool.ApplyResult, "get", "pipeline.wait", span=True, on_result=on_wait)
    if parent_only:
        return
    tracer.wrap(pipeline, "parse_record", "corpus.parse_record",
                on_error=(ValueError, "corpus.parse_skips"))
    tracer.wrap(pipeline, "localize", "corpus.localize",
                on_error=(UnknownTimezoneError, "corpus.tz_skips"))
    tracer.wrap(_kernel, "score_text", "kernel.score_text",
                on_result=lambda r, _p: tracer.count("kernel.tokens", r[0]))
    tracer.wrap(_kernel, "tokenize", "kernel.tokenize",
                on_result=lambda r, _p: tracer.count("kernel.tokens", len(r)))
    tracer.wrap(_kernel, "score_tokens", "kernel.score_tokens")
    tracer.wrap(pipeline, "classify_tense", "slicer.classify_tense")
    tracer.wrap(pipeline, "pronoun_keys", "slicer.pronoun_keys")
    tracer.wrap(scoring.BinAggregate, "update_counts", "scoring.update_counts")
    tracer.wrap(cli, "welch_t", "stats.welch_t", span=True)
    tracer.wrap(report.Table, "write", "report.write", span=True)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 1
    out_path = argv[0]
    split = argv.index("--")
    parent_only = "--parent-only" in argv[1:split]
    from anxarc import cli

    tracer = Tracer()
    install(tracer, parent_only)
    code = cli.main(argv[split + 1:])
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.to_json(code), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
