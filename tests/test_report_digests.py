"""Report bytes on the seed-1 benchmark inputs, checked against committed digests.

``fixtures/report_digests.json`` holds the sha256 of every report that
``scripts/report_digests.py`` writes (without the ``# corpus=`` line); that
script regenerates it. Every worker count and split of the corpus into
files must give those bytes, and so must a run at the default worker count.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "report_digests.py"
_spec = importlib.util.spec_from_file_location("report_digests", _SCRIPT)
report_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_digests)

CASES = [
    pytest.param(command, corpus, workers,
                 id=f"{command}-{len(corpus)}file-w{'default' if workers is None else workers}")
    for command, corpora in report_digests.MATRIX.items()
    for corpus in corpora
    for workers in (1, 2, None)  # None: no --workers flag, so the usable CPUs
]


@pytest.fixture(scope="module")
def inputs_dir(tmp_path_factory) -> Path:
    folder = tmp_path_factory.mktemp("seed1")
    report_digests.write_inputs(folder)
    return folder


@pytest.mark.parametrize("command,corpus,workers", CASES)
def test_reports_match_the_digests(inputs_dir, fixtures_dir, monkeypatch, command, corpus, workers):
    expected = json.loads((fixtures_dir / "report_digests.json").read_text(encoding="utf-8"))
    monkeypatch.chdir(inputs_dir)
    out = f"{command}-{len(corpus)}-w{workers}"
    assert report_digests.run_digests(command, corpus, workers, out) == expected[command]
