"""CLI bytes and exit codes on one fixed matrix, checked against committed digests.

``fixtures/report_digests.json`` holds, for each entry of the matrix in
``scripts/report_digests.py``, the exit code and the sha256 of the stdout,
the stderr and every file of one run (each report without its ``# corpus=``
line); that script regenerates it. Every corpus and worker count of an
entry must give those bytes, a run at the default worker count included.
"""

from __future__ import annotations

import importlib.util
import json
import os
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "report_digests.py"
_spec = importlib.util.spec_from_file_location("report_digests", _SCRIPT)
report_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_digests)

CASES = [
    pytest.param(name, corpus, workers,
                 id=f"{name}-{len(corpus)}file-w{'default' if workers is None else workers}")
    for name, (_, corpora, worker_counts) in report_digests.MATRIX.items()
    for corpus in corpora
    for workers in worker_counts
]


@pytest.fixture(scope="module")
def inputs_dir(tmp_path_factory) -> Path:
    folder = tmp_path_factory.mktemp("inputs")
    report_digests.write_inputs(folder)
    return folder


@pytest.fixture(scope="module")
def expected(fixtures_dir) -> dict:
    return json.loads((fixtures_dir / "report_digests.json").read_text(encoding="utf-8"))


def test_the_digests_name_the_matrix_entries(expected):
    assert sorted(expected) == sorted(report_digests.MATRIX)


@pytest.mark.parametrize("name,corpus,workers", CASES)
def test_reports_match_the_digests(inputs_dir, expected, monkeypatch, name, corpus, workers):
    monkeypatch.chdir(inputs_dir)
    assert report_digests.run_digests(name, corpus, workers) == expected[name]


def test_anxarc_variables_do_not_reach_a_run(inputs_dir, expected, monkeypatch):
    monkeypatch.setenv("ANXARC_TAU_ANX", "2")
    monkeypatch.chdir(inputs_dir)
    assert report_digests.run_digests("mini-analyze-hour", ("mini_corpus.jsonl",), 1) == \
        expected["mini-analyze-hour"]
    assert os.environ["ANXARC_TAU_ANX"] == "2"
