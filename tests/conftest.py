from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from anxarc.slicer import load_verb_tables

import util


@pytest.fixture(autouse=True)
def no_anxarc_env(monkeypatch):
    """Run every test without the caller's ANXARC_* variables, which the CLI
    reads as flags; subprocesses that a test starts inherit the same."""
    for name in list(os.environ):
        if name.startswith("ANXARC_"):
            monkeypatch.delenv(name)


@pytest.fixture(scope="session")
def lexicon():
    return util.make_lexicon()


@pytest.fixture(scope="session")
def tables():
    return load_verb_tables()


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return Path(__file__).parent / "fixtures"
