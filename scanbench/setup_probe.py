"""One scan set-up in a fresh process: import the CLI, load the lexicon and the verb tables.

    python scanbench/setup_probe.py LEXICON.tsv OUT.json

The caller times the whole process from outside (``setup_s``); the phase
times written to OUT.json feed the per-layer set-up metrics.
"""

import json
import sys
import time

t0 = time.perf_counter()
import anxarc.cli  # noqa: E402,F401
from anxarc.lexicon import load_lexicon  # noqa: E402
from anxarc.slicer import load_verb_tables  # noqa: E402

t1 = time.perf_counter()
load_lexicon(sys.argv[1])
t2 = time.perf_counter()
load_verb_tables()
t3 = time.perf_counter()

with open(sys.argv[2], "w", encoding="utf-8") as fh:
    json.dump({"import_s": t1 - t0, "load_lexicon_s": t2 - t1, "load_verb_tables_s": t3 - t2}, fh)
