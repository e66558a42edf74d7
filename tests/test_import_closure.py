"""A serial run imports only what it executes.

SQLite is imported by ``RunStore`` itself and the process pool by the
executor's pool path, so a ``jobs=1`` run without a store loads neither
(nor ``multiprocessing`` and ``subprocess``, which the pool pulls in).
That keeps about 2 MB out of every serial process's resident set; see
DESIGN.md, "Where `high_dim`'s peak goes".  The check runs in a fresh
interpreter, because this test process has long since loaded both.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SERIAL_RUN = """
import json, sys
import repro.analysis.replication, repro.parallel, repro.cli
from repro.datasets.synthetic import SyntheticConfig

config = SyntheticConfig(num_events=12, horizon=20, dim=4, seed=0)
repro.analysis.replication.replicate_policies(config, seeds=[0, 1], jobs=1)
print(json.dumps(sorted(sys.modules)))
"""


def test_serial_run_imports_neither_sqlite_nor_the_pool():
    result = subprocess.run(
        [sys.executable, "-c", SERIAL_RUN],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    loaded = set(json.loads(result.stdout.splitlines()[-1]))
    assert {"repro.io.runstore", "repro.parallel.executor"} <= loaded
    assert not {"sqlite3", "concurrent.futures"} & loaded
