"""Regenerate ``golden.json``, the outputs the benchmark checks against.

Plays every workload, full size and smoke size, once at the default base
seed and records each seed cell's per-policy accept ratios and total
regrets as exact floats.  Run it from the repository root only after a
change that is meant to alter rewards::

    python3 perfbench/make_golden.py
"""

from __future__ import annotations

import json

import run
from workloads import SMOKE, WORKLOADS


def main() -> None:
    golden = {}
    for name in sorted(WORKLOADS):
        golden[name] = {}
        for size, table in (("full", WORKLOADS), ("smoke", SMOKE)):
            workload = table[name]
            seeds = workload.seeds(run.DEFAULT_SEED)
            result = run.replication.replicate_policies(
                workload.config(), seeds, jobs=workload.jobs
            )
            golden[name][size] = {"seeds": list(seeds), "cells": run.cells_of(result)}
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
