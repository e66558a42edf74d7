"""A SQLite store of experiment runs.

Accumulates run summaries (one row per policy run) and curve samples
(one row per checkpoint) across sessions, so that multi-seed studies
can be assembled incrementally and queried with plain SQL.  The schema
is deliberately flat::

    runs(id, experiment, policy, seed, run_seed, horizon,
         total_reward, total_arranged, accept_ratio, total_regret,
         avg_round_time, created_at)
    curves(run_id, step, metric, value)

Everything goes through parametrised statements; the store is safe to
share across processes thanks to SQLite's own locking.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.exceptions import ConfigurationError, SchemaError
from repro.obs.clock import wall_time
from repro.obs.core import InstrumentationLike, MetricsSnapshot
from repro.obs.export import snapshot_from_json, snapshot_to_json
from repro.obs.flight import DECISIONS_FILENAME
from repro.obs.trace import write_trace_jsonl
from repro.simulation.history import History

#: Telemetry artefact filenames written next to each run's outputs.
#: (DECISIONS_FILENAME — the flight recorder's decision log — is owned
#: by repro.obs.flight and re-exported here for sink-layer callers.)
METRICS_FILENAME = "metrics.json"
TRACE_FILENAME = "trace.jsonl"


def atomic_write_text(path: Union[str, Path], text: str) -> Path:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    The content lands under a dotted temp name in the same directory and
    is renamed over the target in one step, so readers — including a
    ``fasea obs top`` following the file from another terminal — never
    observe a half-written document, and a crash mid-write leaves the
    previous version intact.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp_path = path.parent / f".{path.name}.tmp"
    with tmp_path.open("w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    return path


def persist_run_telemetry(
    directory: Union[str, Path], obs: InstrumentationLike
) -> Dict[str, Path]:
    """Write ``metrics.json`` + ``trace.jsonl`` alongside a run's outputs.

    Returns the paths written (keys ``"metrics"`` and ``"trace"``).
    The snapshot format is the versioned
    :meth:`~repro.obs.core.MetricsSnapshot.to_dict` schema, so
    ``fasea obs summary|diff`` can reload it later; the trace is one
    JSON object per line (spans and events interleaved).

    Both artefacts are written atomically (temp file + ``os.replace``),
    including the final snapshot of a streamed run, and the metrics
    document is round-tripped through the schema loader before the
    paths are returned — an unreadable snapshot fails *here*, with a
    :class:`repro.exceptions.SchemaError`, not at inspection time.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    metrics_path = directory / METRICS_FILENAME
    document = snapshot_to_json(obs.snapshot())
    # Round-trip check: the document we are about to publish must load
    # through the schema-validating path (unknown major versions raise).
    snapshot_from_json(document)
    atomic_write_text(metrics_path, document)
    trace_path = directory / TRACE_FILENAME
    write_trace_jsonl(obs.trace_records(), trace_path, atomic=True)
    return {"metrics": metrics_path, "trace": trace_path}


def load_run_metrics(directory: Union[str, Path]) -> MetricsSnapshot:
    """Reload the ``metrics.json`` written by :func:`persist_run_telemetry`.

    Raises :class:`repro.exceptions.SchemaError` when the document's
    major schema version is unknown (see
    :meth:`repro.obs.core.MetricsSnapshot.from_dict`).
    """
    path = Path(directory)
    if path.is_dir():
        path = path / METRICS_FILENAME
    if not path.is_file():
        raise ConfigurationError(f"no metrics snapshot at {path}")
    return snapshot_from_json(path.read_text(encoding="utf-8"))


# Re-exported for callers that want to surface the failure mode in docs
# or except clauses without importing repro.exceptions directly.
__all__ = [
    "DECISIONS_FILENAME",
    "METRICS_FILENAME",
    "TRACE_FILENAME",
    "RunRecord",
    "RunStore",
    "atomic_write_text",
    "load_run_metrics",
    "persist_run_telemetry",
    "SchemaError",
]


_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    experiment TEXT NOT NULL,
    policy TEXT NOT NULL,
    seed INTEGER NOT NULL,
    run_seed INTEGER NOT NULL,
    horizon INTEGER NOT NULL,
    total_reward REAL NOT NULL,
    total_arranged REAL NOT NULL,
    accept_ratio REAL NOT NULL,
    total_regret REAL,
    avg_round_time REAL NOT NULL,
    created_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS curves (
    run_id INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    step INTEGER NOT NULL,
    metric TEXT NOT NULL,
    value REAL NOT NULL,
    PRIMARY KEY (run_id, step, metric)
);
CREATE INDEX IF NOT EXISTS idx_runs_experiment_policy
    ON runs(experiment, policy);
"""


@dataclass(frozen=True)
class RunRecord:
    """One stored run summary."""

    run_id: int
    experiment: str
    policy: str
    seed: int
    run_seed: int
    horizon: int
    total_reward: float
    total_arranged: float
    accept_ratio: float
    total_regret: Optional[float]
    avg_round_time: float


class RunStore:
    """SQLite-backed store of run summaries and curve samples."""

    def __init__(self, path: Union[str, Path] = ":memory:") -> None:
        # Deferred: a run without ``--store`` never loads SQLite.
        import sqlite3

        self._path = str(path)
        self._connection = sqlite3.connect(self._path)
        self._connection.execute("PRAGMA foreign_keys = ON")
        self._connection.executescript(_SCHEMA)
        self._connection.commit()

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def record_history(
        self,
        experiment: str,
        history: History,
        seed: int = 0,
        run_seed: int = 0,
        reference: Optional[History] = None,
        curve_checkpoints: Optional[Sequence[int]] = None,
    ) -> int:
        """Insert one run (and optional curve samples); return its id."""
        total_regret = (
            reference.total_reward - history.total_reward
            if reference is not None
            else None
        )
        cursor = self._connection.execute(
            """
            INSERT INTO runs (experiment, policy, seed, run_seed, horizon,
                              total_reward, total_arranged, accept_ratio,
                              total_regret, avg_round_time, created_at)
            VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
            """,
            (
                experiment,
                history.policy_name,
                seed,
                run_seed,
                history.horizon,
                history.total_reward,
                float(history.arranged.sum()),
                history.overall_accept_ratio,
                total_regret,
                history.avg_round_time,
                wall_time(),
            ),
        )
        run_id = int(cursor.lastrowid)
        if curve_checkpoints:
            # Dedupe and order: (run_id, step, metric) is the primary key.
            curve_checkpoints = sorted(set(int(c) for c in curve_checkpoints))
            rows: List[Tuple[int, int, str, float]] = []
            accept = history.accept_ratio_at(curve_checkpoints)
            rewards = history.rewards_at(curve_checkpoints)
            for step, a, r in zip(curve_checkpoints, accept, rewards):
                rows.append((run_id, int(step), "accept_ratio", float(a)))
                rows.append((run_id, int(step), "total_rewards", float(r)))
            if reference is not None:
                regrets = history.regret_at(reference, curve_checkpoints)
                rows.extend(
                    (run_id, int(step), "total_regrets", float(g))
                    for step, g in zip(curve_checkpoints, regrets)
                )
            self._connection.executemany(
                "INSERT INTO curves (run_id, step, metric, value) VALUES (?, ?, ?, ?)",
                rows,
            )
        self._connection.commit()
        return run_id

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def get_run(self, run_id: int) -> RunRecord:
        """Fetch one run summary by id."""
        row = self._connection.execute(
            """
            SELECT id, experiment, policy, seed, run_seed, horizon,
                   total_reward, total_arranged, accept_ratio, total_regret,
                   avg_round_time
            FROM runs WHERE id = ?
            """,
            (run_id,),
        ).fetchone()
        if row is None:
            raise ConfigurationError(f"no run with id {run_id}")
        return RunRecord(*row)

    def list_runs(
        self, experiment: Optional[str] = None, policy: Optional[str] = None
    ) -> List[RunRecord]:
        """All runs, optionally filtered by experiment and/or policy."""
        clauses = []
        params: List[object] = []
        if experiment is not None:
            clauses.append("experiment = ?")
            params.append(experiment)
        if policy is not None:
            clauses.append("policy = ?")
            params.append(policy)
        where = f"WHERE {' AND '.join(clauses)}" if clauses else ""
        rows = self._connection.execute(
            f"""
            SELECT id, experiment, policy, seed, run_seed, horizon,
                   total_reward, total_arranged, accept_ratio, total_regret,
                   avg_round_time
            FROM runs {where} ORDER BY id
            """,
            params,
        ).fetchall()
        return [RunRecord(*row) for row in rows]

    def curve(self, run_id: int, metric: str) -> List[Tuple[int, float]]:
        """(step, value) samples of one metric for one run."""
        return [
            (int(step), float(value))
            for step, value in self._connection.execute(
                "SELECT step, value FROM curves WHERE run_id = ? AND metric = ? "
                "ORDER BY step",
                (run_id, metric),
            )
        ]

    def policy_statistics(self, experiment: str) -> Dict[str, Dict[str, float]]:
        """Mean/min/max accept ratio per policy across stored seeds."""
        rows = self._connection.execute(
            """
            SELECT policy, COUNT(*), AVG(accept_ratio), MIN(accept_ratio),
                   MAX(accept_ratio), AVG(total_regret)
            FROM runs WHERE experiment = ? GROUP BY policy ORDER BY policy
            """,
            (experiment,),
        ).fetchall()
        return {
            policy: {
                "count": float(count),
                "mean_accept_ratio": float(mean_ratio),
                "min_accept_ratio": float(min_ratio),
                "max_accept_ratio": float(max_ratio),
                "mean_total_regret": (
                    float(mean_regret) if mean_regret is not None else float("nan")
                ),
            }
            for policy, count, mean_ratio, min_ratio, max_ratio, mean_regret in rows
        }

    def delete_run(self, run_id: int) -> None:
        """Remove one run and its curve samples."""
        deleted = self._connection.execute(
            "DELETE FROM runs WHERE id = ?", (run_id,)
        ).rowcount
        if not deleted:
            raise ConfigurationError(f"no run with id {run_id}")
        self._connection.commit()

    def count_runs(self) -> int:
        """Total number of stored runs."""
        (count,) = self._connection.execute("SELECT COUNT(*) FROM runs").fetchone()
        return int(count)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the underlying SQLite connection."""
        self._connection.close()

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
