"""Decision flight recorder: one structured record per (round, policy).

The observability stack so far records *aggregates* — counters, timers,
histograms.  When a policy underperforms those tell you *that* it lost
reward, not *why*: which arms were scored, how wide the confidence
bounds were, whether the exploration coin fired, what the oracle
rejected.  ``repro.obs.flight`` captures exactly that — a schema-
versioned ``DecisionRecord`` per (round, policy) streamed to an
append-only ``decisions.jsonl`` next to the run's ``metrics.json``.

Design points:

* **Crash safety.**  Records are written one complete JSON document per
  line through the same machinery as the streaming trace sink: the file
  is atomically truncated at open, every record is flushed, and the
  file is fsync'd every 64 records and on close.
  A SIGKILL'd run leaves a longest-valid-prefix log that
  :func:`load_flight` recovers with ``strict=False``.

* **Byte-identical parallel logs.**  Workers record into in-memory
  :class:`FlightBuffer` instances; the parallel executor returns each
  worker's records alongside its telemetry snapshot and the parent
  extends the real recorder in *submission order* — so ``--jobs 4``
  produces the same bytes as serial.

* **No wall-clock fields.**  Records deliberately contain nothing
  non-deterministic (timings live in the trace/profile sinks), which is
  what makes ``decisions.jsonl`` digest-comparable across runs and
  machines and replayable bit-for-bit.

Record kinds (discriminated by ``"kind"``):

* ``header`` — schema version + everything needed to re-execute the
  run: world config, horizon, run seed, policy constructor specs.
* ``cell`` — marks the start of one replication seed's record group
  under ``fasea replicate --flight`` (mode ``"replication"``).
* ``decision`` — the per-round record; see :func:`decision_record`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ConfigurationError, SchemaError
from repro.obs.trace import read_trace_jsonl, write_trace_jsonl

# Schema version for decisions.jsonl header records.  Bump when record
# fields change incompatibly; load_flight refuses mismatched logs.
FLIGHT_SCHEMA_VERSION = 1

# Filename of the decision log inside a run directory (sibling of
# metrics.json / trace.jsonl).
DECISIONS_FILENAME = "decisions.jsonl"

# Fsync cadence for the streaming recorder: every N records (and always
# on close).  Flushes happen per record, so at most the final partially
# written line is lost on SIGKILL.
FSYNC_EVERY_RECORDS = 64

FlightRecord = Dict[str, Any]


def rng_fingerprint(rng: np.random.Generator) -> str:
    """Return a short stable fingerprint of a Generator's exact state.

    The fingerprint is a prefix of the SHA-256 of the canonical JSON
    encoding of ``bit_generator.state`` — enough to prove two streams
    were bit-identical at the same round without logging the full
    (large) state vector.  Reading the state does not advance it.
    """
    state = rng.bit_generator.state

    def _default(value: Any) -> Any:
        if isinstance(value, np.ndarray):
            return value.tolist()
        if isinstance(value, np.integer):
            return int(value)
        return str(value)

    payload = json.dumps(state, sort_keys=True, default=_default)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def make_run_header(
    config: Any,
    horizon: int,
    run_seed: int,
    policies: Sequence[Dict[str, Any]],
) -> Dict[str, Any]:
    """Describe a multi-policy run (``fasea quickstart --flight``).

    ``policies`` is a list of constructor specs — ``{"name": "UCB",
    "seed": 7}`` style — sufficient for :mod:`repro.obs.replay` to
    rebuild each policy.  ``config`` is the synthetic world config
    (a dataclass); it is stored field-by-field.
    """
    return {
        "mode": "policies",
        "world": dataclasses.asdict(config),
        "horizon": int(horizon),
        "run_seed": int(run_seed),
        "policies": [dict(spec) for spec in policies],
    }


def make_replication_header(
    config: Any,
    horizon: int,
    seeds: Sequence[int],
    policy_names: Sequence[str],
    policy_seed: int,
) -> Dict[str, Any]:
    """Describe a replication sweep (``fasea replicate --flight``)."""
    return {
        "mode": "replication",
        "world": dataclasses.asdict(config),
        "horizon": int(horizon),
        "seeds": [int(seed) for seed in seeds],
        "policy_names": [str(name) for name in policy_names],
        "policy_seed": int(policy_seed),
    }


def header_record(run: Dict[str, Any]) -> FlightRecord:
    return {
        "kind": "header",
        "schema_version": FLIGHT_SCHEMA_VERSION,
        "run": run,
    }


def cell_record(seed: int) -> FlightRecord:
    """Marker separating one replication seed's decisions from the next."""
    return {"kind": "cell", "seed": int(seed)}


def decision_record(
    policy: Any,
    view: Any,
    arrangement: Sequence[int],
    rewards: Sequence[float],
) -> FlightRecord:
    """Build the per-round record for one policy's committed decision.

    Combines the runner-visible facts (round index, user capacity,
    chosen arm set, realized per-arm rewards) with whatever the policy
    stashed through :meth:`Policy.decision_info` — candidate scores,
    UCB widths, the TS sample, the exploration coin + propensity,
    oracle rejection counts and the RNG fingerprint.
    """
    record: FlightRecord = {
        "kind": "decision",
        "t": int(view.time_step),
        "policy": getattr(policy, "_obs_label", None) or policy.name,
        "user_capacity": int(view.user.capacity),
        "chosen": [int(event_id) for event_id in arrangement],
        "rewards": [float(value) for value in rewards],
        "reward": float(sum(float(value) for value in rewards)),
    }
    info = policy.decision_info() if hasattr(policy, "decision_info") else None
    if info:
        for key, value in info.items():
            record.setdefault(key, value)
    return record


def record_line(record: FlightRecord) -> str:
    """Canonical serialized form: sorted keys, one line, no trailing \\n."""
    return json.dumps(record, sort_keys=True)


class FlightBuffer:
    """In-memory recorder with the ``record``/``extend`` API of :class:`FlightRecorder`.

    Used by parallel workers (records shipped back with the telemetry
    snapshot), by replay (re-executed decisions land here for
    comparison) and by benchmarks.
    """

    def __init__(self) -> None:
        self.records: List[FlightRecord] = []

    def record(self, record: FlightRecord) -> None:
        self.records.append(record)

    def extend(self, records: Iterable[FlightRecord]) -> None:
        self.records.extend(records)


class FlightRecorder:
    """Crash-safe streaming writer of one JSONL log in a run directory.

    Writes ``decisions.jsonl`` by default and ``alerts.jsonl``
    (``filename``) when a ``--health`` run persists its alert firings.  The log is truncated atomically at
    construction (a crash during startup never leaves a stale log mixing
    two runs), then records are appended one complete JSON line at a
    time.  Every record is flushed to the OS; the file is fsync'd every
    :data:`FSYNC_EVERY_RECORDS` records and unconditionally on
    :meth:`close`.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        run: Optional[Dict[str, Any]] = None,
        *,
        filename: str = DECISIONS_FILENAME,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / filename
        self._records_since_fsync = 0
        self._num_records = 0
        self._closed = False
        # Atomic truncate: readers never observe a torn/stale file.
        write_trace_jsonl([], self.path, atomic=True)
        self._handle: Optional[io.TextIOWrapper] = self.path.open(
            "a", encoding="utf-8"
        )
        if run is not None:
            self.record(header_record(run))

    @property
    def num_records(self) -> int:
        return self._num_records

    def record(self, record: FlightRecord) -> None:
        if self._closed or self._handle is None:
            raise ConfigurationError(f"the {self.path.name} writer is closed")
        self._handle.write(record_line(record))
        self._handle.write("\n")
        self._handle.flush()
        self._num_records += 1
        self._records_since_fsync += 1
        if self._records_since_fsync >= FSYNC_EVERY_RECORDS:
            os.fsync(self._handle.fileno())
            self._records_since_fsync = 0

    def extend(self, records: Iterable[FlightRecord]) -> None:
        for record in records:
            self.record(record)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "FlightRecorder":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


@dataclasses.dataclass
class FlightLog:
    """A parsed decisions.jsonl: header + records, with grouping helpers."""

    path: Optional[Path]
    records: List[FlightRecord]

    @property
    def header(self) -> Dict[str, Any]:
        for record in self.records:
            if record.get("kind") == "header":
                version = record.get("schema_version")
                if version != FLIGHT_SCHEMA_VERSION:
                    raise SchemaError(
                        f"decisions.jsonl schema version {version!r} != "
                        f"supported {FLIGHT_SCHEMA_VERSION}"
                    )
                run = record.get("run")
                if not isinstance(run, dict):
                    raise SchemaError(
                        "decisions.jsonl header record has no run payload"
                    )
                return run
        raise SchemaError("decisions.jsonl has no header record")

    @property
    def decisions(self) -> List[FlightRecord]:
        return [r for r in self.records if r.get("kind") == "decision"]

    def by_policy(self) -> "Dict[str, List[FlightRecord]]":
        grouped: Dict[str, List[FlightRecord]] = {}
        for record in self.decisions:
            grouped.setdefault(str(record.get("policy")), []).append(record)
        return grouped

    def cells(self) -> List[Tuple[int, List[FlightRecord]]]:
        """Group decisions by the ``cell`` markers (replication mode)."""
        groups: List[Tuple[int, List[FlightRecord]]] = []
        current: Optional[List[FlightRecord]] = None
        for record in self.records:
            kind = record.get("kind")
            if kind == "cell":
                current = []
                groups.append((int(record.get("seed", -1)), current))
            elif kind == "decision":
                if current is None:
                    raise SchemaError(
                        "decision record before first cell marker in a "
                        "replication log"
                    )
                current.append(record)
        return groups


def load_flight(
    target: Union[str, Path], strict: bool = True
) -> FlightLog:
    """Load a decision log from a file or a run directory.

    ``strict=False`` recovers the longest valid prefix — the read mode
    for logs whose writer was killed mid-line.
    """
    path = Path(target)
    if path.is_dir():
        path = path / DECISIONS_FILENAME
    if not path.exists():
        raise ConfigurationError(f"no decision log at {path}")
    records = read_trace_jsonl(path, strict=strict)
    return FlightLog(path=path, records=records)


def flight_digest(records: Sequence[FlightRecord]) -> str:
    """SHA-256 over the canonical line encoding of ``records``."""
    digest = hashlib.sha256()
    for record in records:
        digest.update(record_line(record).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def policy_digests(
    records: Sequence[FlightRecord],
) -> "Dict[str, Tuple[int, str]]":
    """Per-policy (decision count, digest) map for drift comparison."""
    grouped: Dict[str, List[FlightRecord]] = {}
    for record in records:
        if record.get("kind") != "decision":
            continue
        grouped.setdefault(str(record.get("policy")), []).append(record)
    return {
        policy: (len(group), flight_digest(group))
        for policy, group in grouped.items()
    }
