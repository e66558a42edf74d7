"""Crash-safe run checkpoints and the executor's unit-result cache.

Long paper-scale replications (8+ seeds x 6 policies x thousands of
arrivals) previously lost everything on a mid-run crash.  This module
provides the two layers that make a run restartable **bit-for-bit**:

* a *round-granular cell checkpoint* (:class:`RunCheckpointer`): every
  ``every``-th round, the runner captures the exact dynamic state of a
  cell — ridge ``(Y, b)`` statistics with the Sherman--Morrison
  maintained inverse, RNG bit-generator states, the environment's
  ledger/capacity/clock state, the round index, accumulated rewards,
  Kendall checkpoints, the telemetry snapshot and the in-memory flight
  buffer — into one schema-versioned ``.npz`` archive;

* a *unit-result cache* (:class:`ExecutorCheckpoint`): each completed
  work unit's full result (including its worker telemetry tuple) is
  pickled next to the cell checkpoints, so a resumed sweep replays
  finished cells instantly and re-runs only the interrupted one from
  its last round checkpoint.

Both layers follow the flight-recorder crash-safety contract: files are
written to a dotted temp name in the same directory, flushed, fsync'd
and renamed over the target with :func:`os.replace` — a reader (or a
resume) never observes a half-written checkpoint, and a crash mid-write
leaves the previous complete checkpoint intact (single-slot rotation).

Nothing here touches an RNG stream: capturing state reads bit-generator
positions without advancing them, so a checkpointed run is
bit-identical to an unchecked one, and a killed-and-resumed run is
bit-identical to an uninterrupted one (``tests/test_checkpoint_resume``
proves both, including under ``--jobs 4``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, Mapping, Optional, Tuple, Union

import numpy as np

from repro.bandits.base import Policy
from repro.bandits.disjoint import DisjointUcbPolicy
from repro.exceptions import ConfigurationError
from repro.linalg.sampling import capture_rng_state, restore_rng_state

PathLike = Union[str, Path]

__all__ = [
    "CHECKPOINT_RESUMED_EVENT",
    "CHECKPOINT_SAVED_EVENT",
    "CHECKPOINT_SAVES_METRIC",
    "CHECKPOINT_SCHEMA_VERSION",
    "DEFAULT_CHECKPOINT_EVERY",
    "MANIFEST_FILENAME",
    "UNIT_CACHE_SCHEMA_VERSION",
    "CellCheckpointSpec",
    "ExecutorCheckpoint",
    "RunCheckpointer",
    "UnitCacheScope",
    "active_executor_checkpoint",
    "atomic_save_npz",
    "atomic_write_bytes",
    "capture_policy_state",
    "check_manifest",
    "executor_checkpoint_scope",
    "load_manifest",
    "load_unit_result",
    "pack_json",
    "pack_state",
    "restore_policy_state",
    "save_unit_result",
    "unit_digest",
    "unpack_json",
    "unpack_state",
    "write_manifest",
]

#: Bumped when the cell-checkpoint npz layout changes incompatibly.
CHECKPOINT_SCHEMA_VERSION = 2
#: Bumped when the pickled unit-cache layout changes incompatibly.
UNIT_CACHE_SCHEMA_VERSION = 1
#: The checkpoint directory's identity document.
MANIFEST_FILENAME = "manifest.json"
#: Default ``--checkpoint`` cadence (rounds between saves).
DEFAULT_CHECKPOINT_EVERY = 200

#: Emit-site metric names (FAS016).  ``checkpoint.saves`` counts saves
#: *inside* the captured snapshot (incremented before capture), so a
#: resumed run reports exactly the count an uninterrupted run does.
CHECKPOINT_SAVES_METRIC = "checkpoint.saves"
#: Trace event names.  Resume markers are events (trace-only), never
#: counters: a resumed run's ``metrics.json`` must stay byte-comparable
#: to an uninterrupted run's.
CHECKPOINT_SAVED_EVENT = "checkpoint.saved"
CHECKPOINT_RESUMED_EVENT = "checkpoint.resumed"


# ----------------------------------------------------------------------
# Atomic binary writes (the flight-recorder crash-safety contract)
# ----------------------------------------------------------------------
def atomic_write_bytes(path: PathLike, data: bytes) -> Path:
    """Write ``data`` atomically: temp file + flush + fsync + ``os.replace``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp_path = path.parent / f".{path.name}.tmp"
    with tmp_path.open("wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    return path


def atomic_save_npz(path: PathLike, arrays: Mapping[str, np.ndarray]) -> Path:
    """Atomically persist a dict of arrays as a compressed ``.npz``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp_path = path.parent / f".{path.name}.tmp"
    with tmp_path.open("wb") as handle:
        np.savez_compressed(handle, **arrays)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    return path


# ----------------------------------------------------------------------
# JSON <-> array packing (npz archives hold arrays only)
# ----------------------------------------------------------------------
def pack_json(value: Any) -> np.ndarray:
    """Encode a JSON-able value as a ``uint8`` array for npz storage."""
    encoded = json.dumps(value, separators=(",", ":"), sort_keys=True)
    return np.frombuffer(encoded.encode("utf-8"), dtype=np.uint8)


def unpack_json(array: np.ndarray) -> Any:
    """Inverse of :func:`pack_json`."""
    return json.loads(np.asarray(array, dtype=np.uint8).tobytes().decode("utf-8"))


def pack_state(prefix: str, state: Mapping[str, Any]) -> Dict[str, np.ndarray]:
    """Split a flat state dict into npz-ready arrays.

    Numpy arrays pass through under ``prefix + key``; every other value
    (ints, RNG state dicts, ...) is collected into one JSON blob under
    ``prefix + "json"``.
    """
    arrays: Dict[str, np.ndarray] = {}
    plain: Dict[str, Any] = {}
    for key, value in state.items():
        if isinstance(value, np.ndarray):
            arrays[prefix + key] = value
        else:
            plain[key] = value
    arrays[prefix + "json"] = pack_json(plain)
    return arrays


def unpack_state(prefix: str, arrays: Mapping[str, np.ndarray]) -> Dict[str, Any]:
    """Inverse of :func:`pack_state`."""
    state: Dict[str, Any] = dict(unpack_json(arrays[prefix + "json"]))
    for key, value in arrays.items():
        if key.startswith(prefix) and key != prefix + "json":
            state[key[len(prefix) :]] = value
    return state


# ----------------------------------------------------------------------
# Policy state capture (exact, unlike repro.io.policy_state's portable
# (Y, b, n) layout — see RidgeState.checkpoint_state for why)
# ----------------------------------------------------------------------
def capture_policy_state(policy: Policy) -> Dict[str, np.ndarray]:
    """Capture a policy's *exact* learned + RNG state as arrays.

    Extends the ``policy_state`` ``(Y, b, n)`` layout with the
    maintained inverse, the cached estimate and the bit-generator
    position, so a restored policy replays subsequent rounds
    bit-for-bit.  Stateless policies (OPT) capture an empty dict.
    """
    arrays: Dict[str, np.ndarray] = {}
    if isinstance(policy, DisjointUcbPolicy):
        for index in range(policy.num_events):
            state = policy.model_for(index).state.checkpoint_state()
            for key, value in state.items():
                arrays[f"m{index}.{key}"] = value
    else:
        model = getattr(policy, "model", None)
        if model is not None and hasattr(model, "state"):
            for key, value in model.state.checkpoint_state().items():
                arrays[f"model.{key}"] = value
    rng = getattr(policy, "_rng", None)
    if isinstance(rng, np.random.Generator):
        arrays["rng"] = pack_json(capture_rng_state(rng))
    return arrays


def restore_policy_state(policy: Policy, arrays: Mapping[str, np.ndarray]) -> None:
    """Restore a :func:`capture_policy_state` snapshot into ``policy``.

    Shape validation happens inside
    :meth:`~repro.linalg.ridge.RidgeState.restore_checkpoint`; a
    snapshot from a structurally different policy raises
    :class:`~repro.exceptions.ConfigurationError` before mutating.
    """
    if isinstance(policy, DisjointUcbPolicy):
        for index in range(policy.num_events):
            prefix = f"m{index}."
            state = {
                key[len(prefix) :]: value
                for key, value in arrays.items()
                if key.startswith(prefix)
            }
            if not state:
                raise ConfigurationError(
                    f"checkpoint holds no state for disjoint model {index} "
                    f"(policy has {policy.num_events} models)"
                )
            policy.model_for(index).state.restore_checkpoint(state)
    else:
        model = getattr(policy, "model", None)
        model_state = {
            key[len("model.") :]: value
            for key, value in arrays.items()
            if key.startswith("model.")
        }
        if model_state:
            if model is None or not hasattr(model, "state"):
                raise ConfigurationError(
                    f"checkpoint holds model state but policy "
                    f"{policy.name!r} has no model"
                )
            model.state.restore_checkpoint(model_state)
        elif model is not None and hasattr(model, "state"):
            raise ConfigurationError(
                f"checkpoint holds no model state for policy {policy.name!r}"
            )
    rng = getattr(policy, "_rng", None)
    if isinstance(rng, np.random.Generator):
        if "rng" not in arrays:
            raise ConfigurationError(
                f"checkpoint holds no RNG state for policy {policy.name!r}"
            )
        restore_rng_state(rng, unpack_json(arrays["rng"]))


# ----------------------------------------------------------------------
# Cell checkpoints (round-granular)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CellCheckpointSpec:
    """Picklable description of one cell's checkpoint slot.

    Travels inside the frozen work-unit dataclasses into worker
    processes; the cell runner builds the actual
    :class:`RunCheckpointer` from it.
    """

    directory: str
    key: str
    every: int = DEFAULT_CHECKPOINT_EVERY
    resume: bool = False

    def __post_init__(self) -> None:
        if self.every < 1:
            raise ConfigurationError(
                f"checkpoint cadence must be >= 1 round, got {self.every}"
            )
        if "/" in self.key or not self.key:
            raise ConfigurationError(
                f"checkpoint key must be a non-empty flat name, got {self.key!r}"
            )


class RunCheckpointer:
    """One cell's single-slot, schema-versioned checkpoint file.

    ``save`` atomically replaces ``<directory>/<key>.ckpt.npz`` (the
    previous checkpoint is the rotation slot: it survives until the new
    one is durable).  ``load`` returns the stored arrays only when the
    spec asks to resume; key and schema-version mismatches are rejected
    loudly.  ``clear`` removes the slot after the cell completes, so a
    later resume of the whole sweep replays the finished cell from the
    executor's unit cache instead of an expired round checkpoint.
    """

    def __init__(self, spec: CellCheckpointSpec) -> None:
        self.spec = spec
        self.path = Path(spec.directory) / f"{spec.key}.ckpt.npz"

    def due(self, round_index: int) -> bool:
        """Whether the runner should save after ``round_index``."""
        return round_index % self.spec.every == 0

    def save(self, arrays: Dict[str, np.ndarray]) -> Path:
        """Atomically persist one round-boundary snapshot."""
        arrays = dict(arrays)
        arrays["checkpoint_version"] = np.array(
            [CHECKPOINT_SCHEMA_VERSION], dtype=np.int64
        )
        arrays["checkpoint_key"] = np.frombuffer(
            self.spec.key.encode("utf-8"), dtype=np.uint8
        )
        return atomic_save_npz(self.path, arrays)

    def load(self) -> Optional[Dict[str, np.ndarray]]:
        """The stored snapshot, or ``None`` when not resuming / absent."""
        if not self.spec.resume or not self.path.exists():
            return None
        try:
            with np.load(self.path, allow_pickle=False) as archive:
                arrays = {name: archive[name].copy() for name in archive.files}
        except (OSError, ValueError) as error:
            raise ConfigurationError(
                f"unreadable checkpoint {self.path}: {error}"
            ) from error
        if "checkpoint_version" not in arrays or "checkpoint_key" not in arrays:
            raise ConfigurationError(
                f"{self.path} is not a run checkpoint archive"
            )
        version = int(arrays["checkpoint_version"][0])
        if version != CHECKPOINT_SCHEMA_VERSION:
            raise ConfigurationError(
                f"{self.path} has checkpoint version {version}, expected "
                f"{CHECKPOINT_SCHEMA_VERSION}"
            )
        key = arrays["checkpoint_key"].tobytes().decode("utf-8")
        if key != self.spec.key:
            raise ConfigurationError(
                f"{self.path} belongs to cell {key!r}, expected "
                f"{self.spec.key!r}"
            )
        return arrays

    def clear(self) -> None:
        """Remove the slot (the cell completed; the unit cache takes over)."""
        self.path.unlink(missing_ok=True)


# ----------------------------------------------------------------------
# Executor unit-result cache
# ----------------------------------------------------------------------
def unit_digest(fn: Callable[..., Any], unit: Any) -> str:
    """Content digest identifying ``(fn, unit)`` across processes.

    Hashes the function's import path together with the pickled unit,
    so a resumed sweep only replays cached results produced by the
    *same* work on the *same* payload — a changed config or seed grid
    invalidates the cache loudly instead of replaying stale results.

    A ``checkpoint`` field holding a :class:`CellCheckpointSpec` is
    normalised out first: where a cell saves — and whether it resumes —
    is wiring, not work identity, and the resume pass flips exactly
    that flag on otherwise identical cells.
    """
    if dataclasses.is_dataclass(unit) and not isinstance(unit, type):
        if isinstance(getattr(unit, "checkpoint", None), CellCheckpointSpec):
            unit = dataclasses.replace(unit, checkpoint=None)
    identity = (
        getattr(fn, "__module__", ""),
        getattr(fn, "__qualname__", repr(fn)),
        unit,
    )
    return hashlib.sha256(pickle.dumps(identity, protocol=4)).hexdigest()


def save_unit_result(directory: str, index: int, digest: str, value: Any) -> Path:
    """Atomically cache one completed unit's result (worker-side)."""
    payload = {
        "version": UNIT_CACHE_SCHEMA_VERSION,
        "digest": digest,
        "value": value,
    }
    return atomic_write_bytes(
        Path(directory) / f"unit-{index:04d}.pkl",
        pickle.dumps(payload, protocol=4),
    )


def load_unit_result(
    directory: str, index: int, digest: str
) -> Optional[Tuple[Any]]:
    """Load a cached unit result; ``None`` on miss, 1-tuple on hit.

    The 1-tuple wrapper keeps a legitimately-``None`` cached result
    distinguishable from a cache miss.  A digest mismatch (different
    work under the same index) raises instead of silently replaying a
    stale result.
    """
    path = Path(directory) / f"unit-{index:04d}.pkl"
    if not path.exists():
        return None
    try:
        payload = pickle.loads(path.read_bytes())
    except Exception as error:
        raise ConfigurationError(
            f"unreadable unit cache entry {path}: {error}"
        ) from error
    if not isinstance(payload, dict) or "value" not in payload:
        raise ConfigurationError(f"{path} is not a unit cache entry")
    version = payload.get("version")
    if version != UNIT_CACHE_SCHEMA_VERSION:
        raise ConfigurationError(
            f"{path} has unit-cache version {version}, expected "
            f"{UNIT_CACHE_SCHEMA_VERSION}"
        )
    if payload.get("digest") != digest:
        raise ConfigurationError(
            f"{path} was produced by different work (digest mismatch); "
            "pass a fresh checkpoint directory or matching configuration"
        )
    return (payload["value"],)


class UnitCacheScope:
    """The cache directory of one ``run_work_units`` call."""

    def __init__(self, directory: Path, resume: bool) -> None:
        self.directory = directory
        self.resume = resume
        directory.mkdir(parents=True, exist_ok=True)

    def load(self, index: int, digest: str) -> Optional[Tuple[Any]]:
        """Cached result for ``index`` (only when resuming)."""
        if not self.resume:
            return None
        return load_unit_result(str(self.directory), index, digest)


class ExecutorCheckpoint:
    """Unit-result caching across the ``run_work_units`` calls of a run.

    One run may invoke the executor several times (deterministically);
    each call gets its own ``call-NNN`` subdirectory so unit indices
    never collide.  Workers write their own cache entries on
    completion, which makes caching crash-granular: everything finished
    before a kill replays instantly on resume.
    """

    def __init__(self, directory: PathLike, resume: bool = False) -> None:
        self.directory = Path(directory)
        self.resume = resume
        self._calls = 0

    def call_scope(self) -> UnitCacheScope:
        """Allocate the next call's cache directory."""
        scope = UnitCacheScope(
            self.directory / f"call-{self._calls:03d}", self.resume
        )
        self._calls += 1
        return scope


_active_executor_checkpoint: Optional[ExecutorCheckpoint] = None


def active_executor_checkpoint() -> Optional[ExecutorCheckpoint]:
    """The ambient unit cache, if a scope is active (see below)."""
    return _active_executor_checkpoint


@contextmanager
def executor_checkpoint_scope(
    checkpoint: Optional[ExecutorCheckpoint],
) -> Iterator[Optional[ExecutorCheckpoint]]:
    """Make ``checkpoint`` ambient for nested ``run_work_units`` calls.

    Used by entry points (``fasea run``) whose work fans out through
    library layers that do not thread a checkpoint parameter.  Scopes
    nest; the previous ambient cache is restored on exit.
    """
    global _active_executor_checkpoint
    previous = _active_executor_checkpoint
    _active_executor_checkpoint = checkpoint
    try:
        yield checkpoint
    finally:
        _active_executor_checkpoint = previous


# ----------------------------------------------------------------------
# Checkpoint-directory manifest
# ----------------------------------------------------------------------
def write_manifest(directory: PathLike, payload: Mapping[str, Any]) -> Path:
    """Record the run shape a checkpoint directory belongs to."""
    document = {"version": CHECKPOINT_SCHEMA_VERSION, **dict(payload)}
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    return atomic_write_bytes(
        Path(directory) / MANIFEST_FILENAME, text.encode("utf-8")
    )


def load_manifest(directory: PathLike) -> Dict[str, Any]:
    """Read a checkpoint directory's manifest."""
    path = Path(directory) / MANIFEST_FILENAME
    if not path.exists():
        raise ConfigurationError(
            f"no checkpoint manifest at {path}; was this directory written "
            "by a --checkpoint run?"
        )
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        raise ConfigurationError(
            f"unreadable checkpoint manifest {path}: {error}"
        ) from error
    version = document.get("version")
    if version != CHECKPOINT_SCHEMA_VERSION:
        raise ConfigurationError(
            f"{path} has manifest version {version}, expected "
            f"{CHECKPOINT_SCHEMA_VERSION}"
        )
    return document


def check_manifest(
    directory: PathLike, payload: Mapping[str, Any]
) -> Dict[str, Any]:
    """Validate a resume against the directory's manifest.

    Every key in ``payload`` must match the stored manifest exactly;
    mismatches are reported together so a wrong ``--resume`` fails with
    the full story, not the first differing flag.  Returns the stored
    manifest (callers read resume-authoritative settings — e.g. the
    checkpoint cadence — from it).
    """
    stored = load_manifest(directory)
    mismatches = [
        f"{key}: checkpoint has {stored.get(key)!r}, run has {value!r}"
        for key, value in sorted(payload.items())
        if stored.get(key) != value
    ]
    if mismatches:
        raise ConfigurationError(
            "checkpoint directory does not match this run: "
            + "; ".join(mismatches)
        )
    return stored
