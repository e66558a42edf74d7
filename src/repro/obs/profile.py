"""Deterministic sampling profiler over the ``repro.obs`` span hierarchy.

A conventional sampling profiler interrupts on a wall-clock timer —
non-deterministic by construction.  This one inverts the idea: the
*instrumentation spans themselves* are the samples.  Runners already
open spans around experiments and runs; with profiling enabled they
additionally open a ``round`` span (with nested phase spans) every
``sample_every``-th round — a **round-indexed** sampling grid, so two
runs of the same seed produce the same set of sampled stacks and the
profile differs only in measured durations.  Nothing here touches an
RNG stream; arrangements and rewards are bit-identical with profiling
on or off (``tests/test_obs_profile.py`` asserts it).

:class:`Profile` folds a trace's span records into per-stack
aggregates — call count, *cumulative* nanoseconds (span duration) and
*self* nanoseconds (duration minus direct children) — and renders them
as:

* a sorted table (``fasea obs profile <dir>``),
* `flamegraph.pl <https://github.com/brendangregg/FlameGraph>`_-
  compatible folded stacks (``root;child;leaf <self_us>`` per line),
* a versioned JSON document (``profile.json``).

Worker traces arrive through ``Instrumentation.merge_trace`` (which
remaps span ids past the parent's serial, in submission order, and
nests the workers' roots under the span open at the merge), so one
:meth:`Profile.from_trace_records` over the merged trace is
deterministic for every ``--jobs`` value.  Merged with no span open,
it equals merging the per-worker profiles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.exceptions import ConfigurationError, SchemaError

#: Major schema version of the ``profile.json`` document.
PROFILE_SCHEMA_VERSION = 1

#: Default round-sampling stride for ``--profile`` runs.
DEFAULT_SAMPLE_EVERY = 16

#: Artefact filenames written next to ``metrics.json``.
PROFILE_FILENAME = "profile.json"
FOLDED_FILENAME = "profile.folded"

Stack = Tuple[str, ...]


@dataclass
class ProfileConfig:
    """How runners sample rounds when profiling is enabled.

    ``sample_every=N`` opens a ``round`` span (with nested ``select`` /
    ``observe`` phase spans) on rounds where ``t % N == 0`` — a
    deterministic grid, independent of wall time and of any RNG.
    """

    sample_every: int = DEFAULT_SAMPLE_EVERY

    def __post_init__(self) -> None:
        if self.sample_every < 1:
            raise ConfigurationError(
                f"sample_every must be >= 1, got {self.sample_every}"
            )

    def samples(self, time_step: int) -> bool:
        """Whether round ``time_step`` falls on the sampling grid."""
        return time_step % self.sample_every == 0


@dataclass
class StackStat:
    """Aggregated timings of one call stack."""

    count: int = 0
    cumulative_ns: int = 0
    self_ns: int = 0

    def merge(self, other: "StackStat") -> None:
        self.count += other.count
        self.cumulative_ns += other.cumulative_ns
        self.self_ns += other.self_ns


@dataclass
class Profile:
    """Per-stack self/cumulative time aggregation of a span trace."""

    stacks: Dict[Stack, StackStat] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_trace_records(
        cls, records: Sequence[Dict[str, Any]]
    ) -> "Profile":
        """Aggregate every ``span`` record in ``records`` into a profile.

        Stacks are reconstructed from ``span_id``/``parent_id`` chains;
        a span whose parent is absent from the record set roots its own
        stack (truncated stream prefixes).  Self time is the span's
        duration minus its *direct* children's durations, clamped at
        zero against clock jitter.
        """
        spans = [r for r in records if r.get("kind") == "span"]
        by_id: Dict[int, Dict[str, Any]] = {}
        for record in spans:
            span_id = record.get("span_id")
            if isinstance(span_id, int):
                by_id[span_id] = record
        children_ns: Dict[int, int] = {}
        for record in spans:
            parent_id = record.get("parent_id")
            if isinstance(parent_id, int) and parent_id in by_id:
                children_ns[parent_id] = children_ns.get(parent_id, 0) + int(
                    record.get("duration_ns", 0)
                )

        stack_cache: Dict[int, Stack] = {}

        def _stack(record: Dict[str, Any]) -> Stack:
            span_id = record.get("span_id")
            if isinstance(span_id, int) and span_id in stack_cache:
                return stack_cache[span_id]
            name = str(record.get("name", "?"))
            parent_id = record.get("parent_id")
            if isinstance(parent_id, int) and parent_id in by_id:
                stack = _stack(by_id[parent_id]) + (name,)
            else:
                stack = (name,)
            if isinstance(span_id, int):
                stack_cache[span_id] = stack
            return stack

        profile = cls()
        for record in spans:
            stack = _stack(record)
            duration = int(record.get("duration_ns", 0))
            span_id = record.get("span_id")
            own_children = (
                children_ns.get(span_id, 0) if isinstance(span_id, int) else 0
            )
            stat = profile.stacks.setdefault(stack, StackStat())
            stat.count += 1
            stat.cumulative_ns += duration
            stat.self_ns += max(0, duration - own_children)
        return profile

    def merge(self, other: "Profile") -> "Profile":
        """Fold ``other`` into this profile (stack-wise addition)."""
        for stack, stat in other.stacks.items():
            self.stacks.setdefault(stack, StackStat()).merge(stat)
        return self

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def total_ns(self) -> int:
        """Sum of self time over every stack (== total sampled time)."""
        return sum(stat.self_ns for stat in self.stacks.values())

    def folded_lines(self) -> List[str]:
        """``flamegraph.pl``-compatible folded stacks, sorted.

        One ``a;b;c <self_microseconds>`` line per stack that ran for
        at least a microsecond; semicolons inside span names are
        replaced to keep the stack separator unambiguous.  A stack whose
        children cover its whole time keeps its line with weight 0 — the
        ``run_work_units`` span of a process pool, whose workers' cells
        overlap — so the set of stacks depends on what ran, not on how
        its time split between frames.
        """
        lines: List[str] = []
        for stack in sorted(self.stacks):
            stat = self.stacks[stack]
            if stat.cumulative_ns < 1000:
                continue
            weight = stat.self_ns // 1000
            frames = ";".join(frame.replace(";", ",") for frame in stack)
            lines.append(f"{frames} {weight}")
        return lines

    def table_rows(self) -> List[List[str]]:
        """``[stack, calls, cum_ms, self_ms, self_%]`` rows, hottest first."""
        total = self.total_ns or 1
        rows: List[List[str]] = []
        ordered = sorted(
            self.stacks.items(), key=lambda item: (-item[1].self_ns, item[0])
        )
        for stack, stat in ordered:
            rows.append(
                [
                    ";".join(stack),
                    str(stat.count),
                    f"{stat.cumulative_ns / 1e6:.3f}",
                    f"{stat.self_ns / 1e6:.3f}",
                    f"{100.0 * stat.self_ns / total:.1f}%",
                ]
            )
        return rows

    # ------------------------------------------------------------------
    # Serialisation (schema-versioned, like metrics.json)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready document (schema version 1, stable key order)."""
        return {
            "version": PROFILE_SCHEMA_VERSION,
            "total_self_ns": self.total_ns,
            "stacks": [
                {
                    "stack": list(stack),
                    "count": stat.count,
                    "cumulative_ns": stat.cumulative_ns,
                    "self_ns": stat.self_ns,
                }
                for stack, stat in sorted(self.stacks.items())
            ],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Profile":
        """Inverse of :meth:`to_dict`; unknown major versions raise."""
        version = payload.get("version", PROFILE_SCHEMA_VERSION)
        try:
            major = int(version)
        except (TypeError, ValueError) as error:
            raise SchemaError(
                f"profile version {version!r} is not an integer"
            ) from error
        if major != PROFILE_SCHEMA_VERSION:
            raise SchemaError(
                f"profile schema version {major} is not supported (this "
                f"library reads version {PROFILE_SCHEMA_VERSION})"
            )
        profile = cls()
        for entry in payload.get("stacks", []):
            stack = tuple(str(frame) for frame in entry.get("stack", []))
            profile.stacks[stack] = StackStat(
                count=int(entry.get("count", 0)),
                cumulative_ns=int(entry.get("cumulative_ns", 0)),
                self_ns=int(entry.get("self_ns", 0)),
            )
        return profile

    def to_json(self, indent: int = 2) -> str:
        """Serialise to the ``profile.json`` document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Profile":
        """Parse a ``profile.json`` document."""
        return cls.from_dict(json.loads(text))


# ----------------------------------------------------------------------
# Artefact IO
# ----------------------------------------------------------------------
def write_profile(
    directory: Union[str, Path], profile: Profile
) -> Dict[str, Path]:
    """Write ``profile.json`` + ``profile.folded`` atomically.

    Returns the written paths (keys ``"profile"`` and ``"folded"``);
    lives next to ``metrics.json`` so every run directory carries its
    own flame data.
    """
    from repro.io.runstore import atomic_write_text

    directory = Path(directory)
    profile_path = directory / PROFILE_FILENAME
    atomic_write_text(profile_path, profile.to_json())
    folded_path = directory / FOLDED_FILENAME
    folded = "\n".join(profile.folded_lines())
    atomic_write_text(folded_path, folded + ("\n" if folded else ""))
    return {"profile": profile_path, "folded": folded_path}


def load_profile(target: Union[str, Path]) -> Profile:
    """Load a profile from ``profile.json``, its directory, or rebuild
    one from a ``trace.jsonl`` when no profile artefact exists."""
    path = Path(target)
    if path.is_dir():
        profile_path = path / PROFILE_FILENAME
        if profile_path.is_file():
            path = profile_path
        else:
            path = path / "trace.jsonl"
    if not path.is_file():
        raise ConfigurationError(f"no profile or trace at {path}")
    if path.suffix == ".jsonl":
        from repro.obs.trace import read_trace_jsonl

        return Profile.from_trace_records(read_trace_jsonl(path, strict=False))
    return Profile.from_json(path.read_text(encoding="utf-8"))
