"""repro.obs — zero-overhead telemetry for the FASEA reproduction.

A process-local :class:`Instrumentation` registry of typed counters,
gauges, fixed-bucket histograms, timers and run-scoped series, plus
hierarchical span tracing — all behind the :data:`NULL_OBS` default so
hot paths pay a single attribute check when telemetry is off.

Usage::

    from repro import obs

    inst = obs.Instrumentation()
    with obs.use(inst), inst.span("experiment", id="fig1"):
        history = run_policy(policy, world, horizon=2000)
    snapshot = inst.snapshot()            # mergeable, picklable
    text = obs.snapshot_to_json(snapshot)

Sinks: ``metrics.json`` / ``trace.jsonl`` next to each run
(:func:`repro.io.runstore.persist_run_telemetry`), the crash-safe
streaming sink (:class:`StreamingSink`), and the ``fasea obs
summary|trace|diff|health|top|profile|replay|ope`` CLI verbs
(:mod:`repro.obs.cli`).  The deterministic sampling profiler lives in
:mod:`repro.obs.profile`; the bench history lives in
``perfbench/``.
"""

from repro.obs.console import Console, color_allowed
from repro.obs.core import (
    Counter,
    Gauge,
    Histogram,
    Instrumentation,
    MetricsSnapshot,
    NULL_OBS,
    NullInstrumentation,
    Series,
    Timer,
    current,
    set_current,
    use,
)
from repro.obs.export import (
    snapshot_from_json,
    snapshot_to_json,
)
from repro.obs.flight import (
    DECISIONS_FILENAME,
    FLIGHT_SCHEMA_VERSION,
    FlightBuffer,
    FlightLog,
    FlightRecorder,
    decision_record,
    flight_digest,
    load_flight,
    make_replication_header,
    make_run_header,
    policy_digests,
    rng_fingerprint,
)
from repro.obs.profile import Profile, ProfileConfig, load_profile, write_profile
from repro.obs.stream import StreamingSink
from repro.obs.trace import (
    append_trace_jsonl,
    read_trace_jsonl,
    span_tree_lines,
    write_trace_jsonl,
)

__all__ = [
    "Console",
    "Counter",
    "DECISIONS_FILENAME",
    "FLIGHT_SCHEMA_VERSION",
    "FlightBuffer",
    "FlightLog",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "Instrumentation",
    "MetricsSnapshot",
    "NULL_OBS",
    "NullInstrumentation",
    "Profile",
    "ProfileConfig",
    "Series",
    "StreamingSink",
    "Timer",
    "append_trace_jsonl",
    "color_allowed",
    "current",
    "decision_record",
    "flight_digest",
    "load_flight",
    "load_profile",
    "make_replication_header",
    "make_run_header",
    "policy_digests",
    "read_trace_jsonl",
    "rng_fingerprint",
    "set_current",
    "snapshot_from_json",
    "snapshot_to_json",
    "span_tree_lines",
    "use",
    "write_profile",
    "write_trace_jsonl",
]
