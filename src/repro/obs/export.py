"""Snapshot export: the ``metrics.json`` document.

``snapshot_to_json``/``snapshot_from_json`` round-trip the
:class:`~repro.obs.core.MetricsSnapshot` schema (version 1) that
``metrics.json`` files use.
"""

from __future__ import annotations

import json

from repro.obs.core import MetricsSnapshot


def snapshot_to_json(snapshot: MetricsSnapshot, indent: int = 2) -> str:
    """Serialise a snapshot to the stable ``metrics.json`` document."""
    return json.dumps(snapshot.to_dict(), indent=indent, sort_keys=True) + "\n"


def snapshot_from_json(text: str) -> MetricsSnapshot:
    """Parse a ``metrics.json`` document back into a snapshot."""
    return MetricsSnapshot.from_dict(json.loads(text))
