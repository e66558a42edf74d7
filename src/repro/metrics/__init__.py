"""Evaluation metrics: Kendall-tau, regret accounting, run summaries,
and the memory measurement used by Tables 5-6."""

from repro.metrics.kendall import kendall_tau
from repro.metrics.regret import regret_series, regret_ratio_series
from repro.metrics.resources import measure_memory
from repro.metrics.summary import RunSummary, summarize

__all__ = [
    "RunSummary",
    "kendall_tau",
    "measure_memory",
    "regret_ratio_series",
    "regret_series",
    "summarize",
]
