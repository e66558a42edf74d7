"""Generate a markdown reproduction report from a results directory.

``fasea run all`` leaves CSVs behind; ``fasea report`` reads them back
and grades the reproduction: for each paper finding it extracts the
relevant final values and prints a ✅/❌ verdict with the numbers as
evidence.  Unlike ``fasea claims`` (which re-simulates), the report is
a pure function of the results directory — it grades what was actually
measured and committed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.exceptions import ConfigurationError

PathLike = Union[str, Path]


@dataclass(frozen=True)
class Finding:
    """One graded paper finding."""

    title: str
    holds: Optional[bool]  # None = could not evaluate (missing data)
    evidence: str

    @property
    def verdict(self) -> str:
        if self.holds is None:
            return "n/a"
        return "REPRODUCED" if self.holds else "NOT REPRODUCED"


def _read_curve(path: Path) -> Dict[str, List[float]]:
    """Column name -> values (the ``t`` column keyed as ``"t"``)."""
    if not path.exists():
        raise ConfigurationError(f"missing curve file {path}")
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    header = rows[0]
    columns: Dict[str, List[float]] = {name: [] for name in header}
    for row in rows[1:]:
        for name, cell in zip(header, row):
            try:
                columns[name].append(float(cell))
            except ValueError:
                columns[name].append(float("nan"))
    return columns


def _final(columns: Dict[str, List[float]], name: str) -> float:
    if name not in columns or not columns[name]:
        raise ConfigurationError(f"column {name!r} missing")
    return columns[name][-1]


def _grade(title: str, check) -> Finding:
    try:
        holds, evidence = check()
    except (ConfigurationError, OSError, IndexError, KeyError) as error:
        return Finding(title=title, holds=None, evidence=f"not evaluable: {error}")
    return Finding(title=title, holds=holds, evidence=evidence)


def grade_results(results_dir: PathLike) -> List[Finding]:
    """Grade every evaluable finding in a results directory."""
    root = Path(results_dir)
    if not root.is_dir():
        raise ConfigurationError(f"no results directory at {results_dir}")
    findings: List[Finding] = []

    def fig1_ordering() -> Tuple[bool, str]:
        curves = _read_curve(root / "fig1" / "curve_total_rewards.csv")
        rewards = {
            name: _final(curves, name)
            for name in ("UCB", "TS", "eGreedy", "Exploit", "Random", "OPT")
        }
        holds = (
            rewards["UCB"] > rewards["TS"]
            and rewards["Exploit"] > rewards["TS"]
            and rewards["eGreedy"] > rewards["TS"]
            and rewards["TS"] > rewards["Random"]
        )
        return holds, ", ".join(f"{k}={v:.0f}" for k, v in rewards.items())

    findings.append(
        _grade("fig1: UCB/Exploit/eGreedy >> TS > Random (total rewards)", fig1_ordering)
    )

    def fig1_regret_drop() -> Tuple[bool, str]:
        curves = _read_curve(root / "fig1" / "curve_total_regrets.csv")
        ucb = curves["UCB"]
        peak = max(ucb)
        final = ucb[-1]
        return final < 0.5 * peak, (
            f"UCB regret peaks at {peak:.0f} and ends at {final:.0f}"
        )

    findings.append(
        _grade("fig1: regrets drop after capacity exhaustion", fig1_regret_drop)
    )

    def fig2_taus() -> Tuple[bool, str]:
        curves = _read_curve(root / "fig2" / "curve_kendall_tau.csv")
        ucb = _final(curves, "UCB")
        ts = _final(curves, "TS")
        random_tau = _final(curves, "Random")
        return (ucb > 0.8 and ucb > ts and abs(random_tau) < 0.2), (
            f"final tau: UCB={ucb:.3f}, TS={ts:.3f}, Random={random_tau:.3f}"
        )

    findings.append(
        _grade("fig2: UCB ranking correlates with truth, TS noisy, Random ~0", fig2_taus)
    )

    def fig4_ts_at_d1() -> Tuple[bool, str]:
        curves = _read_curve(root / "fig4" / "curve_accept_ratio.csv")
        ts_d1 = _final(curves, "TS d=1")
        opt_d1 = _final(curves, "OPT d=1")
        ts_d15 = _final(curves, "TS d=15")
        opt_d15 = _final(curves, "OPT d=15")
        holds = ts_d1 > 0.8 * opt_d1 and ts_d15 < 0.5 * opt_d15
        return holds, (
            f"TS/OPT accept ratio: {ts_d1 / opt_d1:.0%} at d=1 vs "
            f"{ts_d15 / opt_d15:.0%} at d=15"
        )

    findings.append(_grade("fig4: TS competitive only at d = 1", fig4_ts_at_d1))

    def tab7_rows() -> Tuple[bool, str]:
        path = root / "tab7" / "table_accept_ratios__c_u___5.csv"
        with path.open(newline="") as handle:
            rows = {row[0]: row[1:] for row in csv.reader(handle)}
        ucb = [float(v) for v in rows["UCB"]]
        ts = [float(v) for v in rows["TS"]]
        exploit = [float(v) for v in rows["Exploit"]]
        ucb_wins = sum(u >= t for u, t in zip(ucb, ts))
        # "Locks at zero" = an accept ratio indistinguishable from 0
        # after CSV round-tripping; exact float equality would miss a
        # ratio serialized as e.g. 1e-17 (FAS003).
        zeros = sum(math.isclose(v, 0.0, abs_tol=1e-12) for v in exploit)
        holds = ucb_wins == len(ucb) and zeros >= 1
        return holds, (
            f"UCB >= TS for {ucb_wins}/{len(ucb)} users; Exploit locks at 0 "
            f"for {zeros} user(s)"
        )

    findings.append(
        _grade("tab7: UCB dominates per user; Exploit lock-in exists", tab7_rows)
    )

    def tab5_time_ordering() -> Tuple[bool, str]:
        path = root / "tab5" / "table_avg_time__sec_round.csv"
        with path.open(newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader)
            rows = {row[0]: [float(v) for v in row[1:]] for row in reader}
        largest = {name: values[-1] for name, values in rows.items()}
        ucb = largest["UCB"]
        others = {name: v for name, v in largest.items() if name != "UCB"}
        if not others:
            raise ConfigurationError("tab5 times no policy besides UCB")
        # UCB must beat *every* other policy, so compare it with the
        # slowest of them (the runner-up when the finding holds).
        runner_up = max(others, key=lambda name: others[name])
        holds = ucb > others[runner_up] and all(v < 0.05 for v in largest.values())
        evidence = ", ".join(
            f"{name}={1000 * v:.2f}ms" for name, v in sorted(largest.items())
        )
        return holds, (
            f"at {header[-1]}: UCB {ucb / others[runner_up] - 1:+.0%} vs the "
            f"next slowest, {runner_up}; {evidence}"
        )

    findings.append(
        _grade("tab5: per-round times small; UCB slowest at large |V|", tab5_time_ordering)
    )

    def mab_contrast() -> Tuple[bool, str]:
        curves = _read_curve(root / "mab" / "curve_cumulative_regret.csv")
        ts = _final(curves, "TS-Beta")
        ucb1 = _final(curves, "UCB1")
        return ts < ucb1, f"basic-bandit regret: TS-Beta={ts:.0f}, UCB1={ucb1:.0f}"

    findings.append(
        _grade("mab: TS wins where arms are independent (premise [9])", mab_contrast)
    )
    return findings


def render_report(findings: List[Finding], results_dir: PathLike) -> str:
    """Markdown report over graded findings."""
    reproduced = sum(1 for f in findings if f.holds)
    evaluable = sum(1 for f in findings if f.holds is not None)
    lines = [
        "# Reproduction report",
        "",
        f"Graded from the CSVs under `{results_dir}`; regenerate them with "
        "`fasea run all` and re-grade with `fasea report`.",
        "",
        f"**{reproduced}/{evaluable} evaluable findings reproduced.**",
        "",
        "| Verdict | Finding | Evidence |",
        "|---|---|---|",
    ]
    for finding in findings:
        mark = {True: "✅", False: "❌", None: "⬜"}[finding.holds]
        lines.append(f"| {mark} {finding.verdict} | {finding.title} | {finding.evidence} |")
    return "\n".join(lines) + "\n"
