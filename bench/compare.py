"""``python -m bench compare A.json B.json``: apply every bound.

A is the baseline, B the candidate; both are result files written by
``python -m bench run``.  Each workload is a row of its own.  Timed
metrics are reported as improved / within bound / regressed — or
*unresolved* when the repetitions of either side spread wider than the
bound, unless every repetition of one side beats every repetition of
the other.  Simulated (``exact``)
metrics and the ``sim_digest`` are either equal or not.  Every ratio is
printed with its base.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from bench import catalog

IMPROVED, WITHIN, REGRESSED, UNRESOLVED = (
    "improved", "within bound", "REGRESSED", "unresolved"
)
EQUAL, DIFFERENT, MISSING = "equal", "DIFFERENT", "MISSING"


def _spread(entry: Dict) -> float:
    """Quartile distance of the repetitions as a share of their median."""
    samples = entry.get("samples", [])
    if len(samples) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / median if median else 0.0


def judge_timed(
    metric: catalog.Metric, base: Dict, candidate: Dict
) -> Tuple[str, float, float]:
    """(verdict, worsening as a share of the base, widest spread)."""
    sign = 1.0 if metric.better == "lower" else -1.0
    worse_by = sign * (candidate["value"] - base["value"]) / base["value"]
    spread = max(_spread(base), _spread(candidate))
    if spread > metric.bound:
        ours = [sign * s for s in candidate.get("samples", [])]
        theirs = [sign * s for s in base.get("samples", [])]
        if ours and theirs and max(ours) < min(theirs):
            verdict = IMPROVED
        elif (ours and theirs and min(ours) > max(theirs)
              and worse_by > metric.bound):
            verdict = REGRESSED
        else:
            verdict = UNRESOLVED
    elif worse_by > metric.bound:
        verdict = REGRESSED
    elif worse_by < -metric.bound:
        verdict = IMPROVED
    else:
        verdict = WITHIN
    return verdict, worse_by, spread


def compare(baseline: Dict, candidate: Dict) -> Tuple[List[str], bool]:
    """The report lines, and whether anything regressed or mismatched."""
    lines: List[str] = []
    bad = False
    for name in catalog.WORKLOADS:
        a = baseline["workloads"].get(name)
        b = candidate["workloads"].get(name)
        if a is None or b is None:
            lines.append(f"{name}: {MISSING} from one file")
            bad = True
            continue
        lines.append(f"{name}:")
        same = a["sim_digest"] == b["sim_digest"]
        lines.append(
            f"  {'sim_digest':<22} {EQUAL if same else DIFFERENT}"
            f"  ({a['sim_digest'][:12]} vs {b['sim_digest'][:12]})"
        )
        bad = bad or not same or not (a["correct"] and b["correct"])
        if not (a["correct"] and b["correct"]):
            lines.append("  a correctness check failed in one of the runs")
        for metric in catalog.END_TO_END:
            if name not in metric.workloads:
                continue
            ea: Optional[Dict] = a["metrics"].get(metric.name)
            eb: Optional[Dict] = b["metrics"].get(metric.name)
            if ea is None or eb is None:
                lines.append(f"  {metric.name:<22} {MISSING}")
                bad = True
                continue
            if metric.kind == catalog.EXACT:
                equal = ea["value"] == eb["value"]
                bad = bad or not equal
                lines.append(
                    f"  {metric.name:<22} {EQUAL if equal else DIFFERENT}"
                    f"  {ea['value']:.6g} ({ea['base']}) vs "
                    f"{eb['value']:.6g} ({eb['base']})"
                )
                continue
            verdict, worse_by, spread = judge_timed(metric, ea, eb)
            bad = bad or verdict == REGRESSED
            lines.append(
                f"  {metric.name:<22} {verdict:<13} "
                f"{eb['value']:.6g} vs base {ea['value']:.6g} {metric.unit}"
                f" ({worse_by:+.1%} worse, bound {metric.bound:.0%}, "
                f"spread {spread:.1%})"
            )
    return lines, bad


def main(baseline: Path, candidate: Path) -> int:
    lines, bad = compare(
        json.loads(baseline.read_text()), json.loads(candidate.read_text())
    )
    print(f"baseline {baseline}  candidate {candidate}")
    for line in lines:
        print(line)
    print("RESULT: " + ("regression or mismatch" if bad else "agree"))
    return 1 if bad else 0
