"""Regression gates: compare a results manifest against a baseline.

The gate is what turns the SLO/continuity trajectory from a log into a
test.  :func:`gate_manifest` walks the union of cells in a manifest and
a committed baseline (``tests/baselines/matrix_baseline.json``), applies
a per-metric :class:`Tolerance` to every seed-deterministic metric, and
returns a :class:`GateReport` of typed :class:`GateVerdict` rows — each
naming the cell, the metric, both values, and a human-readable reason —
so a CI failure reads as *"scale-testbed-uniform-n4-b16-seed0 misses
observed 3 != baseline 0"* rather than a bare assert.

It reads a cell's ``metrics`` only.  The ``perf`` section (wall seconds,
blocks per wall-second) is recorded and ``expt diff`` prints it, but no
verdict depends on host time: wall-clock regressions are ``python -m
bench compare``'s to call (paired runs, fixed bounds).

Tolerance kinds
---------------
``exact``
    Byte-deterministic metrics (continuity, rejects, cache hits on the
    seeded simulator) must match the baseline exactly.
``max`` / ``min``
    Absolute ceiling/floor on the observed value (baseline ignored) —
    e.g. the 0.9 clean-handoff floor.  Boundary values pass.

Cells present on only one side are failures in their own right:
a baseline cell missing from the manifest means lost coverage, a
manifest cell absent from the baseline means the baseline needs a
deliberate regeneration (``repro expt run --smoke --regen-baseline``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.analysis.report import Table
from repro.errors import ParameterError
from repro.expt.runner import validate_manifest

__all__ = [
    "DEFAULT_TOLERANCES",
    "Tolerance",
    "GateVerdict",
    "GateReport",
    "gate_manifest",
    "diff_manifests",
]

#: The per-metric gates, all on :data:`~repro.scenarios.METRIC_KEYS`.
DEFAULT_TOLERANCES: Dict[str, Tuple[str, float]] = {
    "blocks_delivered": ("exact", 0.0),
    "misses": ("exact", 0.0),
    "rounds": ("exact", 0.0),
    "continuity_ratio": ("exact", 0.0),
    "reject_rate": ("exact", 0.0),
    "cache_hit_ratio": ("exact", 0.0),
    # Non-golden cells may legitimately end breached (the cache-off
    # degraded baseline rejects by §3.4 design); they are tracked
    # exactly against the baseline.  Golden cells are forced to
    # ("max", 0.0) inside the gate regardless of this table.
    "slo_breaches": ("exact", 0.0),
    "slo_breach_events": ("exact", 0.0),
    # Cluster failover cells: the handoff count is seed-deterministic,
    # and the ISSUE's acceptance floor (>90% of affected sessions handed
    # off cleanly) gates as an absolute minimum, baseline-free.
    "handoffs": ("exact", 0.0),
    "handoff_clean_ratio": ("min", 0.9),
}


@dataclass(frozen=True)
class Tolerance:
    """One metric's comparison rule (see the module docstring)."""

    metric: str
    kind: str
    limit: float

    def __post_init__(self) -> None:
        if self.kind not in ("exact", "max", "min"):
            raise ParameterError(
                f"unknown tolerance kind {self.kind!r} for "
                f"{self.metric}"
            )
        if self.limit != self.limit:
            raise ParameterError(
                f"tolerance limit for {self.metric} is NaN"
            )


@dataclass(frozen=True)
class GateVerdict:
    """One typed pass/fail judgement for (cell, metric)."""

    cell: str
    metric: str
    kind: str
    passed: bool
    detail: str
    baseline: Optional[float] = None
    observed: Optional[float] = None
    limit: Optional[float] = None

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready mapping (the ``expt gate --json`` row shape)."""
        return {
            "cell": self.cell,
            "metric": self.metric,
            "kind": self.kind,
            "passed": self.passed,
            "detail": self.detail,
            "baseline": self.baseline,
            "observed": self.observed,
            "limit": self.limit,
        }


@dataclass(frozen=True)
class GateReport:
    """Every verdict of one gate evaluation, failures first available."""

    verdicts: Tuple[GateVerdict, ...]
    manifest_name: str
    baseline_name: str

    @property
    def passed(self) -> bool:
        """True when no verdict failed."""
        return all(v.passed for v in self.verdicts)

    @property
    def failures(self) -> Tuple[GateVerdict, ...]:
        """The failing verdicts, in evaluation order."""
        return tuple(v for v in self.verdicts if not v.passed)

    def render(self) -> str:
        """Human-readable report naming every failing cell and metric."""
        lines = [
            f"expt gate: manifest '{self.manifest_name}' vs baseline "
            f"'{self.baseline_name}' — "
            f"{'PASS' if self.passed else 'FAIL'} "
            f"({len(self.verdicts)} checks, "
            f"{len(self.failures)} failure(s))"
        ]
        for verdict in self.failures:
            lines.append(
                f"  FAIL {verdict.cell} :: {verdict.metric} "
                f"[{verdict.kind}] — {verdict.detail}"
            )
        return "\n".join(lines)

    def table(self) -> Table:
        """Aligned text table of every verdict."""
        table = Table(
            title=(
                f"expt gate ({'PASS' if self.passed else 'FAIL'}, "
                f"{len(self.failures)} failure(s))"
            ),
            columns=[
                "cell", "metric", "kind", "baseline", "observed",
                "limit", "verdict",
            ],
        )
        for v in self.verdicts:
            table.add_row(
                v.cell, v.metric, v.kind,
                "-" if v.baseline is None else f"{v.baseline:g}",
                "-" if v.observed is None else f"{v.observed:g}",
                "-" if v.limit is None else f"{v.limit:g}",
                "ok" if v.passed else "FAIL",
            )
        return table

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready mapping (the ``expt gate --json`` shape)."""
        return {
            "manifest": self.manifest_name,
            "baseline": self.baseline_name,
            "passed": self.passed,
            "checks": len(self.verdicts),
            "failures": len(self.failures),
            "verdicts": [v.to_dict() for v in self.verdicts],
        }


def _is_number(value: object) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and not math.isnan(value)
    )


def _judge(
    cell_id: str,
    tolerance: Tolerance,
    baseline: object,
    observed: object,
    golden: bool,
) -> GateVerdict:
    metric, kind, limit = tolerance.metric, tolerance.kind, tolerance.limit
    base = dict(
        cell=cell_id, metric=metric, kind=kind, limit=limit,
        baseline=baseline if _is_number(baseline) else None,
        observed=observed if _is_number(observed) else None,
    )
    # A golden cell refuses SLO breaches outright, whatever the baseline
    # recorded — that is what "golden" means.
    if golden and metric == "slo_breaches":
        kind, limit = "max", 0.0
        base.update(kind=kind, limit=limit)
    if baseline is None and observed is None:
        return GateVerdict(
            passed=True,
            detail="metric not recorded on either side",
            **base,
        )
    if observed is None:
        return GateVerdict(
            passed=False,
            detail=(
                "metric recorded in baseline but missing from the "
                "manifest"
            ),
            **base,
        )
    if not _is_number(observed):
        return GateVerdict(
            passed=False,
            detail=f"observed value is not a finite number: {observed!r}",
            **base,
        )
    if kind == "max":
        passed = observed <= limit
        return GateVerdict(
            passed=passed,
            detail=(
                f"observed {observed:g} vs ceiling {limit:g}"
                if passed else
                f"observed {observed:g} exceeds ceiling {limit:g}"
            ),
            **base,
        )
    if kind == "min":
        passed = observed >= limit
        return GateVerdict(
            passed=passed,
            detail=(
                f"observed {observed:g} vs floor {limit:g}"
                if passed else
                f"observed {observed:g} is below floor {limit:g}"
            ),
            **base,
        )
    # exact: the baseline's value is what the run must reproduce.
    if baseline is None:
        return GateVerdict(
            passed=False,
            detail=(
                "metric recorded in the manifest but missing from the "
                "baseline; regenerate the baseline to accept it"
            ),
            **base,
        )
    passed = observed == baseline
    return GateVerdict(
        passed=passed,
        detail=(
            f"observed {observed:g} == baseline {baseline:g}"
            if passed else
            f"observed {observed:g} != baseline {baseline:g} "
            "(deterministic metric drifted)"
        ),
        **base,
    )


def gate_manifest(
    manifest: Mapping,
    baseline: Mapping,
    allow_extra_cells: bool = False,
) -> GateReport:
    """Compare *manifest* against *baseline*, one verdict per check.

    Every cell's ``metrics`` are judged by :data:`DEFAULT_TOLERANCES`;
    its ``perf`` section is never read.  With ``allow_extra_cells`` a
    manifest cell absent from the baseline is a passing "new cell" note
    instead of a failure.
    """
    validate_manifest(dict(manifest))
    validate_manifest(dict(baseline))
    tolerances = [
        Tolerance(metric=metric, kind=kind, limit=limit)
        for metric, (kind, limit) in sorted(DEFAULT_TOLERANCES.items())
    ]
    manifest_cells: Dict = dict(manifest["cells"])
    baseline_cells: Dict = dict(baseline["cells"])
    verdicts: List[GateVerdict] = []

    for cell_id in sorted(baseline_cells):
        if cell_id not in manifest_cells:
            verdicts.append(GateVerdict(
                cell=cell_id,
                metric="__cell__",
                kind="missing_cell",
                passed=False,
                detail=(
                    "cell present in baseline but missing from the "
                    "manifest (coverage regressed)"
                ),
            ))
    for cell_id in sorted(manifest_cells):
        record = manifest_cells[cell_id]
        if cell_id not in baseline_cells:
            verdicts.append(GateVerdict(
                cell=cell_id,
                metric="__cell__",
                kind="extra_cell",
                passed=allow_extra_cells,
                detail=(
                    "cell absent from the baseline; regenerate the "
                    "baseline to accept the new matrix"
                ),
            ))
            continue
        baseline_metrics = baseline_cells[cell_id]["metrics"]
        golden = bool(record.get("golden"))
        for tolerance in tolerances:
            verdicts.append(_judge(
                cell_id,
                tolerance,
                baseline_metrics[tolerance.metric],
                record["metrics"][tolerance.metric],
                golden,
            ))
    return GateReport(
        verdicts=tuple(verdicts),
        manifest_name=str(manifest.get("name", "?")),
        baseline_name=str(baseline.get("name", "?")),
    )


def diff_manifests(
    manifest: Mapping, baseline: Mapping
) -> Dict[str, object]:
    """Per-cell, per-metric deltas between two manifests.

    Purely descriptive (no tolerances applied) — the ``expt diff``
    command renders this when a gate failure needs investigating.
    """
    validate_manifest(dict(manifest))
    validate_manifest(dict(baseline))
    manifest_cells: Dict = dict(manifest["cells"])
    baseline_cells: Dict = dict(baseline["cells"])
    cells: Dict[str, object] = {}
    for cell_id in sorted(set(manifest_cells) | set(baseline_cells)):
        ours = manifest_cells.get(cell_id)
        theirs = baseline_cells.get(cell_id)
        if ours is None or theirs is None:
            cells[cell_id] = {
                "status": "extra" if theirs is None else "missing",
            }
            continue
        deltas: Dict[str, object] = {}
        ours_values = {**ours["metrics"], **ours["perf"]}
        theirs_values = {**theirs["metrics"], **theirs["perf"]}
        for metric in sorted(set(ours_values) | set(theirs_values)):
            a = theirs_values.get(metric)
            b = ours_values.get(metric)
            if a == b:
                continue
            entry: Dict[str, object] = {"baseline": a, "observed": b}
            if _is_number(a) and _is_number(b) and a != 0:
                entry["relative"] = (b - a) / a
            deltas[metric] = entry
        cells[cell_id] = {"status": "common", "deltas": deltas}
    return {
        "manifest": manifest.get("name"),
        "baseline": baseline.get("name"),
        "cells": cells,
    }
