"""Gate edge cases: missing/extra cells, boundaries, null/NaN guards."""

import pytest

from repro.errors import ParameterError
from repro.expt import (
    DEFAULT_TOLERANCES,
    GateReport,
    GateVerdict,
    Tolerance,
    diff_manifests,
    gate_manifest,
    validate_manifest,
)
from repro.expt.runner import METRIC_KEYS


def _cell(cell_id, golden=False, **overrides):
    metrics = {key: None for key in METRIC_KEYS}
    metrics.update(
        blocks_delivered=100, misses=0, rounds=5,
        continuity_ratio=1.0, reject_rate=0.0,
    )
    perf = {"wall_time_s": 0.5, "blocks_per_second": 200.0}
    for key, value in overrides.items():
        target = perf if key in perf else metrics
        target[key] = value
    return {
        "cell_id": cell_id,
        "kind": "scale",
        "golden": golden,
        "spec": {"streams": 2},
        "metrics": metrics,
        "perf": perf,
    }


def _manifest(name, cells):
    return validate_manifest({
        "kind": "expt_matrix",
        "schema_version": 1,
        "name": name,
        "config": {},
        "config_hash": "sha256:00",
        "workers": 1,
        "parallel": False,
        "wall_time_s": 0.0,
        "cells": {cell["cell_id"]: cell for cell in cells},
    })


class TestCellCoverage:
    def test_identical_manifests_pass(self):
        manifest = _manifest("a", [_cell("cell-1")])
        report = gate_manifest(manifest, manifest)
        assert report.passed
        assert report.failures == ()
        assert "PASS" in report.render()

    def test_baseline_cell_missing_from_manifest_fails(self):
        baseline = _manifest("base", [_cell("cell-1"), _cell("cell-2")])
        manifest = _manifest("run", [_cell("cell-1")])
        report = gate_manifest(manifest, baseline)
        assert not report.passed
        [failure] = report.failures
        assert failure.cell == "cell-2"
        assert failure.metric == "__cell__"
        assert failure.kind == "missing_cell"
        assert "coverage regressed" in failure.detail

    def test_manifest_extra_cell_fails_by_default(self):
        baseline = _manifest("base", [_cell("cell-1")])
        manifest = _manifest("run", [_cell("cell-1"), _cell("cell-9")])
        report = gate_manifest(manifest, baseline)
        assert not report.passed
        [failure] = report.failures
        assert (failure.cell, failure.kind) == ("cell-9", "extra_cell")
        assert "regenerate the baseline" in failure.detail

    def test_extra_cell_allowed_when_opted_in(self):
        baseline = _manifest("base", [_cell("cell-1")])
        manifest = _manifest("run", [_cell("cell-1"), _cell("cell-9")])
        report = gate_manifest(
            manifest, baseline, allow_extra_cells=True
        )
        assert report.passed
        # the extra cell is still reported, as a passing note.
        notes = [v for v in report.verdicts if v.kind == "extra_cell"]
        assert len(notes) == 1 and notes[0].passed


class TestBoundaries:
    # Each kind is exercised on a row of the one tolerance table.

    def test_max_boundary_passes_and_above_fails(self):
        # A golden cell's slo_breaches is ("max", 0).
        baseline = _manifest("base", [_cell("g", golden=True)])
        at_limit = _manifest(
            "run", [_cell("g", golden=True, slo_breaches=0)]
        )
        over = _manifest("run", [_cell("g", golden=True, slo_breaches=1)])
        assert gate_manifest(at_limit, baseline).passed
        [failure] = gate_manifest(over, baseline).failures
        assert failure.kind == "max"
        assert "exceeds ceiling" in failure.detail

    def test_min_boundary_passes_and_below_fails(self):
        assert DEFAULT_TOLERANCES["handoff_clean_ratio"] == ("min", 0.9)
        baseline = _manifest("base", [_cell("c", handoff_clean_ratio=1.0)])
        at_limit = _manifest("run", [_cell("c", handoff_clean_ratio=0.9)])
        below = _manifest("run", [_cell("c", handoff_clean_ratio=0.89)])
        assert gate_manifest(at_limit, baseline).passed
        [failure] = gate_manifest(below, baseline).failures
        assert failure.kind == "min"
        assert "below floor" in failure.detail

    def test_exact_mismatch_names_cell_and_metric(self):
        baseline = _manifest("base", [_cell("scale-x", misses=0)])
        manifest = _manifest("run", [_cell("scale-x", misses=3)])
        report = gate_manifest(manifest, baseline)
        [failure] = report.failures
        assert failure.cell == "scale-x"
        assert failure.metric == "misses"
        assert "deterministic metric drifted" in failure.detail
        rendered = report.render()
        assert "scale-x" in rendered and "misses" in rendered


class TestGuards:
    def test_null_pair_passes_with_note(self):
        baseline = _manifest("base", [_cell("c", cache_hit_ratio=None)])
        manifest = _manifest("run", [_cell("c", cache_hit_ratio=None)])
        report = gate_manifest(manifest, baseline)
        verdict = next(
            v for v in report.verdicts if v.metric == "cache_hit_ratio"
        )
        assert verdict.passed
        assert "not recorded on either side" in verdict.detail

    def test_metric_vanishing_from_manifest_fails(self):
        baseline = _manifest("base", [_cell("c", cache_hit_ratio=0.5)])
        manifest = _manifest("run", [_cell("c", cache_hit_ratio=None)])
        report = gate_manifest(manifest, baseline)
        [failure] = report.failures
        assert failure.metric == "cache_hit_ratio"
        assert "missing from the" in failure.detail

    def test_metric_appearing_without_baseline_fails_exact(self):
        baseline = _manifest("base", [_cell("c", cache_hit_ratio=None)])
        manifest = _manifest("run", [_cell("c", cache_hit_ratio=0.5)])
        report = gate_manifest(manifest, baseline)
        [failure] = report.failures
        assert failure.metric == "cache_hit_ratio"
        assert "regenerate the baseline" in failure.detail

    def test_nan_tolerance_limit_rejected(self):
        with pytest.raises(ParameterError, match="NaN"):
            Tolerance(metric="x", kind="max", limit=float("nan"))

    def test_unknown_tolerance_kind_rejected(self):
        # The kinds are exact / max / min; the wall-clock kind is gone.
        for kind in ("fuzzy", "relative_drop"):
            with pytest.raises(ParameterError, match="unknown tolerance"):
                Tolerance(metric="x", kind=kind, limit=1.0)

    def test_nan_metric_rejected_at_validation(self):
        bad = _cell("c")
        bad["metrics"]["misses"] = float("nan")
        with pytest.raises(ParameterError, match="NaN"):
            _manifest("run", [bad])


class TestDeterministicOnly:
    def test_every_gated_metric_is_a_deterministic_metric(self):
        assert set(DEFAULT_TOLERANCES) <= set(METRIC_KEYS)
        for metric, (kind, limit) in DEFAULT_TOLERANCES.items():
            Tolerance(metric=metric, kind=kind, limit=limit)


class TestGoldenCells:
    def test_golden_cell_refuses_slo_breach(self):
        baseline = _manifest(
            "base", [_cell("g", golden=True, slo_breaches=2)]
        )
        manifest = _manifest(
            "run", [_cell("g", golden=True, slo_breaches=2)]
        )
        # Even matching the baseline exactly, a golden cell with
        # unresolved breaches fails: golden forces ("max", 0).
        report = gate_manifest(manifest, baseline)
        [failure] = report.failures
        assert failure.metric == "slo_breaches"
        assert failure.kind == "max"
        assert failure.limit == 0.0

    def test_non_golden_cell_tracks_breaches_exactly(self):
        baseline = _manifest("base", [_cell("c", slo_breaches=2)])
        same = _manifest("run", [_cell("c", slo_breaches=2)])
        drifted = _manifest("run", [_cell("c", slo_breaches=3)])
        assert gate_manifest(same, baseline).passed
        report = gate_manifest(drifted, baseline)
        [failure] = report.failures
        assert failure.metric == "slo_breaches"


class TestReportShapes:
    def test_report_to_dict_round_trips_verdicts(self):
        baseline = _manifest("base", [_cell("c", misses=0)])
        manifest = _manifest("run", [_cell("c", misses=1)])
        report = gate_manifest(manifest, baseline)
        data = report.to_dict()
        assert data["passed"] is False
        assert data["manifest"] == "run"
        assert data["baseline"] == "base"
        assert data["failures"] == 1
        assert data["checks"] == len(report.verdicts)
        row = next(
            r for r in data["verdicts"] if not r["passed"]
        )
        assert row["cell"] == "c" and row["metric"] == "misses"

    def test_table_marks_failures(self):
        baseline = _manifest("base", [_cell("c", misses=0)])
        manifest = _manifest("run", [_cell("c", misses=1)])
        text = gate_manifest(manifest, baseline).table().render()
        assert "FAIL" in text and "misses" in text

    def test_verdict_types(self):
        manifest = _manifest("a", [_cell("c")])
        report = gate_manifest(manifest, manifest)
        assert isinstance(report, GateReport)
        assert all(isinstance(v, GateVerdict) for v in report.verdicts)


class TestDiff:
    def test_diff_reports_deltas_and_membership(self):
        baseline = _manifest(
            "base", [_cell("c", misses=0), _cell("gone")]
        )
        manifest = _manifest(
            "run", [_cell("c", misses=4), _cell("new")]
        )
        diff = diff_manifests(manifest, baseline)
        assert diff["cells"]["gone"]["status"] == "missing"
        assert diff["cells"]["new"]["status"] == "extra"
        delta = diff["cells"]["c"]["deltas"]["misses"]
        assert delta == {"baseline": 0, "observed": 4}

    def test_diff_relative_delta(self):
        baseline = _manifest("base", [_cell("c", blocks_per_second=100.0)])
        manifest = _manifest("run", [_cell("c", blocks_per_second=80.0)])
        diff = diff_manifests(manifest, baseline)
        delta = diff["cells"]["c"]["deltas"]["blocks_per_second"]
        assert delta["relative"] == pytest.approx(-0.2)
