"""Golden-trace regressions: canonical scenarios vs. committed snapshots.

The observability snapshot of a fixed-seed scenario is a pure function
of the code — any behavioural drift in the disk model, the round loop,
fault recovery, or the admission arithmetic shows up as a byte diff
against the files under ``tests/golden/``.  Regenerate intentionally
with ``pytest --regen-golden`` (the diff then goes through review).
"""

import json

import pytest

from repro.obs import Observability
from repro.scenarios import get

STEADY = get("steady")
FAULT = get("fault")

pytestmark = pytest.mark.golden


class TestSteadyGolden:
    def test_snapshot_matches_golden(self, golden):
        run = STEADY().run()
        golden("steady_snapshot.json", run.snapshot())

    def test_rerun_is_byte_identical(self):
        assert STEADY().run().snapshot() == STEADY().run().snapshot()

    def test_steady_state_is_clean(self):
        run = STEADY().run()
        snapshot = json.loads(run.snapshot())
        assert run.result.total_misses == 0
        assert snapshot["metrics"]["counters"].get("fault.skips", 0) == 0
        for summary in snapshot["timeline"].values():
            assert summary["conserved"]
        run.obs.timeline.validate()


class TestFaultGolden:
    def test_snapshot_matches_golden(self, golden):
        run = FAULT().run()
        golden("fault_snapshot.json", run.snapshot())

    def test_rerun_is_byte_identical(self):
        assert FAULT().run().snapshot() == FAULT().run().snapshot()

    def test_fault_counters_cross_check_continuity_metrics(self):
        """The retry/skip/degrade telemetry agrees with the per-request
        ContinuityMetrics the service loop scored independently."""
        run = FAULT().run()
        counters = json.loads(run.snapshot())["metrics"]["counters"]
        assert counters["fault.skips"] == run.result.total_skips > 0
        # Transients were retried and recovered (the degrade sequence).
        assert counters["fault.retries"] > 0
        assert counters["fault.recovered_reads"] > 0
        # Every injected fault (no head failures here) resolves into
        # exactly one decision: a retry or a skip.
        assert counters["fault.injected"] == (
            counters["fault.retries"] + counters["fault.skips"]
        )

    def test_timeline_skips_match_metric_skips(self):
        run = FAULT().run()
        timeline = run.obs.timeline
        timeline.validate()
        skipped = sum(
            timeline.stage_counts(sid).get("skipped", 0)
            for sid in timeline.sessions()
        )
        assert skipped == run.result.total_skips
        for sid in timeline.sessions():
            assert timeline.conservation_holds(sid)

    def test_diff_between_scenarios_localizes_fault_counters(self):
        """Snapshot diff pinpoints what fault injection changed."""
        steady = STEADY(seconds=6.0, requests=1).run().snapshot()
        faulted = FAULT().run().snapshot()
        diff = Observability.diff(steady, faulted)
        assert any(
            path.startswith("metrics.counters.fault.") for path in diff
        )
