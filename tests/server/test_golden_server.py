"""Golden-trace regressions for the MediaServer scenarios.

The observability snapshot of each canonical server scenario is a pure
function of the code: admission arithmetic, batching, cache behavior,
fault recovery, and the service loop all feed it.  Any behavioral drift
shows up as a byte diff against ``tests/golden/``; regenerate
intentionally with ``pytest --regen-golden``.
"""

import json

import pytest

from repro.scenarios import get

STEADY = get("server-steady")()
HOT = get("server-hot")()
FAULT = get("server-fault")()

pytestmark = [pytest.mark.server, pytest.mark.golden]


class TestSteadyGolden:
    def test_snapshot_matches_golden(self, golden):
        run = STEADY.run()
        golden("server_steady_snapshot.json", run.snapshot())

    def test_rerun_is_byte_identical(self):
        assert STEADY.run().snapshot() == STEADY.run().snapshot()

    def test_steady_epoch_is_clean(self):
        run = STEADY.run()
        assert run.result.total_misses == 0
        assert run.result.continuous_sessions == len(run.result.statuses)
        assert run.healthy()


class TestHotGolden:
    def test_snapshot_matches_golden(self, golden):
        run = HOT.run()
        golden("server_hot_snapshot.json", run.snapshot())

    def test_rerun_is_byte_identical(self):
        assert HOT.run().snapshot() == HOT.run().snapshot()

    def test_hot_wave_is_batched_and_cache_admitted(self):
        run = HOT.run()
        final = run.result
        assert final.batches == run.scenario.strands
        assert final.continuous_sessions == 50
        snapshot = json.loads(run.snapshot())
        counters = snapshot["metrics"]["counters"]
        assert counters["cache.hits"] >= counters["cache.misses"]
        assert counters["server.batches"] >= final.batches


class TestFaultGolden:
    def test_snapshot_matches_golden(self, golden):
        run = FAULT.run()
        golden("server_fault_snapshot.json", run.snapshot())

    def test_rerun_is_byte_identical(self):
        assert FAULT.run().snapshot() == FAULT.run().snapshot()

    def test_faults_skip_on_every_member_never_corrupt_the_cache(self):
        """A defective block skips for the leader *and* the follower —
        a failed read must never be served from residency."""
        run = FAULT.run()
        statuses = run.result.statuses
        assert len(statuses) == 2
        skips = [s.skips for s in statuses]
        assert all(count > 0 for count in skips)
        # Both sessions saw the same defective blocks.
        assert len(set(skips)) == 1
        counters = json.loads(run.snapshot())["metrics"]["counters"]
        assert counters["fault.skips"] == sum(skips)

    def test_a_session_that_skipped_is_not_continuous(self):
        """A skip is scored as a miss, so the tally a server and a
        cluster share needs no skip test of its own."""
        result = FAULT.run().result
        assert all(s.skips > 0 for s in result.statuses)
        assert result.continuous_sessions == 0
