"""Property-based tests for the fault-injection subsystem (hypothesis).

The three invariants the chaos machinery rests on:

(a) determinism — the same seed and workload replay bit-identical
    continuity metrics;
(b) a retry budget of zero turns every transient fault into exactly one
    skip (no hidden recovery, no double-count);
(c) conservation — the faults the injector reports equal the faults the
    drive's stats counted.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk import build_drive
from repro.faults import FaultInjector, FaultPlan, RecoveryPolicy
from repro.rope.server import BlockFetch
from repro.service import play_single

BLOCKS = 40
#: Generous per-block playback duration so deadline pressure never skips
#: a retriable block — properties target the budget/count arithmetic.
BLOCK_PLAYBACK = 0.2


def _run(seed, transient, defects, budget):
    """One pipelined playback over a seeded fault plan."""
    drive = build_drive()
    slots = list(range(0, BLOCKS * 3, 3))
    fetches = [
        BlockFetch(
            slot=slot, bits=drive.block_bits, duration=BLOCK_PLAYBACK
        )
        for slot in slots
    ]
    plan = FaultPlan.random(
        seed=seed, slots=slots, transient=transient, defects=defects
    )
    injector = FaultInjector(plan)
    drive.attach_injector(injector)
    stream = play_single(
        fetches,
        drive,
        read_ahead=2,
        recovery=RecoveryPolicy(retry_budget=budget),
    )
    return drive, injector, stream.metrics, stream.ready


seeds = st.integers(min_value=0, max_value=2**32 - 1)
transients = st.integers(min_value=0, max_value=8)
defect_counts = st.integers(min_value=0, max_value=5)
budgets = st.integers(min_value=0, max_value=3)


class TestFaultProperties:
    @settings(max_examples=25, deadline=None)
    @given(seed=seeds, transient=transients, defects=defect_counts,
           budget=budgets)
    def test_same_seed_identical_metrics(
        self, seed, transient, defects, budget
    ):
        """(a) Two runs of one seed are indistinguishable to the bit."""
        _, _, first, ready_a = _run(seed, transient, defects, budget)
        _, _, second, ready_b = _run(seed, transient, defects, budget)
        assert first.summary() == second.summary()
        assert ready_a == ready_b

    @settings(max_examples=25, deadline=None)
    @given(seed=seeds, transient=transients, defects=defect_counts)
    def test_zero_retry_budget_one_skip_per_fault(
        self, seed, transient, defects
    ):
        """(b) budget 0: every injected fault is exactly one skip."""
        drive, _, metrics, _ = _run(seed, transient, defects, budget=0)
        assert metrics.skips == transient + defects
        assert drive.stats.retries == 0
        assert drive.stats.degraded_reads == 0

    @settings(max_examples=25, deadline=None)
    @given(seed=seeds, transient=transients, defects=defect_counts,
           budget=budgets)
    def test_injected_count_matches_drive_stats(
        self, seed, transient, defects, budget
    ):
        """(c) injector and DriveStats agree on the fault count; with a
        positive budget every transient recovers and only defects skip."""
        drive, injector, metrics, _ = _run(
            seed, transient, defects, budget
        )
        assert injector.injected == drive.stats.faults_injected
        assert injector.pending_transients == 0
        if budget > 0:
            assert metrics.skips == defects
            assert drive.stats.degraded_reads == transient
            # Each defect surfaces once (one access per slot, no retry);
            # each transient surfaces once and recovers on retry 1.
            assert drive.stats.faults_injected == transient + defects
