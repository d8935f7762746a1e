"""Behavioral equivalence: the fast paths change nothing observable.

A ``ReferenceStreamState`` recomputes consumption with the O(n) rescan on
every query — the pre-optimization semantics, kept alive here as the
oracle.  Whole service runs through the cursor implementation must
produce byte-identical :meth:`ContinuityMetrics.summary` lines, identical
delivery schedules, and byte-identical observability snapshots.
"""

from typing import Tuple

import pytest

import repro.service.session as session_module
from repro.disk.factory import build_drive
from repro.errors import ParameterError
from repro.scenarios import get
from repro.scenarios.loop import Scale
from repro.service.rounds import RoundRobinService, StreamState
from repro.sim.metrics import consumed_prefix

pytestmark = pytest.mark.perf


class ReferenceStreamState(StreamState):
    """Pre-cursor semantics: full rescan per consumption query."""

    def _consume_state(self, now: float) -> Tuple[int, float]:
        if self.clock_start is None:
            return 0, 0.0
        return consumed_prefix(
            self.ready, self.fetches.durations, self.clock_start, now
        )


def _run(scenario: Scale, stream_cls):
    drive = build_drive()
    initial, admissions = scenario.build_streams(drive)

    def convert(stream):
        return stream_cls(
            request_id=stream.request_id,
            fetches=stream.fetches,
            buffer_capacity=stream.buffer_capacity,
        )

    initial = [convert(s) for s in initial]
    admissions = [
        type(a)(round_number=a.round_number, stream=convert(a.stream))
        for a in admissions
    ]
    service = RoundRobinService(drive, lambda _r, _n: scenario.k)
    metrics = service.run(initial, admissions)
    streams = initial + [a.stream for a in admissions]
    return metrics, streams, service.rounds_run


SCENARIOS = [
    Scale(
        label="uniform", streams=6, blocks_per_stream=50, k=4,
        buffer_capacity=6, seed=11,
    ),
    Scale(
        label="staggered", streams=6, blocks_per_stream=40, k=3,
        buffer_capacity=5, seed=4, arrivals="staggered",
    ),
    Scale(
        label="tight-buffers", streams=4, blocks_per_stream=60, k=5,
        buffer_capacity=2, seed=9,
    ),
]


class TestScaleScenario:
    """The microbench itself: seeded, complete, and self-validating."""

    def test_deterministic_across_runs(self):
        scenario = Scale(
            label="det", streams=5, blocks_per_stream=30, seed=2,
        )
        assert scenario.run().metrics() == scenario.run().metrics()

    def test_delivers_every_block(self):
        run = Scale(
            label="full", streams=4, blocks_per_stream=25,
            arrivals="staggered",
        ).run()
        assert run.metrics()["blocks_delivered"] == 4 * 25
        assert run.metrics()["rounds"] > 0
        assert run.healthy()

    def test_validation(self):
        with pytest.raises(ParameterError, match="streams must be >= 1"):
            Scale(label="bad", streams=0, blocks_per_stream=1)
        with pytest.raises(ParameterError, match="unknown drive config"):
            Scale(
                label="bad", streams=1, blocks_per_stream=1,
                drive="floppy",
            )
        with pytest.raises(ParameterError, match="unknown arrivals mode"):
            Scale(
                label="bad", streams=1, blocks_per_stream=1,
                arrivals="sideways",
            )


class TestServiceEquivalence:
    @pytest.mark.parametrize(
        "scenario", SCENARIOS, ids=[s.label for s in SCENARIOS]
    )
    def test_summaries_byte_identical(self, scenario):
        fast_metrics, fast_streams, fast_rounds = _run(
            scenario, StreamState
        )
        ref_metrics, ref_streams, ref_rounds = _run(
            scenario, ReferenceStreamState
        )
        assert fast_rounds == ref_rounds
        assert sorted(fast_metrics) == sorted(ref_metrics)
        for rid in fast_metrics:
            assert fast_metrics[rid].summary() == (
                ref_metrics[rid].summary()
            )
        for fast, ref in zip(fast_streams, ref_streams):
            assert fast.ready == ref.ready
            assert fast.clock_start == ref.clock_start
            assert fast.skipped_indices == ref.skipped_indices


class TestObservedEquivalence:
    def test_steady_snapshot_unchanged_by_cursor(self, monkeypatch):
        fast = get("steady")(seconds=2.0).run().snapshot()
        monkeypatch.setattr(
            session_module, "StreamState", ReferenceStreamState
        )
        reference = get("steady")(seconds=2.0).run().snapshot()
        assert fast == reference

    def test_fault_snapshot_unchanged_by_cursor(self, monkeypatch):
        fast = get("fault")(seconds=2.0).run().snapshot()
        monkeypatch.setattr(
            session_module, "StreamState", ReferenceStreamState
        )
        reference = get("fault")(seconds=2.0).run().snapshot()
        assert fast == reference
