"""The one round loop's two policy points compose with each other and
with fault recovery and observability — the runs no subclass could do:
`ScanOrderService`, `MixedRoundService` and `UnifiedService` each
replaced `_run_round`, and the last two dropped `recovery=` / `obs=`."""

import pytest

from repro.config import TESTBED_1991
from repro.core.symbols import video_block_model
from repro.disk import (
    ConstrainedScatterAllocator,
    FreeMap,
    ScatterBounds,
    StrandPlacer,
    build_drive,
)
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.obs import Observability
from repro.rope.server import FetchColumns
from repro.service import RecordStream, TextQueue, TextRequest
from repro.service.rounds import RoundRobinService, StreamState
from repro.service.scan_order import scan_order

K = 4


@pytest.fixture
def block():
    return video_block_model(TESTBED_1991.video, 4)


def load(drive, block, blocks=40):
    """Two players at the far and the near end of the disk (arrival
    order: far first), one recorder placed under constrained scattering,
    one short text request — together inside the drive's n_max = 3."""
    plays = [
        StreamState(
            request_id=f"play{i}", buffer_capacity=2 * K,
            fetches=FetchColumns.uniform(
                range(region * drive.slots // 3 + 500,
                      region * drive.slots // 3 + 500 + blocks),
                block.block_bits, block.playback_duration,
            ),
        )
        for i, region in enumerate((2, 0))
    ]
    bounds = ScatterBounds(0.0, drive.rotation.average_latency + 0.01)
    placement = StrandPlacer(
        drive, ConstrainedScatterAllocator(drive, FreeMap(drive.slots), bounds)
    ).place(blocks)
    record = RecordStream(
        "rec", placement.slots, block.playback_duration, staging_capacity=4
    )
    text = TextRequest("text", list(range(3000, 3005)))
    drive.park(0)
    return plays, record, text


class TestComposition:
    def test_scan_order_with_a_recorder_and_a_text_queue(self, block):
        def run(order):
            drive = build_drive()
            plays, record, text = load(drive, block)
            queue = TextQueue([text])
            metrics = RoundRobinService(
                drive, lambda r, n: K, order=order,
                after_turns=[record, queue],
            ).run(plays)
            return metrics, record, queue

        arrival, _, _ = run(None)
        scan, record, queue = run(scan_order)
        # The sweep from cylinder 0 reaches the near player first.
        assert arrival["play0"].startup_latency < arrival["play1"].startup_latency
        assert scan["play1"].startup_latency < scan["play0"].startup_latency
        assert {rid: m.blocks_delivered for rid, m in scan.items()} == {
            rid: m.blocks_delivered for rid, m in arrival.items()
        } == {"play0": 40, "play1": 40, "rec": 40}
        assert all(
            m.misses == 0 for rid, m in scan.items() if rid.startswith("play")
        )
        assert scan["rec"].continuous and record.finished
        # Write j ends after block j finished capturing.
        assert len(record.written) == 40
        for j, write_end in enumerate(record.written):
            assert write_end > (j + 1) * record.block_period
        assert queue.blocks_served > 0

    def test_record_and_text_run_observed_on_a_faulty_drive(self, block):
        """`recovery=` and `obs=` reach a run with after-turn work: the
        snapshot counts its rounds, the transient on a playback read is
        retried under that block's span, and the text request completes
        inside the rounds' slack (nothing drains it)."""
        drive = build_drive()
        plays, record, text = load(drive, block, blocks=20)
        faulted = plays[0].fetches.slots[7]
        drive.attach_injector(FaultInjector(FaultPlan(
            [FaultSpec(kind=FaultKind.TRANSIENT, slot=faulted)]
        )))
        obs = Observability()
        service = RoundRobinService(
            drive, lambda r, n: K, obs=obs,
            after_turns=[record, TextQueue([text])],
        )
        metrics = service.run(plays)
        assert all(m.continuous for m in metrics.values())
        assert record.finished and text.finished
        assert drive.stats.retries == 1
        snapshot = obs.snapshot_dict()["metrics"]
        assert snapshot["counters"]["fault.retries"] == 1
        assert snapshot["counters"]["fault.recovered_reads"] == 1
        assert snapshot["gauges"]["service.rounds_run"] == service.rounds_run
        assert snapshot["histograms"]["service.queue_depth"]["count"] == (
            service.rounds_run
        )
        (retry,) = obs.tracer.spans(name="fault.retry")
        assert retry.attrs == {"slot": faulted, "attempt": 1}
        assert obs.tracer.span(retry.parent_id).attrs["block"] == 7


class TestIdleWake:
    def test_recorder_beside_a_slow_player_wakes_for_the_next_capture(self):
        """Regression: with every display buffer full the loop idled to
        the next *consumption* (2.0 s away) and slept through captures
        due every 0.2 s — 34 of 40 staging misses on an idle disk."""

        def run(plays):
            drive = build_drive()
            bounds = ScatterBounds(0.0, drive.rotation.average_latency + 0.01)
            placement = StrandPlacer(
                drive,
                ConstrainedScatterAllocator(drive, FreeMap(drive.slots), bounds),
            ).place(40)
            record = RecordStream(
                "rec", placement.slots, block_period=0.2, staging_capacity=2
            )
            drive.park(0)
            return RoundRobinService(
                drive, lambda r, n: 2, after_turns=[record]
            ).run(plays(drive))

        alone = run(lambda drive: [])
        beside = run(lambda drive: [StreamState(
            "play", buffer_capacity=2,
            fetches=FetchColumns.uniform(
                range(5000, 5020), drive.block_bits, 2.0
            ),
        )])
        assert (alone["rec"].misses, alone["rec"].blocks_delivered) == (0, 40)
        assert (beside["rec"].misses, beside["rec"].blocks_delivered) == (0, 40)
        assert (beside["play"].misses, beside["play"].blocks_delivered) == (0, 20)
