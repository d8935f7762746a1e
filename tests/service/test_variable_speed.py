"""Unit tests for §3.3.2 variable-speed playback.

Trick play is :func:`transform_plan`'s plan alone on the round loop with
the caller's buffer at k = 1, and its task switches are the loop's
sleeps; the generated plans below check both against the round model
(``tests/round_model.py``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import fetches_with_gap
from repro.config import TESTBED_1991
from repro.core.symbols import video_block_model
from repro.disk import build_drive
from repro.errors import ParameterError
from repro.rope.server import BlockFetch, FetchColumns
from repro.service import play_single, task_switches, transform_plan
from tests.round_model import Stream, score, serve, turn_cost
from tests.service.test_round_model import COSTS, StubDrive, summary


@pytest.fixture
def block():
    return video_block_model(TESTBED_1991.video, 4)


def plan_for(drive, block, count=60):
    return fetches_with_gap(
        drive, count, drive.parameters().seek_avg,
        block.block_bits, block.playback_duration,
    )


def trick_play(fetches, drive, speed, buffer_capacity, skipping=False):
    """The served stream of *fetches* played at *speed*×."""
    return play_single(
        transform_plan(fetches, speed, skipping), drive,
        buffer_capacity=buffer_capacity,
    )


class TestTransformPlan:
    def test_fast_forward_shrinks_durations(self, block):
        fetches = [BlockFetch(slot=1, bits=10.0, duration=0.1)] * 4
        fast = transform_plan(fetches, 2.0)
        assert len(fast) == 4
        assert all(f.duration == pytest.approx(0.05) for f in fast)

    def test_skipping_drops_blocks_keeps_wall_clock(self, block):
        fetches = [
            BlockFetch(slot=i, bits=10.0, duration=0.1) for i in range(8)
        ]
        fast = transform_plan(fetches, 2.0, skipping=True)
        assert len(fast) == 4
        # 8 blocks of media shown in 8*0.1/2 = 0.4 s of wall clock.
        assert sum(f.duration for f in fast) == pytest.approx(0.4)
        assert [f.slot for f in fast] == [0, 2, 4, 6]

    def test_slow_motion_stretches(self, block):
        fetches = [BlockFetch(slot=1, bits=10.0, duration=0.1)]
        slow = transform_plan(fetches, 0.5)
        assert slow[0].duration == pytest.approx(0.2)

    def test_validation(self):
        with pytest.raises(ParameterError):
            transform_plan([], 0.0)
        with pytest.raises(ParameterError):
            transform_plan([], 0.5, skipping=True)


class TestSimulation:
    def test_normal_speed_continuous(self, block):
        drive = build_drive()
        stream = trick_play(
            plan_for(drive, block), drive, speed=1.0, buffer_capacity=8
        )
        assert stream.metrics.continuous
        assert stream.metrics.blocks_delivered == 60

    def test_skipping_halves_fetches(self, block):
        drive = build_drive()
        stream = trick_play(
            plan_for(drive, block), drive, speed=2.0, skipping=True,
            buffer_capacity=8,
        )
        assert stream.metrics.blocks_delivered == 30
        assert stream.metrics.continuous

    def test_slow_motion_triggers_task_switches(self, block):
        """§3.3.2: over-satisfied continuity fills buffers; the disk
        switches away and the playback still never starves."""
        drive = build_drive()
        stream = trick_play(
            plan_for(drive, block), drive, speed=0.5, buffer_capacity=6
        )
        switches, idle = task_switches(stream)
        assert switches > 0
        assert idle > 0
        assert stream.metrics.buffer_high_water <= 6
        assert stream.metrics.continuous

    def test_slower_playback_idles_more(self, block):
        drive_a = build_drive()
        half = trick_play(
            plan_for(drive_a, block), drive_a, speed=0.5, buffer_capacity=8
        )
        drive_b = build_drive()
        quarter = trick_play(
            plan_for(drive_b, block), drive_b, speed=0.25, buffer_capacity=8
        )
        assert task_switches(quarter)[1] > task_switches(half)[1]

    def test_hopeless_fast_forward_misses(self, block):
        """Without skipping, a big enough speedup exceeds the disk."""
        drive = build_drive()
        stream = trick_play(
            plan_for(drive, block), drive, speed=10.0, buffer_capacity=16
        )
        assert stream.metrics.misses > 0

    def test_validation(self, block):
        drive = build_drive()
        with pytest.raises(ParameterError):
            trick_play(
                plan_for(drive, block), drive, speed=1.0, buffer_capacity=0
            )


class TestTrickPlayMatchesTheModel:
    @settings(deadline=None, max_examples=80)
    @given(
        blocks=st.lists(st.tuples(
            st.one_of(st.none(), st.integers(0, 5000)),
            st.sampled_from([0.0, 0.004, 1 / 30, 0.2]),
        ), max_size=40),
        speed=st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.5]),
        capacity=st.integers(1, 8),
        skipping=st.booleans(),
        cost=st.sampled_from(sorted(COSTS)),
    )
    def test_generated_plans(self, blocks, speed, capacity, skipping, cost):
        """A rewritten plan on the loop at k = 1 is the model's one
        stream: the same columns and score, one task switch per idle
        wait, and the disk idle for what the turns leave of the run."""
        skipping = skipping and speed > 1.0
        plan = transform_plan(FetchColumns(
            [slot for slot, _duration in blocks], [2.0e5] * len(blocks),
            [duration for _slot, duration in blocks],
        ), speed, skipping)
        stream = play_single(
            plan, StubDrive(COSTS[cost]), buffer_capacity=capacity
        )
        outcome = serve(
            [Stream("play", plan.slots, plan.durations, capacity)],
            lambda _round, _active: 1, COSTS[cost],
        )
        served = outcome.served["play"]
        assert stream.ready == served.ready
        assert stream.clock_start == served.clock_start
        assert stream.ends == served.ends(plan.durations)
        assert stream.metrics.summary() == summary(
            "play", score(served, plan.durations)
        )
        switches, idle = task_switches(stream)
        assert switches == outcome.waits
        run = served.ready[-1] if served.ready else 0.0
        assert idle == pytest.approx(run - turn_cost(served), abs=1e-9)
