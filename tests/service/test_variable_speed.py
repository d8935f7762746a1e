"""Unit tests for §3.3.2 variable-speed playback."""

from bisect import bisect_right
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import fetches_with_gap
from repro.config import TESTBED_1991
from repro.core.symbols import video_block_model
from repro.disk import build_drive
from repro.errors import ParameterError
from repro.rope.server import BlockFetch, FetchColumns
from repro.service.variable_speed import (
    simulate_variable_speed,
    transform_plan,
)
from repro.sim.metrics import ContinuityMetrics
from tests.round_model import Served


@pytest.fixture
def block():
    return video_block_model(TESTBED_1991.video, 4)


def plan_for(drive, block, count=60):
    return fetches_with_gap(
        drive, count, drive.parameters().seek_avg,
        block.block_bits, block.playback_duration,
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
        result = simulate_variable_speed(
            plan_for(drive, block), drive, speed=1.0, buffer_capacity=8
        )
        assert result.continuous
        assert result.metrics.blocks_delivered == 60

    def test_skipping_halves_fetches(self, block):
        drive = build_drive()
        result = simulate_variable_speed(
            plan_for(drive, block), drive, speed=2.0, skipping=True,
            buffer_capacity=8,
        )
        assert result.metrics.blocks_delivered == 30
        assert result.continuous

    def test_slow_motion_triggers_task_switches(self, block):
        """§3.3.2: over-satisfied continuity fills buffers; the disk
        switches away and the playback still never starves."""
        drive = build_drive()
        result = simulate_variable_speed(
            plan_for(drive, block), drive, speed=0.5, buffer_capacity=6
        )
        assert result.task_switches > 0
        assert result.switch_idle_time > 0
        assert result.buffer_high_water <= 6
        assert result.continuous

    def test_slower_playback_idles_more(self, block):
        drive_a = build_drive()
        half = simulate_variable_speed(
            plan_for(drive_a, block), drive_a, speed=0.5, buffer_capacity=8
        )
        drive_b = build_drive()
        quarter = simulate_variable_speed(
            plan_for(drive_b, block), drive_b, speed=0.25, buffer_capacity=8
        )
        assert quarter.switch_idle_time > half.switch_idle_time

    def test_hopeless_fast_forward_misses(self, block):
        """Without skipping, a big enough speedup exceeds the disk."""
        drive = build_drive()
        result = simulate_variable_speed(
            plan_for(drive, block), drive, speed=10.0, buffer_capacity=16
        )
        assert result.metrics.misses > 0

    def test_validation(self, block):
        drive = build_drive()
        with pytest.raises(ParameterError):
            simulate_variable_speed(
                plan_for(drive, block), drive, speed=1.0, buffer_capacity=0
            )


def reference_variable_speed(fetches, drive, speed, capacity, skipping):
    """The trick-play loop with every buffer test and wake a rescan of
    the delivered prefix, folded as the round model folds it: ``(metrics,
    switches, idle)``."""
    plan = transform_plan(fetches, speed, skipping)
    durations, penalty_s = plan.durations, drive.parameters().seek_max
    ready, time, start, switches, idle, away = [], 0.0, None, 0, 0.0, False
    for index, slot in enumerate(plan.slots):
        ends = Served(ready, start).ends(durations)
        consumed = bisect_right(ends, time)
        if len(ready) - consumed >= capacity:
            switches += 1
            away = True
            wake = ends[max(len(ready) - capacity // 2, consumed + 1) - 1]
            idle += max(0.0, wake - time)
            time = max(time, wake)
        if slot is not None:
            time += (penalty_s if away else 0.0) + drive.read_slot(
                slot, plan.bits[index]
            )
            away = False
        ready.append(time)
        if start is None:
            start = time
    metrics = ContinuityMetrics(request_id="varspeed")
    metrics.score(
        ready, accumulate(durations, initial=start),
        Served(ready, start).ends(durations),
    )
    return metrics, switches, idle


class TestMatchesPrefixRescan:
    @settings(deadline=None, max_examples=60)
    @given(
        blocks=st.lists(st.tuples(
            st.one_of(st.none(), st.integers(0, 5000)),
            st.sampled_from([0.0, 0.004, 1 / 30, 0.2]),
        ), max_size=40),
        speed=st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.5]),
        capacity=st.integers(1, 8),
        skipping=st.booleans(),
    )
    def test_generated_plans(self, blocks, speed, capacity, skipping):
        """Buffer tests and task-switch wakes read trick play's own
        play-out ends; the rescan of the delivered prefix agrees."""
        skipping = skipping and speed > 1.0
        fetches = FetchColumns(
            [slot for slot, _duration in blocks], [2.0e5] * len(blocks),
            [duration for _slot, duration in blocks],
        )
        result = simulate_variable_speed(
            fetches, build_drive(), speed, capacity, skipping=skipping
        )
        metrics, switches, idle = reference_variable_speed(
            fetches, build_drive(), speed, capacity, skipping
        )
        assert result.metrics.summary() == metrics.summary()
        assert (result.task_switches, result.switch_idle_time) == (
            switches, idle
        )
