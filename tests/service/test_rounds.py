"""Unit tests for the §3.4 round-robin service loop."""

import pytest

from repro.analysis.experiments import fetches_with_gap
from repro.config import TESTBED_1991
from repro.core import admission as adm
from repro.core.symbols import video_block_model
from repro.disk import build_drive
from repro.errors import ParameterError
from repro.service.rounds import Admission, RoundRobinService, StreamState
from repro.sim.trace import Tracer


@pytest.fixture
def block():
    return video_block_model(TESTBED_1991.video, 4)


def make_stream(drive, block, request_id, blocks=60, capacity=200):
    fetches = fetches_with_gap(
        drive, blocks, drive.parameters().seek_avg,
        block.block_bits, block.playback_duration,
    )
    return StreamState(
        request_id=request_id, fetches=fetches, buffer_capacity=capacity
    )


class TestSingleStream:
    def test_all_blocks_delivered(self, block):
        drive = build_drive()
        stream = make_stream(drive, block, "r0")
        service = RoundRobinService(drive, lambda r, n: 4)
        metrics = service.run([stream])
        assert metrics["r0"].blocks_delivered == 60
        assert stream.finished

    def test_continuous_at_sane_k(self, block):
        drive = build_drive()
        stream = make_stream(drive, block, "r0")
        service = RoundRobinService(drive, lambda r, n: 4)
        metrics = service.run([stream])
        assert metrics["r0"].continuous

    def test_playback_starts_after_first_k(self, block):
        drive = build_drive()
        stream = make_stream(drive, block, "r0")
        service = RoundRobinService(drive, lambda r, n: 8)
        service.run([stream])
        assert stream.clock_start is not None
        assert stream.metrics.startup_latency == pytest.approx(
            stream.clock_start
        )


class TestMultipleStreams:
    def test_admitted_set_is_continuous_at_transition_k(self, block):
        drive = build_drive()
        params = drive.parameters()
        descriptor = adm.RequestDescriptor(
            block=block, scattering_avg=params.seek_avg
        )
        n = 2
        service_params = adm.service_parameters([descriptor] * n, params)
        k = adm.k_transition(service_params)
        streams = [
            make_stream(drive, block, f"r{i}", capacity=2 * k)
            for i in range(n)
        ]
        service = RoundRobinService(drive, lambda r, m: k)
        metrics = service.run(streams)
        assert all(m.continuous for m in metrics.values())

    def test_starvation_k_causes_misses(self, block):
        """k = 1 with several streams violates Eq. 11 on this disk."""
        drive = build_drive()
        streams = [
            make_stream(drive, block, f"r{i}", blocks=40) for i in range(4)
        ]
        service = RoundRobinService(drive, lambda r, n: 1)
        metrics = service.run(streams)
        assert sum(m.misses for m in metrics.values()) > 0

    def test_mid_run_admission(self, block):
        drive = build_drive()
        first = make_stream(drive, block, "first")
        late = make_stream(drive, block, "late", blocks=20)
        service = RoundRobinService(drive, lambda r, n: 5)
        metrics = service.run(
            [first], [Admission(round_number=3, stream=late)]
        )
        assert metrics["late"].blocks_delivered == 20
        assert metrics["first"].blocks_delivered == 60

    def test_tracer_records_admissions(self, block):
        drive = build_drive()
        tracer = Tracer()
        first = make_stream(drive, block, "first", blocks=30)
        late = make_stream(drive, block, "late", blocks=10)
        service = RoundRobinService(drive, lambda r, n: 5, tracer=tracer)
        service.run([first], [Admission(round_number=1, stream=late)])
        assert tracer.filter(tag="admit", subject="late")
        assert tracer.filter(tag="playback-start")


class TestBufferRegulation:
    def test_capacity_never_exceeded(self, block):
        drive = build_drive()
        stream = make_stream(drive, block, "r0", blocks=60, capacity=4)
        service = RoundRobinService(drive, lambda r, n: 10)
        service.run([stream])
        assert stream.metrics.buffer_high_water <= 4
        assert stream.metrics.blocks_delivered == 60

    def test_tight_buffer_slows_but_completes(self, block):
        drive = build_drive()
        stream = make_stream(drive, block, "r0", blocks=30, capacity=2)
        service = RoundRobinService(drive, lambda r, n: 8)
        metrics = service.run([stream])
        assert metrics["r0"].blocks_delivered == 30
        assert service.rounds_run > 3  # regulation forced many rounds


class TestValidation:
    def test_bad_k_schedule_rejected(self, block):
        drive = build_drive()
        stream = make_stream(drive, block, "r0")
        service = RoundRobinService(drive, lambda r, n: 0)
        with pytest.raises(ParameterError):
            service.run([stream])

    def test_bad_buffer_capacity_rejected(self, block):
        drive = build_drive()
        with pytest.raises(ParameterError):
            StreamState(request_id="x", fetches=[], buffer_capacity=0)

    def test_no_streams_no_rounds(self, block):
        drive = build_drive()
        service = RoundRobinService(drive, lambda r, n: 1)
        assert service.run([]) == {}
        assert service.rounds_run == 0


class TestIdleGapBeforeAnAdmission:
    """With nothing active and an admission pending the loop goes to the
    admission's round: idle rounds cost no iteration and are not rounds
    served, so ``max_rounds`` guards real service only."""

    def test_far_admission_costs_no_idle_rounds(self, block):
        drive = build_drive()
        first = make_stream(drive, block, "first", blocks=20)
        late = make_stream(drive, block, "late", blocks=20)
        tracer = Tracer()
        service = RoundRobinService(drive, lambda r, n: 4, tracer=tracer)
        metrics = service.run(
            [first], [Admission(round_number=10**9, stream=late)]
        )
        assert metrics["first"].blocks_delivered == 20
        assert metrics["late"].blocks_delivered == 20
        assert service.rounds_run == 10
        # The late stream still joins at the round it asked for.
        (admit,) = tracer.filter(tag="admit", subject="late")
        assert admit.detail == f"round {10**9}"

    def test_guard_counts_rounds_served_not_round_numbers(self, block):
        drive = build_drive()
        late = make_stream(drive, block, "late", blocks=20)
        service = RoundRobinService(drive, lambda r, n: 4)
        service.run([], [Admission(round_number=500, stream=late)], max_rounds=10)
        assert service.rounds_run == 5

    def test_starving_schedule_still_trips_the_guard(self, block):
        drive = build_drive()
        stream = make_stream(drive, block, "r0", blocks=60)
        late = make_stream(drive, block, "late", blocks=60)
        service = RoundRobinService(drive, lambda r, n: 1)
        with pytest.raises(ParameterError, match="exceeded 10 rounds"):
            service.run(
                [stream], [Admission(round_number=10**9, stream=late)],
                max_rounds=10,
            )
        assert service.rounds_run == 11
