"""Unit tests for the §3.4 round-robin service loop."""

import re

import pytest

from repro.analysis.experiments import fetches_with_gap
from repro.config import TESTBED_1991
from repro.core import admission as adm
from repro.core.symbols import video_block_model
from repro.disk import build_drive
from repro.errors import ParameterError
from repro.obs import Observability
from repro.service.rounds import Admission, RoundRobinService, StreamState


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
        assert stream.next_fetch == len(stream.ready) == 60

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
        # The clock starts as the eighth block lands, not before.
        assert stream.clock_start == stream.ready[7] > stream.ready[6]
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
        metrics = service.run([first], [Admission(join=1.0, stream=late)])
        assert metrics["late"].blocks_delivered == 20
        assert metrics["first"].blocks_delivered == 60
        # Start-up is measured from the stream's own join.
        assert late.ready[0] >= 1.0
        assert metrics["late"].startup_latency == late.clock_start - 1.0

    def test_a_join_at_a_rounds_start_is_served_in_that_round(self, block):
        """A stream is admitted at the first round that starts at or after
        its join: joining at 0.0, it takes its turn in round 0, right
        after the stream already there."""
        drive = build_drive()
        first = make_stream(drive, block, "first", blocks=10)
        late = make_stream(drive, block, "late", blocks=10)
        service = RoundRobinService(drive, lambda r, n: 5)
        service.run([first], [Admission(join=0.0, stream=late)])
        assert first.ready[4] < late.ready[0] < late.ready[4] < first.ready[5]

    def test_tracer_records_admissions(self, block):
        """A stream joining during round 0's turns opens its
        ``service.stream`` span as round 1 starts; it is served after the
        first stream's round-1 turn, and its clock starts on its fifth
        block."""
        drive = build_drive()
        obs = Observability()
        first = make_stream(drive, block, "first", blocks=30)
        late = make_stream(drive, block, "late", blocks=10)
        service = RoundRobinService(drive, lambda r, n: 5, obs=obs)
        service.run([first], [Admission(join=0.01, stream=late)])
        (span,) = obs.tracer.spans(name="service.stream", session="late")
        assert span.attrs == {"blocks": 10}
        assert first.ready[4] == span.start < first.ready[9] < late.ready[0]
        assert late.clock_start == late.ready[4]


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

    @pytest.mark.parametrize("k", [2.5, None, "3"])
    def test_a_non_int_k_schedule_is_named_with_its_round(self, block, k):
        """A float escaped from the loop as a bare TypeError from
        ``range``; None and a str as one from ``k < 1``."""
        drive = build_drive()
        stream = make_stream(drive, block, "r0")
        service = RoundRobinService(drive, lambda r, n: 4 if r < 2 else k)
        with pytest.raises(
            ParameterError, match=rf"returned {re.escape(repr(k))} for round 2$"
        ):
            service.run([stream])

    def test_bad_buffer_capacity_rejected(self, block):
        drive = build_drive()
        with pytest.raises(ParameterError):
            StreamState(request_id="x", fetches=[], buffer_capacity=0)

    @pytest.mark.parametrize(
        "capacity", [2.5, float("nan"), float("inf"), "4", None]
    )
    def test_a_non_int_buffer_capacity_is_refused(self, block, capacity):
        """2.5 escaped from the loop as a bare TypeError from ``range``;
        NaN and inf were accepted and run."""
        drive = build_drive()
        with pytest.raises(ParameterError, match="buffer_capacity must be"):
            make_stream(drive, block, "r0", capacity=capacity)

    @pytest.mark.parametrize("max_rounds", [None, 0, -1, 2.5, "10"])
    def test_a_bad_max_rounds_is_refused_up_front(self, block, max_rounds):
        """None raised a bare TypeError after the first round."""
        drive = build_drive()
        stream = make_stream(drive, block, "r0")
        service = RoundRobinService(drive, lambda r, n: 4)
        got = re.escape(repr(max_rounds))
        with pytest.raises(
            ParameterError, match=rf"max_rounds must be an int >= 1, got {got}$"
        ):
            service.run([stream], max_rounds=max_rounds)
        assert service.rounds_run == 0 and stream.ready == []

    @pytest.mark.parametrize("k_override", [-1, 0, 2.5, "4"])
    def test_bad_k_override_rejected(self, k_override):
        """A per-request k below 1 walked ``next_fetch`` backwards until
        the round guard tripped; a float indexed the plan with it."""
        with pytest.raises(ParameterError, match="k_override"):
            StreamState(
                request_id="x", fetches=[], buffer_capacity=4,
                k_override=k_override,
            )

    def test_a_bool_is_not_a_count(self, block):
        """``check_count`` is the sampling gates' check too: True, an int
        subclass, passed as 1 before."""
        drive = build_drive()
        with pytest.raises(ParameterError, match="buffer_capacity must be"):
            make_stream(drive, block, "r0", capacity=True)
        with pytest.raises(ParameterError, match="k_override must be"):
            StreamState(
                request_id="x", fetches=[], buffer_capacity=4, k_override=True
            )
        service = RoundRobinService(drive, lambda r, n: 4)
        with pytest.raises(ParameterError, match="max_rounds must be"):
            service.run([make_stream(drive, block, "r1")], max_rounds=True)

    @pytest.mark.parametrize("join", [float("nan"), float("inf"), -1.0, True, "1"])
    def test_a_join_that_is_not_a_time_is_refused(self, block, join):
        """A NaN join is never reached: the loop would wait for it forever."""
        stream = make_stream(build_drive(), block, "late")
        with pytest.raises(ParameterError, match="join must be a finite real"):
            Admission(join, stream)

    def test_no_streams_no_rounds(self, block):
        drive = build_drive()
        service = RoundRobinService(drive, lambda r, n: 1)
        assert service.run([]) == {}
        assert service.rounds_run == 0


class TestIdleGapBeforeAnAdmission:
    """With nothing active and an admission pending the loop moves time
    to the admission's join: the gap costs no iteration and is no round,
    so ``max_rounds`` guards real service only."""

    def test_far_admission_costs_no_idle_rounds(self, block):
        drive = build_drive()
        first = make_stream(drive, block, "first", blocks=20)
        late = make_stream(drive, block, "late", blocks=20)
        asked = []
        service = RoundRobinService(
            drive, lambda r, n: (asked.append(r), 4)[1]
        )
        metrics = service.run([first], [Admission(join=1e9, stream=late)])
        assert metrics["first"].blocks_delivered == 20
        assert metrics["late"].blocks_delivered == 20
        assert service.rounds_run == 10
        assert asked == list(range(10))
        # The late stream is read no earlier than it joins.
        assert late.ready[0] > 1e9

    def test_guard_counts_rounds_served_not_round_numbers(self, block):
        drive = build_drive()
        late = make_stream(drive, block, "late", blocks=20)
        service = RoundRobinService(drive, lambda r, n: 4)
        service.run([], [Admission(join=500.0, stream=late)], max_rounds=10)
        assert service.rounds_run == 5

    def test_starving_schedule_still_trips_the_guard(self, block):
        drive = build_drive()
        stream = make_stream(drive, block, "r0", blocks=60)
        late = make_stream(drive, block, "late", blocks=60)
        service = RoundRobinService(drive, lambda r, n: 1)
        with pytest.raises(ParameterError, match="exceeded 10 rounds"):
            service.run(
                [stream], [Admission(join=1e9, stream=late)], max_rounds=10,
            )
        assert service.rounds_run == 11
