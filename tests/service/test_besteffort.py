"""Unit tests for the unified media+text service."""

import pytest

from repro.analysis.experiments import fetches_with_gap
from repro.config import TESTBED_1991
from repro.core.symbols import video_block_model
from repro.disk import build_drive
from repro.service.besteffort import TextQueue, TextRequest
from repro.service.rounds import RoundRobinService, StreamState


@pytest.fixture
def block():
    return video_block_model(TESTBED_1991.video, 4)


def media_streams(drive, block, n=1, blocks=60, k=4):
    streams = []
    for i in range(n):
        fetches = fetches_with_gap(
            drive, blocks, drive.parameters().seek_avg,
            block.block_bits, block.playback_duration,
        )
        streams.append(
            StreamState(
                request_id=f"m{i}", fetches=fetches, buffer_capacity=2 * k
            )
        )
    return streams


def unified(drive, k_schedule, *requests):
    """The one loop with a text queue after its turns: (service, queue)."""
    queue = TextQueue(requests)
    return RoundRobinService(drive, k_schedule, after_turns=[queue]), queue


def text_slots(drive, count, start=None):
    start = drive.slots // 2 if start is None else start
    return list(range(start, start + count))


class TestUnifiedService:
    def test_media_guarantee_unaffected_by_text(self, block):
        drive = build_drive()
        text = TextRequest("t0", text_slots(drive, 40))
        service, queue = unified(drive, lambda r, n: 4, text)
        metrics = service.run(media_streams(drive, block))
        assert all(m.continuous for m in metrics.values())

    def test_text_served_in_slack(self, block):
        drive = build_drive()
        text = TextRequest("t0", text_slots(drive, 30))
        service, queue = unified(drive, lambda r, n: 4, text)
        service.run(media_streams(drive, block))
        assert queue.blocks_served > 0

    def test_drain_completes_leftovers(self, block):
        drive = build_drive()
        text = TextRequest("t0", text_slots(drive, 500))
        service, queue = unified(drive, lambda r, n: 4, text)
        service.run(media_streams(drive, block))
        queue.drain(drive, 0.0)
        assert text.finished
        assert text.completion_time is not None
        assert queue.blocks_served == 500

    def test_heavier_media_load_slows_text(self, block):
        def throughput(n_media):
            drive = build_drive()
            text = TextRequest("t0", text_slots(drive, 20, start=100))
            service, queue = unified(drive, lambda r, n: 4, text)
            service.run(media_streams(drive, block, n=n_media))
            return queue.blocks_served

        light = throughput(1)
        heavy = throughput(3)
        assert heavy <= light

    def test_fifo_order(self, block):
        drive = build_drive()
        first = TextRequest("first", text_slots(drive, 10, start=200))
        second = TextRequest("second", text_slots(drive, 10, start=400))
        service, queue = unified(drive, lambda r, n: 4, first, second)
        service.run(media_streams(drive, block))
        queue.drain(drive, 1e6)
        assert first.completion_time <= second.completion_time

    def test_text_request_state(self):
        request = TextRequest("t", [1, 2, 3])
        assert not request.finished
        assert request.remaining == 3
        request.served = 3
        assert request.finished
        assert request.remaining == 0


class TestPerRequestKBudget:
    def test_text_respects_surviving_streams_own_k(self):
        """Regression: after fast (video) streams finish, the text budget
        must come from the surviving streams' k_override, not the global
        k — otherwise slow-draining audio starves behind text reads."""
        from repro.core import (
            GeneralAdmissionController,
            RequestDescriptor,
        )
        from repro.core.symbols import BlockModel

        drive = build_drive()
        params = drive.parameters()
        video_block = video_block_model(TESTBED_1991.video, 4)
        audio_block = BlockModel(8000.0, 8.0, 4096)
        video = RequestDescriptor(video_block, scattering_avg=params.seek_avg)
        audio = RequestDescriptor(audio_block, scattering_avg=params.seek_avg)
        controller = GeneralAdmissionController(params)
        mix = [video, video, audio, audio, audio, audio]
        ids = [controller.admit(d).request_id for d in mix]
        streams = []
        for i, (descriptor, request_id) in enumerate(zip(mix, ids)):
            k = controller.k_for(request_id)
            block = descriptor.block
            fetches = fetches_with_gap(
                drive, 60, params.seek_avg, block.block_bits,
                block.playback_duration,
            )
            streams.append(
                StreamState(
                    request_id=f"s{i}", fetches=fetches,
                    buffer_capacity=2 * k, k_override=k,
                )
            )
        text = TextRequest("t", list(range(5000, 5300)))
        service, queue = unified(
            drive, lambda r, n: max(controller.k_values().values()), text
        )
        metrics = service.run(streams)
        assert all(m.continuous for m in metrics.values())
        assert queue.blocks_served > 0
