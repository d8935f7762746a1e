"""Unit tests for the silence-elimination recording plan."""

import random

import pytest

from repro.config import TESTBED_1991
from repro.errors import ParameterError
from repro.fs.silence import plan_audio_blocks
from repro.media.audio import AudioChunk, SilenceDetector, generate_talk_spurts


@pytest.fixture
def stream():
    return TESTBED_1991.audio


def stored(plan):
    """Blocks that occupy disk space: the rest are NULL delay holders."""
    return sum(payload is not None for payload in plan.payloads)


class TestPlanning:
    def test_all_speech_stores_everything(self, stream):
        chunks = [AudioChunk(start_sample=0, count=1000, energy=0.6)]
        plan = plan_audio_blocks(stream, chunks, 100, SilenceDetector())
        assert plan.block_count == 10
        assert stored(plan) == 10

    def test_all_silence_stores_nothing(self, stream):
        chunks = [AudioChunk(start_sample=0, count=1000, energy=0.01)]
        plan = plan_audio_blocks(stream, chunks, 100, SilenceDetector())
        assert plan.block_count == 10 and stored(plan) == 0

    def test_detector_none_disables_elimination(self, stream):
        chunks = [AudioChunk(start_sample=0, count=1000, energy=0.01)]
        plan = plan_audio_blocks(stream, chunks, 100, detector=None)
        assert stored(plan) == 10

    def test_mixed_speech_silence(self, stream):
        chunks = [
            AudioChunk(start_sample=0, count=500, energy=0.6),
            AudioChunk(start_sample=500, count=500, energy=0.01),
        ]
        plan = plan_audio_blocks(stream, chunks, 100, SilenceDetector())
        assert plan.block_count == 10 and stored(plan) == 5
        # Stored payloads carry the correct sample ranges.
        first = plan.payloads[0]
        assert first.start_sample == 0
        assert first.sample_count == 100
        assert plan.payloads[5] is None

    def test_partial_trailing_block(self, stream):
        chunks = [AudioChunk(start_sample=0, count=250, energy=0.6)]
        plan = plan_audio_blocks(stream, chunks, 100, SilenceDetector())
        assert plan.block_count == 3
        assert plan.trailing_samples == 50
        assert plan.samples_in_block(2) == 50
        assert plan.samples_in_block(0) == 100

    def test_payload_bits_match_samples(self, stream):
        chunks = [AudioChunk(start_sample=0, count=300, energy=0.6)]
        plan = plan_audio_blocks(stream, chunks, 100, SilenceDetector())
        for payload in plan.payloads:
            assert payload.bits == payload.sample_count * stream.sample_size

    def test_empty_chunks(self, stream):
        plan = plan_audio_blocks(stream, [], 100, SilenceDetector())
        assert plan.block_count == 0

    def test_rejects_bad_block_size(self, stream):
        with pytest.raises(ParameterError):
            plan_audio_blocks(stream, [], 0, SilenceDetector())

    def test_block_out_of_range(self, stream):
        chunks = [AudioChunk(start_sample=0, count=100, energy=0.6)]
        plan = plan_audio_blocks(stream, chunks, 100, SilenceDetector())
        with pytest.raises(ParameterError):
            plan.samples_in_block(1)


class TestStatisticalBehaviour:
    def test_silence_grows_with_target_ratio(self, stream):
        """More silent input => more eliminated blocks (E10's shape)."""
        fractions = []
        for ratio in (0.1, 0.4, 0.7):
            rng = random.Random(99)
            chunks = generate_talk_spurts(stream, 120.0, ratio, rng)
            plan = plan_audio_blocks(stream, chunks, 2048, SilenceDetector())
            fractions.append(1 - stored(plan) / plan.block_count)
        assert fractions[0] < fractions[1] < fractions[2]
