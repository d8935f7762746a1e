"""Unit tests for audio chunks, energy, and silence detection."""

import random

import pytest

from repro.config import TESTBED_1991
from repro.errors import ParameterError
from repro.media.audio import (
    AudioChunk,
    SilenceDetector,
    chunks_to_blocks,
    generate_talk_spurts,
)


@pytest.fixture
def stream():
    return TESTBED_1991.audio


class TestAudioChunk:
    def test_end_sample(self):
        chunk = AudioChunk(start_sample=100, count=50, energy=0.5)
        assert chunk.end_sample == 150

    def test_duration(self, stream):
        chunk = AudioChunk(start_sample=0, count=8000, energy=0.5)
        assert chunk.duration(stream) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            AudioChunk(start_sample=-1, count=10, energy=0.5)
        with pytest.raises(ParameterError):
            AudioChunk(start_sample=0, count=0, energy=0.5)
        with pytest.raises(ParameterError):
            AudioChunk(start_sample=0, count=10, energy=1.5)


class TestSilenceDetector:
    def test_threshold(self):
        detector = SilenceDetector(threshold=0.1)
        assert detector.is_silent(0.05)
        assert not detector.is_silent(0.1)
        assert not detector.is_silent(0.5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ParameterError):
            SilenceDetector(threshold=2.0)


class TestTalkSpurts:
    def test_covers_duration_exactly(self, stream):
        rng = random.Random(1)
        chunks = generate_talk_spurts(stream, 30.0, 0.4, rng)
        assert chunks[0].start_sample == 0
        assert chunks[-1].end_sample == int(30.0 * stream.sample_rate)
        for a, b in zip(chunks, chunks[1:]):
            assert b.start_sample == a.end_sample

    def test_silence_ratio_approximated(self, stream):
        rng = random.Random(42)
        chunks = generate_talk_spurts(stream, 300.0, 0.5, rng)
        silent = sum(c.count for c in chunks if c.energy < 0.1)
        total = chunks[-1].end_sample
        assert silent / total == pytest.approx(0.5, abs=0.15)

    def test_zero_silence(self, stream):
        rng = random.Random(3)
        chunks = generate_talk_spurts(stream, 20.0, 0.0, rng)
        assert all(c.energy >= 0.2 for c in chunks)

    def test_deterministic_with_seed(self, stream):
        first = generate_talk_spurts(stream, 10.0, 0.3, random.Random(5))
        second = generate_talk_spurts(stream, 10.0, 0.3, random.Random(5))
        assert first == second

    def test_rejects_bad_ratio(self, stream):
        with pytest.raises(ParameterError):
            generate_talk_spurts(stream, 10.0, 1.0, random.Random(1))


class TestBlockEnergies:
    def test_uniform_chunk_uniform_blocks(self):
        chunks = [AudioChunk(start_sample=0, count=1000, energy=0.5)]
        energies = list(chunks_to_blocks(chunks, 100))
        assert len(energies) == 10
        assert all(e == pytest.approx(0.5) for e in energies)

    def test_weighted_average_across_chunks(self):
        chunks = [
            AudioChunk(start_sample=0, count=50, energy=0.8),
            AudioChunk(start_sample=50, count=50, energy=0.2),
        ]
        energies = list(chunks_to_blocks(chunks, 100))
        assert energies == [pytest.approx(0.5)]

    def test_partial_final_block(self):
        chunks = [AudioChunk(start_sample=0, count=150, energy=0.6)]
        energies = list(chunks_to_blocks(chunks, 100))
        assert len(energies) == 2
        assert energies[1] == pytest.approx(0.6)

    def test_empty_input(self):
        assert list(chunks_to_blocks([], 100)) == []

    def test_rejects_bad_block_size(self):
        with pytest.raises(ParameterError):
            list(chunks_to_blocks([], 0))
