"""Unit tests for video frame generation."""

import pytest

from repro.config import TESTBED_1991
from repro.errors import ParameterError
from repro.media.codec import DifferencingCodec, FixedRateCodec
from repro.media.frames import (
    Frame,
    frames_for_duration,
    ntsc_raw_frame_bits,
    raw_frame_bits,
)


def capture(stream, count, codec=None, source="camera0"):
    """The first *count* frames of a recording of *stream*."""
    duration = count / stream.frame_rate
    return list(frames_for_duration(stream, duration, codec, source))


class TestRawSizes:
    def test_ntsc_prototype_frame(self):
        # 480 x 200 x 12 bits (§5.1).
        assert ntsc_raw_frame_bits() == 480 * 200 * 12

    def test_raw_frame_bits(self):
        assert raw_frame_bits(10, 10, 8) == 800

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ParameterError):
            raw_frame_bits(0, 10, 8)


class TestFrame:
    def test_validation(self):
        with pytest.raises(ParameterError):
            Frame(index=-1, size_bits=100, timestamp=0.0, token="t")
        with pytest.raises(ParameterError):
            Frame(index=0, size_bits=0, timestamp=0.0, token="t")
        with pytest.raises(ParameterError):
            Frame(index=0, size_bits=100, timestamp=-1.0, token="t")


class TestGeneration:
    def test_count_and_timestamps(self):
        stream = TESTBED_1991.video
        frames = capture(stream, 10)
        assert len(frames) == 10
        assert frames[0].timestamp == 0.0
        assert frames[3].timestamp == pytest.approx(3 / 30)

    def test_tokens_unique_and_ordered(self):
        stream = TESTBED_1991.video
        frames = capture(stream, 5, source="camX")
        tokens = [f.token for f in frames]
        assert tokens == [f"camX:frame:{i}" for i in range(5)]

    def test_default_sizes_are_nominal(self):
        stream = TESTBED_1991.video
        frames = capture(stream, 3)
        assert all(f.size_bits == stream.frame_size for f in frames)

    def test_fixed_codec_shrinks_frames(self):
        stream = TESTBED_1991.video
        codec = FixedRateCodec(ratio=2.0)
        frames = capture(stream, 3, codec=codec)
        # Codec recovers the raw size via nominal_ratio, then compresses.
        assert all(
            f.size_bits == pytest.approx(stream.frame_size)
            for f in frames
        )

    def test_differencing_codec_varies_sizes(self):
        stream = TESTBED_1991.video
        codec = DifferencingCodec(key_ratio=2.0, diff_ratio=20.0, group_size=5)
        frames = capture(stream, 10, codec=codec)
        sizes = {f.size_bits for f in frames}
        assert len(sizes) == 2  # key size and diff size
        assert frames[0].size_bits > frames[1].size_bits

    def test_frames_for_duration(self):
        stream = TESTBED_1991.video
        frames = frames_for_duration(stream, 2.0)
        assert len(frames) == 60

    def test_negative_duration_rejected(self):
        with pytest.raises(ParameterError):
            frames_for_duration(TESTBED_1991.video, -1.0)

    def test_zero_count_ok(self):
        assert capture(TESTBED_1991.video, 0) == []
