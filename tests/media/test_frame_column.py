"""Captured video is a column: the frames it yields are the ones stated.

``spec`` states the frames of a capture: frame ``i`` of ``count`` has
index ``i``, the size the codec's ratio gives frame ``i`` (the stream's
nominal size without one; a differencing codec's key frames are those
with ``i % group_size == 0``), timestamp ``i`` frame periods and token
``<source>:frame:<i>``.  Over generated captures — every count, no codec
or either codec, any source — ``frames_for_duration`` must yield exactly
those frames by iteration, by index (negative ones too, ``IndexError``
past either end) and by slice, a slice of a slice included; and the
write path must store a column exactly as it stores the list of the
same frames.
"""

import math
import random

import pytest
from hypothesis import given, strategies as st

from repro.config import TESTBED_1991
from repro.disk import build_array
from repro.errors import ParameterError
from repro.fs import MultimediaStorageManager
from repro.fs.striped import StripedStorageManager
from repro.media.audio import generate_talk_spurts
from repro.media.codec import DifferencingCodec, FixedRateCodec
from repro.media.frames import Frame, FrameColumn, frames_for_duration
from repro.rope import build_rope_server

VIDEO = TESTBED_1991.video

CODECS = st.sampled_from([
    None,
    FixedRateCodec(ratio=3.0),
    DifferencingCodec(key_ratio=2.0, diff_ratio=20.0, group_size=4),
])
SLICES = st.builds(
    slice,
    st.none() | st.integers(-40, 40),
    st.none() | st.integers(-40, 40),
    st.none() | st.integers(-5, 5).filter(bool),
)


def spec_size(codec, raw, i):
    """Frame *i*'s compressed size: raw over the ratio that applies to it."""
    if isinstance(codec, DifferencingCodec):
        key = i % codec.group_size == 0
        return raw / (codec.key_ratio if key else codec.diff_ratio)
    return raw / codec.ratio


def spec(stream, count, codec, source):
    """The frames of a *count*-frame capture of *stream*, as §2 states
    them."""
    raw = stream.frame_size * (1.0 if codec is None else codec.nominal_ratio)
    codec = codec or FixedRateCodec(ratio=1.0)
    return [
        Frame(
            index=i,
            size_bits=spec_size(codec, raw, i),
            timestamp=i * stream.unit_duration,
            token=f"{source}:frame:{i}",
        )
        for i in range(count)
    ]


class TestColumnMatchesTheSpec:
    @given(
        count=st.integers(0, 40),
        codec=CODECS,
        source=st.text("abc:-", min_size=1, max_size=6),
        index=st.integers(-45, 45),
        outer=SLICES,
        inner=SLICES,
    )
    def test_generated_captures(self, count, codec, source, index, outer, inner):
        column = frames_for_duration(
            VIDEO, count / VIDEO.frame_rate, codec, source
        )
        frames = spec(VIDEO, count, codec, source)
        assert isinstance(column, FrameColumn)
        assert len(column) == count
        assert list(column) == frames
        if -count <= index < count:
            assert column[index] == frames[index]
        else:
            with pytest.raises(IndexError):
                column[index]
        part = column[outer]
        assert isinstance(part, FrameColumn)
        assert list(part) == frames[outer]
        assert [part[i] for i in range(-len(part), len(part))] == (
            frames[outer] * 2
        )
        assert list(part[inner]) == frames[outer][inner]

    def test_a_codec_size_at_or_below_zero_is_refused_at_capture(self):
        class Broken:  # the codec interface, duck-typed
            nominal_ratio = 1.0

            def compressed_sizes(self, raw_bits, count):
                return ([raw_bits, raw_bits, 0.0] + [-5.0] * count)[:count]

        message = "^frame size must be positive, got 0.0$"
        with pytest.raises(ParameterError, match=message):
            frames_for_duration(VIDEO, 1.0, Broken())
        with pytest.raises(ParameterError, match=message):
            frames_for_duration(VIDEO, 4 / 30, Broken())
        assert len(frames_for_duration(VIDEO, 2 / 30, Broken())) == 2

    def test_a_nan_size_hides_no_bad_size_after_it(self):
        """A NaN is no bad size itself (``nan <= 0`` is false), but it is
        what ``min`` keeps when it comes first."""

        class Leading:
            nominal_ratio = 1.0

            def __init__(self, *sizes):
                self.sizes = list(sizes)

            def compressed_sizes(self, raw_bits, count):
                return self.sizes[:count]

        nan = float("nan")
        message = "^frame size must be positive, got -5.0$"
        with pytest.raises(ParameterError, match=message):
            frames_for_duration(VIDEO, 3 / 30, Leading(nan, 2.0, -5.0))
        column = frames_for_duration(VIDEO, 2 / 30, Leading(nan, 2.0))
        assert math.isnan(column.sizes[0]) and column.sizes[1] == 2.0

    def test_no_frames_ask_the_codec_nothing(self):
        class Refusing:
            nominal_ratio = 1.0

            def compressed_sizes(self, raw_bits, count):
                raise AssertionError("asked for an empty column")

        assert len(frames_for_duration(VIDEO, 0.0, Refusing())) == 0


class TestWholeFrames:
    @pytest.mark.parametrize(
        "seconds, count", [(4.1, 123), (8.2, 246), (16.4, 492), (16.9, 507)]
    )
    def test_a_product_a_few_ulps_short_counts_the_whole_frame(
        self, seconds, count
    ):
        assert seconds * VIDEO.frame_rate < count
        assert len(frames_for_duration(VIDEO, seconds)) == count

    def test_a_frame_not_yet_whole_is_not_counted(self):
        assert len(frames_for_duration(VIDEO, 4.1 - 1e-9)) == 122

    @given(st.integers(0, 20_000))
    def test_every_whole_count_round_trips(self, count):
        column = frames_for_duration(VIDEO, count / VIDEO.frame_rate)
        assert len(column) == count


def _stored(store, frames):
    """What *store* makes of *frames* on a fresh stack: per block, the
    slot, bits, units and tokens."""
    strand = store(build_rope_server().msm, frames)
    return strand.columns(0, strand.block_count - 1)


class TestRecordingAColumnEqualsRecordingItsList:
    @pytest.mark.parametrize("seconds", [0.5, 7.3, 30.0])
    def test_video(self, seconds):
        column = frames_for_duration(VIDEO, seconds, source="v")
        store = MultimediaStorageManager.store_video_strand
        assert _stored(store, column) == _stored(store, list(column))
        part = column[7:-3]
        assert _stored(store, part) == _stored(store, list(part))

    def test_mixed(self):
        chunks = generate_talk_spurts(
            TESTBED_1991.audio, 10.0, 0.4, random.Random(3)
        )
        column = frames_for_duration(VIDEO, 10.0, source="m")

        def store(msm, frames):
            return msm.store_mixed_strand(frames, chunks)

        assert _stored(store, column) == _stored(store, list(column))

    def test_striped(self):
        column = frames_for_duration(VIDEO, 8.0, source="s")

        def stored(frames):
            strand = StripedStorageManager(
                build_array(heads=4), VIDEO, TESTBED_1991.video_device,
                granularity=2,
            ).store_video_strand(frames)
            return strand.addresses, strand.bits, strand.tokens

        assert stored(column) == stored(list(column))
