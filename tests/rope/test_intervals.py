"""Unit tests for strand-interval algebra."""

import pytest

from repro.errors import IntervalError, ParameterError
from repro.rope.intervals import (
    MediaTrack,
    Segment,
    delete_range,
    slice_segments,
    splice_segments,
    total_duration,
)


def video_track(length_units=300, start=0, rate=30.0, strand="V1"):
    return MediaTrack(
        strand_id=strand, start_unit=start, length_units=length_units,
        rate=rate, granularity=4,
    )


def audio_track(length_units=80000, start=0, rate=8000.0, strand="A1"):
    return MediaTrack(
        strand_id=strand, start_unit=start, length_units=length_units,
        rate=rate, granularity=2048,
    )


def av_segment(seconds=10.0):
    return Segment(
        video=video_track(int(30 * seconds)),
        audio=audio_track(int(8000 * seconds)),
    )


class TestMediaTrack:
    def test_duration(self):
        assert video_track(300).duration == pytest.approx(10.0)

    def test_block_coordinates(self):
        track = video_track(length_units=10, start=6)
        assert track.first_block == 1   # unit 6 in block 1 (g=4)
        assert track.last_block == 3    # unit 15 in block 3
        assert track.end_unit == 16

    def test_slice_basic(self):
        track = video_track(300)
        part = track.slice(2.0, 3.0)
        assert part.start_unit == 60
        assert part.length_units == 90
        assert part.duration == pytest.approx(3.0)

    def test_slice_clamps_to_interval(self):
        track = video_track(300)
        part = track.slice(9.5, 100.0)
        assert part.end_unit <= track.end_unit
        assert part.length_units >= 1

    def test_slice_rejects_empty(self):
        with pytest.raises(IntervalError):
            video_track().slice(0.0, 0.0)

    def test_validation(self):
        with pytest.raises(IntervalError):
            MediaTrack("V", -1, 10, 30.0, 4)
        with pytest.raises(IntervalError):
            MediaTrack("V", 0, 0, 30.0, 4)
        with pytest.raises(ParameterError):
            MediaTrack("V", 0, 10, 0.0, 4)


class TestSegment:
    def test_duration_video_governs(self):
        segment = av_segment(10.0)
        assert segment.duration == pytest.approx(10.0)

    def test_audio_only_duration(self):
        segment = Segment(audio=audio_track(16000))
        assert segment.duration == pytest.approx(2.0)

    def test_needs_a_track(self):
        with pytest.raises(IntervalError):
            Segment()

    def test_correspondence(self):
        segment = Segment(
            video=video_track(start=8), audio=audio_track(start=4096)
        )
        assert (segment.video.first_block, segment.audio.first_block) == (2, 2)

    def test_strand_ids(self):
        assert av_segment().strand_ids() == ["V1", "A1"]

    def test_slice_cuts_both_tracks(self):
        segment = av_segment(10.0)
        part = segment.slice(2.0, 4.0)
        assert part.video.duration == pytest.approx(4.0)
        assert part.audio.duration == pytest.approx(4.0)
        assert part.video.start_unit == 60
        assert part.audio.start_unit == 16000


class TestSliceSegments:
    def test_within_one_segment(self):
        segments = [av_segment(10.0)]
        result = slice_segments(segments, 2.0, 5.0)
        assert len(result) == 1
        assert total_duration(result) == pytest.approx(5.0)

    def test_across_segments(self):
        segments = [av_segment(10.0), av_segment(10.0)]
        result = slice_segments(segments, 8.0, 4.0)
        assert len(result) == 2
        assert total_duration(result) == pytest.approx(4.0)

    def test_whole_extent(self):
        segments = [av_segment(10.0), av_segment(5.0)]
        result = slice_segments(segments, 0.0, 15.0)
        assert total_duration(result) == pytest.approx(15.0)

    def test_beyond_end_rejected(self):
        with pytest.raises(IntervalError):
            slice_segments([av_segment(10.0)], 5.0, 10.0)

    def test_zero_length_rejected(self):
        with pytest.raises(IntervalError):
            slice_segments([av_segment(10.0)], 0.0, 0.0)


class TestSpliceSegments:
    def test_insert_at_start(self):
        base = [av_segment(10.0)]
        insertion = [av_segment(5.0)]
        result = splice_segments(base, 0.0, insertion)
        assert len(result) == 2
        assert total_duration(result) == pytest.approx(15.0)
        assert result[0] is insertion[0]

    def test_insert_at_end(self):
        base = [av_segment(10.0)]
        result = splice_segments(base, 10.0, [av_segment(5.0)])
        assert len(result) == 2
        assert result[1].duration == pytest.approx(5.0)

    def test_insert_mid_segment_splits(self):
        base = [av_segment(10.0)]
        result = splice_segments(base, 4.0, [av_segment(5.0)])
        assert len(result) == 3
        assert result[0].duration == pytest.approx(4.0)
        assert result[1].duration == pytest.approx(5.0)
        assert result[2].duration == pytest.approx(6.0)
        assert total_duration(result) == pytest.approx(15.0)

    def test_insert_at_boundary_no_split(self):
        base = [av_segment(10.0), av_segment(10.0)]
        result = splice_segments(base, 10.0, [av_segment(5.0)])
        assert len(result) == 3
        assert result[1].duration == pytest.approx(5.0)

    def test_beyond_end_rejected(self):
        with pytest.raises(IntervalError):
            splice_segments([av_segment(10.0)], 11.0, [av_segment(1.0)])


class TestDeleteRange:
    def test_delete_inside_segment(self):
        result = delete_range([av_segment(10.0)], 3.0, 4.0)
        assert len(result) == 2
        assert total_duration(result) == pytest.approx(6.0)

    def test_delete_prefix(self):
        result = delete_range([av_segment(10.0)], 0.0, 4.0)
        assert len(result) == 1
        assert total_duration(result) == pytest.approx(6.0)
        # The surviving interval starts 4 s into the strand.
        assert result[0].video.start_unit == 120

    def test_delete_across_boundary(self):
        result = delete_range([av_segment(10.0), av_segment(10.0)], 8.0, 4.0)
        assert total_duration(result) == pytest.approx(16.0)

    def test_delete_whole_segment(self):
        result = delete_range([av_segment(10.0), av_segment(5.0)], 10.0, 5.0)
        assert len(result) == 1
        assert total_duration(result) == pytest.approx(10.0)

    def test_delete_everything_rejected(self):
        with pytest.raises(IntervalError):
            delete_range([av_segment(10.0)], 0.0, 10.0)
