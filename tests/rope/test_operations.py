"""Unit tests for the §4.1 rope operations (pure segment-list forms)."""

import pytest

from repro.errors import IntervalError
from repro.rope import operations as ops
from repro.rope.intervals import MediaTrack, Segment, total_duration
from repro.rope.structures import Media


def video_track(seconds=10.0, start=0, strand="V1"):
    return MediaTrack(
        strand_id=strand, start_unit=start,
        length_units=int(30 * seconds), rate=30.0, granularity=4,
    )


def audio_track(seconds=10.0, start=0, strand="A1"):
    return MediaTrack(
        strand_id=strand, start_unit=start,
        length_units=int(8000 * seconds), rate=8000.0, granularity=2048,
    )


def av(seconds=10.0, v="V1", a="A1"):
    return Segment(
        video=video_track(seconds, strand=v),
        audio=audio_track(seconds, strand=a),
    )


class TestSubstring:
    def test_both_media(self):
        result = ops.substring([av(10.0)], Media.AUDIO_VISUAL, 2.0, 5.0)
        assert total_duration(result) == pytest.approx(5.0)
        assert result[0].video is not None
        assert result[0].audio is not None

    def test_video_only_projection(self):
        result = ops.substring([av(10.0)], Media.VIDEO, 0.0, 5.0)
        assert result[0].video is not None
        assert result[0].audio is None

    def test_projection_with_no_content_rejected(self):
        video_only = Segment(video=video_track(10.0))
        with pytest.raises(IntervalError):
            ops.substring([video_only], Media.AUDIO, 0.0, 5.0)


class TestInsertFig9:
    def test_insert_mirrors_fig9(self):
        """Fig. 9: insert withRope into Rope1 at position, splitting it."""
        rope1 = [av(20.0, v="VS1", a="AS1")]
        rope2 = [av(10.0, v="VS2", a="AS2")]
        result = ops.insert(
            rope1, 5.0, Media.AUDIO_VISUAL, rope2, 0.0, 10.0
        )
        assert len(result) == 3
        # Piece 1: Rope1 [0, 5); Piece 2: Rope2 [0, 10); Piece 3: rest.
        assert result[0].video.strand_id == "VS1"
        assert result[0].duration == pytest.approx(5.0)
        assert result[1].video.strand_id == "VS2"
        assert result[1].duration == pytest.approx(10.0)
        assert result[2].video.strand_id == "VS1"
        assert result[2].video.start_unit == 150
        assert total_duration(result) == pytest.approx(30.0)

    def test_insert_single_medium(self):
        base = [av(10.0)]
        donor = [av(4.0, v="VS2", a="AS2")]
        result = ops.insert(base, 5.0, Media.AUDIO, donor, 0.0, 4.0)
        inserted = result[1]
        assert inserted.audio.strand_id == "AS2"
        assert inserted.video is None
        assert total_duration(result) == pytest.approx(14.0)


class TestDelete:
    def test_delete_both_media_shortens(self):
        result = ops.delete([av(10.0)], Media.AUDIO_VISUAL, 2.0, 3.0)
        assert total_duration(result) == pytest.approx(7.0)

    def test_delete_single_medium_keeps_length(self):
        result = ops.delete([av(10.0)], Media.AUDIO, 2.0, 3.0)
        assert total_duration(result) == pytest.approx(10.0)
        middle = result[1]
        assert middle.audio is None
        assert middle.video is not None

    def test_delete_everything_rejected(self):
        with pytest.raises(IntervalError):
            ops.delete([av(10.0)], Media.AUDIO_VISUAL, 0.0, 10.0)


class TestReplace:
    def test_replace_both_media(self):
        base = [av(20.0, v="VS1", a="AS1")]
        donor = [av(10.0, v="VS2", a="AS2")]
        result = ops.replace(
            base, Media.AUDIO_VISUAL, 5.0, 10.0, donor, 0.0, 10.0
        )
        assert total_duration(result) == pytest.approx(20.0)
        assert result[1].video.strand_id == "VS2"

    def test_replace_video_only_merges_rope4_rope5(self):
        """The paper's Rope4/Rope5 example: graft video onto audio."""
        rope4 = [Segment(audio=audio_track(10.0, strand="AS4"))]
        rope5 = [Segment(video=video_track(10.0, strand="VS5"))]
        result = ops.replace(
            rope4, Media.VIDEO, 0.0, 10.0, rope5, 0.0, 10.0
        )
        assert total_duration(result) == pytest.approx(10.0)
        merged = result[0]
        assert merged.video.strand_id == "VS5"
        assert merged.audio.strand_id == "AS4"
        # Fresh block-level correspondence exists.
        assert (merged.video.first_block, merged.audio.first_block) == (0, 0)

    def test_replace_audio_keeps_video(self):
        base = [av(10.0, v="VS1", a="AS1")]
        donor = [av(10.0, v="VS2", a="AS2")]
        result = ops.replace(
            base, Media.AUDIO, 2.0, 5.0, donor, 0.0, 5.0
        )
        assert total_duration(result) == pytest.approx(10.0)
        middle = result[1]
        assert middle.audio.strand_id == "AS2"
        assert middle.video.strand_id == "VS1"

    def test_replace_mismatched_intervals_rejected(self):
        base = [av(20.0)]
        donor = [av(3.0, v="VS2", a="AS2")]
        with pytest.raises(IntervalError):
            ops.replace(base, Media.AUDIO, 0.0, 10.0, donor, 0.0, 3.0)


class TestConcate:
    def test_concate_fig10(self):
        rope1 = [av(10.0, v="VS1", a="AS1")]
        rope2 = [av(5.0, v="VS2", a="AS2")]
        result = ops.concate(rope1, rope2)
        assert len(result) == 2
        assert total_duration(result) == pytest.approx(15.0)
        # Pointer manipulation only: the very same segment objects.
        assert result[0] is rope1[0]
        assert result[1] is rope2[0]


class TestStripAndProject:
    def test_strip_video(self):
        result = ops.strip_medium([av(10.0)], Media.VIDEO)
        assert result[0].video is None
        assert result[0].audio is not None

    def test_strip_both_rejected(self):
        with pytest.raises(IntervalError):
            ops.strip_medium([av(10.0)], Media.AUDIO_VISUAL)

    def test_strip_only_track_rejected(self):
        video_only = [Segment(video=video_track(10.0))]
        with pytest.raises(IntervalError):
            ops.strip_medium(video_only, Media.VIDEO)

    def test_project_drops_empty_segments(self):
        mixed = [
            Segment(video=video_track(5.0)),
            Segment(audio=audio_track(5.0)),
        ]
        result = ops.project_medium(mixed, Media.VIDEO)
        assert len(result) == 1
        assert result[0].video is not None
