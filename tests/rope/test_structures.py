"""Unit tests for the rope record and access control (Fig. 8)."""

import pytest

from repro.errors import AccessDenied, IntervalError
from repro.rope.intervals import MediaTrack, Segment, Trigger
from repro.rope.structures import Media, MultimediaRope


def segment(seconds=10.0):
    return Segment(
        video=MediaTrack("V1", 0, int(30 * seconds), 30.0, 4),
        audio=MediaTrack("A1", 0, int(8000 * seconds), 8000.0, 2048),
    )


def make_rope(**kwargs):
    defaults = dict(
        rope_id="R1", creator="venkat", segments=(segment(),),
    )
    defaults.update(kwargs)
    return MultimediaRope(**defaults)


class TestMedia:
    def test_selectors(self):
        assert Media.VIDEO.includes_video
        assert not Media.VIDEO.includes_audio
        assert Media.AUDIO.includes_audio
        assert Media.AUDIO_VISUAL.includes_video
        assert Media.AUDIO_VISUAL.includes_audio


class TestRopeRecord:
    def test_duration_is_fig8_length(self):
        rope = make_rope(segments=(segment(10.0), segment(5.0)))
        assert rope.duration == pytest.approx(15.0)

    def test_media_presence(self):
        rope = make_rope()
        assert all(s.video and s.audio for s in rope.segments)
        audio_only = make_rope(
            segments=(
                Segment(audio=MediaTrack("A1", 0, 8000, 8000.0, 2048)),
            )
        )
        assert not any(s.video for s in audio_only.segments)

    def test_referenced_strands(self):
        rope = make_rope()
        assert rope.referenced_strands() == {"V1", "A1"}

    def test_empty_rope_rejected(self):
        with pytest.raises(IntervalError):
            make_rope(segments=())

    def test_with_segments_copies(self):
        rope = make_rope()
        updated = rope.with_segments((segment(5.0),))
        assert updated.rope_id == rope.rope_id
        assert updated.duration == pytest.approx(5.0)
        assert rope.duration == pytest.approx(10.0)  # original intact

    def test_interval_count(self):
        rope = make_rope(segments=(segment(), segment(), segment()))
        assert rope.interval_count() == 3


class TestAccessControl:
    def test_creator_always_allowed(self):
        rope = make_rope()
        rope.check_play("venkat")
        rope.check_edit("venkat")

    def test_play_access_list(self):
        rope = make_rope(play_access=("harrick",))
        rope.check_play("harrick")
        with pytest.raises(AccessDenied):
            rope.check_play("mallory")

    def test_edit_access_implies_play(self):
        rope = make_rope(edit_access=("harrick",))
        rope.check_play("harrick")
        rope.check_edit("harrick")

    def test_play_access_does_not_imply_edit(self):
        rope = make_rope(play_access=("harrick",))
        with pytest.raises(AccessDenied):
            rope.check_edit("harrick")


class TestTriggers:
    def test_triggers_preserved_through_slice(self):
        trigger = Trigger(video_block=1, audio_block=1, text="slide 1")
        seg = Segment(
            video=MediaTrack("V1", 0, 300, 30.0, 4),
            triggers=(trigger,),
        )
        part = seg.slice(0.0, 5.0)
        assert part.triggers == (trigger,)
