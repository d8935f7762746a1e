"""Unit tests for the Multimedia Rope Server (§4.1, §5.2)."""

import pytest

from repro.errors import (
    AccessDenied,
    AdmissionRejected,
    IntervalError,
    ParameterError,
    RequestStateError,
    UnknownRequestError,
    UnknownRopeError,
)
from repro.media.audio import generate_talk_spurts
from repro.media.frames import frames_for_duration
from repro.rope import Media, RequestKind, RequestState


@pytest.fixture
def frames(profile):
    return frames_for_duration(profile.video, 8.0, source="cam")


@pytest.fixture
def chunks(profile, rng):
    return generate_talk_spurts(profile.audio, 8.0, 0.3, rng)


@pytest.fixture
def recorded(mrs, frames, chunks):
    request_id, rope_id = mrs.record("venkat", frames=frames, chunks=chunks)
    mrs.stop(request_id)
    return rope_id


class TestRecord:
    def test_record_returns_request_and_rope(self, mrs, frames):
        request_id, rope_id = mrs.record("venkat", frames=frames)
        assert mrs.get_request(request_id).kind is RequestKind.RECORD
        rope = mrs.get_rope(rope_id)
        assert rope.creator == "venkat"
        assert rope.duration == pytest.approx(8.0)
        mrs.stop(request_id)

    def test_record_both_media_one_segment(self, mrs, recorded):
        rope = mrs.get_rope(recorded)
        assert rope.interval_count() == 1
        assert all(s.video and s.audio for s in rope.segments)

    def test_record_heterogeneous(self, mrs, frames, chunks):
        request_id, rope_id = mrs.record(
            "venkat", frames=frames, chunks=chunks, heterogeneous=True
        )
        mrs.stop(request_id)
        rope = mrs.get_rope(rope_id)
        assert all(s.video for s in rope.segments)

    def test_record_registers_interests(self, msm, mrs, recorded):
        rope = mrs.get_rope(recorded)
        for strand_id in rope.referenced_strands():
            assert msm.interests.is_referenced(strand_id)

    def test_record_requires_media(self, mrs):
        with pytest.raises(ParameterError):
            mrs.record("venkat")

    def test_record_is_admission_controlled(self, mrs, frames):
        issued = []
        with pytest.raises(AdmissionRejected):
            for _ in range(50):
                request_id, _ = mrs.record("venkat", frames=frames[:30])
                issued.append(request_id)
        assert issued  # some recordings were admitted before the limit


class TestPlayStop:
    def test_play_returns_request(self, mrs, recorded):
        request_id = mrs.play("venkat", recorded)
        request = mrs.get_request(request_id)
        assert request.kind is RequestKind.PLAY
        assert request.state is RequestState.ACTIVE

    def test_play_checks_access(self, mrs, frames):
        request_id, rope_id = mrs.record("venkat", frames=frames)
        mrs.stop(request_id)
        with pytest.raises(AccessDenied):
            mrs.play("mallory", rope_id)

    def test_play_rejects_empty_interval(self, mrs, recorded):
        with pytest.raises(IntervalError):
            mrs.play("venkat", recorded, start=8.0)

    def test_stop_releases_admission(self, msm, mrs, recorded):
        request_id = mrs.play("venkat", recorded)
        active_before = msm.admission.active_count
        mrs.stop(request_id)
        assert msm.admission.active_count == active_before - 1
        assert mrs.get_request(request_id).state is RequestState.STOPPED

    def test_double_stop_rejected(self, mrs, recorded):
        request_id = mrs.play("venkat", recorded)
        mrs.stop(request_id)
        with pytest.raises(RequestStateError):
            mrs.stop(request_id)

    def test_unknown_ids(self, mrs):
        with pytest.raises(UnknownRopeError):
            mrs.get_rope("R9999")
        with pytest.raises(UnknownRequestError):
            mrs.get_request("Q9999")


class TestEditingThroughServer:
    def test_insert_updates_rope(self, mrs, frames, chunks):
        q1, r1 = mrs.record("venkat", frames=frames, chunks=chunks)
        mrs.stop(q1)
        q2, r2 = mrs.record("venkat", frames=frames, chunks=chunks)
        mrs.stop(q2)
        result = mrs.insert(
            "venkat", r1, 4.0, Media.AUDIO_VISUAL, r2, 0.0, 8.0
        )
        assert result.duration == pytest.approx(16.0)
        assert mrs.get_rope(r1).duration == pytest.approx(16.0)

    def test_edit_requires_edit_access(self, mrs, frames):
        q1, r1 = mrs.record(
            "venkat", frames=frames, play_access=("harrick",)
        )
        mrs.stop(q1)
        with pytest.raises(AccessDenied):
            mrs.delete("harrick", r1, Media.AUDIO_VISUAL, 0.0, 1.0)

    def test_substring_creates_new_rope(self, mrs, recorded):
        result = mrs.substring(
            "venkat", recorded, Media.AUDIO_VISUAL, 1.0, 3.0
        )
        assert result.rope_id != recorded
        assert result.duration == pytest.approx(3.0)
        assert result.creator == "venkat"

    def test_edits_sync_interests(self, msm, mrs, frames, chunks):
        q1, r1 = mrs.record("venkat", frames=frames, chunks=chunks)
        mrs.stop(q1)
        rope = mrs.get_rope(r1)
        # Delete audio everywhere: its strand loses this rope's interest.
        audio_strand = rope.segments[0].audio.strand_id
        mrs.delete("venkat", r1, Media.AUDIO, 0.0, rope.duration)
        assert not msm.interests.is_referenced(audio_strand)

    def test_delete_rope_collects_strands(self, msm, mrs, recorded):
        strands = set(mrs.get_rope(recorded).referenced_strands())
        reclaimed = mrs.delete_rope("venkat", recorded)
        assert strands.issubset(set(reclaimed))
        with pytest.raises(UnknownRopeError):
            mrs.get_rope(recorded)

    def test_shared_strands_survive_rope_deletion(self, mrs, msm, recorded):
        sub = mrs.substring("venkat", recorded, Media.VIDEO, 0.0, 4.0)
        reclaimed = mrs.delete_rope("venkat", recorded)
        shared = mrs.get_rope(sub.rope_id).referenced_strands()
        assert not shared.intersection(reclaimed)


class TestSingleMediumReplaceOffTheFrameGrid:
    """A single-medium REPLACE at arbitrary times: the base interval and
    the replacement round to different unit counts, so the merge cuts at
    the base interval's end and holds the replacement's last unit."""

    def test_uniform_random_video_replaces_succeed(self, mrs, profile):
        import random

        video = frames_for_duration(profile.video, 30.0, source="v")
        q1, plain = mrs.record("venkat", frames=video)
        q2, both = mrs.record(
            "venkat",
            frames=frames_for_duration(profile.video, 30.0, source="av"),
            chunks=generate_talk_spurts(
                profile.audio, 30.0, 0.4, random.Random(7)
            ),
        )
        mrs.stop(q1)
        mrs.stop(q2)
        draw = random.Random(20260806)
        for turn in range(120):
            base, source = (plain, both) if turn % 2 else (both, plain)
            before = mrs.get_rope(base).duration
            length = draw.uniform(0.5, 3.0)
            rope = mrs.replace(
                "venkat", base, Media.VIDEO,
                draw.uniform(0.0, before - length), length,
                source, draw.uniform(0.0, 30.0 - length), length,
            )
            assert all(s.video for s in rope.segments)
            request = mrs.play("venkat", base)
            plan = mrs.playback_plan(request)
            mrs.stop(request)
            assert sum(plan.video.durations) == pytest.approx(rope.duration)

    def test_replacement_past_the_base_end_is_cut(self, mrs, profile):
        _, base = mrs.record(
            "venkat",
            frames=frames_for_duration(profile.video, 4.0, source="b"),
        )
        _, source = mrs.record(
            "venkat",
            frames=frames_for_duration(profile.video, 4.0, source="s"),
        )
        # In float seconds the base interval [1.0, 2.05) is 31.4999...
        # frames long and rounds to 31; the source interval [0.5, 1.55)
        # is 31.5 and rounds to 32.  The surplus frame is cut.
        rope = mrs.replace(
            "venkat", base, Media.VIDEO, 1.0, 1.05, source, 0.5, 1.05,
        )
        assert rope.duration == pytest.approx(4.0)
        assert [segment.video.length_units for segment in rope.segments] == [
            30, 31, 59,
        ]


class TestAdoptStrands:
    def test_adopt_builds_rope(self, msm, mrs, frames):
        strand = msm.store_video_strand(frames)
        rope_id = mrs.adopt_strands("venkat", video_strand_id=strand.strand_id)
        rope = mrs.get_rope(rope_id)
        assert rope.duration == pytest.approx(8.0)
        assert msm.interests.is_referenced(strand.strand_id)

    def test_adopt_requires_a_strand(self, mrs):
        with pytest.raises(ParameterError):
            mrs.adopt_strands("venkat")


class TestPlaybackPlan:
    def test_plan_covers_interval(self, mrs, recorded):
        request_id = mrs.play("venkat", recorded, start=2.0, length=4.0)
        plan = mrs.playback_plan(request_id)
        assert sum(plan.video.durations) == pytest.approx(4.0, abs=0.15)
        assert sum(plan.audio.durations) == pytest.approx(4.0, abs=0.3)

    def test_video_only_plan(self, mrs, recorded):
        request_id = mrs.play("venkat", recorded, media=Media.VIDEO)
        plan = mrs.playback_plan(request_id)
        assert plan.video
        assert not plan.audio

    def test_tokens_round_trip(self, mrs, frames):
        q, rope_id = mrs.record("venkat", frames=frames)
        mrs.stop(q)
        request_id = mrs.play("venkat", rope_id)
        plan = mrs.playback_plan(request_id)
        assert plan.tokens() == [f.token for f in frames]

    def test_edited_rope_tokens(self, mrs, frames, profile):
        other = frames_for_duration(profile.video, 4.0, source="ins")
        q1, r1 = mrs.record("venkat", frames=frames)
        mrs.stop(q1)
        q2, r2 = mrs.record("venkat", frames=other)
        mrs.stop(q2)
        mrs.insert("venkat", r1, 2.0, Media.VIDEO, r2, 0.0, 4.0)
        request_id = mrs.play("venkat", r1)
        tokens = mrs.playback_plan(request_id).tokens()
        expected = (
            [f.token for f in frames[:60]]
            + [f.token for f in other]
            + [f.token for f in frames[60:]]
        )
        assert tokens == expected

    def test_silence_fetches_have_no_slot(self, mrs, profile, rng):
        chunks = generate_talk_spurts(profile.audio, 20.0, 0.6, rng)
        q, rope_id = mrs.record("venkat", chunks=chunks)
        mrs.stop(q)
        request_id = mrs.play("venkat", rope_id, media=Media.AUDIO)
        plan = mrs.playback_plan(request_id)
        assert any(f.slot is None for f in plan.audio)
        assert any(f.slot is not None for f in plan.audio)
        # Silence still buys playback time.
        assert sum(plan.audio.durations) == pytest.approx(20.0, abs=1.0)
