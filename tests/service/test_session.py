"""Unit tests for end-to-end playback sessions."""

import pytest

from repro.errors import ParameterError
from repro.media.audio import generate_talk_spurts
from repro.media.frames import frames_for_duration
from repro.rope import Media
from repro.service import Admission, PlaybackSession, staged_k_schedule


@pytest.fixture
def rope(mrs, profile):
    frames = frames_for_duration(profile.video, 10.0, source="cam")
    request_id, rope_id = mrs.record("u", frames=frames)
    mrs.stop(request_id)
    return rope_id


class TestStagedKSchedule:
    def test_constant_without_steps(self):
        schedule = staged_k_schedule(3, [])
        assert schedule(0, 1) == 3
        assert schedule(100, 5) == 3

    def test_steps_apply_in_order(self):
        schedule = staged_k_schedule(2, [(5, 3), (6, 4)])
        assert schedule(4, 1) == 2
        assert schedule(5, 1) == 3
        assert schedule(6, 1) == 4
        assert schedule(99, 1) == 4

    def test_rejects_bad_initial(self):
        with pytest.raises(ParameterError):
            staged_k_schedule(0, [])


class TestPlaybackSession:
    def test_single_request_continuous(self, mrs, rope):
        request_id = mrs.play("u", rope, media=Media.VIDEO)
        session = PlaybackSession(mrs)
        result = session.run([request_id], k=4)
        assert result.all_continuous
        assert result.total_misses == 0
        assert result.metrics[request_id].blocks_delivered > 0

    def test_multiple_requests_at_controller_k(self, mrs, rope):
        ids = [mrs.play("u", rope, media=Media.VIDEO) for _ in range(2)]
        session = PlaybackSession(mrs)
        result = session.run(ids)  # uses the controller's current k
        assert result.k_used == mrs.msm.admission.current_k
        assert result.all_continuous

    def test_mid_session_admission(self, mrs, rope):
        first = mrs.play("u", rope, media=Media.VIDEO)
        second = mrs.play("u", rope, media=Media.VIDEO)
        session = PlaybackSession(mrs)
        k = max(1, mrs.msm.admission.current_k)
        first_stream, second_stream = (
            session.stream(r, k, session.fetch_sequence(r)) for r in (first, second)
        )
        metrics = session.loop(mrs.msm.drive, k).run(
            [first_stream], [Admission(0.5, second_stream)]
        )
        assert metrics[second].blocks_delivered > 0

    def test_av_interleaving_orders_by_playback_position(
        self, mrs, profile, rng
    ):
        frames = frames_for_duration(profile.video, 10.0, source="av")
        chunks = generate_talk_spurts(profile.audio, 10.0, 0.2, rng)
        request_id, rope_id = mrs.record("u", frames=frames, chunks=chunks)
        mrs.stop(request_id)
        play_id = mrs.play("u", rope_id)
        session = PlaybackSession(mrs)
        plan = mrs.playback_plan(play_id)
        merged = session._interleave(plan)
        assert len(merged) == len(plan.video) + len(plan.audio)
        # Both media make steady progress: no medium is starved to the end.
        video_positions = [
            i for i, f in enumerate(merged) if f in plan.video
        ]
        audio_positions = [
            i for i, f in enumerate(merged) if f in plan.audio
        ]
        assert min(audio_positions) < max(video_positions)

    def test_session_result_reports_misses(self, mrs, rope):
        """At k=1 with several concurrent streams, misses surface."""
        ids = [mrs.play("u", rope, media=Media.VIDEO) for _ in range(3)]
        session = PlaybackSession(mrs)
        result = session.run(ids, k=1)
        assert result.total_misses == sum(
            m.misses for m in result.metrics.values()
        )
