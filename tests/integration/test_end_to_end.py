"""Integration tests: record → edit → play across the whole stack."""

import pytest

from repro.media.audio import generate_talk_spurts
from repro.media.frames import frames_for_duration
from repro.rope import Media
from repro.service import PlaybackSession


class TestRecordEditPlay:
    def test_full_lifecycle(self, mrs, msm, profile, rng):
        """The §5 prototype's workflow, end to end."""
        # 1. Record two clips (video + silence-eliminated audio).
        frames_a = frames_for_duration(profile.video, 12.0, source="lecA")
        chunks_a = generate_talk_spurts(profile.audio, 12.0, 0.35, rng)
        qa, rope_a = mrs.record("venkat", frames=frames_a, chunks=chunks_a)
        mrs.stop(qa)
        frames_b = frames_for_duration(profile.video, 6.0, source="lecB")
        chunks_b = generate_talk_spurts(profile.audio, 6.0, 0.35, rng)
        qb, rope_b = mrs.record("venkat", frames=frames_b, chunks=chunks_b)
        mrs.stop(qb)

        # 2. Edit: insert B into A, trim the result.
        mrs.insert(
            "venkat", rope_a, 6.0, Media.AUDIO_VISUAL, rope_b, 0.0, 6.0
        )
        mrs.delete("venkat", rope_a, Media.AUDIO_VISUAL, 0.0, 2.0)
        edited = mrs.get_rope(rope_a)
        assert edited.duration == pytest.approx(16.0)

        # 3. Play the edited rope; verify content order and continuity.
        request_id = mrs.play("venkat", rope_a, media=Media.VIDEO)
        plan = mrs.playback_plan(request_id)
        tokens = plan.tokens()
        expected = (
            [f.token for f in frames_a[60:180]]
            + [f.token for f in frames_b]
            + [f.token for f in frames_a[180:]]
        )
        assert tokens == expected
        session = PlaybackSession(mrs)
        result = session.run([request_id], k=4)
        assert result.all_continuous

        # 4. Cleanup: deleting the ropes reclaims all media storage.
        mrs.delete_rope("venkat", rope_a)
        mrs.delete_rope("venkat", rope_b)
        assert msm.strand_ids() == []
        assert msm.occupancy == 0.0

    def test_concurrent_playback_at_capacity(self, mrs, profile):
        """Admit to the limit; every admitted stream plays clean."""
        frames = frames_for_duration(profile.video, 8.0, source="pop")
        request_id, rope_id = mrs.record("u", frames=frames)
        mrs.stop(request_id)
        admitted = []
        from repro.errors import AdmissionRejected
        try:
            for _ in range(20):
                admitted.append(
                    mrs.play("u", rope_id, media=Media.VIDEO)
                )
        except AdmissionRejected:
            pass
        assert 1 <= len(admitted) <= 19
        session = PlaybackSession(mrs)
        result = session.run(admitted)
        assert result.all_continuous

    def test_shared_interval_playback_after_source_deleted(
        self, mrs, msm, profile
    ):
        """A substring keeps shared strands alive and playable after the
        original rope is deleted (the Etherphone sharing model)."""
        frames = frames_for_duration(profile.video, 10.0, source="src")
        request_id, rope_id = mrs.record("u", frames=frames)
        mrs.stop(request_id)
        excerpt = mrs.substring("u", rope_id, Media.VIDEO, 3.0, 4.0)
        mrs.delete_rope("u", rope_id)
        play_id = mrs.play("u", excerpt.rope_id)
        tokens = mrs.playback_plan(play_id).tokens()
        assert tokens == [f.token for f in frames[90:210]]

    def test_heterogeneous_rope_playback(self, mrs, profile, rng):
        frames = frames_for_duration(profile.video, 6.0, source="het")
        chunks = generate_talk_spurts(profile.audio, 6.0, 0.2, rng)
        request_id, rope_id = mrs.record(
            "u", frames=frames, chunks=chunks, heterogeneous=True
        )
        mrs.stop(request_id)
        play_id = mrs.play("u", rope_id)
        plan = mrs.playback_plan(play_id)
        assert plan.tokens() == [f.token for f in frames]
        session = PlaybackSession(mrs)
        assert session.run([play_id], k=4).all_continuous


class TestAnalysisVsSimulation:
    def test_admitted_sets_simulate_continuously(self, mrs, profile):
        """The central claim: whatever the §3.4 controller admits, the
        §3.4 service loop plays without a single deadline miss."""
        frames = frames_for_duration(profile.video, 6.0, source="load")
        request_id, rope_id = mrs.record("u", frames=frames)
        mrs.stop(request_id)
        from repro.errors import AdmissionRejected
        admitted = []
        session = PlaybackSession(mrs)
        while True:
            try:
                admitted.append(mrs.play("u", rope_id, media=Media.VIDEO))
            except AdmissionRejected:
                break
            result = session.run(list(admitted))
            assert result.all_continuous, (
                f"misses with {len(admitted)} admitted streams at "
                f"k={result.k_used}"
            )

    def test_buffer_highwater_within_paper_bound(self, mrs, profile):
        """Pipelined service must never need more than 2k buffers."""
        frames = frames_for_duration(profile.video, 8.0, source="buf")
        request_id, rope_id = mrs.record("u", frames=frames)
        mrs.stop(request_id)
        play_id = mrs.play("u", rope_id, media=Media.VIDEO)
        session = PlaybackSession(mrs)
        k = 4
        result = session.run([play_id], k=k)
        assert result.metrics[play_id].buffer_high_water <= 2 * k
