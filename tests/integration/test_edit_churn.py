"""Integration: sustained editing churn keeps every invariant intact."""

import random

import pytest

from repro.media.frames import frames_for_duration
from repro.rope import EditingSession, Media
from repro.service import PlaybackSession


def edit_script(rope_duration, clip_duration, operations, seed):
    """A seeded churn script: inserts of 1-3 s of donor material
    alternating with deletes of up to 2 s, every position legal for a
    rope of *rope_duration* seconds tracked through each step."""
    rng = random.Random(seed)
    steps, current = [], rope_duration
    for i in range(operations):
        if i % 2 == 0:
            length = min(clip_duration, rng.uniform(1.0, 3.0))
            position = rng.uniform(0.0, max(0.1, current - 0.1))
            start = rng.uniform(0.0, max(0.0, clip_duration - length))
            steps.append(("insert", (position, start, length)))
            current += length
        else:
            length = min(rng.uniform(0.5, 2.0), current / 2.0)
            steps.append(("delete", (rng.uniform(0.0, current - length), length)))
            current -= length
    return steps


class TestEditChurn:
    @pytest.fixture
    def session(self, mrs, profile):
        session = EditingSession(mrs, user="editor")
        for name, seconds in (("target", 30.0), ("donor", 10.0)):
            frames = frames_for_duration(
                profile.video, seconds, source=name
            )
            request_id, rope_id = mrs.record("editor", frames=frames)
            mrs.stop(request_id)
            session.open(name, rope_id)
        return session

    def test_scripted_churn_preserves_invariants(self, session, mrs, msm):
        """Run 20 scripted edits; duration bookkeeping, interests, and
        playability must survive the whole sequence."""
        script = edit_script(30.0, 10.0, 20, seed=77)
        expected = 30.0
        for operation, args in script:
            if operation == "insert":
                position, start, length = args
                session.insert("target", position, "donor", start, length)
                expected += length
            else:
                start, length = args
                session.delete("target", start, length)
                expected -= length
            rope = session.rope("target")
            # Durations track to within a frame per interval boundary.
            assert rope.duration == pytest.approx(
                expected, abs=(rope.interval_count() + 2) / 30.0
            )
            expected = rope.duration  # re-anchor to the quantized value
            # Interests exactly mirror the references.
            for strand_id in rope.referenced_strands():
                assert msm.interests.is_referenced(strand_id)
        # After all churn, the rope still plays continuously and in order.
        rope = session.rope("target")
        play_id = mrs.play("editor", rope.rope_id, media=Media.VIDEO)
        plan = mrs.playback_plan(play_id)
        assert sum(plan.video.durations) == pytest.approx(
            rope.duration, abs=rope.interval_count() / 30.0 + 0.2
        )
        result = PlaybackSession(mrs).run([play_id], k=4)
        assert result.metrics[play_id].continuous

    def test_churn_then_undo_all(self, session):
        """Undo unwinds the whole scripted history exactly."""
        original = session.rope("target").segments
        script = edit_script(30.0, 10.0, 10, seed=78)
        for operation, args in script:
            if operation == "insert":
                position, start, length = args
                session.insert("target", position, "donor", start, length)
            else:
                start, length = args
                session.delete("target", start, length)
        while session.undo() is not None:
            pass
        assert session.rope("target").segments == original

    def test_churn_garbage_collection(self, session, mrs, msm):
        """Deleting everything after churn reclaims the whole disk."""
        script = edit_script(30.0, 10.0, 8, seed=79)
        for operation, args in script:
            if operation == "insert":
                position, start, length = args
                session.insert("target", position, "donor", start, length)
            else:
                start, length = args
                session.delete("target", start, length)
        mrs.delete_rope("editor", session.rope("target").rope_id)
        mrs.delete_rope("editor", session.rope("donor").rope_id)
        assert msm.strand_ids() == []
        assert msm.occupancy == 0.0
