"""Unit tests for the editing-session backend (Fig. 12 analogue)."""

import pytest

from repro.errors import ParameterError, UnknownRopeError
from repro.media.frames import frames_for_duration
from repro.rope import EditingSession, Media


@pytest.fixture
def session(mrs, profile):
    session = EditingSession(mrs, user="venkat")
    for name, seconds in (("main", 20.0), ("clip", 8.0)):
        frames = frames_for_duration(profile.video, seconds, source=name)
        request_id, rope_id = mrs.record("venkat", frames=frames)
        mrs.stop(request_id)
        session.open(name, rope_id)
    return session


class TestNaming:
    def test_open_and_lookup(self, session):
        assert session.rope("clip").duration == pytest.approx(8.0)
        assert session.rope("main").duration == pytest.approx(20.0)

    def test_unknown_name(self, session):
        with pytest.raises(UnknownRopeError):
            session.rope("nope")


class TestOperations:
    def test_insert(self, session):
        session.insert("main", 10.0, "clip", 0.0, 8.0)
        assert session.rope("main").duration == pytest.approx(28.0)
        assert session.log[-1].operation == "INSERT"

    def test_delete(self, session):
        session.delete("main", 0.0, 5.0)
        assert session.rope("main").duration == pytest.approx(15.0)

    def test_substring_binds_new_name(self, session):
        session.substring("main", "excerpt", 2.0, 6.0)
        assert session.rope("excerpt").duration == pytest.approx(6.0)

    def test_substring_name_collision(self, session):
        with pytest.raises(ParameterError):
            session.substring("main", "clip", 0.0, 1.0)

    def test_concate(self, session):
        session.concate("main", "clip")
        assert session.rope("main").duration == pytest.approx(28.0)

    def test_replace(self, session):
        session.replace(
            "main", Media.VIDEO, 0.0, 8.0, "clip", 0.0, 8.0
        )
        assert session.rope("main").duration == pytest.approx(20.0)


class TestUndo:
    def test_undo_restores_segments(self, session):
        before = session.rope("main").segments
        session.insert("main", 10.0, "clip", 0.0, 8.0)
        assert session.undo() == "INSERT"
        assert session.rope("main").segments == before

    def test_undo_stack_order(self, session):
        session.insert("main", 10.0, "clip", 0.0, 8.0)
        session.delete("main", 0.0, 2.0)
        assert session.undo() == "DELETE"
        assert session.undo() == "INSERT"
        assert session.rope("main").duration == pytest.approx(20.0)

    def test_undo_empty(self, session):
        assert session.undo() is None

    def test_undo_skips_substring(self, session):
        session.substring("main", "excerpt", 0.0, 2.0)
        assert session.undo() is None  # nothing undoable


class TestStatus:
    def test_status_fields(self, session):
        status = session.status("main")
        assert status["length"] == "20.00 sec"
        assert status["play_status"] == "idle"
        assert status["percentage_played"] == "0%"
        assert status["intervals"] == "1"

    def test_status_reflects_playback(self, session, mrs):
        rope_id = session.rope("main").rope_id
        mrs.play("venkat", rope_id)
        status = session.status("main", played_seconds=5.0)
        assert status["play_status"] == "playing"
        assert status["percentage_played"] == "25%"
