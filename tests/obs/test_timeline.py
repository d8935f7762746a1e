"""Unit tests for session timelines and their lifecycle invariants."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.obs import BlockStage, SessionTimeline


def _healthy_block(timeline, session, index, base):
    timeline.record(base, session, index, BlockStage.ENQUEUED)
    timeline.record(base + 0.01, session, index, BlockStage.READ_START)
    timeline.record(base + 0.02, session, index, BlockStage.READ_DONE)
    timeline.record(base + 0.10, session, index, BlockStage.CONSUMED)


class TestRecording:
    def test_counts_and_sessions(self):
        timeline = SessionTimeline()
        _healthy_block(timeline, "A", 0, 0.0)
        _healthy_block(timeline, "B", 0, 0.5)
        assert timeline.sessions() == ["A", "B"]
        assert len(timeline) == 8
        assert timeline.stage_counts("A") == {
            "enqueued": 1, "read-start": 1, "read-done": 1, "consumed": 1,
        }

    def test_event_filters(self):
        timeline = SessionTimeline()
        _healthy_block(timeline, "A", 0, 0.0)
        _healthy_block(timeline, "A", 1, 0.2)
        done = timeline.events(session_id="A", stage=BlockStage.READ_DONE)
        assert [event.block_index for event in done] == [0, 1]

    def test_disabled_timeline_records_nothing(self):
        timeline = SessionTimeline(enabled=False)
        _healthy_block(timeline, "A", 0, 0.0)
        assert len(timeline) == 0
        timeline.validate()  # vacuously valid


class TestDerivedTelemetry:
    def test_read_done_times_sorted_by_block(self):
        timeline = SessionTimeline()
        # Record out of block order; arrival times come back block-ordered.
        timeline.record(0.0, "A", 1, BlockStage.ENQUEUED)
        timeline.record(0.3, "A", 1, BlockStage.READ_DONE)
        timeline.record(0.0, "A", 0, BlockStage.ENQUEUED)
        timeline.record(0.1, "A", 0, BlockStage.READ_DONE)
        assert timeline.read_done_times("A") == [0.1, 0.3]

    def test_interarrival_jitter_peak_to_peak(self):
        timeline = SessionTimeline()
        for index, when in enumerate((0.0, 0.1, 0.3, 0.4)):
            timeline.record(when, "A", index, BlockStage.ENQUEUED)
            timeline.record(when, "A", index, BlockStage.READ_DONE)
        # Gaps are 0.1, 0.2, 0.1 -> peak-to-peak 0.1.
        assert timeline.interarrival_jitter("A") == pytest.approx(0.1)

    def test_jitter_needs_three_arrivals(self):
        timeline = SessionTimeline()
        timeline.record(0.0, "A", 0, BlockStage.ENQUEUED)
        timeline.record(0.0, "A", 0, BlockStage.READ_DONE)
        assert timeline.interarrival_jitter("A") == 0.0

    def test_conservation(self):
        timeline = SessionTimeline()
        _healthy_block(timeline, "A", 0, 0.0)
        timeline.record(0.5, "A", 1, BlockStage.ENQUEUED)
        timeline.record(0.6, "A", 1, BlockStage.SKIPPED)
        assert timeline.conservation_holds("A")
        timeline.record(0.9, "A", 2, BlockStage.ENQUEUED)
        assert not timeline.conservation_holds("A")  # 2 has no terminal


class TestValidate:
    def test_healthy_timeline_validates(self):
        timeline = SessionTimeline()
        for index in range(4):
            _healthy_block(timeline, "A", index, index * 0.1)
        timeline.validate()

    def test_first_event_must_be_enqueued(self):
        timeline = SessionTimeline()
        timeline.record(0.0, "A", 0, BlockStage.READ_START)
        with pytest.raises(SimulationError, match="not enqueued"):
            timeline.validate()

    def test_time_reversal_rejected(self):
        timeline = SessionTimeline()
        timeline.record(1.0, "A", 0, BlockStage.ENQUEUED)
        timeline.record(0.5, "A", 0, BlockStage.READ_DONE)
        with pytest.raises(SimulationError, match="time reversed"):
            timeline.validate()

    def test_stage_regression_rejected(self):
        timeline = SessionTimeline()
        timeline.record(0.0, "A", 0, BlockStage.ENQUEUED)
        timeline.record(0.1, "A", 0, BlockStage.READ_DONE)
        timeline.record(0.2, "A", 0, BlockStage.READ_START)
        with pytest.raises(SimulationError, match="stage"):
            timeline.validate()

    def test_double_terminal_rejected(self):
        timeline = SessionTimeline()
        timeline.record(0.0, "A", 0, BlockStage.ENQUEUED)
        timeline.record(0.1, "A", 0, BlockStage.CONSUMED)
        timeline.record(0.1, "A", 0, BlockStage.SKIPPED)
        with pytest.raises(SimulationError, match="terminal"):
            timeline.validate()


class TestRendering:
    def test_summary_dict_is_deterministic(self):
        def build():
            timeline = SessionTimeline()
            _healthy_block(timeline, "B", 0, 0.0)
            _healthy_block(timeline, "A", 0, 0.1)
            return timeline.summary_dict()

        assert build() == build()

    @settings(deadline=None, max_examples=80)
    @given(
        blocks=st.lists(
            st.tuples(
                st.sampled_from(["s0", "s1", "s2", "s3", "s4"]),
                st.integers(min_value=0, max_value=200),
                st.floats(min_value=0.0, max_value=50.0),
                st.sampled_from(["played", "skipped", "silence", "lost"]),
            ),
            max_size=40,
        ),
        sampling=st.sampled_from([(None, None), (2, 8), (0, 3), (4, None)]),
        cap=st.sampled_from([None, 1, 2, 8]),
    )
    def test_one_pass_summary_equals_the_per_session_queries(
        self, blocks, sampling, cap
    ):
        """``summary_dict`` groups the events once; the dict built from
        ``stage_counts`` / ``interarrival_jitter`` / ``conservation_holds``
        (one scan per session each) is the reference — same values, same
        key order, so the snapshot bytes are the same too."""
        timeline = SessionTimeline(
            keep_first=sampling[0], every_kth=sampling[1],
            summary_sessions=cap,
        )
        for session, index, base, fate in blocks:
            timeline.record(base, session, index, BlockStage.ENQUEUED)
            if fate != "silence":  # a block with no slot is never read
                timeline.record(base, session, index, BlockStage.READ_START)
            timeline.record(base + 0.5, session, index, BlockStage.READ_DONE)
            if fate == "skipped":
                timeline.record(base + 0.5, session, index, BlockStage.SKIPPED)
            elif fate != "lost":
                timeline.record(base + 1.0, session, index, BlockStage.CONSUMED)

        def listed(session_id):
            return {
                "stages": timeline.stage_counts(session_id),
                "interarrival_jitter_s": timeline.interarrival_jitter(
                    session_id
                ),
                "conserved": timeline.conservation_holds(session_id),
            }

        session_ids = timeline.sessions()
        head = session_ids if cap is None else session_ids[:cap]
        expected = {session_id: listed(session_id) for session_id in head}
        rest = [listed(session_id) for session_id in session_ids[len(head):]]
        if rest:
            stages = {}
            for entry in rest:
                for key, count in entry["stages"].items():
                    stages[key] = stages.get(key, 0) + count
            expected["~aggregate"] = {
                "sessions": len(rest),
                "stages": stages,
                "interarrival_jitter_s": max(
                    entry["interarrival_jitter_s"] for entry in rest
                ),
                "conserved": all(entry["conserved"] for entry in rest),
            }
        assert json.dumps(timeline.summary_dict()) == json.dumps(expected)

    def test_summary_visits_each_event_once(self):
        """O(events), not O(sessions x events): 249 sessions' worth of
        events cost one walk of the event list."""

        class CountingEvents(list):
            visited = 0

            def __iter__(self):
                for event in list.__iter__(self):
                    CountingEvents.visited += 1
                    yield event

        timeline = SessionTimeline(summary_sessions=8)
        for session in range(249):
            for index in range(3):
                _healthy_block(
                    timeline, f"S{session:03d}", index, session + 0.2 * index
                )
        timeline._events = CountingEvents(timeline._events)
        summary = timeline.summary_dict()
        assert CountingEvents.visited == len(timeline) == 249 * 3 * 4
        assert summary["~aggregate"]["sessions"] == 241
        assert summary["~aggregate"]["conserved"] is True

    def test_render_tail(self):
        timeline = SessionTimeline()
        _healthy_block(timeline, "A", 0, 0.0)
        text = timeline.render(session_id="A", last=2)
        assert "consumed" in text
        assert "enqueued" not in text  # truncated to the last 2 events
