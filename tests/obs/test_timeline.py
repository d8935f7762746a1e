"""Unit tests for session timelines: the per-session tally and its views."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.obs import BlockStage, SessionTimeline

HEALTHY = {"enqueued": 1, "read-start": 1, "read-done": 1, "consumed": 1}


def _healthy_block(timeline, session, index, base):
    timeline.add(session, HEALTHY, [(index, base + 0.02)])


class TestSamplingGates:
    @pytest.mark.parametrize("gate", ["keep_first", "every_kth"])
    @pytest.mark.parametrize("bad", [2.5, float("nan"), "3", True, 4.0])
    def test_a_gate_that_is_not_an_int_is_refused(self, gate, bad):
        """every_kth=2.5 raised a bare TypeError from the run-end walk,
        NaN tallied one block, "3" raised a bare TypeError here and True
        passed: each is now a ParameterError when the timeline is built."""
        with pytest.raises(ParameterError, match=rf"{gate} must be an int"):
            SessionTimeline(**{gate: bad})

    def test_int_gates_and_none_are_accepted(self):
        timeline = SessionTimeline(keep_first=0, every_kth=1)
        assert (timeline.keep_first, timeline.every_kth) == (0, 1)
        assert SessionTimeline().every_kth is None

    def test_a_refused_gate_never_reaches_a_run(self):
        """One 23-block serve under every_kth=2.5 never starts."""
        from repro.obs import Observability
        from repro.scenarios import get

        with pytest.raises(ParameterError):
            obs = Observability()
            obs.timeline = SessionTimeline(keep_first=1, every_kth=2.5)
            get("scale")(streams=1, blocks_per_stream=23, seed=1).run(obs)


class TestRecording:
    def test_counts_and_sessions(self):
        timeline = SessionTimeline()
        _healthy_block(timeline, "A", 0, 0.0)
        _healthy_block(timeline, "B", 0, 0.5)
        assert timeline.sessions() == ["A", "B"]
        assert timeline.stage_counts("A") == HEALTHY
        # A second tally under the same session id adds to the first.
        _healthy_block(timeline, "A", 1, 0.2)
        assert timeline.stage_counts("A") == {
            stage: 2 for stage in HEALTHY
        }

    def test_disabled_timeline_records_nothing(self):
        timeline = SessionTimeline(enabled=False)
        _healthy_block(timeline, "A", 0, 0.0)
        assert timeline.sessions() == []
        assert timeline.summary_dict() == {}

    def test_zero_counts_are_not_stages_and_an_empty_tally_is_no_session(self):
        timeline = SessionTimeline()
        timeline.add("A", {stage.value: 0 for stage in BlockStage}, [])
        assert timeline.sessions() == []
        timeline.add("A", {**HEALTHY, "skipped": 0}, [(0, 0.1)])
        assert timeline.stage_counts("A") == HEALTHY

    def test_stage_counts_is_a_copy(self):
        timeline = SessionTimeline()
        _healthy_block(timeline, "A", 0, 0.0)
        timeline.stage_counts("A")["consumed"] = 7
        assert timeline.stage_counts("A") == HEALTHY
        assert timeline.stage_counts("unknown") == {}


class TestDerivedTelemetry:
    def test_read_done_times_sorted_by_block(self):
        timeline = SessionTimeline()
        # Tallied out of block order; arrival times come back block-ordered.
        timeline.add("A", {"enqueued": 2, "read-done": 2}, [(1, 0.3), (0, 0.1)])
        assert timeline.read_done_times("A") == [0.1, 0.3]

    def test_interarrival_jitter_peak_to_peak(self):
        timeline = SessionTimeline()
        timeline.add(
            "A", {"enqueued": 4, "read-done": 4},
            list(enumerate((0.0, 0.1, 0.3, 0.4))),
        )
        # Gaps are 0.1, 0.2, 0.1 -> peak-to-peak 0.1.
        assert timeline.interarrival_jitter("A") == pytest.approx(0.1)

    def test_jitter_needs_three_arrivals(self):
        timeline = SessionTimeline()
        timeline.add("A", {"enqueued": 1, "read-done": 1}, [(0, 0.0)])
        assert timeline.interarrival_jitter("A") == 0.0

    def test_conservation(self):
        timeline = SessionTimeline()
        _healthy_block(timeline, "A", 0, 0.0)
        timeline.add("A", {"enqueued": 1, "read-done": 1, "skipped": 1}, [])
        assert timeline.conservation_holds("A")
        timeline.add("A", {"enqueued": 1}, [])
        assert not timeline.conservation_holds("A")  # no terminal


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
        tallies=st.lists(
            st.tuples(
                st.sampled_from(["s0", "s1", "s2", "s3", "s4"]),
                st.dictionaries(
                    st.sampled_from([stage.value for stage in BlockStage]),
                    st.integers(min_value=0, max_value=5),
                ),
                st.lists(
                    st.tuples(
                        st.integers(min_value=0, max_value=200),
                        st.floats(min_value=0.0, max_value=50.0),
                    ),
                    max_size=6,
                ),
            ),
            max_size=20,
        ),
        cap=st.sampled_from([None, 1, 2, 8]),
    )
    def test_one_pass_summary_equals_the_per_session_queries(
        self, tallies, cap
    ):
        """``summary_dict`` is the per-session views (``stage_counts`` /
        ``interarrival_jitter`` / ``conservation_holds``) with the tail
        past *cap* folded into ``~aggregate`` — same values, same key
        order, so the snapshot bytes are the same too — and the views sum
        exactly what was added."""
        timeline = SessionTimeline(summary_sessions=cap)
        totals, arrivals = {}, {}
        for session, stages, landed in tallies:
            timeline.add(session, stages, landed)
            if any(stages.values()):
                mine = totals.setdefault(session, {})
                for key, count in stages.items():
                    mine[key] = mine.get(key, 0) + count
                arrivals.setdefault(session, []).extend(landed)
        assert timeline.sessions() == sorted(totals)
        for session, mine in totals.items():
            assert timeline.stage_counts(session) == {
                key: count for key, count in mine.items() if count
            }
            assert timeline.read_done_times(session) == [
                time for _index, time in sorted(arrivals[session])
            ]

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
        """O(arrivals), not O(sessions x arrivals): 249 sessions' worth of
        arrivals are each read once."""

        class CountingArrivals(list):
            visited = 0

            def __iter__(self):
                for arrival in list.__iter__(self):
                    CountingArrivals.visited += 1
                    yield arrival

        timeline = SessionTimeline(summary_sessions=8)
        for session in range(249):
            for index in range(3):
                _healthy_block(
                    timeline, f"S{session:03d}", index, session + 0.2 * index
                )
        for session, landed in timeline._arrivals.items():
            timeline._arrivals[session] = CountingArrivals(landed)
        summary = timeline.summary_dict()
        assert CountingArrivals.visited == 249 * 3
        assert summary["~aggregate"]["sessions"] == 241
        assert summary["~aggregate"]["stages"] == {
            stage: 241 * 3 for stage in HEALTHY
        }
        assert summary["~aggregate"]["conserved"] is True
