"""Counted idle rounds against the walked reference: the round model.

``RoundRobinService`` counts a round in which every buffer is full
without visiting its streams, from the earliest wake the round before
handed back.  ``tests/round_model.py`` walks every round, asking every
stream for its room.  On generated loads — silence holders, zero-length
blocks, buffers of 1–6, per-stream k and joins up to round 12, on the
bare drive and through a pre-warmed cache — under k schedules that vary
by round, a bad k on a round the fast loop counts, and a ``max_rounds``
guard at and around the round where it trips, both must agree on
``rounds_run``, every stream's columns, every ``summary()`` line and any
error.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk.factory import build_drive
from tests.perf.test_equivalence import _cached, _plans, _uniform
from tests.round_model import ModelError
from tests.service.test_round_model import assert_twins_agree, loop_serve

pytestmark = pytest.mark.perf

BAD_KS = [0, 2.5, None]


def counted_rounds(streams, k_schedule):
    """The round numbers the fast loop counts without a pass: those its k
    schedule is asked for but ``_run_round`` never sees."""
    asked = []
    walked = loop_serve(
        build_drive(), streams,
        lambda r, n: (asked.append(r), k_schedule(r, n))[1], 100_000,
    )[2]
    return sorted(set(asked) - set(walked))


def _schedules(data):
    """A k schedule varying with the round and the active count."""
    ks = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=6), label="ks")
    return lambda r, n: ks[(r + n) % len(ks)]


class TestCountedRoundsMatchTheWalkedLoop:
    @settings(deadline=None, max_examples=80)
    @given(data=st.data())
    def test_generated_loads(self, data):
        assert_twins_agree(_plans(data), _schedules(data))

    @settings(deadline=None, max_examples=40)
    @given(data=st.data())
    def test_generated_loads_through_a_cache(self, data):
        capacity = data.draw(st.integers(1, 8), label="cache blocks")
        warm = data.draw(st.lists(st.integers(0, 15), max_size=8), label="pre-warmed")
        plans = _plans(data, slots=st.integers(0, 15))
        assert_twins_agree(plans, _schedules(data), drive=_cached(capacity, warm))

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_a_bad_k_on_a_counted_round(self, data):
        """The schedule is still asked, and its answer still checked, in
        a round the fast loop does not walk."""
        streams, k_schedule = _plans(data), _schedules(data)
        counted = counted_rounds(streams, k_schedule)
        if not counted:
            return
        bad_round = data.draw(st.sampled_from(counted), label="bad round")
        bad = data.draw(st.sampled_from(BAD_KS), label="bad k")
        error = assert_twins_agree(
            streams, lambda r, n: bad if r == bad_round else k_schedule(r, n)
        )
        assert isinstance(error, ModelError) and error.args == ("k", bad_round)

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_the_round_guard_at_and_around_its_trip(self, data):
        streams, k_schedule = _plans(data), _schedules(data)
        rounds = assert_twins_agree(streams, k_schedule).rounds_run
        near = [r for r in (rounds - 2, rounds - 1, rounds, rounds + 1) if r >= 1]
        anywhere = data.draw(st.integers(1, max(rounds, 1)), label="anywhere")
        for max_rounds in near + [anywhere]:
            outcome = assert_twins_agree(streams, k_schedule, max_rounds=max_rounds)
            assert isinstance(outcome, ModelError) == (max_rounds < rounds)

    def test_uniform_buffers_fold_their_idle_rounds(self):
        """0.2-s blocks outlast a read, so buffers fill and idle rounds
        follow served ones: the fast loop counts them."""
        streams, k_schedule = _uniform(3, 40, 3, 0.2), lambda _r, _n: 2
        counted = counted_rounds(streams, k_schedule)
        rounds = assert_twins_agree(streams, k_schedule).rounds_run
        assert 0 < len(counted) < rounds
        for bad_round in counted[:3]:
            assert_twins_agree(
                streams, lambda r, n: 0 if r == bad_round else k_schedule(r, n)
            )
        for max_rounds in (counted[0], counted[0] + 1):
            assert_twins_agree(streams, k_schedule, max_rounds=max_rounds)
