"""Differential: the loop that counts idle rounds against the walked loop.

``RoundRobinService`` counts a round in which every buffer is full
without visiting its streams, from the earliest wake the round before
handed back.  ``tests/reference.py::WalkedRoundRobinService`` is the loop
it replaced: every round visits every stream, and an idle round asks
every active stream for its wake.  On generated loads — silence holders,
zero-length blocks, buffers of 1–6, per-stream k and joins up to round
12, on the bare drive and through a pre-warmed cache — under k schedules
that vary by round, a bad k on a round the fast loop counts, and a
``max_rounds`` guard at and around the round where it trips, both must
agree on ``rounds_run``, every stream's columns, every ``summary()``
line and any error's type and message.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk import BlockCache, CachedDrive
from repro.disk.factory import build_drive
from repro.errors import ParameterError
from repro.service.rounds import RoundRobinService
from tests.perf.test_equivalence import _load_of, _plans, _uniform_load
from tests.reference import WalkedRoundRobinService

pytestmark = pytest.mark.perf

BAD_KS = [0, 2.5, None]


def _outcome(service_cls, load, k_schedule, drive, **run):
    """Everything the two loops must agree on, serving *load* on a fresh
    *drive()*: rounds, error, summaries and each stream's columns."""
    drive = drive()
    initial, admissions = load(drive)
    service = service_cls(drive, k_schedule)
    summaries, error = None, None
    try:
        metrics = service.run(initial, admissions, **run)
        summaries = {rid: m.summary() for rid, m in sorted(metrics.items())}
    except ParameterError as raised:
        error = (type(raised), str(raised))
    streams = initial + [admission.stream for admission in admissions]
    return (
        service.rounds_run, error, summaries,
        [(s.ready, s.ends, s.clock_start, s.skipped_indices) for s in streams],
    )


def assert_agree(load, k_schedule, drive=build_drive, **run):
    fast = _outcome(RoundRobinService, load, k_schedule, drive, **run)
    walked = _outcome(WalkedRoundRobinService, load, k_schedule, drive, **run)
    assert fast == walked
    return fast


def counted_rounds(load, k_schedule, drive=build_drive):
    """The round numbers the fast loop counts without a pass: those its k
    schedule is asked for but ``_run_round`` never sees."""
    asked, walked = [], []
    service = RoundRobinService(
        drive(), lambda r, n: (asked.append(r), k_schedule(r, n))[1]
    )
    inner = service._run_round
    service._run_round = lambda time, active, k, r: (
        walked.append(r), inner(time, active, k, r)
    )[1]
    service.run(*load(service.drive))
    return sorted(set(asked) - set(walked))


def _schedules(data):
    """A k schedule varying with the round and the active count."""
    ks = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=6), label="ks")
    return lambda r, n: ks[(r + n) % len(ks)]


def _cached_drive(data):
    capacity = data.draw(st.integers(1, 8), label="cache blocks")
    warm = data.draw(st.lists(st.integers(0, 15), max_size=8), label="pre-warmed")

    def drive():
        cached = CachedDrive(build_drive(), BlockCache(capacity))
        for slot in warm:
            cached.read_slot(slot)
        return cached

    return drive


class TestCountedRoundsMatchTheWalkedLoop:
    @settings(deadline=None, max_examples=80)
    @given(data=st.data())
    def test_generated_loads(self, data):
        assert_agree(_load_of(_plans(data)), _schedules(data))

    @settings(deadline=None, max_examples=40)
    @given(data=st.data())
    def test_generated_loads_through_a_cache(self, data):
        drive = _cached_drive(data)
        plans = _plans(data, slots=st.integers(0, 15))
        assert_agree(_load_of(plans), _schedules(data), drive=drive)

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_a_bad_k_on_a_counted_round(self, data):
        """The schedule is still asked, and its answer still checked, in
        a round the fast loop does not walk."""
        load, k_schedule = _load_of(_plans(data)), _schedules(data)
        counted = counted_rounds(load, k_schedule)
        if not counted:
            return
        bad_round = data.draw(st.sampled_from(counted), label="bad round")
        bad = data.draw(st.sampled_from(BAD_KS), label="bad k")
        _rounds, error, _summaries, _streams = assert_agree(
            load, lambda r, n: bad if r == bad_round else k_schedule(r, n)
        )
        assert error[1] == f"k schedule returned {bad!r} for round {bad_round}"

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_the_round_guard_at_and_around_its_trip(self, data):
        load, k_schedule = _load_of(_plans(data)), _schedules(data)
        rounds = assert_agree(load, k_schedule)[0]
        near = [r for r in (rounds - 2, rounds - 1, rounds, rounds + 1) if r >= 1]
        anywhere = data.draw(st.integers(1, max(rounds, 1)), label="anywhere")
        for max_rounds in near + [anywhere]:
            tripped = assert_agree(load, k_schedule, max_rounds=max_rounds)[1]
            assert (tripped is not None) == (max_rounds < rounds)

    def test_uniform_buffers_fold_their_idle_rounds(self):
        """0.2-s blocks outlast a read, so buffers fill and idle rounds
        follow served ones: the fast loop counts them."""
        load, k_schedule = _uniform_load(3, 40, 3, 0.2), lambda _r, _n: 2
        counted = counted_rounds(load, k_schedule)
        rounds = assert_agree(load, k_schedule)[0]
        assert 0 < len(counted) < rounds
        for bad_round in counted[:3]:
            assert_agree(
                load, lambda r, n: 0 if r == bad_round else k_schedule(r, n)
            )
        for max_rounds in (counted[0], counted[0] + 1):
            assert_agree(load, k_schedule, max_rounds=max_rounds)
