"""The timeline tally against its statement from the loop's columns.

Each sampled block of a run (under the timeline's ``keep_first`` /
``every_kth`` lattice: every block below the first, then every k-th)
counts once in each stage it reached: ``enqueued``; ``read-start`` if it
has a slot; ``read-done``, at ``ready[i]``; then ``skipped`` if recovery
gave up on it, else ``consumed`` once the clock started.  A session with
no sampled block is not listed, and two runs under one session id add
up.  :func:`tally` states that from the columns; the tally the recorder
builds in its run-end walk must hold the same stage counts, sessions and
read-done times on generated :class:`RoundRobinService` runs — faulted,
with silence slots, with a clock that never started, on sampled
lattices, and with two runs under one session id.  The full-fidelity
``service.block`` spans, opened and closed live, are a second witness
for the read-done times and skips.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk import build_drive
from repro.faults import FaultInjector, FaultPlan, RecoveryPolicy
from repro.obs import Observability, SessionTimeline
from repro.rope.server import BlockFetch
from repro.service.rounds import RoundRobinService, StreamState

BLOCK_PLAYBACK = 0.2


def tally(expected, stream, keep, every):
    """Add *stream*'s sampled blocks to *expected*: session id →
    (stage counts, ``(block, read-done time)`` arrivals)."""
    picked = [
        index for index in range(len(stream.ready))
        if keep is None or index < keep or every and index % every == 0
    ]
    skipped = sum(index in stream.skipped_indices for index in picked)
    stages, arrivals = expected.setdefault(stream.request_id, ({}, []))
    for stage, count in (
        ("enqueued", len(picked)),
        ("read-start", sum(stream.fetches.slots[i] is not None for i in picked)),
        ("read-done", len(picked)), ("skipped", skipped),
        ("consumed", 0 if stream.clock_start is None else len(picked) - skipped),
    ):
        if count:
            stages[stage] = stages.get(stage, 0) + count
    arrivals += [(index, stream.ready[index]) for index in picked]


def _streams(spec, drive):
    streams, slots = [], []
    for i in range(spec["streams"]):
        base = i * spec["blocks"] * 3
        fetches = []
        for index, slot in enumerate(range(base, base + spec["blocks"] * 3, 3)):
            if index in spec["silence"]:
                fetches.append(BlockFetch(None, 0.0, BLOCK_PLAYBACK))
            else:
                slots.append(slot)
                fetches.append(BlockFetch(slot, drive.block_bits, BLOCK_PLAYBACK))
        streams.append(StreamState(
            request_id=f"r{i}", fetches=fetches,
            buffer_capacity=spec["capacity"],
        ))
    return streams, slots


def run_both(spec, obs):
    """Serve *spec* under *obs* (twice, under the same session ids, when
    ``spec["twice"]``); returns the tally stated from every run's columns."""
    timeline, expected = obs.timeline, {}
    for _run in range(2 if spec["twice"] else 1):
        drive = build_drive()
        streams, slots = _streams(spec, drive)
        faults = spec["transient"] + spec["defects"]
        if 0 < faults <= len(slots):
            drive.attach_injector(FaultInjector(FaultPlan.random(
                seed=spec["seed"], slots=slots,
                transient=spec["transient"], defects=spec["defects"],
            )))
        service = RoundRobinService(
            drive, lambda _round, _active: spec["k"],
            recovery=RecoveryPolicy(retry_budget=spec["budget"]), obs=obs,
        )
        if spec["unstarted"]:
            # The run-end walk meets a stream whose clock never started.
            rec, run_end = service._rec, service._rec.run_end

            def unstart(streams, time, rounds_run, run_end=run_end):
                streams[0].clock_start = None
                run_end(streams, time, rounds_run)

            rec.run_end = unstart
        service.run(streams)
        for stream in streams:
            tally(expected, stream, timeline.keep_first, timeline.every_kth)
    return {session: got for session, got in expected.items() if got[0]}


def assert_tallied(timeline, expected):
    assert timeline.sessions() == sorted(expected)
    for session, (stages, arrivals) in expected.items():
        assert timeline.stage_counts(session) == stages, session
        assert timeline.read_done_times(session) == [
            time for _index, time in sorted(arrivals)
        ], session


specs = st.fixed_dictionaries(
    {
        "streams": st.integers(min_value=1, max_value=3),
        "blocks": st.integers(min_value=1, max_value=12),
        "k": st.integers(min_value=1, max_value=4),
        "capacity": st.integers(min_value=1, max_value=5),
        "silence": st.sets(st.integers(min_value=0, max_value=11), max_size=4),
        "seed": st.integers(min_value=0, max_value=2**16),
        "transient": st.integers(min_value=0, max_value=3),
        "defects": st.integers(min_value=0, max_value=2),
        "budget": st.integers(min_value=0, max_value=2),
        "twice": st.booleans(),
        "unstarted": st.booleans(),
    }
)
lattices = st.sampled_from(
    [(None, None), (2, 3), (0, 2), (3, None), (0, None), (8, 64)]
)


@settings(deadline=None, max_examples=80)
@given(spec=specs, lattice=lattices, cap=st.sampled_from([None, 1, 2]))
def test_tally_summarises_as_the_event_store_did(spec, lattice, cap):
    obs = Observability()
    obs.timeline = SessionTimeline(
        keep_first=lattice[0], every_kth=lattice[1], summary_sessions=cap
    )
    expected = run_both(spec, obs)
    assert_tallied(obs.timeline, expected)
    # The live witness: every block's span closed when it landed.
    sampled = {
        (session, index)
        for session, (_stages, arrivals) in expected.items()
        for index, _time in arrivals
    }
    spans = {}
    for span in obs.tracer.spans(name="service.block"):
        if (span.session, span.attrs["block"]) in sampled:
            spans.setdefault(span.session, []).append(
                (span.attrs["block"], span.end, span.status)
            )
    assert sorted(spans) == obs.timeline.sessions()
    for session, ended in spans.items():
        assert obs.timeline.read_done_times(session) == [
            end for _index, end, _status in sorted(ended)
        ]
        stages = obs.timeline.stage_counts(session)
        assert stages["enqueued"] == len(ended)
        assert stages.get("skipped", 0) == sum(
            status == "skipped" for _index, _end, status in ended
        )


def test_for_scale_lattice_past_the_prefix():
    """``for_scale``'s timeline (first 8, then every 64th) on streams long
    enough to reach blocks 64 and 128, faulted and with silence."""
    spec = {
        "streams": 3, "blocks": 140, "k": 3, "capacity": 4,
        "silence": {5, 64, 100}, "seed": 7, "transient": 4, "defects": 3,
        "budget": 1, "twice": True, "unstarted": True,
    }
    obs = Observability.for_scale()
    assert_tallied(obs.timeline, run_both(spec, obs))
    summary = obs.timeline.summary_dict()
    assert summary["r1"]["stages"]["enqueued"] == 2 * 10
    assert "consumed" not in summary["r0"]["stages"]
