"""The timeline tally against the per-block event store it replaced.

Before the timeline became a tally, the service recorder appended one
event per lifecycle stage of every sampled block as the loop served it
(``enqueued`` and ``read-start`` when the read began, ``read-done`` and
``skipped`` when it ended) and ``consumed`` in the run-end walk, and
``summary_dict`` grouped those events by session.  That store lives on
here, in :class:`EventTimeline`, fed one event per stage from the loop's
columns; the tally the recorder now builds in its run-end walk must
summarise to the same bytes on generated :class:`RoundRobinService`
runs — faulted, with silence slots, with a clock that never started, on
sampled lattices, and with two runs under one session id.  The
full-fidelity ``service.block`` spans, opened and closed live, are a
second witness for the read-done times and skips.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk import build_drive
from repro.faults import FaultInjector, FaultPlan, RecoveryPolicy
from repro.obs import BlockStage, Observability, SessionTimeline
from repro.rope.server import BlockFetch
from repro.service.rounds import RoundRobinService, StreamState

BLOCK_PLAYBACK = 0.2


class EventTimeline:
    """The old event store: one ``(time, session, block, stage)`` event
    per recorded stage, gated by ``keep_first`` / ``every_kth``."""

    def __init__(self, keep_first=None, every_kth=None, summary_sessions=None):
        self.keep_first = keep_first
        self.every_kth = every_kth
        self.summary_sessions = summary_sessions
        self.events = []

    def record(self, time, session_id, block_index, stage):
        keep = self.keep_first
        if keep is not None and block_index >= keep:
            every = self.every_kth
            if every is None or block_index % every:
                return
        self.events.append((time, session_id, block_index, stage))

    def summary_dict(self):
        counts, arrivals = {}, {}
        for time, session_id, block_index, stage in self.events:
            stages = counts.get(session_id)
            if stages is None:
                stages = counts[session_id] = {}
                arrivals[session_id] = []
            stages[stage.value] = stages.get(stage.value, 0) + 1
            if stage is BlockStage.READ_DONE:
                arrivals[session_id].append((block_index, time))
        entries = {}
        for session_id in sorted(counts):
            stages = counts[session_id]
            times = [time for _index, time in sorted(arrivals[session_id])]
            gaps = [b - a for a, b in zip(times, times[1:])]
            entries[session_id] = {
                "stages": stages,
                "interarrival_jitter_s": (
                    max(gaps) - min(gaps) if len(times) >= 3 else 0.0
                ),
                "conserved": stages.get("consumed", 0)
                + stages.get("skipped", 0) == stages.get("enqueued", 0),
            }
        session_ids = list(entries)
        listed = session_ids[:self.summary_sessions]
        summary = {session_id: entries[session_id] for session_id in listed}
        rest = [entries[session_id] for session_id in session_ids[len(listed):]]
        if rest:
            stages = {}
            for entry in rest:
                for key, count in entry["stages"].items():
                    stages[key] = stages.get(key, 0) + count
            summary["~aggregate"] = {
                "sessions": len(rest),
                "stages": stages,
                "interarrival_jitter_s": max(
                    entry["interarrival_jitter_s"] for entry in rest
                ),
                "conserved": all(entry["conserved"] for entry in rest),
            }
        return summary


def feed(reference, stream):
    """One event per stage of every block *stream* landed: read-done at
    ``ready[i]``; skipped, or consumed at ``ends[i]`` once the clock ran.
    (The enqueue and read-start times are not columns, and no summary
    reads them.)"""
    slots = stream.fetches.slots
    for index, landed in enumerate(stream.ready):
        session = stream.request_id
        reference.record(landed, session, index, BlockStage.ENQUEUED)
        if slots[index] is not None:
            reference.record(landed, session, index, BlockStage.READ_START)
        reference.record(landed, session, index, BlockStage.READ_DONE)
        if index in stream.skipped_indices:
            reference.record(landed, session, index, BlockStage.SKIPPED)
        elif stream.clock_start is not None:
            reference.record(
                stream.ends[index], session, index, BlockStage.CONSUMED
            )


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
    ``spec["twice"]``); returns the reference fed every run's streams."""
    timeline = obs.timeline
    reference = EventTimeline(
        timeline.keep_first, timeline.every_kth, timeline.summary_sessions
    )
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
            feed(reference, stream)
    return reference


def _bytes(summary):
    """A summary as the snapshot writes it.  Sorted keys: the order stages
    were first seen in is no part of the contract (``obs.report()`` sorts
    them too)."""
    return json.dumps(summary, sort_keys=True, indent=2)


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
    reference = run_both(spec, obs)
    assert _bytes(obs.timeline.summary_dict()) == _bytes(reference.summary_dict())
    # The live witness: every block's span closed when it landed.
    sampled = {
        (session, index)
        for _time, session, index, _stage in reference.events
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
    reference = run_both(spec, obs)
    summary = obs.timeline.summary_dict()
    assert _bytes(summary) == _bytes(reference.summary_dict())
    assert summary["r1"]["stages"]["enqueued"] == 2 * 10
    assert "consumed" not in summary["r0"]["stages"]
