"""The recorder seam, seen from the round loop's side (hypothesis).

A fake recorder — a plain list-appending object substituted for the
real :class:`~repro.obs.recorder.ServiceRecorder` — drives
:class:`RoundRobinService` over generated loads and checks what the loop
*reports*, independent of any sink: every stream's block begins and ends
pair up and account for every block, events never run backwards, every
block ends inside its round, every round is begun, served and ended
once, and
the cost a stream's turns fold into
``StreamState.turn_cost`` is exactly what a real run attributes to that
stream in the cost profile (the loop carries no other number for the
profiler: the rest of a profile is read off the drive's own stats).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk import build_drive
from repro.faults import FaultInjector, FaultPlan, RecoveryPolicy
from repro.obs import Observability
from repro.rope.server import BlockFetch
from repro.service.rounds import Admission, RoundRobinService, StreamState

BLOCK_PLAYBACK = 0.2

loads = st.fixed_dictionaries(
    {
        "streams": st.integers(min_value=1, max_value=4),
        "blocks": st.integers(min_value=1, max_value=12),
        "k": st.integers(min_value=1, max_value=4),
        "capacity": st.integers(min_value=1, max_value=6),
        "late": st.lists(st.floats(min_value=0.0, max_value=3.0), max_size=2),
        "seed": st.integers(min_value=0, max_value=2**16),
        "transient": st.integers(min_value=0, max_value=3),
        "defects": st.integers(min_value=0, max_value=2),
        "budget": st.integers(min_value=0, max_value=2),
    }
)


class FakeRecorder:
    """Appends ``(event, args)`` for every report; wants every block."""

    def __init__(self):
        self.events = []

    def __getattr__(self, event):
        def report(*args, **kwargs):
            self.events.append((event, args, kwargs))
            return f"{event}-{len(self.events)}"
        return report

    def stream_opened(self, stream, time):
        self.events.append(("stream_opened", (stream, time), {}))
        stream.report_at = stream.next_fetch

    def block_begin(self, stream, index, time, round_number):
        self.events.append(
            ("block_begin", (stream, index, time, round_number), {})
        )
        stream.report_at = index + 1
        return f"span-{stream.request_id}-{index}"

    def named(self, event):
        return [args for name, args, _kwargs in self.events if name == event]


def _build(spec):
    drive = build_drive()
    streams, slots = [], []
    for i in range(spec["streams"] + len(spec["late"])):
        base = i * spec["blocks"] * 3
        mine = list(range(base, base + spec["blocks"] * 3, 3))
        slots.extend(mine)
        streams.append(StreamState(
            request_id=f"r{i}",
            fetches=[
                BlockFetch(slot, drive.block_bits, BLOCK_PLAYBACK)
                for slot in mine
            ],
            buffer_capacity=spec["capacity"],
        ))
    if 0 < spec["transient"] + spec["defects"] <= len(slots):
        drive.attach_injector(FaultInjector(FaultPlan.random(
            seed=spec["seed"], slots=slots,
            transient=spec["transient"], defects=spec["defects"],
        )))
    initial = streams[:spec["streams"]]
    admissions = [
        Admission(join, stream)
        for join, stream in zip(spec["late"], streams[spec["streams"]:])
    ]
    return drive, initial, admissions


def _service(spec, drive, obs=None):
    return RoundRobinService(
        drive, lambda _round, _active: spec["k"],
        recovery=RecoveryPolicy(retry_budget=spec["budget"]), obs=obs,
    )


@settings(deadline=None, max_examples=60)
@given(spec=loads)
def test_loop_reports_each_fact_once_and_in_order(spec):
    drive, initial, admissions = _build(spec)
    service = _service(spec, drive)
    fake = service._rec = FakeRecorder()
    metrics = service.run(initial, admissions)

    # Per stream: begins == ends == delivered + skipped.
    begins = fake.named("block_begin")
    ends = fake.named("block_end")
    for stream_id, scored in metrics.items():
        mine = [b for b in begins if b[0].request_id == stream_id]
        assert [b[1] for b in mine] == list(range(spec["blocks"]))
        assert len(mine) == len(
            [e for e in ends if e[0].request_id == stream_id]
        ) == scored.blocks_delivered + scored.skips
    # A traced block's end carries the span its begin handed out.
    assert [f"span-{e[0].request_id}-{e[1]}" for e in ends] == [
        e[2] for e in ends
    ]

    # Events never run backwards in simulated time.
    time_of = {
        "stream_opened": 1, "block_begin": 2, "block_end": 3,
        "round_served": 1, "round_end": 0, "run_end": 1,
    }
    times = [
        args[time_of[name]] for name, args, _kw in fake.events
        if name in time_of
    ]
    assert times == sorted(times)

    # Every block end lies inside its round's [start, end].
    pending = []
    for name, args, _kwargs in fake.events:
        if name == "block_end":
            pending.append(args[3])
        elif name == "round_served":
            start, end = args[0], args[1]
            assert all(start <= t <= end for t in pending)
            pending = []
    assert not pending
    opened = fake.named("stream_opened")
    assert len(opened) == len(initial) + len(admissions)
    [(streams, _time, rounds_run)] = fake.named("run_end")
    assert rounds_run == service.rounds_run == len(fake.named("round_end"))
    assert len(streams) == len(opened)

    # Every round is begun, served, then ended: there is one kind.
    assert [name for name, _args, _kw in fake.events if name.startswith("round_")] == [
        "round_begin", "round_served", "round_end"
    ] * service.rounds_run
    assert all(len(args) == 3 for args in fake.named("round_served"))
    assert all(len(args) == 2 for args in fake.named("round_end"))

    # Each stream's (blocks, folded turn cost) is what a real run
    # attributes to it.
    turns = {
        stream.request_id: [len(stream.ready), stream.turn_cost]
        for stream in streams
    }
    drive, initial, admissions = _build(spec)
    obs = Observability.for_profiling(seed=spec["seed"])
    _service(spec, drive, obs).run(initial, admissions)
    per_stream = obs.profiler.summary_dict()["per_stream"]
    assert per_stream["count"] == len(turns)
    for row in per_stream["top"]:
        assert [row["ops"], row["cost_s"]] == turns[row["stream"]]
