"""Differential: the round loop against the executable model of §3.4.

``tests/round_model.py`` states round service plainly and imports
nothing from ``repro``.  Here ``RoundRobinService`` serves the same
generated loads — joins at any modeled time (at the start, mid-round or
inside an idle wait; whole seconds or on the block-duration grid),
buffers of 1–5, per-stream k, k schedules that vary by round and by
load, ``max_rounds`` guards, silence holders and zero-length blocks —
through a stub drive that charges the model's own pure cost of
(previous slot, slot), under two configurations:

* unobserved;
* observed with the stock cluster preset the benchmark runs
  (``Observability.for_scale``, the cluster SLOs and the profiler).

Each must give every stream the model's ``ready`` / ``ends`` /
``clock_start`` columns and no skips, the ``summary()`` line of the
model's own score of those columns, the model's ``rounds_run`` (or its
error), one ``_run_round`` pass per round, and — observed — one
queue-depth observation, one ``service.round`` timer call and one
profiler checkpoint per round, and per-stream profile rows equal to the
model's blocks and turn costs added in turn order, across two epochs
sharing one profiler.

:func:`assert_twins_agree` is the same comparison on a real drive: the
model's ``cost`` reads a twin of the loop's drive (bare, or a cache the
test pre-warms alike), which sees the reads in the model's order, so a
wrong order shows as a wrong duration.  It also takes an ``order``
policy and after-turn work, built once per side.
"""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.router import CLUSTER_SLOS
from repro.disk.factory import build_drive
from repro.errors import ParameterError
from repro.obs import Observability, SloMonitor
from repro.rope.server import FetchColumns
from repro.service.rounds import Admission, RoundRobinService, StreamState
from repro.service.scan_order import scan_order
from repro.sim.metrics import ContinuityMetrics
from tests.round_model import ModelError, Stream, score, serve, turn_cost

#: Read costs as pure functions of (previous slot, slot).  ``hit`` is
#: ``failover_observed``'s shape: every read a zero-cost cache hit.
COSTS = {
    "seek": lambda prev, slot: 0.004 + 1e-5 * abs(slot - (prev or 0)),
    "flat": lambda prev, slot: 0.013,
    "hit": lambda prev, slot: 0.0,
}
#: The loop's ParameterError for each ModelError reason.
ERRORS = {
    "k": "k schedule returned",
    "deadlock": "service deadlocked",
    "max_rounds": "exceeded",
}


class StubDrive:
    """Drive-shaped: a read costs ``cost(previous slot read, slot)``."""

    injector = None

    def __init__(self, cost):
        self.cost, self.head = cost, None

    def read_slot(self, slot, bits=None):
        elapsed = self.cost(self.head, slot)
        self.head = slot
        return elapsed

    def traced_read(self, slot, bits, now, rec, parent):
        return self.read_slot(slot, bits)


def cluster_preset(seed):
    """The stock cluster observability the benchmark's cluster runs use."""
    obs = Observability.for_scale(seed=seed)
    obs.slo = SloMonitor(obs.registry, CLUSTER_SLOS)
    obs.enable_profiler()
    return obs


CONFIGS = {"unobserved": lambda seed: None, "observed": cluster_preset}

blocks = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(0, 3000)),
        st.sampled_from([0.0, 0.02, 0.05, 0.1]),
    ),
    max_size=12,
)
#: A join: none (from the start), whole seconds, or a point of the
#: block-duration grid inside a plan's length, where it lands on another
#: stream's block ends and so inside its idle waits.
joins = st.one_of(
    st.none(), st.integers(0, 12), st.integers(0, 24).map(lambda n: n * 0.05)
)
streams = st.lists(
    st.tuples(
        blocks, st.integers(1, 5), st.one_of(st.none(), st.integers(1, 4)),
        joins,
    ),
    min_size=1, max_size=4,
)
loads = st.fixed_dictionaries({
    "streams": streams,
    "ks": st.lists(st.integers(1, 4), min_size=1, max_size=4),
    "cost": st.sampled_from(sorted(COSTS)),
    "max_rounds": st.one_of(st.just(100_000), st.integers(1, 30)),
})


def model_streams(load):
    return [
        Stream(f"s{i}", [slot for slot, _ in plan],
               [duration for _, duration in plan], capacity, k, joins)
        for i, (plan, capacity, k, joins) in enumerate(load["streams"])
    ]


def k_schedule(load):
    ks = load["ks"]
    return lambda round_number, active: ks[(round_number + active) % len(ks)]


def loop_serve(drive, streams, schedule, max_rounds, obs=None, **policies):
    """Serve model *streams* through the loop on *drive*; returns
    (service, their states, the round numbers it walked, summaries by
    request id or the error message)."""
    states, initial, admissions = [], [], []
    bits = getattr(drive, "block_bits", 1.0)
    for stream in streams:
        state = StreamState(
            stream.request_id,
            FetchColumns(list(stream.slots), [bits] * len(stream.slots),
                         list(stream.durations)),
            stream.capacity, stream.k_override,
        )
        states.append(state)
        if stream.joins is None:
            initial.append(state)
        else:
            admissions.append(Admission(stream.joins, state))
    service = RoundRobinService(drive, schedule, obs=obs, **policies)
    passes = []
    walk = service._run_round
    service._run_round = lambda *args: (passes.append(args[3]), walk(*args))[1]
    try:
        metrics = service.run(initial, admissions, max_rounds=max_rounds)
    except ParameterError as error:
        return service, states, passes, str(error)
    summaries = {rid: m.summary() for rid, m in sorted(metrics.items())}
    return service, states, passes, summaries


def model_serve(streams, schedule, cost, max_rounds, **options):
    """The model's outcome for the same load, or its error."""
    try:
        return serve(streams, schedule, cost, max_rounds, **options)
    except ModelError as error:
        return error


def summary(request_id, verdict):
    """The model's score as a ``ContinuityMetrics.summary()`` line."""
    return ContinuityMetrics(
        request_id, verdict.delivered, verdict.misses, verdict.skips,
        verdict.total_lateness, verdict.max_lateness, verdict.startup,
        verdict.high_water,
    ).summary()


def assert_agree(streams, expected, service, states, result, after=()):
    """The loop's run is the model's: the same error, or the same rounds,
    columns and summary lines (after-turn work's from its own results)."""
    if isinstance(expected, ModelError):
        assert isinstance(result, str), result
        reason = expected.args[0]
        assert ERRORS[reason] in result, (reason, result)
        if reason == "k":
            assert result.endswith(f"for round {expected.args[1]}"), result
        return
    assert isinstance(result, dict), result
    assert service.rounds_run == expected.rounds_run
    lines = {}
    for state, stream in zip(states, streams):
        served = expected.served[state.request_id]
        assert state.ready == served.ready, state.request_id
        assert state.ends == served.ends(stream.durations), state.request_id
        assert state.clock_start == served.clock_start, state.request_id
        assert state.skipped_indices == set(), state.request_id
        lines[state.request_id] = summary(
            state.request_id, score(served, stream.durations)
        )
    for work in after:
        lines.update((rid, m.summary()) for rid, m in work.results().items())
    assert result == dict(sorted(lines.items()))


def assert_matches_model(load, seed=0):
    streams, schedule = model_streams(load), k_schedule(load)
    expected = model_serve(
        streams, schedule, COSTS[load["cost"]], load["max_rounds"]
    )
    passes = {}
    for name, make in CONFIGS.items():
        obs = make(seed)
        service, states, passes[name], result = loop_serve(
            StubDrive(COSTS[load["cost"]]), streams, schedule,
            load["max_rounds"], obs,
        )
        assert_agree(streams, expected, service, states, result)
        if isinstance(expected, ModelError):
            continue
        if name == "observed":
            assert_observed(obs, load, expected)
    if isinstance(expected, ModelError):
        return expected.args[0]
    # One kind of round: each is one ``_run_round`` pass, watched or not.
    assert passes["observed"] == passes["unobserved"] == list(
        range(expected.rounds_run)
    )
    return expected


def model_scan(twin):
    """``scan_order`` over model streams, reading the twin's head."""

    def order(round_number, active, served):
        queue = [
            SimpleNamespace(
                request_id=stream.request_id, stream=stream,
                fetches=SimpleNamespace(slots=stream.slots),
                next_fetch=len(served[stream.request_id].ready),
            )
            for stream in active
        ]
        return [shim.stream for shim in scan_order(twin, queue, round_number)]

    return order


def assert_twins_agree(streams, schedule, drive=build_drive,
                       max_rounds=100_000, scan=False, after=None):
    """The loop on ``drive()`` against the model reading a second
    ``drive()``, in SCAN order if *scan*, with ``after(drive)``'s work
    after the turns; returns the model's outcome (or error)."""
    loop_drive, twin = drive(), drive()
    loop_after = after(loop_drive) if after else ()
    model_after = after(twin) if after else ()
    service, states, _passes, result = loop_serve(
        loop_drive, streams, schedule, max_rounds,
        order=scan_order if scan else None, after_turns=loop_after,
    )
    expected = model_serve(
        streams, schedule, lambda _head, slot: twin.read_slot(slot),
        max_rounds, order=model_scan(twin) if scan else None,
        after=model_after, host=SimpleNamespace(drive=twin, _rec=None),
    )
    assert_agree(streams, expected, service, states, result, model_after)
    return expected


def assert_observed(obs, load, expected):
    rounds = expected.rounds_run
    depth = obs.registry.peek_histogram("service.queue_depth")
    assert depth.count == rounds
    assert depth.total == sum(expected.active_per_round)
    timers = obs.registry.snapshot_dict()["timers"]
    assert timers.get("service.round", {"calls": 0})["calls"] == rounds
    assert obs.profiler._checkpoint_calls == rounds
    # A second epoch on the same profiler folds onto the first's rows.
    loop_serve(StubDrive(COSTS[load["cost"]]), model_streams(load),
               k_schedule(load), load["max_rounds"], obs)
    rows = {
        row["stream"]: (row["ops"], row["cost_s"])
        for row in obs.profiler.summary_dict()["per_stream"]["top"]
    }
    assert rows == {
        request_id: (2 * len(served.ready), turn_cost(served, turn_cost(served)))
        for request_id, served in expected.served.items() if served.turns
    }


@settings(max_examples=150, deadline=None)
@given(load=loads, seed=st.integers(0, 3))
def test_the_loop_serves_what_the_model_states(load, seed):
    assert_matches_model(load, seed)


def serve_in_pieces(drive, streams, schedule, max_rounds):
    """:func:`loop_serve` resumed join by join: each call stops at the
    next join time and the streams joining then are given to the call
    that resumes it.  Returns (service, their states, summaries by request
    id or the error message)."""
    service, states, by_join = RoundRobinService(drive, schedule), [], {}
    for stream in streams:
        states.append(StreamState(
            stream.request_id,
            FetchColumns(list(stream.slots), [1.0] * len(stream.slots),
                         list(stream.durations)),
            stream.capacity, stream.k_override,
        ))
        by_join.setdefault(stream.joins, []).append(states[-1])
    joins = sorted(join for join in by_join if join is not None)
    calls = [([], by_join.get(None, []))] + [
        ([Admission(join, state) for state in by_join[join]], [])
        for join in joins
    ]
    try:
        for (admissions, initial), until in zip(calls, joins + [None]):
            result = service.run(initial, admissions, max_rounds, until=until)
    except ParameterError as error:
        return service, states, str(error)
    return service, states, {
        rid: metrics.summary() for rid, metrics in sorted(result.items())
    }


@settings(max_examples=150, deadline=None)
@given(load=loads)
def test_a_run_resumed_at_each_join_is_the_whole_run(load):
    """The loop stopped at each join, given the joining streams only
    when it resumes, serves the load as one run given all of them up
    front: the same rounds, ``ready`` / ``ends`` columns and metrics, or
    the same error."""
    streams, schedule = model_streams(load), k_schedule(load)
    cost, max_rounds = COSTS[load["cost"]], load["max_rounds"]
    whole, states, _passes, result = loop_serve(
        StubDrive(cost), streams, schedule, max_rounds
    )
    pieces, piece_states, piece_result = serve_in_pieces(
        StubDrive(cost), streams, schedule, max_rounds
    )
    assert piece_result == result
    assert pieces.rounds_run == whole.rounds_run
    for state, piece in zip(states, piece_states):
        assert (piece.ready, piece.ends, piece.clock_start) == (
            state.ready, state.ends, state.clock_start
        ), state.request_id


def test_an_idle_gap_takes_no_round():
    """Two joins far apart, a zero-cost drive: the loop waits out the gap
    at the end of a round, and with nothing active it moves time to the
    next join, so the gap adds no round."""
    load = {
        "streams": [
            ([(slot, 0.1) for slot in range(8)], 2, None, None),
            ([(None, 0.05)] + [(slot, 0.1) for slot in range(8)], 1, 1, 30.0),
        ],
        "ks": [2], "cost": "hit", "max_rounds": 100_000,
    }
    expected = assert_matches_model(load)
    assert expected.rounds_run == 7 + 9   # each round is one turn
    served = expected.served["s1"]
    assert served.ready[0] == 30.0 and served.join == 30.0


def test_a_join_inside_an_idle_wait_is_served_at_its_time():
    """A round's idle wait ends at the next join: a stream joining while
    the only other one sleeps on a full buffer takes its turn at its own
    join time, not when the sleeper wakes."""
    load = {
        "streams": [
            ([(1, 0.1), (2, 0.1), (3, 0.1)], 1, None, None),
            ([(4, 0.1), (5, 0.1)], 1, None, 0.05),
        ],
        "ks": [1], "cost": "hit", "max_rounds": 100_000,
    }
    expected = assert_matches_model(load)
    assert expected.served["s1"].ready[0] == 0.05


def test_a_tight_max_rounds_trips_in_every_configuration():
    load = {
        "streams": [([(slot, 0.1) for slot in range(10)], 1, None, None)],
        "ks": [1], "cost": "hit", "max_rounds": 5,
    }
    assert assert_matches_model(load) == "max_rounds"
