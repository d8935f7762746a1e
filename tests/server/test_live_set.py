"""One live set: ``MediaServer.serve`` decides each request at its arrival.

An open is decided against the sessions live when it arrives, a session
stays live until its last block has played out, and a lifecycle verb is
applied at its own arrival.  A state machine drives one testbed server,
with no cache and with one, through opens, PLAYs, PAUSEs (destructive or
not), RESUMEs and STOPs at nondecreasing arrivals across several
``serve`` calls, and after each call item 1(b)'s one-server invariants
must hold (:func:`assert_the_live_set_holds`):

* every admitted session plays without a miss;
* no session's first block lands before the PLAY that started it;
* an open is refused ``capacity`` only when n_max controller-held
  sessions are live at its arrival, never with fewer;
* leases, pins and the controller's ``active_count`` are released, also
  after a ``serve`` that raised;
* opens = admits + rejects, in the obs counters.

The directed cases pin when the loop runs, when a session leaves its
lease and when a joiner waits for a larger k, what a lifecycle verb does
to a session the loop has already taken, and one defect each of the
two-phase ``serve`` this replaced.  Each reads the streams the server
built (``PlaybackSession.stream``); the loop runs on the requests' own
clock, so its times and the arrivals agree.
"""

import math

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
)

from repro.api import (
    Media,
    OpenSessionRequest,
    PauseRequest,
    PlayRequest,
    RejectReason,
    ResumeRequest,
    SessionState,
    StopRequest,
)
from repro.errors import ParameterError
from repro.obs import Observability
from repro.obs.recorder import ServiceRecorder
from repro.scenarios.server import record_strands
from repro.server import MediaServer, build_media_server
from repro.service import PlaybackSession, RoundRobinService
from tests.server.test_media_server import held_leases

pytestmark = pytest.mark.server

CLIENTS = [f"client-{i}" for i in range(12)]


def serve_watched(server, requests, streams=None):
    """Serve *requests*; returns the result, each session's stream by
    request id (filled into *streams*, also when the serve raises), and
    every ``until`` the round loop was run to."""
    streams = {} if streams is None else streams
    untils = []
    make, run = PlaybackSession.stream, RoundRobinService.run

    def stream(self, request_id, k, fetches):
        streams[request_id] = made = make(self, request_id, k, fetches)
        return made

    def watched(self, *args, until=None, **kwargs):
        untils.append(until)
        return run(self, *args, until=until, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PlaybackSession, "stream", stream)
        patch.setattr(RoundRobinService, "run", watched)
        return server.serve(requests), streams, untils


def opens(ropes, arrivals, picks):
    return [
        OpenSessionRequest(
            client_id=CLIENTS[i], rope_id=ropes[pick % len(ropes)],
            arrival=arrival, media=Media.VIDEO,
        )
        for i, (arrival, pick) in enumerate(zip(arrivals, picks))
    ]


def n_max(server):
    msm = server.mrs.msm
    return msm.admission.capacity(msm.descriptor_for_media(True))


#: A replayed session's label, as the server names its state once a
#: ``serve`` is over ("done": played out during it; "dpaused": paused
#: destructively, holding nothing).
STATE = {
    "open": SessionState.OPEN, "paused": SessionState.PAUSED,
    "dpaused": SessionState.PAUSED, "stopped": SessionState.STOPPED,
    "rejected": SessionState.REJECTED, "completed": SessionState.COMPLETED,
}
#: The labels each verb may find (a STOP takes any known session).
TAKES = {
    PlayRequest: ("open", "done"),
    PauseRequest: ("open", "playing", "done"),
    ResumeRequest: ("paused", "dpaused", "done"),
}


def labels(server):
    """Each session's label and whether it holds a controller slot."""
    out = {}
    for sid, session in server._sessions.items():
        label = {v: k for k, v in STATE.items() if k != "dpaused"}.get(
            session.state, "playing"   # left playing: the check fails on it
        )
        lease = session.lease
        held = lease is not None and session in lease.members
        if label == "paused" and not held:
            label = "dpaused"
        out[sid] = [label, held and not lease.cache_admitted]
    return out


def assert_the_live_set_holds(
    server, requests, streams, carried, refused=(), raised=None
):
    """Item 1(b)'s one-server invariants over one ``serve`` of *requests*
    (nondecreasing arrivals, no batching), which raised *raised* or not,
    and in which the RESUMEs in *refused* (by ``id``) were refused.

    The requests are replayed in order over *carried* (:func:`labels` of
    the sessions before the call), each session leaving when its stream's
    last block has played out, to find the verb that must raise, the
    sessions live at each ``capacity`` refusal and each final state.
    """
    sessions = server._sessions
    state = {sid: list(entry) for sid, entry in carried.items()}
    sid_of = {s.request_id: sid for sid, s in sessions.items() if s.request_id}
    played = {sid_of[rid]: stream for rid, stream in streams.items()}
    resumed = {r.session_id for r in requests if isinstance(r, ResumeRequest)}
    starts = {}   # when each first asked to play in this call

    def full():
        held = [slot for label, slot in state.values()
                if slot and label in ("open", "playing", "paused")]
        return len(held) >= n_max(server)

    must_raise = False
    for request in requests:
        at = request.arrival
        for sid, entry in state.items():
            stream = played.get(sid)
            if entry[0] == "playing" and stream is not None and len(
                stream.ends
            ) == len(stream.fetches.slots) and stream.ends[-1:] <= [at]:
                entry[0] = "done"   # (a RESUME of one read whole: at once)
        if isinstance(request, OpenSessionRequest):
            sid = f"C{len(state) + 1:04d}"
            session = sessions[sid]
            if session.request_id is None:
                assert session.reject is not RejectReason.CAPACITY or full(), (
                    sid, "refused capacity below n_max"
                )
                state[sid] = ["rejected", False]
                continue
            state[sid] = [
                "playing" if request.auto_play else "open",
                not session.lease.cache_admitted or sid in resumed,
            ]
            if request.auto_play:
                starts.setdefault(sid, at)
            continue
        sid, verb = request.session_id, type(request)
        entry = state.get(sid)
        if entry is None or verb in TAKES and entry[0] not in TAKES[verb]:
            must_raise = True   # nothing after it is decided
            break
        if entry[0] == "done" and verb is not StopRequest:
            continue   # played out: answered with its status
        if verb is PauseRequest:
            entry[0] = "dpaused" if request.destructive else "paused"
        elif verb is StopRequest:
            entry[0] = "rejected" if entry[0] == "rejected" else "stopped"
        elif id(request) in refused:
            assert sessions[sid].reject is not RejectReason.CAPACITY or full()
            entry[0] = "rejected"
        else:
            entry[0] = "playing"
            entry[1] = entry[1] or verb is ResumeRequest
            starts.setdefault(sid, at)
    assert (raised is not None) == must_raise, (raised, requests)
    assert sorted(sessions) == sorted(state)   # opens after a raise: none
    for sid, (label, _) in state.items():
        expected = STATE.get(label, SessionState.COMPLETED)   # playing, done
        assert sessions[sid].state is expected, (sid, label)
    for sid, stream in played.items():
        status = sessions[sid].status()
        assert status.misses == 0 and status.skips == 0, status
        assert not stream.ready or stream.ready[0] >= starts[sid], (
            sid, "read before its PLAY"
        )
        if stream.clock_start is not None:   # measured from its own join
            assert 0 <= status.startup_latency <= stream.clock_start - starts[sid]
        if status.state is SessionState.COMPLETED:
            assert len(stream.ready) == len(stream.fetches.slots)
    held_leases(server)
    assert not server._epoch_queue
    assert all(s.state is not SessionState.PLAYING for s in sessions.values())
    # opens = admits + rejects; a RESUME refused counts a reject of its own.
    count = server.obs.registry.counter
    readmissions = sum(s.request_id is not None for s in sessions.values()
                       if s.state is SessionState.REJECTED)
    assert count("server.sessions_opened").value + count(
        "server.sessions_rejected"
    ).value == len(sessions) + readmissions


#: A gap between two arrivals: none (a crowd), whole seconds, or a point
#: of a 0.05-s grid up to 2.5 s, so arrivals spread past a title's length.
gap = st.one_of(
    st.just(0), st.integers(0, 2), st.integers(0, 50).map(lambda n: n * 0.05)
)


def knows(*labels):
    """A rule that needs a session the machine knows in one of *labels*."""
    return precondition(
        lambda machine: any(label in labels for label in machine.known.values())
    )


class OneServer(RuleBasedStateMachine):
    """Item 1(b)'s first slice: one server, its requests generated at
    nondecreasing arrivals and served in several calls, each checked by
    :func:`assert_the_live_set_holds`.  A verb names a session in a state
    that takes it, as far as the machine knows before the call; one of an
    open refused in the same call, or of an unknown session, raises."""

    @initialize(cache_blocks=st.sampled_from([0, 64]))
    def build(self, cache_blocks):
        self.server = build_media_server(
            Observability(), cache_blocks=cache_blocks, batch_window=0.0
        )
        mrs = self.server.mrs
        self.ropes = record_strands(mrs, 2, 1.0, CLIENTS, "t") + record_strands(
            mrs, 1, 2.0, CLIENTS, "long"
        )
        self.clock, self.pending = 0.0, []
        self.known = {}   # session id -> the label a verb will find

    def _add(self, request_type, gap, *args, **kwargs):
        self.clock += gap
        self.pending.append(request_type(*args, arrival=self.clock, **kwargs))

    def _pick(self, data, *labels):
        return data.draw(st.sampled_from(
            sorted(sid for sid, label in self.known.items() if label in labels)
        ))

    @rule(title=st.integers(0, 2), gap=gap, auto_play=st.booleans())
    def open_session(self, title, gap, auto_play):
        count = len(self.server._sessions) + sum(
            isinstance(r, OpenSessionRequest) for r in self.pending
        )
        self._add(
            OpenSessionRequest, gap, CLIENTS[count % len(CLIENTS)],
            self.ropes[title], media=Media.VIDEO, auto_play=auto_play,
        )
        self.known[f"C{count + 1:04d}"] = "playing" if auto_play else "open"

    @knows("open")
    @rule(data=st.data(), gap=gap)
    def play(self, data, gap):
        sid = self._pick(data, "open")
        self._add(PlayRequest, gap, sid)
        self.known[sid] = "playing"

    @knows("open", "playing")
    @rule(data=st.data(), gap=gap, destructive=st.booleans())
    def pause(self, data, gap, destructive):
        sid = self._pick(data, "open", "playing")
        self._add(PauseRequest, gap, sid, destructive=destructive)
        self.known[sid] = "paused"

    @knows("paused")
    @rule(data=st.data(), gap=gap)
    def resume(self, data, gap):
        sid = self._pick(data, "paused")
        self._add(ResumeRequest, gap, sid)
        self.known[sid] = "playing"

    @knows("open", "playing", "paused", "completed", "rejected")
    @rule(data=st.data(), gap=gap)
    def stop(self, data, gap):
        sid = self._pick(data, "open", "playing", "paused", "completed", "rejected")
        self._add(StopRequest, gap, sid)
        self.known[sid] = "stopped"

    @precondition(lambda self: len(self.pending) > 2)
    @rule(gap=gap)
    def play_unknown(self, gap):
        self._add(PlayRequest, gap, "C9999")

    @precondition(lambda self: self.pending)
    @rule()
    def serve(self):
        server, streams, refused, raised = self.server, {}, set(), None
        carried = labels(server)
        resume = MediaServer.resume

        def watched(media_server, request):
            status = resume(media_server, request)
            if status.state is SessionState.REJECTED:
                refused.add(id(request))
            return status

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(MediaServer, "resume", watched)
            try:
                serve_watched(server, self.pending, streams)
            except ParameterError as error:
                raised = error
        assert_the_live_set_holds(
            server, self.pending, streams, carried, refused, raised
        )
        self.pending = []
        self.known = {
            sid: "paused" if label == "dpaused" else label
            for sid, (label, _) in labels(server).items()
        }

    def teardown(self):
        if self.pending:   # what was generated last is served too
            self.serve()


def fuzz_budget(examples):
    """*examples* in tier-1; the ``soak`` profile's own budget when it is
    loaded (``pytest -m fuzz --hypothesis-profile=soak``)."""
    soak = settings.get_profile("soak")
    return soak.max_examples if settings.default is soak else examples


OneServer.TestCase.settings = settings(
    max_examples=fuzz_budget(60), stateful_step_count=25, deadline=None
)
TestOneServer = pytest.mark.fuzz(OneServer.TestCase)


def one_rope_server(seconds=1.0):
    server = build_media_server(cache_blocks=0, batch_window=0.0)
    return server, record_strands(server.mrs, 1, seconds, CLIENTS, "t")[0]


def lone_stream():
    """The stream a 1-s video session plays alone on a fresh server."""
    server, rope = one_rope_server()
    _, streams, _ = serve_watched(server, opens([rope], [0.0], [0]))
    (stream,) = streams.values()
    return stream


def test_the_loop_runs_to_an_open_once_a_session_could_have_played_out():
    """The earliest a session can have played out is its arrival plus its
    plan's playback time: an open arriving exactly then runs the loop to
    it, and one arriving just before does not."""
    length = sum(lone_stream().fetches.durations)
    for arrival, runs in ((length, True), (math.nextafter(length, 0.0), False)):
        server, rope = one_rope_server()
        result, _, untils = serve_watched(
            server, opens([rope], [0.0, arrival], [0, 0])
        )
        assert result.admitted == 2
        assert (arrival in untils) is runs, untils


def test_a_session_leaves_its_lease_once_its_last_block_has_played_out():
    """A second session arriving exactly when the first's last block has
    played out is decided alone (k = 1, as the first ran); arriving just
    before, it is decided beside it (k = 3 for two on the testbed)."""
    end = lone_stream().ends[-1]
    for arrival, k in ((end, 1), (math.nextafter(end, 0.0), 3)):
        server, rope = one_rope_server()
        result, _, _ = serve_watched(
            server, opens([rope], [0.0, arrival], [0, 0])
        )
        assert result.admitted == 2 and result.total_misses == 0
        assert result.k_used == k, arrival
        assert server.mrs.msm.admission.active_count == 0


def test_a_joiner_that_needs_a_larger_k_waits_for_the_running_streams():
    """A 1-s session plays out before a 4-s one arrives, so the loop runs
    the 4-s one alone at k = 1.  A third arriving while it is read needs
    k = 3: it waits until the 4-s session has fetched its last block,
    then the loop restarts at k = 3, and its start-up counts the wait."""
    server, short = one_rope_server()
    (long,) = record_strands(server.mrs, 1, 4.0, CLIENTS, "long")
    requests = opens([short, long], [0.0, 1.5, 2.0], [0, 1, 0])
    result, streams, _ = serve_watched(server, requests)
    assert result.admitted == 3 and result.total_misses == 0
    assert result.k_used == 3
    _, running, joiner = sorted(
        result.statuses, key=lambda status: status.session_id
    )
    fetched = streams[running.request_id].ready[-1]
    assert streams[joiner.request_id].ready[0] >= fetched
    assert joiner.startup_latency >= fetched - 2.0


def serve_two_apart(*verbs):
    """Two 1-s sessions opened 2 s apart on an observed cacheless server,
    then *verbs*: the first has played out when the second arrives, so
    the loop has run to 2.0 and holds both before any verb is applied.
    Returns the server, each session's status and stream by session id,
    how many times each request was closed and how many blocks the serve
    read; no session is left waiting to play."""
    server = build_media_server(Observability(), cache_blocks=0, batch_window=0.0)
    rope = record_strands(server.mrs, 1, 1.0, CLIENTS, "t")[0]
    closed = {}
    close = ServiceRecorder.request_closed
    stats = server.mrs.msm.drive.stats
    before = stats.reads

    def counted(self, request_id, *args, **kwargs):
        closed[request_id] = closed.get(request_id, 0) + 1
        return close(self, request_id, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ServiceRecorder, "request_closed", counted)
        result, streams, _ = serve_watched(
            server, opens([rope], [0.0, 2.0], [0, 0]) + list(verbs)
        )
    statuses = {status.session_id: status for status in result.statuses}
    by_session = {
        sid: streams[status.request_id] for sid, status in statuses.items()
    }
    assert not server._epoch_queue
    return server, statuses, by_session, closed, stats.reads - before


def read(stream):
    return len(stream.ready)


@pytest.mark.parametrize("destructive", [False, True])
def test_a_pause_and_resume_of_a_session_the_loop_reads_plays_it_once(
    destructive,
):
    """The loop is run to the PAUSE and reads no more of C0002 until the
    RESUME gives it back (a destructive one wins its slot back first); it
    is read once, start to end, on the one stream, and plays on."""
    server, statuses, streams, closed, reads = serve_two_apart(
        PauseRequest("C0002", 2.5, destructive=destructive),
        ResumeRequest("C0002", 2.6),
    )
    assert reads == 16
    assert server.mrs.msm.admission.active_count == 0
    stream = streams["C0002"]
    assert read(stream) == len(stream.fetches.slots)
    status = statuses["C0002"]
    assert status.state is SessionState.COMPLETED
    assert status.blocks_delivered == 8 and status.misses == 0
    assert set(closed.values()) == {1}


@pytest.mark.parametrize("destructive", [False, True])
def test_a_resume_holds_playback_for_the_pause(destructive):
    """A lone 1-s session paused at 0.3 and resumed at 1.5 in one serve:
    the block playing at the PAUSE, and every one after it, ends 1.2 s
    later than it would have, so no block is due while it is paused and
    it plays on without a miss."""
    server, rope = one_rope_server()
    alone = lone_stream()
    result, streams, _ = serve_watched(server, opens([rope], [0.0], [0]) + [
        PauseRequest("C0001", 0.3, destructive=destructive),
        ResumeRequest("C0001", 1.5),
    ])
    (status,) = result.statuses
    stream = streams[status.request_id]
    assert status.state is SessionState.COMPLETED
    assert status.misses == 0 and status.blocks_delivered == 8
    played = sum(end <= 0.3 for end in alone.ends)
    assert stream.ends[:played] == alone.ends[:played]
    assert stream.ends[played] == pytest.approx(alone.ends[played] + 1.2)


@pytest.mark.parametrize("verb", [StopRequest, PauseRequest])
def test_a_stop_or_pause_ends_the_reads_of_a_session_at_its_arrival(verb):
    """C0002 joins the loop at 2.0 and a STOP or PAUSE arrives at 2.5.  The
    loop reads it up to then and no further: every block it read landed
    before 2.5, it has blocks left unread and reports what it was
    delivered.  A STOP gives back its slot; a PAUSE holds it."""
    server, statuses, streams, _, reads = serve_two_apart(verb("C0002", 2.5))
    stream, status = streams["C0002"], statuses["C0002"]
    assert 0 < read(stream) < len(stream.fetches.slots)
    assert reads == 8 + read(stream)
    assert stream.ready[-1] < 2.5
    assert status.blocks_delivered == read(stream)
    assert status.state is (
        SessionState.STOPPED if verb is StopRequest else SessionState.PAUSED
    )
    held = server.mrs.msm.admission.active_count
    assert held == (verb is PauseRequest)


@pytest.mark.parametrize("cache_blocks", [0, 64])
def test_a_stream_a_verb_took_off_the_loop_lists_only_what_it_read(
    cache_blocks,
):
    """A lone 1-s title STOPped at 0.3 s was delivered 3 blocks, and its
    sequence is those 3 slots, the first of its plan's 8 (it listed all
    8, with the cache off and on)."""
    server = build_media_server(cache_blocks=cache_blocks, batch_window=0.0)
    rope = record_strands(server.mrs, 1, 1.0, CLIENTS, "t")[0]
    result = server.serve(
        opens([rope], [0.0], [0]) + [StopRequest("C0001", 0.3)]
    )
    (status,) = result.statuses
    plan = lone_stream().fetches.slots
    assert status.state is SessionState.STOPPED
    assert status.blocks_delivered == 3
    assert result.block_sequences["C0001"] == tuple(plan[:3])


@pytest.mark.parametrize("destructive", [False, True])
def test_a_session_paused_in_one_serve_resumes_in_the_next_where_it_stopped(
    destructive,
):
    """Paused at 0.3 s in one serve and RESUMEd in the next, a 1-s title
    reads the rest of its plan, not all of it again (it was read and
    reported whole, 3 + 8 blocks): the two sequences are its plan's 8
    slots, each once, and the second serve reports the 5 it delivered."""
    server, rope = one_rope_server()
    first = server.serve(opens([rope], [0.0], [0]) + [
        PauseRequest("C0001", 0.3, destructive=destructive),
    ])
    second = server.serve([ResumeRequest("C0001", 5.0)])
    (status,) = second.statuses
    plan = tuple(lone_stream().fetches.slots)
    assert first.block_sequences["C0001"] == plan[:3]
    assert second.block_sequences["C0001"] == plan[3:]
    assert status.state is SessionState.COMPLETED
    assert status.blocks_delivered == 5 and status.misses == 0
    assert server.mrs.msm.admission.active_count == 0


def test_a_verb_the_session_cannot_take_still_serves_what_the_loop_holds():
    """A PLAY of a session already playing is refused as ever, but after
    the loop has taken C0002: the loop plays it out before the error
    propagates, so no session is left holding a slot with nothing to
    play it."""
    server, rope = one_rope_server()
    requests = opens([rope], [0.0, 2.0], [0, 0]) + [PlayRequest("C0002", 2.5)]
    with pytest.raises(ParameterError, match="cannot play"):
        server.serve(requests)
    assert server.status("C0002").state is SessionState.COMPLETED
    assert server.status("C0002").blocks_delivered == 8
    assert server.mrs.msm.admission.active_count == 0


def test_a_parked_stream_is_not_read_while_a_later_verb_runs_the_loop():
    """C0002 and C0003 open the title together at 2.0 and are admitted on
    the cache C0001 filled.  A PAUSE of C0002 at 2.3 parks its stream, and
    a STOP of C0003 at 2.6 runs the loop on to 2.6: it reads C0003 past
    2.3 but no more of C0002."""
    server = build_media_server(cache_blocks=64, batch_window=0.25)
    rope = record_strands(server.mrs, 1, 1.0, CLIENTS, "t")[0]
    requests = opens([rope], [0.0, 2.0, 2.0], [0, 0, 0]) + [
        PauseRequest("C0002", 2.3), StopRequest("C0003", 2.6),
    ]
    result, streams, untils = serve_watched(server, requests)
    assert untils == [2.0, 2.3, 2.6, None]
    _, paused, stopped = sorted(
        result.statuses, key=lambda status: status.session_id
    )
    assert paused.state is SessionState.PAUSED
    assert stopped.state is SessionState.STOPPED
    assert streams[paused.request_id].ready[-1] < 2.3
    assert 2.3 <= streams[stopped.request_id].ready[-1] < 2.6


def test_a_serve_runs_on_the_clock_of_its_requests():
    """A lone open at 3.0: the loop idles, with no round, to 3.0 and
    reads from there, so its first block lands after the arrival, on the
    stream and on the obs timeline, and the start-up counts from it."""
    server = build_media_server(Observability(), cache_blocks=0, batch_window=0.0)
    rope = record_strands(server.mrs, 1, 1.0, CLIENTS, "t")[0]
    result, streams, _ = serve_watched(server, opens([rope], [3.0], [0]))
    (status,) = result.statuses
    stream = streams[status.request_id]
    assert stream.ready[0] >= 3.0
    assert server.obs.timeline.read_done_times(status.request_id)[0] >= 3.0
    assert stream.clock_start - status.startup_latency == 3.0


def test_a_session_joins_the_loop_at_the_play_that_starts_it():
    """Opened at 0.0 without ``auto_play`` and played at 2.0 in the same
    serve: the loop reads it from 2.0, and its start-up counts from the
    PLAY."""
    server, rope = one_rope_server()
    requests = [
        OpenSessionRequest(
            client_id=CLIENTS[0], rope_id=rope, media=Media.VIDEO,
            auto_play=False,
        ),
        PlayRequest("C0001", 2.0),
    ]
    result, streams, _ = serve_watched(server, requests)
    (status,) = result.statuses
    stream = streams[status.request_id]
    assert status.state is SessionState.COMPLETED and status.misses == 0
    assert stream.ready[0] >= 2.0
    assert stream.clock_start - status.startup_latency == 2.0


def test_a_stop_frees_its_slot_for_a_later_open_of_the_same_serve():
    """Three 4-s sessions fill the testbed's n_max = 3 at 0.0; a STOP of
    one at 1.0 frees its slot, so an open at 2.0 is admitted against the
    two still live."""
    server, rope = one_rope_server(seconds=4.0)
    assert n_max(server) == 3
    requests = opens([rope], [0.0, 0.0, 0.0], [0, 0, 0]) + [
        StopRequest("C0001", 1.0),
        *opens([rope], [2.0], [0]),
    ]
    result, streams, _ = serve_watched(server, requests)
    assert not result.rejects and result.admitted == 4
    stopped = result.status_of("C0001")
    assert stopped.state is SessionState.STOPPED
    assert stopped.blocks_delivered == len(streams[stopped.request_id].ready)
    assert result.total_misses == 0
    assert server.mrs.msm.admission.active_count == 0


def test_a_serve_that_raises_before_its_loop_starts_plays_out_what_it_admitted():
    """An open, then a PLAY of an unknown session: the serve raises, but
    only once the admitted session has played out and let its slot go,
    so the next serve has nothing left to play."""
    server, rope = one_rope_server()
    requests = opens([rope], [0.0], [0]) + [PlayRequest("C9999", 0.0)]
    with pytest.raises(ParameterError, match="unknown session"):
        server.serve(requests)
    status = server.status("C0001")
    assert status.state is SessionState.COMPLETED
    assert status.blocks_delivered == 8
    assert held_leases(server) == [] and not server._epoch_queue
    later = server.serve([])
    assert later.statuses == () and later.rounds == 0
