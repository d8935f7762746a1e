"""One live set: ``MediaServer.serve`` decides each open at its arrival.

An open is decided against the sessions live when it arrives, and a
session stays live until its last block has played out.  Generated loads
spread 1-s sessions over several title lengths on a testbed server, with
no cache and with one, and item 1(b)'s time invariants must hold:

* every admitted session plays without a miss;
* no session's first block lands before its arrival;
* an open is refused ``capacity`` only when n_max controller-held
  sessions are live at its arrival, never with fewer.

The directed cases pin when the loop runs, when a session leaves its
lease and when a joiner waits for a larger k, and what a lifecycle verb
does to a session the loop has already taken.  Each reads the streams
the server built (``PlaybackSession.stream``); the loop's clock starts
at the first arrival, 0.0 here, so its times and the arrivals agree.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.server import build_media_server
from repro.service import PlaybackSession, RoundRobinService

pytestmark = pytest.mark.server

CLIENTS = [f"client-{i}" for i in range(12)]


def serve_watched(server, requests):
    """Serve *requests*; returns the result, each session's stream by
    request id, and every ``until`` the round loop was run to."""
    streams, untils = {}, []
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


def assert_the_live_set_holds(server, requests, result, streams):
    """Item 1(b)'s three time invariants over one ``serve``."""
    # Session ids are handed out in decision order: arrival, then
    # submission order (no batching here).
    decided = sorted(range(len(requests)), key=lambda i: requests[i].arrival)
    statuses = sorted(result.statuses, key=lambda status: status.session_id)
    assert len(statuses) == len(requests)
    held = []   # (arrival, play-out end) of each controller-held session
    for index, status in zip(decided, statuses):
        arrival = requests[index].arrival
        if status.state is SessionState.REJECTED:
            assert status.session_id in {r.session_id for r in result.rejects}
            (reject,) = [
                r for r in result.rejects if r.session_id == status.session_id
            ]
            assert reject.reject is RejectReason.CAPACITY
            live = [end for _, end in held if end > arrival]
            assert len(live) == n_max(server), (arrival, held)
            continue
        assert status.state is SessionState.COMPLETED
        assert status.misses == 0 and status.skips == 0
        stream = streams[status.request_id]
        assert stream.ready[0] >= arrival
        assert len(stream.ends) == len(stream.fetches.slots)
        if not status.cache_admitted:
            held.append((arrival, stream.ends[-1]))


#: A gap between two arrivals: none (a crowd), whole seconds, or a point
#: of a 0.05-s grid up to 2.5 s, so arrivals spread past a title's length.
gap = st.one_of(
    st.just(0), st.integers(0, 2), st.integers(0, 50).map(lambda n: n * 0.05)
)


@settings(max_examples=60, deadline=None)
@given(
    cache_blocks=st.sampled_from([0, 64]),
    titles=st.integers(1, 3),
    gaps=st.lists(gap, min_size=1, max_size=len(CLIENTS)),
    picks=st.lists(st.integers(0, 2), min_size=len(CLIENTS),
                   max_size=len(CLIENTS)),
)
def test_generated_arrivals_keep_the_time_invariants(
    cache_blocks, titles, gaps, picks
):
    server = build_media_server(cache_blocks=cache_blocks, batch_window=0.0)
    ropes = record_strands(server.mrs, titles, 1.0, CLIENTS, "t")
    arrivals = [sum(gaps[1:i + 1]) for i in range(len(gaps))]
    requests = opens(ropes, arrivals, picks)
    result, streams, _ = serve_watched(server, requests)
    assert_the_live_set_holds(server, requests, result, streams)


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


def test_a_verb_to_a_session_played_out_finds_it_completed():
    """The loop released C0001 at 2.0, so a PAUSE at 2.5 finds it played
    out and changes nothing, and C0002 is still served once.  A STOP of
    it stops it as any completed session: STOPPED, closed once."""
    server, statuses, streams, closed, reads = serve_two_apart(
        PauseRequest("C0001", 2.5)
    )
    assert reads == 16
    assert server.mrs.msm.admission.active_count == 0
    for sid in ("C0001", "C0002"):
        assert statuses[sid].state is SessionState.COMPLETED
        assert statuses[sid].blocks_delivered == read(streams[sid]) == 8
    assert set(closed.values()) == {1}
    server, statuses, streams, closed, reads = serve_two_apart(
        StopRequest("C0001", 2.5)
    )
    assert reads == 16
    assert server.mrs.msm.admission.active_count == 0
    assert statuses["C0001"].state is SessionState.STOPPED
    assert statuses["C0002"].state is SessionState.COMPLETED
    assert [read(streams[sid]) for sid in ("C0001", "C0002")] == [8, 8]
    assert set(closed.values()) == {1}


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
