"""End-to-end tests for the MediaServer front end."""

import itertools

import pytest

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
from repro.scenarios import get
from repro.scenarios.server import record_strands
from repro.server import build_media_server

pytestmark = pytest.mark.server

CLIENTS = [f"client-{i}" for i in range(8)] + ["warmer"]


@pytest.fixture
def server():
    return build_media_server()


def _rope(server, seconds=1.0, clients=CLIENTS):
    return record_strands(server.mrs, 1, seconds, clients, "t")[0]


def held_leases(server):
    """The leases some session still plays on — after asserting that the
    controller's slots and the cache's pins are exactly theirs: the
    per-step invariant of ROADMAP item 1(b), checked after every verb."""
    held = {
        id(session.lease): session.lease
        for session in server._sessions.values()
        if session.lease is not None and session.lease.members
    }.values()
    slots = [lease for lease in held if not lease.cache_admitted]
    pinned = set().union(
        *(lease.pinned for lease in held if lease.cache_admitted)
    )
    assert server.mrs.msm.admission.active_count == len(slots)
    if server.cache is not None:
        assert server.cache.pinned_count == len(pinned)
    return list(held)


def _open(rope_id, client="client-0", **overrides):
    defaults = dict(
        client_id=client, rope_id=rope_id, media=Media.VIDEO,
    )
    defaults.update(overrides)
    return OpenSessionRequest(**defaults)


class TestLifecycle:
    def test_open_play_complete(self, server):
        rope_id = _rope(server)
        response = server.open(_open(rope_id, auto_play=False))
        assert response.accepted
        assert server.status(response.session_id).state is SessionState.OPEN
        server.play(PlayRequest(session_id=response.session_id))
        result = server.serve([])
        status = result.status_of(response.session_id)
        assert status.state is SessionState.COMPLETED
        assert status.continuous
        assert status.blocks_delivered > 0

    def test_auto_play_schedules_immediately(self, server):
        rope_id = _rope(server)
        response = server.open(_open(rope_id))
        assert (
            server.status(response.session_id).state is SessionState.PLAYING
        )

    def test_pause_resume_roundtrip(self, server):
        rope_id = _rope(server)
        sid = server.open(_open(rope_id)).session_id
        assert server.pause(
            PauseRequest(session_id=sid)
        ).state is SessionState.PAUSED
        assert server.resume(
            ResumeRequest(session_id=sid)
        ).state is SessionState.PLAYING
        result = server.serve([])
        assert result.status_of(sid).state is SessionState.COMPLETED

    def test_destructive_pause_releases_and_readmits(self, server):
        rope_id = _rope(server)
        sid = server.open(_open(rope_id)).session_id
        controller = server.mrs.msm.admission
        assert controller.active_count == 1
        server.pause(PauseRequest(session_id=sid, destructive=True))
        assert controller.active_count == 0
        server.resume(ResumeRequest(session_id=sid))
        assert controller.active_count == 1
        result = server.serve([])
        assert result.status_of(sid).state is SessionState.COMPLETED
        assert controller.active_count == 0

    def test_stop_releases_resources(self, server):
        rope_id = _rope(server)
        sid = server.open(_open(rope_id)).session_id
        status = server.stop(StopRequest(session_id=sid))
        assert status.state is SessionState.STOPPED
        assert server.mrs.msm.admission.active_count == 0
        # Stopped sessions are not serviced.
        assert server.serve([]).statuses == ()

    def test_verbs_guard_states(self, server):
        rope_id = _rope(server)
        sid = server.open(_open(rope_id)).session_id
        with pytest.raises(ParameterError):
            server.play(PlayRequest(session_id=sid))  # already PLAYING
        with pytest.raises(ParameterError):
            server.resume(ResumeRequest(session_id=sid))
        with pytest.raises(ParameterError):
            server.status("C9999")


class TestTypedRejects:
    def test_unknown_rope(self, server):
        response = server.open(_open("R9999"))
        assert not response.accepted
        assert response.reject is RejectReason.UNKNOWN_ROPE

    def test_access_denied(self, server):
        rope_id = _rope(server)
        response = server.open(_open(rope_id, client="stranger"))
        assert response.reject is RejectReason.ACCESS_DENIED

    def test_empty_interval(self, server):
        rope_id = _rope(server)
        response = server.open(_open(rope_id, length=-1.0))
        assert response.reject is RejectReason.EMPTY_INTERVAL

    @pytest.mark.parametrize("cache_blocks", [0, 256])
    def test_interval_past_the_rope_end_is_typed_not_raised(self, cache_blocks):
        """No plan precedes a cacheless admission, so the interval is
        checked when the request opens — not by a plan failing in serve."""
        server = build_media_server(cache_blocks=cache_blocks)
        rope_id = _rope(server, seconds=2.0)
        response = server.open(_open(rope_id, start=0.5, length=50.0))
        assert response.reject is RejectReason.EMPTY_INTERVAL
        assert server.serve([]).admitted == 0

    def test_capacity_overload_is_typed_not_raised(self, server):
        """Solo opens beyond n_max come back CAPACITY, no exception."""
        rope_id = _rope(server, seconds=2.0)
        responses = [
            server.open(_open(rope_id, client=f"client-{i}", start=0.0))
            for i in range(8)
        ]
        # Identical intervals, but open() never batches: each open holds
        # its own slot, so the controller fills up and refuses the rest.
        accepted = [r for r in responses if r.accepted]
        rejected = [r for r in responses if not r.accepted]
        assert accepted and rejected
        assert all(
            r.reject in (RejectReason.CAPACITY, RejectReason.K_BOUND)
            for r in rejected
        )

    def test_reject_reason_follows_the_typed_cause_not_the_message(
        self, server, monkeypatch
    ):
        """A reworded controller message must not turn an Eq.-18 refusal
        into CAPACITY: the reason comes from ``AdmissionRejected.cause``."""
        from repro.errors import AdmissionRejected

        rope_id = _rope(server)
        held = server.open(_open(rope_id, auto_play=False))
        server.pause(PauseRequest(held.session_id, destructive=True))

        def refuse(_descriptor):
            raise AdmissionRejected("k too large, reworded", cause="k_bound")

        monkeypatch.setattr(server.mrs.msm.admission, "admit", refuse)
        assert server.open(_open(rope_id)).reject is RejectReason.K_BOUND
        refused = server.serve([ResumeRequest(held.session_id)]).rejects
        assert [r.reject for r in refused] == [RejectReason.K_BOUND]

    def test_controller_raise_sites_set_the_cause(self, server):
        from repro.errors import AdmissionRejected

        controller = server.mrs.msm.admission
        descriptor = server.mrs.msm.descriptor_for_media(True)
        controller.max_k = 1
        with pytest.raises(AdmissionRejected) as k_bound:
            for _ in range(8):
                controller.admit(descriptor)
        assert k_bound.value.cause == "k_bound"
        controller.max_k = 10_000
        with pytest.raises(AdmissionRejected) as capacity:
            for _ in range(8):
                controller.admit(descriptor)
        assert capacity.value.cause == "capacity"

    def test_requeue_budget_exhaustion_is_queue_full(self):
        obs = Observability()
        server = build_media_server(obs=obs, requeue_limit=2)
        rope_id = _rope(server, seconds=2.0)
        requests = [
            _open(rope_id, client=f"client-{i}", start=0.1 * i)
            for i in range(8)
        ]
        # Distinct intervals: no batching, so the tail exceeds capacity,
        # gets re-queued twice, then is refused as QUEUE_FULL.
        result = server.serve(requests)
        assert result.rejects
        assert all(
            r.reject is RejectReason.QUEUE_FULL for r in result.rejects
        )
        assert all(r.requeues == 2 for r in result.rejects)


class TestIdleGapBetweenArrivals:
    @pytest.mark.parametrize("gap", [1e5, 1e9])
    def test_serve_spans_an_idle_gap_of_any_length(self, gap):
        """Two sessions admission accepted play to completion however far
        apart they arrive in one ``serve``: the loop does not walk the
        idle rounds between them (it used to, one iteration each, and at
        100,000 of them raised "exceeded 100000 rounds")."""
        server = build_media_server(cache_blocks=0, batch_window=0.0)
        rope_id = _rope(server, seconds=2.0)
        result = server.serve([
            _open(rope_id, client="client-0", arrival=0.0),
            _open(rope_id, client="client-1", arrival=gap),
        ])
        assert not result.rejects
        assert [s.state for s in result.statuses] == (
            [SessionState.COMPLETED] * 2
        )
        assert [s.misses for s in result.statuses] == [0, 0]
        assert result.rounds == 40


class TestBatchedServe:
    def test_same_interval_requests_share_one_batch(self, server):
        rope_id = _rope(server)
        result = server.serve([
            _open(rope_id, client=f"client-{i}", arrival=0.02 * i)
            for i in range(4)
        ])
        assert result.batches == 1
        leaders = {s.batch_leader for s in result.statuses}
        assert len(leaders) == 1
        assert result.admitted == 4
        assert result.continuous_sessions == 4

    def test_followers_ride_the_leader_reads(self, server):
        rope_id = _rope(server)
        result = server.serve([
            _open(rope_id, client=f"client-{i}") for i in range(3)
        ])
        stats = result.cache_stats
        # One physical pass over the strand; the two followers hit.
        assert stats["misses"] == stats["insertions"]
        assert stats["hits"] >= 2 * stats["misses"]
        # Every session still delivered its whole sequence.
        assert len({
            result.block_sequences[s.session_id]
            for s in result.statuses
        }) == 1

    def test_batch_uses_one_admission_slot(self, server):
        rope_id = _rope(server)
        server.serve([
            _open(rope_id, client=f"client-{i}") for i in range(5)
        ])
        calls = server.channel.calls_by_method()
        assert calls.get("admit", 0) == 1
        assert calls.get("release", 0) == 1

    def test_one_admission_path_traced_or_not(self):
        """The same admit/release calls cross the channel observed or
        not; only a traced call carries the marshalled ``trace`` field,
        so an unobserved server's RPC bytes do not grow."""
        logs = []
        for obs in (None, Observability()):
            server = build_media_server(obs=obs)
            rope_id = _rope(server)
            held = server.open(_open(rope_id, auto_play=False))
            server.pause(PauseRequest(held.session_id, destructive=True))
            server.resume(ResumeRequest(held.session_id))
            server.serve([])
            logs.append(server.channel.calls)
        plain, traced = logs
        assert [c.method for c in plain] == [c.method for c in traced] == [
            "admit", "release", "admit", "release",
        ]
        assert len({c.argument_bytes for c in plain if c.method == "admit"}) == 1
        assert all(
            t.argument_bytes > p.argument_bytes for p, t in zip(plain, traced)
        )
        assert [c.result_bytes for c in plain] == [
            c.result_bytes for c in traced
        ]

    def test_without_cache_batching_is_disabled(self):
        server = build_media_server(cache_blocks=0)
        assert not server.batching
        rope_id = _rope(server)
        result = server.serve([
            _open(rope_id, client=f"client-{i}") for i in range(2)
        ])
        assert result.batches == 2
        assert result.cache_stats == {}

    def test_serve_refuses_untyped_requests(self, server):
        with pytest.raises(ParameterError):
            server.serve(["not-a-request"])


class TestLeaderHandover:
    """A batch is one physical stream on one lease: when its leader stops
    or pauses destructively the slot (or the cache pins) stays held for
    the followers still live, instead of leaving them to read unadmitted."""

    MEMBERS = ("C0001", "C0002", "C0003")

    @staticmethod
    def _held_batch(server, seconds=1.0):
        """Three opens in one batch, none playing yet."""
        rope_id = _rope(server, seconds)
        result = server.serve([
            _open(rope_id, client=f"client-{i}", auto_play=False)
            for i in range(3)
        ])
        assert result.batches == 1
        return server.mrs.msm.admission

    def test_stopped_leader_hands_its_slot_to_a_follower(self, server):
        controller = self._held_batch(server, seconds=4.0)
        assert controller.active_count == 1
        server.stop(StopRequest("C0001"))
        assert controller.active_count == 1
        result = server.serve([PlayRequest("C0002"), PlayRequest("C0003")])
        assert controller.active_count == 0
        # The one disk pass the two followers share ran on that slot.
        assert result.cache_stats["misses"] == 30
        for sid in ("C0002", "C0003"):
            status = result.status_of(sid)
            assert status.state is SessionState.COMPLETED
            assert status.blocks_delivered == 30
            assert status.batch_leader == "C0002"
        assert server.channel.calls_by_method() == {"admit": 1, "release": 1}

    def test_destructively_paused_leader_resumes_on_its_own_slot(self, server):
        controller = self._held_batch(server)
        server.pause(PauseRequest("C0001", destructive=True))
        assert controller.active_count == 1
        assert server.status("C0001").batch_leader == "C0001"
        assert server.status("C0003").batch_leader == "C0002"
        server.resume(ResumeRequest("C0001"))
        assert controller.active_count == 2
        result = server.serve([PlayRequest("C0002"), PlayRequest("C0003")])
        assert result.continuous_sessions == 3
        assert controller.active_count == 0

    def test_cache_admitted_batch_keeps_its_pins(self, server):
        rope_id = _rope(server)
        server.serve([_open(rope_id, client="warmer")])
        held = server.serve([
            _open(rope_id, client=f"client-{i}", auto_play=False)
            for i in range(3)
        ])
        assert all(status.cache_admitted for status in held.statuses)
        leader, second, last = (s.session_id for s in held.statuses)
        pinned = server.cache.pinned_count
        assert pinned > 0
        server.stop(StopRequest(leader))
        assert server.cache.pinned_count == pinned
        # The heir ends by completing: the last live member holds them.
        server.serve([PlayRequest(second)])
        assert server.cache.pinned_count == pinned
        result = server.serve([PlayRequest(last)])
        assert result.status_of(last).state is SessionState.COMPLETED
        assert server.cache.pinned_count == 0

    def test_completed_leader_leaves_its_slot_to_a_waiting_follower(self):
        # A cache too small to keep the leader's pass: the follower that
        # plays an epoch later reads the disk again, so it needs the slot.
        server = build_media_server(cache_blocks=4)
        controller = self._held_batch(server)
        server.serve([PlayRequest("C0001")])
        assert controller.active_count == 1
        assert server.status("C0002").batch_leader == "C0002"
        before = server.cache.stats.misses
        result = server.serve([PlayRequest("C0002"), PlayRequest("C0003")])
        assert server.cache.stats.misses > before
        assert result.continuous_sessions == 2
        assert controller.active_count == 0
        assert server.channel.calls_by_method() == {"admit": 1, "release": 1}

    def test_leader_without_a_live_follower_releases_as_before(self, server):
        controller = self._held_batch(server)
        server.stop(StopRequest("C0002"))
        server.stop(StopRequest("C0003"))
        assert controller.active_count == 1
        server.stop(StopRequest("C0001"))
        assert controller.active_count == 0
        assert server.channel.calls_by_method() == {"admit": 1, "release": 1}

    @staticmethod
    def _churn(server, order, verbs):
        """Stop or destructively pause each member of a held batch in
        *order*, then resume the paused ones — checking the leases after
        every verb."""
        (lease,) = held_leases(server)
        paused = []
        for position, (sid, verb) in enumerate(zip(order, verbs)):
            if verb == "stop":
                server.stop(StopRequest(sid))
            else:
                server.pause(PauseRequest(sid, destructive=True))
                paused.append(sid)
            held = held_leases(server)
            if position < 2:
                # A member no verb has touched is still live, on the one
                # slot (or set of pins) the batch was admitted with.
                assert held == [lease], (order, verbs, sid)
        assert held == []
        # Every paused member left the batch's lease, so it resumes on
        # one of its own, taken the way the batch's was — or is refused,
        # typed.
        for sid in paused:
            server.resume(ResumeRequest(sid))
            held_leases(server)
        server.serve([])
        for sid in paused:
            status = server.status(sid)
            if status.state is SessionState.REJECTED:
                assert server._sessions[sid].reject is not None
            else:
                assert status.state is SessionState.COMPLETED
                assert status.misses == 0
                assert status.cache_admitted == lease.cache_admitted
        assert held_leases(server) == []

    @pytest.mark.parametrize("order", list(itertools.permutations(MEMBERS)))
    @pytest.mark.parametrize(
        "verbs", list(itertools.product(("stop", "pause"), repeat=3))
    )
    def test_a_batch_holds_one_slot_while_a_member_is_live(
        self, server, order, verbs
    ):
        controller = self._held_batch(server)
        assert controller.active_count == 1
        self._churn(server, order, verbs)
        assert controller.active_count == 0
        assert server.cache.pinned_count == 0

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    @pytest.mark.parametrize(
        "verbs", list(itertools.product(("stop", "pause"), repeat=3))
    )
    def test_a_cache_admitted_batch_holds_its_pins_while_a_member_is_live(
        self, server, order, verbs
    ):
        rope_id = _rope(server)
        server.serve([_open(rope_id, client="warmer")])
        held = server.serve([
            _open(rope_id, client=f"client-{i}", auto_play=False)
            for i in range(3)
        ])
        assert all(status.cache_admitted for status in held.statuses)
        pinned = server.cache.pinned_count
        assert pinned > 0
        members = [status.session_id for status in held.statuses]
        self._churn(server, [members[i] for i in order], verbs)
        assert server.mrs.msm.admission.active_count == 0
        assert server.channel.calls_by_method() == {"admit": 1, "release": 1}


class TestCacheAwareAdmission:
    def test_warm_cache_admits_without_controller(self):
        run = get("server-hot")(sessions=6, strands=2, seconds=1.0).run()
        final = run.result
        assert final.admitted == 6
        assert all(s.cache_admitted for s in final.statuses)
        # The controller holds no slots for the cache-admitted wave.
        calls = run.stack.channel.calls_by_method()
        assert calls["admit"] == len(run.warmups) == 2
        assert run.stack.mrs.msm.admission.active_count == 0

    def test_hot_wave_exceeds_per_request_capacity(self):
        run = get("server-hot")(sessions=50, strands=5, seconds=2.0).run()
        final = run.result
        n_max = run.stack.mrs.msm.admission.capacity(
            run.stack.mrs.msm.descriptor_for_media(True)
        )
        assert final.continuous_sessions == 50 > n_max

    def test_completion_unpins_the_cache(self):
        run = get("server-hot")(sessions=6, strands=2, seconds=1.0).run()
        assert run.stack.cache.pinned_count == 0


class TestResumeAcquiresALease:
    """A destructive pause leaves the lease; RESUME must win one back —
    the pins if every slot is still resident, else a controller slot,
    else a typed refusal — before the session reads the disk again."""

    @staticmethod
    def _paused_then_evicted():
        """A cache-admitted session, destructively paused, whose blocks a
        play of another rope has since evicted."""
        server = build_media_server(cache_blocks=10)
        hot, other = record_strands(server.mrs, 2, 1.0, CLIENTS, "t")
        server.serve([_open(hot, client="warmer")])
        held = server.open(_open(hot, auto_play=False))
        assert held.cache_admitted and server.cache.pinned_count == 8
        server.pause(PauseRequest(held.session_id, destructive=True))
        assert held_leases(server) == []
        server.serve([_open(other, client="warmer")])
        return server, held.session_id

    def test_an_evicted_cache_lease_resumes_on_a_controller_slot(self):
        server, sid = self._paused_then_evicted()
        status = server.resume(ResumeRequest(sid))
        assert status.state is SessionState.PLAYING
        assert not status.cache_admitted
        (lease,) = held_leases(server)
        assert not lease.cache_admitted
        assert server.mrs.msm.admission.active_count == 1
        reads = server.mrs.msm.drive.stats.reads
        result = server.serve([])
        assert server.mrs.msm.drive.stats.reads > reads  # on that slot
        assert result.status_of(sid).state is SessionState.COMPLETED
        assert result.status_of(sid).misses == 0
        assert held_leases(server) == []

    def test_a_still_resident_cache_lease_resumes_on_its_pins(self, server):
        rope_id = _rope(server)
        server.serve([_open(rope_id, client="warmer")])
        sid = server.open(_open(rope_id, auto_play=False)).session_id
        server.pause(PauseRequest(sid, destructive=True))
        assert server.cache.pinned_count == 0
        assert server.resume(ResumeRequest(sid)).cache_admitted
        (lease,) = held_leases(server)
        assert lease.cache_admitted and server.cache.pinned_count > 0
        assert server.serve([]).status_of(sid).continuous
        assert server.channel.calls_by_method() == {"admit": 1, "release": 1}

    def test_at_capacity_the_resume_is_refused_typed(self):
        server, sid = self._paused_then_evicted()
        controller = server.mrs.msm.admission
        descriptor = server.mrs.msm.descriptor_for_media(True)
        while controller.can_admit(descriptor):
            controller.admit(descriptor)
        full = controller.active_count
        reads = server.mrs.msm.drive.stats.reads
        result = server.serve([ResumeRequest(sid)])
        assert result.status_of(sid).state is SessionState.REJECTED
        assert [(r.session_id, r.reject) for r in result.rejects] == [
            (sid, RejectReason.CAPACITY)
        ]
        assert controller.active_count == full
        assert server.mrs.msm.drive.stats.reads == reads

    def test_a_paused_follower_resumes_on_a_lease_of_its_own(self, server):
        rope_id = _rope(server)
        server.serve([
            _open(rope_id, client=f"client-{i}", auto_play=False)
            for i in range(2)
        ])
        server.pause(PauseRequest("C0002", destructive=True))
        (batch,) = held_leases(server)
        status = server.resume(ResumeRequest("C0002"))
        assert status.batch_leader == "C0002"
        assert len(held_leases(server)) == 2
        assert server.status("C0001").batch_leader == "C0001"
        server.serve([PlayRequest("C0001")])
        assert held_leases(server) == []


class TestOneAdmissionDoor:
    def test_every_mrs_admit_and_release_passes_the_msm(self, monkeypatch):
        """RECORD / PLAY / destructive PAUSE / RESUME / STOP on a bare
        rope server: the controller has no caller but the MSM's door."""
        from repro.config import TESTBED_1991
        from repro.media.frames import frames_for_duration
        from repro.rope.server import build_rope_server

        mrs = build_rope_server()
        msm, controller = mrs.msm, mrs.msm.admission
        calls = {}

        def counted(owner, label, method):
            real = getattr(owner, method)

            def spy(*args, **kwargs):
                calls[label, method] = calls.get((label, method), 0) + 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, method, spy)

        for method in ("admit", "release"):
            counted(controller, "controller", method)
            counted(msm, "msm", method)
        frames = frames_for_duration(TESTBED_1991.video, 1.0, source="t")
        recording, rope_id = mrs.record("u", frames=frames)
        mrs.stop(recording)
        playing = mrs.play("u", rope_id)
        mrs.pause(playing, destructive=True)
        mrs.resume(playing)
        mrs.stop(playing)
        with pytest.raises(ParameterError, match="empty video strand"):
            mrs.record("u", frames=[])  # admitted, then cannot store
        assert controller.active_count == 0
        assert calls["msm", "admit"] == calls["controller", "admit"] == 4
        assert calls["msm", "release"] == calls["controller", "release"] == 4


class TestPlansOnlyWhereADecisionReadsOne:
    @pytest.fixture
    def plan_calls(self, monkeypatch):
        from repro.rope import MultimediaRopeServer

        calls = []
        real = MultimediaRopeServer.playback_plan

        def spy(mrs, request_id):
            calls.append(request_id)
            return real(mrs, request_id)

        monkeypatch.setattr(MultimediaRopeServer, "playback_plan", spy)
        return calls

    def test_without_a_cache_serve_plans_once_per_served_session(
        self, plan_calls
    ):
        server = build_media_server(cache_blocks=0)
        rope_id = _rope(server, seconds=2.0)
        result = server.serve([
            _open(rope_id, client=f"client-{i}") for i in range(6)
        ])
        assert 0 < result.admitted < 6
        assert result.continuous_sessions == result.admitted
        assert len(plan_calls) == result.admitted
        assert len(set(plan_calls)) == result.admitted

    def test_without_a_cache_no_open_plans_accepted_or_rejected(
        self, plan_calls
    ):
        server = build_media_server(cache_blocks=0)
        rope_id = _rope(server, seconds=2.0)
        responses = [
            server.open(_open(rope_id, client=f"client-{i}", auto_play=False))
            for i in range(6)
        ]
        assert responses[0].accepted
        assert responses[-1].reject is RejectReason.CAPACITY
        assert plan_calls == []

    def test_with_a_cache_no_block_fetch_is_built_probe_to_last_round(
        self, server, plan_calls, monkeypatch
    ):
        """The residency probe reads the slot column and the round loop
        walks columns: an unobserved open + serve builds no BlockFetch."""
        import repro.rope.server as rope_server

        rope_id = _rope(server)
        server.serve([_open(rope_id, client="warmer")])   # fill the cache

        def no_objects(*args, **kwargs):
            raise AssertionError("a BlockFetch was constructed")

        monkeypatch.setattr(rope_server, "BlockFetch", no_objects)
        response = server.open(_open(rope_id))
        assert response.cache_admitted
        result = server.serve([])
        status = result.status_of(response.session_id)
        assert status.continuous and status.blocks_delivered > 0
        # One plan for the probe and one for the epoch, per session.
        assert len(plan_calls) == 2 * 2


class TestObservability:
    def test_counters_and_audit_trail(self):
        obs = Observability()
        run = get("server-steady")().run(obs)
        snapshot = run.obs.registry.counter("server.sessions_opened")
        assert snapshot.value == len(run.result.statuses)
        decisions = [
            e for e in obs.audit.entries()
            if e.subject.startswith("batch")
        ]
        assert decisions
        for entry in decisions:
            assert entry.evaluate()
