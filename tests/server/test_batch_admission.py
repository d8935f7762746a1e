"""Batched admission is conservative: it never over-commits the disk.

The batching optimization may admit *more sessions* than per-request
admission (that is its point), but the *physical* load it places on the
disk — one controller-admitted stream per batch, plus zero-budget
cache-admitted sessions — must always be a set the per-request §3.4
controller would itself admit.  These tests replay every physical
admission the server made through a fresh controller and require it to
agree.
"""

import pytest

from repro.api import OpenSessionRequest, SessionState
from repro.core.admission import AdmissionController
from repro.rope import Media
from repro.scenarios import get
from repro.scenarios.server import record_strands
from repro.server import build_media_server

pytestmark = pytest.mark.server


def _physical_leaders(server, result):
    """Sessions that consumed a controller slot in *result*'s epoch."""
    return [
        s for s in result.statuses
        if s.state is not SessionState.REJECTED
        and not s.cache_admitted
        and s.batch_leader == s.session_id
    ]


def _replays_cleanly(server, leaders):
    """A fresh per-request controller admits every physical stream."""
    controller = AdmissionController(disk=server.mrs.msm.disk_params)
    descriptor = server.mrs.msm.descriptor_for_media(True)
    for _ in leaders:
        controller.admit(descriptor)  # raises AdmissionRejected on refusal
    return True


class TestBatchedAdmissionIsConservative:
    @pytest.mark.parametrize("sessions,strands", [(4, 1), (9, 3), (12, 2)])
    def test_cold_cache_batches_replay_per_request(self, sessions, strands):
        server = build_media_server()
        clients = [f"client-{i}" for i in range(sessions)]
        rope_ids = record_strands(server.mrs, strands, 1.0, clients, "t")
        result = server.serve([
            OpenSessionRequest(
                client_id=clients[i],
                rope_id=rope_ids[i % strands],
                media=Media.VIDEO,
            )
            for i in range(sessions)
        ])
        leaders = _physical_leaders(server, result)
        assert leaders, "expected at least one physical stream"
        assert _replays_cleanly(server, leaders)

    def test_hot_scenario_physical_set_replays_per_request(self):
        run = get("server-hot")(sessions=20, strands=4, seconds=1.0).run()
        assert run.warmups, "the hot scenario must warm its cache first"
        for result in (*run.warmups, run.result):
            leaders = _physical_leaders(run.stack, result)
            assert _replays_cleanly(run.stack, leaders)

    def test_admitted_sessions_can_exceed_physical_capacity(self):
        """The capability claim, stated as the complement: batch +
        cache admission serves more sessions than the controller's
        n_max, while the physical set stays within it."""
        run = get("server-hot")(sessions=20, strands=4, seconds=1.0).run()
        final = run.result
        descriptor = run.stack.mrs.msm.descriptor_for_media(True)
        n_max = run.stack.mrs.msm.admission.capacity(descriptor)
        assert final.admitted > n_max
        assert len(_physical_leaders(run.stack, final)) <= n_max
