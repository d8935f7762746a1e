"""Property-based tests for admission control (hypothesis)."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import admission as adm
from repro.core.symbols import BlockModel, DiskParameters
from repro.errors import AdmissionRejected

disks = st.builds(
    lambda rate, track, avg_extra, max_extra: DiskParameters(
        transfer_rate=rate,
        seek_track=track,
        seek_avg=track + avg_extra,
        seek_max=track + avg_extra + max_extra,
    ),
    rate=st.floats(min_value=1e6, max_value=1e9),
    track=st.floats(min_value=1e-4, max_value=0.005),
    avg_extra=st.floats(min_value=1e-4, max_value=0.02),
    max_extra=st.floats(min_value=1e-4, max_value=0.05),
)

blocks = st.builds(
    BlockModel,
    unit_rate=st.floats(min_value=5.0, max_value=60.0),
    unit_size=st.floats(min_value=1e3, max_value=1e6),
    granularity=st.integers(min_value=1, max_value=16),
)


def descriptor_for(block, disk):
    return adm.RequestDescriptor(block=block, scattering_avg=disk.seek_avg)


class TestCapacityProperties:
    @given(disk=disks, block=blocks)
    def test_k_satisfies_inequalities_for_all_feasible_n(self, disk, block):
        """For every n <= n_max: Eq. 18's k satisfies Eq. 15 and Eq. 18."""
        descriptor = descriptor_for(block, disk)
        params1 = adm.service_parameters([descriptor], disk)
        limit = min(adm.n_max(params1), 12)
        for n in range(1, limit + 1):
            params = adm.service_parameters([descriptor] * n, disk)
            try:
                k = adm.k_transition(params)
            except AdmissionRejected:
                # Permitted only at the exact capacity boundary, where
                # the remaining headroom is floating-point noise.
                assert n == adm.n_max(params1)
                continue
            assert n * params.alpha + n * k * params.beta <= (
                k * params.gamma + 1e-6 * params.gamma
            )
            assert n * params.alpha + n * (k - 1) * params.beta <= (
                k * params.gamma + 1e-6 * params.gamma
            )

    @given(disk=disks, block=blocks)
    def test_beyond_n_max_always_rejected(self, disk, block):
        descriptor = descriptor_for(block, disk)
        params1 = adm.service_parameters([descriptor], disk)
        n_over = adm.n_max(params1) + 1
        params = adm.service_parameters([descriptor] * n_over, disk)
        with pytest.raises(AdmissionRejected):
            adm.k_transition(params)

    @given(disk=disks, block=blocks)
    def test_accepted_round_is_exactly_feasible(self, disk, block):
        """Uniform request sets: the Eq.-18 k passes the exact Eq.-11 test."""
        descriptor = descriptor_for(block, disk)
        params1 = adm.service_parameters([descriptor], disk)
        limit = min(adm.n_max(params1), 8)
        for n in range(1, limit + 1):
            params = adm.service_parameters([descriptor] * n, disk)
            try:
                k = adm.k_transition(params)
            except AdmissionRejected:
                assert n == adm.n_max(params1)
                continue
            requests = [descriptor] * n
            assert adm.round_feasible(requests, disk, [k] * n)

    @settings(deadline=None, max_examples=30)
    @given(disk=disks, block=blocks)
    def test_controller_never_exceeds_capacity(self, disk, block):
        descriptor = descriptor_for(block, disk)
        controller = adm.AdmissionController(disk)
        params = adm.service_parameters([descriptor], disk)
        capacity = adm.n_max(params)
        assume(capacity <= 150)  # keep the example loop fast
        admitted = 0
        for _ in range(capacity + 5):
            try:
                controller.admit(descriptor)
                admitted += 1
            except AdmissionRejected:
                break
        assert admitted <= capacity
        if admitted < capacity:
            # Only the k operating bound may stop admissions early.
            params_next = adm.service_parameters(
                [descriptor] * (admitted + 1), disk
            )
            assert adm.k_transition(params_next) > controller.max_k

    @given(disk=disks, block=blocks,
           releases=st.lists(st.integers(0, 30), max_size=8))
    def test_controller_state_consistent_under_churn(
        self, disk, block, releases
    ):
        descriptor = descriptor_for(block, disk)
        controller = adm.AdmissionController(disk)
        live = []
        for _ in range(6):
            try:
                live.append(controller.admit(descriptor).request_id)
            except AdmissionRejected:
                break
        for choice in releases:
            if not live:
                break
            request_id = live.pop(choice % len(live))
            controller.release(request_id)
        assert controller.active_count == len(live)
        if live:
            params = adm.service_parameters(
                list(controller.active_requests.values()), disk
            )
            assert controller.current_k == adm.k_transition(params)
        else:
            assert controller.current_k == 0

    @settings(deadline=None)
    @given(disk=disks, block=blocks, n=st.integers(1, 12))
    def test_identical_requests_get_eq16_per_request_and_eq18_uniform(
        self, disk, block, n
    ):
        """n identical requests with headroom: the per-request Eq.-(11)
        solve gives exactly Eq. (16)'s steady-state k, the uniform solve
        Eq. (18)'s transition-safe k — the two modes do not agree."""
        descriptor = descriptor_for(block, disk)
        params = adm.service_parameters([descriptor] * n, disk)
        try:
            k_uniform = adm.k_transition(params)
        except AdmissionRejected:
            assume(False)
        k_steady = adm.k_steady(params)
        # Inside max_k, and inside the search's 300-s round budget.
        assume(k_uniform <= 10_000)
        assume(2 * k_steady * descriptor.block_playback <= 300.0)
        uniform = adm.AdmissionController(disk)
        per_request = adm.AdmissionController(disk, per_request=True)
        for _ in range(n):
            uniform.admit(descriptor)
            per_request.admit(descriptor)
        assert set(uniform.k_values().values()) == {k_uniform}
        assert set(per_request.k_values().values()) == {k_steady}
