"""Unit tests for the §3.4 admission-control model (Eqs. 7-18)."""

import math

import pytest

from repro.core import admission as adm
from repro.core.symbols import BlockModel, DiskParameters
from repro.errors import AdmissionRejected, ParameterError


@pytest.fixture
def disk():
    return DiskParameters(
        transfer_rate=10e6, seek_max=0.040, seek_avg=0.018, seek_track=0.005
    )


@pytest.fixture
def block():
    return BlockModel(unit_rate=30.0, unit_size=65536.0, granularity=4)


@pytest.fixture
def descriptor(disk, block):
    return adm.RequestDescriptor(block=block, scattering_avg=disk.seek_avg)


class TestRequestDescriptor:
    def test_switch_time_eq7(self, descriptor, disk):
        expected = disk.seek_max + 4 * 65536 / 10e6
        assert descriptor.switch_time(disk) == pytest.approx(expected)

    def test_continue_time_eq8(self, descriptor, disk):
        k = 5
        per_block = disk.seek_avg + 4 * 65536 / 10e6
        assert descriptor.continue_time(disk, k) == pytest.approx(
            (k - 1) * per_block
        )

    def test_service_time_eq9_is_sum(self, descriptor, disk):
        assert descriptor.service_time(disk, 3) == pytest.approx(
            descriptor.switch_time(disk) + descriptor.continue_time(disk, 3)
        )

    def test_continue_time_k1_is_zero(self, descriptor, disk):
        assert descriptor.continue_time(disk, 1) == 0.0

    def test_rejects_negative_scattering(self, block):
        with pytest.raises(ParameterError):
            adm.RequestDescriptor(block=block, scattering_avg=-0.1)


class TestServiceParameters:
    def test_alpha_beta_gamma_eqs_12_14(self, descriptor, disk):
        params = adm.service_parameters([descriptor] * 3, disk)
        transfer = 4 * 65536 / 10e6
        assert params.alpha == pytest.approx(disk.seek_max + transfer)
        assert params.beta == pytest.approx(disk.seek_avg + transfer)
        assert params.gamma == pytest.approx(4 / 30)
        assert params.n == 3

    def test_alpha_at_least_beta(self, descriptor, disk):
        params = adm.service_parameters([descriptor], disk)
        assert params.alpha >= params.beta

    def test_gamma_is_minimum_over_requests(self, disk, block):
        fast = adm.RequestDescriptor(
            block=block.with_granularity(2), scattering_avg=disk.seek_avg
        )
        slow = adm.RequestDescriptor(
            block=block.with_granularity(8), scattering_avg=disk.seek_avg
        )
        params = adm.service_parameters([fast, slow], disk)
        assert params.gamma == pytest.approx(2 / 30)

    def test_empty_request_set_rejected(self, disk):
        with pytest.raises(ParameterError):
            adm.service_parameters([], disk)


class TestKFormulas:
    def test_k_steady_eq16(self, descriptor, disk):
        params = adm.service_parameters([descriptor] * 2, disk)
        expected = math.ceil(
            params.n * (params.alpha - params.beta)
            / (params.gamma - params.n * params.beta)
        )
        assert adm.k_steady(params) == max(1, expected)

    def test_k_transition_eq18_at_least_steady(self, descriptor, disk):
        for n in (1, 2, 3):
            params = adm.service_parameters([descriptor] * n, disk)
            assert adm.k_transition(params) >= adm.k_steady(params)

    def test_k_monotone_in_n(self, descriptor, disk):
        params1 = adm.service_parameters([descriptor], disk)
        limit = adm.n_max(params1)
        ks = []
        for n in range(1, limit + 1):
            params = adm.service_parameters([descriptor] * n, disk)
            ks.append(adm.k_transition(params))
        assert ks == sorted(ks)

    def test_k_rejects_beyond_capacity(self, descriptor, disk):
        params1 = adm.service_parameters([descriptor], disk)
        limit = adm.n_max(params1)
        params = adm.service_parameters([descriptor] * (limit + 1), disk)
        with pytest.raises(AdmissionRejected):
            adm.k_steady(params)
        with pytest.raises(AdmissionRejected):
            adm.k_transition(params)

    def test_n_max_eq17(self, descriptor, disk):
        params = adm.service_parameters([descriptor], disk)
        assert adm.n_max(params) == math.ceil(
            params.gamma / params.beta
        ) - 1

    def test_steady_state_inequality_holds_at_k(self, descriptor, disk):
        """Eq. 15 must hold at the returned k: nα + n(k−1)β ≤ kγ."""
        params1 = adm.service_parameters([descriptor], disk)
        for n in range(1, adm.n_max(params1) + 1):
            params = adm.service_parameters([descriptor] * n, disk)
            k = adm.k_steady(params)
            left = n * params.alpha + n * (k - 1) * params.beta
            assert left <= k * params.gamma + 1e-12

    def test_transition_inequality_holds_at_k(self, descriptor, disk):
        """Eq. 18 must hold at the returned k: nα + nkβ ≤ kγ."""
        params1 = adm.service_parameters([descriptor], disk)
        for n in range(1, adm.n_max(params1) + 1):
            params = adm.service_parameters([descriptor] * n, disk)
            k = adm.k_transition(params)
            left = n * params.alpha + n * k * params.beta
            assert left <= k * params.gamma + 1e-12


class TestRoundFeasibility:
    def test_round_time_eq10(self, descriptor, disk):
        requests = [descriptor] * 3
        ks = [2, 3, 4]
        expected = sum(
            r.service_time(disk, k) for r, k in zip(requests, ks)
        )
        assert adm.round_time(requests, disk, ks) == pytest.approx(expected)

    def test_round_feasible_eq11(self, descriptor, disk):
        requests = [descriptor] * 2
        # Huge k: plenty of playback budget per round.
        assert adm.round_feasible(requests, disk, [50, 50])
        # k=1 for many requests on this disk fails (switch overheads
        # exceed one block's playback).
        many = [descriptor] * 3
        assert not adm.round_feasible(many, disk, [1, 1, 1])

    def test_empty_round_is_feasible(self, disk):
        assert adm.round_feasible([], disk, [])

    def test_mismatched_lengths_rejected(self, descriptor, disk):
        with pytest.raises(ParameterError):
            adm.round_time([descriptor], disk, [1, 2])


class TestAdmissionController:
    def test_admits_up_to_n_max_then_rejects(self, descriptor, disk):
        controller = adm.AdmissionController(disk)
        params = adm.service_parameters([descriptor], disk)
        limit = adm.n_max(params)
        for _ in range(limit):
            controller.admit(descriptor)
        assert controller.active_count == limit
        with pytest.raises(AdmissionRejected) as excinfo:
            controller.admit(descriptor)
        assert excinfo.value.active == limit
        assert controller.active_count == limit  # rejected = no state change

    def test_transition_plan_steps_of_one(self, descriptor, disk):
        controller = adm.AdmissionController(disk)
        first = controller.admit(descriptor)
        second = controller.admit(descriptor)
        plan = second.transition
        if plan.k_new > plan.k_old:
            assert plan.steps == tuple(
                range(plan.k_old + 1, plan.k_new + 1)
            )
            assert len(plan.steps) == plan.k_new - plan.k_old

    def test_release_shrinks_k(self, descriptor, disk):
        controller = adm.AdmissionController(disk)
        controller.admit(descriptor)
        decision = controller.admit(descriptor)
        k_two = controller.current_k
        plan = controller.release(decision.request_id)
        assert controller.active_count == 1
        assert controller.current_k <= k_two
        assert plan.steps == ()  # shrinking needs no staging

    def test_release_last_request_zeroes_k(self, descriptor, disk):
        controller = adm.AdmissionController(disk)
        decision = controller.admit(descriptor)
        controller.release(decision.request_id)
        assert controller.active_count == 0
        assert controller.current_k == 0

    def test_release_unknown_id_rejected(self, descriptor, disk):
        controller = adm.AdmissionController(disk)
        with pytest.raises(ParameterError):
            controller.release(99)

    def test_can_admit_is_non_mutating(self, descriptor, disk):
        controller = adm.AdmissionController(disk)
        assert controller.can_admit(descriptor)
        assert controller.active_count == 0

    def test_readmission_after_release(self, descriptor, disk):
        controller = adm.AdmissionController(disk)
        params = adm.service_parameters([descriptor], disk)
        limit = adm.n_max(params)
        decisions = [controller.admit(descriptor) for _ in range(limit)]
        with pytest.raises(AdmissionRejected):
            controller.admit(descriptor)
        controller.release(decisions[0].request_id)
        controller.admit(descriptor)  # now fits again
        assert controller.active_count == limit

    @pytest.mark.parametrize("max_k", [0, 5, 10_000])
    @pytest.mark.parametrize("mode", [{}, {"per_request": True}])
    def test_can_admit_agrees_with_admit(self, descriptor, disk, mode, max_k):
        """A frozen controller, or one whose next k exceeds ``max_k``,
        must not promise an admission that ``admit`` then refuses."""
        controller = adm.AdmissionController(disk, max_k=max_k, **mode)
        for _ in range(5):
            promised = controller.can_admit(descriptor)
            try:
                controller.admit(descriptor)
            except AdmissionRejected:
                assert not promised
            else:
                assert promised
        controller.freeze()
        assert not controller.can_admit(descriptor)
