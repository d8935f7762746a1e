"""Unit tests for the general (per-request k) admission controller."""

import pytest

from repro.core import admission as adm
from repro.core.general_admission import GeneralAdmissionController
from repro.core.symbols import BlockModel, DiskParameters
from repro.errors import AdmissionRejected, ParameterError


@pytest.fixture
def disk():
    return DiskParameters(
        transfer_rate=10e6, seek_max=0.040, seek_avg=0.018, seek_track=0.005
    )


@pytest.fixture
def video(disk):
    return adm.RequestDescriptor(
        BlockModel(30.0, 65536.0, 4), scattering_avg=disk.seek_avg
    )


@pytest.fixture
def audio(disk):
    return adm.RequestDescriptor(
        BlockModel(8000.0, 8.0, 4096), scattering_avg=disk.seek_avg
    )


class TestGeneralController:
    def test_admits_mixed_workload(self, disk, video, audio):
        controller = GeneralAdmissionController(disk)
        for descriptor in [video, video, audio, audio, audio, audio]:
            controller.admit(descriptor)
        assert controller.active_count == 6
        ks = controller.k_values()
        assert adm.round_feasible(
            [video, video, audio, audio, audio, audio], disk,
            [ks[i] for i in sorted(ks)],
        )

    def test_beats_uniform_controller_on_mixes(self, disk, video, audio):
        uniform = adm.AdmissionController(disk)
        general = GeneralAdmissionController(disk)
        mix = [video, video] + [audio] * 4
        uniform_admitted = 0
        for descriptor in mix:
            try:
                uniform.admit(descriptor)
                uniform_admitted += 1
            except AdmissionRejected:
                break
        general_admitted = 0
        for descriptor in mix:
            try:
                general.admit(descriptor)
                general_admitted += 1
            except AdmissionRejected:
                break
        assert general_admitted > uniform_admitted

    def test_rejects_at_true_capacity(self, disk, video):
        controller = GeneralAdmissionController(disk, budget_limit=10.0)
        admitted = 0
        with pytest.raises(AdmissionRejected):
            for _ in range(50):
                controller.admit(video)
                admitted += 1
        assert admitted >= 1
        assert controller.active_count == admitted

    def test_transition_rounds_reported(self, disk, video):
        controller = GeneralAdmissionController(disk)
        first = controller.admit(video)
        second = controller.admit(video)
        assert second.transition_rounds >= 0
        k_after = controller.k_for(second.request_id)
        assert k_after >= 1

    def test_release_shrinks_k(self, disk, video):
        controller = GeneralAdmissionController(disk)
        a = controller.admit(video)
        b = controller.admit(video)
        k_two = controller.k_for(a.request_id)
        controller.release(b.request_id)
        assert controller.active_count == 1
        assert controller.k_for(a.request_id) <= k_two

    def test_release_last_clears(self, disk, video):
        controller = GeneralAdmissionController(disk)
        decision = controller.admit(video)
        controller.release(decision.request_id)
        assert controller.active_count == 0
        assert controller.k_values() == {}

    def test_release_unknown(self, disk):
        controller = GeneralAdmissionController(disk)
        with pytest.raises(ParameterError):
            controller.release(3)

    def test_can_admit_non_mutating(self, disk, video):
        controller = GeneralAdmissionController(disk)
        assert controller.can_admit(video)
        assert controller.active_count == 0

    def test_frozen_controller_admits_nothing(self, disk, video):
        controller = GeneralAdmissionController(disk)
        held = controller.admit(video).request_id
        assert controller.active_requests == {held: video}
        controller.freeze()
        assert not controller.can_admit(video)
        with pytest.raises(AdmissionRejected) as refused:
            controller.admit(video)
        assert refused.value.n_max == 0
        assert controller.active_count == 1  # what plays keeps playing
        controller.release(held)
        assert controller.active_requests == {}


class TestSimulatedMixedWorkload:
    def test_solved_ks_play_continuously(self, disk, video, audio):
        """Close the E20 loop: simulate the mixed workload at the solved
        per-request k_i and verify zero misses end to end."""
        from repro.analysis.experiments import fetches_with_gap
        from repro.disk import build_drive
        from repro.service.rounds import RoundRobinService, StreamState

        drive = build_drive()
        params = drive.parameters()
        mix = [video, video, audio, audio]
        ks = adm.solve_heterogeneous_k(mix, params)
        assert ks is not None
        streams = []
        for index, (descriptor, k) in enumerate(zip(mix, ks)):
            block = descriptor.block
            fetches = fetches_with_gap(
                drive, 40, params.seek_avg, block.block_bits,
                block.playback_duration,
            )
            streams.append(
                StreamState(
                    request_id=f"s{index}",
                    fetches=fetches,
                    buffer_capacity=2 * k,
                    k_override=k,
                )
            )
        service = RoundRobinService(drive, lambda r, n: max(ks))
        metrics = service.run(streams)
        assert all(m.continuous for m in metrics.values())
