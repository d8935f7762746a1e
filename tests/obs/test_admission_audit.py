"""Admission-audit tests: every logged decision is arithmetically honest.

The audit log's value is that a decision can be *recomputed*: each entry
carries its governing inequality as a Python expression plus the exact
operand values, so ``entry.evaluate()`` must reproduce ``satisfied`` —
False for every reject, True for every admit — across randomized
workloads, not just the testbed profile.
"""

import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import admission as adm
from repro.core.symbols import BlockModel, DiskParameters
from repro.disk import build_drive
from repro.errors import AdmissionRejected
from repro.fs import MultimediaStorageManager
from repro.obs import AdmissionAuditLog, Observability

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


def _drive_to_rejection(controller, descriptor, cap=200):
    """Admit until the controller rejects (or the cap trips)."""
    for _ in range(cap):
        try:
            controller.admit(descriptor)
        except AdmissionRejected:
            return True
    return False


def _audit_to_rejection(disk, block, largest=150, **mode):
    """The audit log of a controller driven with identical requests to
    its first reject, for a workload whose Eq.-(17) capacity lies in
    (0, *largest*]."""
    descriptor = adm.RequestDescriptor(
        block=block, scattering_avg=disk.seek_avg
    )
    capacity = adm.n_max(
        adm.service_parameters([descriptor], disk)
    )
    assume(0 < capacity <= largest)
    controller = adm.AdmissionController(
        disk, audit=AdmissionAuditLog(), **mode
    )
    assert _drive_to_rejection(controller, descriptor)
    return controller.audit


def _assert_every_entry_recomputes(log):
    assert len(log.rejects()) >= 1
    assert len(log.admits()) >= 1
    for entry in log:
        assert entry.evaluate() == entry.satisfied, str(entry)
    for entry in log.rejects():
        assert entry.evaluate() is False, (
            f"logged reject re-evaluates true: {entry}"
        )


def _assert_reject_is_self_contained(reject):
    # Every identifier the inequality references is a logged operand,
    # so the entry is self-contained evidence of the failure.
    logged = {key for key, _ in reject.operands}
    for name in re.findall(r"[a-z_]+", reject.constraint):
        assert name in logged, (
            f"constraint references {name!r} but it was not logged: "
            f"{reject}"
        )


class TestAuditedController:
    @settings(deadline=None, max_examples=40)
    @given(disk=disks, block=blocks)
    def test_every_entry_recomputes_its_decision(self, disk, block):
        _assert_every_entry_recomputes(_audit_to_rejection(disk, block))

    @settings(deadline=None, max_examples=40)
    @given(disk=disks, block=blocks)
    def test_reject_shows_which_constraint_failed(self, disk, block):
        log = _audit_to_rejection(disk, block)
        _assert_reject_is_self_contained(log.rejects()[0])

    # Per-request mode logs Eq. (11); a reject carries the operands of
    # the budget search's last probe.  Smaller capacities keep the
    # per-admission search cheap.
    @settings(deadline=None, max_examples=25)
    @given(disk=disks, block=blocks)
    def test_every_per_request_entry_recomputes_its_decision(
        self, disk, block
    ):
        _assert_every_entry_recomputes(
            _audit_to_rejection(disk, block, largest=40, per_request=True)
        )

    @settings(deadline=None, max_examples=25)
    @given(disk=disks, block=blocks)
    def test_per_request_reject_shows_which_constraint_failed(
        self, disk, block
    ):
        log = _audit_to_rejection(disk, block, largest=40, per_request=True)
        _assert_reject_is_self_contained(log.rejects()[0])

    def test_unaudited_controller_still_works(self):
        """audit=None stays the default and costs nothing."""
        drive = build_drive()
        controller = adm.AdmissionController(drive.parameters())
        assert controller.audit is None
        descriptor = adm.RequestDescriptor(
            block=BlockModel(
                unit_rate=30.0, unit_size=64e3, granularity=4
            ),
            scattering_avg=drive.parameters().seek_avg,
        )
        decision = controller.admit(descriptor)
        assert decision.request_id is not None


def _observed_msm():
    from repro.config import TESTBED_1991

    profile = TESTBED_1991
    obs = Observability()
    drive = build_drive()
    msm = MultimediaStorageManager(
        drive,
        profile.video,
        profile.audio,
        profile.video_device,
        profile.audio_device,
        obs=obs,
    )
    return msm, obs


class TestRevalidateAudit:
    """The storage manager schedules one one-head drive, so a head loss
    shrinks n_max to 0: admission freezes."""

    def test_revalidate_emits_entry_with_shrunk_n_max(self):
        msm, obs = _observed_msm()
        assert msm.disk_params.heads == 1
        before = msm.revalidate_admission(heads_lost=1)
        entries = obs.audit.revalidations()
        assert len(entries) == 1
        entry = entries[0]
        assert entry.decision == "revalidate"
        assert entry.operand("surviving") == 0.0
        assert entry.operand("total") == 1.0
        assert entry.operand("n_max") == float(before) == 0.0
        assert f"n_max={before}" in entry.detail
        assert msm.admission.max_k == 0

    def test_shrunk_n_max_never_grows(self):
        msm, obs = _observed_msm()
        baseline = msm.revalidate_admission(heads_lost=1)
        again = msm.revalidate_admission(heads_lost=1)
        assert again == baseline == 0
        n_maxes = [
            entry.operand("n_max")
            for entry in obs.audit.revalidations()
        ]
        assert n_maxes == [0.0, 0.0]
        assert "cumulative heads lost: 2" in obs.audit.revalidations()[-1].detail
        assert msm.admission.max_k == 0

    def test_last_head_freezes_admission_and_fails_constraint(self):
        msm, obs = _observed_msm()
        assert msm.revalidate_admission(heads_lost=1) == 0
        entry = obs.audit.revalidations()[-1]
        assert entry.satisfied is False
        assert entry.evaluate() is False  # surviving >= 1 is violated
        assert entry.operand("n_max") == 0.0
        assert msm.admission.max_k == 0


class TestKBoundRefusalNamesItsCause:
    """A ``k_bound`` refusal says why k is out of bounds: a frozen
    controller has no head left (not a k diverging near capacity), and a
    per-request controller solved Eq. (11)'s k_i (not Eq. 18's k)."""

    @staticmethod
    def _descriptor(msm):
        return msm.descriptor_for_media(True)

    @pytest.mark.parametrize("per_request", [False, True])
    def test_a_frozen_controller_refuses_for_want_of_a_head(self, per_request):
        msm, obs = _observed_msm()
        msm.admission.per_request = per_request
        msm.revalidate_admission(heads_lost=1)
        with pytest.raises(AdmissionRejected) as refusal:
            msm.admit(self._descriptor(msm))
        assert refusal.value.cause == "k_bound"
        assert "no disk head left" in str(refusal.value)
        assert "capacity" not in str(refusal.value)
        assert refusal.value.n_max == 0
        row = obs.audit.rejects()[-1]
        assert "no disk head left" in row.detail
        assert "Eq." not in row.detail
        revalidation = obs.audit.revalidations()[-1]
        assert row.operand("n_max") == revalidation.operand("n_max") == 0
        assert row.evaluate() is False

    def test_a_per_request_k_bound_row_names_eq_11(self):
        drive = build_drive()
        log = AdmissionAuditLog()
        controller = adm.AdmissionController(
            drive.parameters(), per_request=True, max_k=2, audit=log
        )
        descriptor = adm.RequestDescriptor(
            block=BlockModel(unit_rate=30.0, unit_size=64e3, granularity=1),
            scattering_avg=drive.parameters().seek_avg,
        )
        assert _drive_to_rejection(controller, descriptor)
        row = log.rejects()[-1]
        assert row.constraint == "k <= max_k"
        assert "Eq.-(11) k_i" in row.detail
        assert "Eq.-18" not in row.detail
