"""Chaos integration tests: end-to-end playback under scripted faults.

The paper's continuity guarantee is proved on a healthy disk; these tests
pin down what the stack does when the disk is not healthy — bounded
retries recover transients, latent sector errors become exactly one
recorded glitch each, a dead head degrades service and freezes admission,
and the whole history replays bit-identically from its seed.
"""

import pytest

from repro.errors import AdmissionRejected
from repro.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    RecoveryPolicy,
)
from repro.media.frames import frames_for_duration
from repro.obs import Observability
from repro.rope import Media
from repro.service import PlaybackSession

SEED = 20260806


def _recorded_play(mrs, profile, seconds=8.0, source="chaos"):
    frames = frames_for_duration(profile.video, seconds, source=source)
    request_id, rope_id = mrs.record("u", frames=frames)
    mrs.stop(request_id)
    return mrs.play("u", rope_id, media=Media.VIDEO), rope_id


def _video_slots(mrs, play_id):
    return [
        fetch.slot
        for fetch in mrs.playback_plan(play_id).video
        if fetch.slot is not None
    ]


class TestChaosPlayback:
    def test_glitches_only_on_faulted_blocks(self, mrs, profile):
        """Transients recover inside the budget; each defect is exactly
        one skip; no healthy block glitches."""
        play_id, _ = _recorded_play(mrs, profile)
        slots = _video_slots(mrs, play_id)
        plan = FaultPlan.random(
            seed=SEED, slots=slots, transient=6, defects=3
        )
        mrs.msm.drive.attach_injector(FaultInjector(plan))
        obs = Observability()
        session = PlaybackSession(
            mrs, recovery=RecoveryPolicy(retry_budget=2), obs=obs
        )
        result = session.run([play_id], k=4)
        metrics = result.metrics[play_id]
        assert metrics.skips == 3
        assert metrics.misses == metrics.skips, (
            "a block that was never faulted missed its deadline"
        )
        assert metrics.blocks_delivered == len(slots) - 3
        stats = mrs.msm.drive.stats
        assert stats.faults_injected == 9
        assert stats.degraded_reads == 6
        assert stats.retries == 6
        counters = obs.registry.snapshot_dict()["counters"]
        assert counters["fault.injected"] == 9
        assert counters["fault.retries"] == 6
        assert counters["fault.skips"] == 3
        assert counters["fault.recovered_reads"] == 6
        # Every block is traced: each skip is a defect's span under the
        # skipped block's own span, on a faulted slot.
        skips = obs.tracer.spans(name="fault.skip")
        assert [span.attrs["reason"] for span in skips] == ["defect"] * 3
        assert {span.attrs["slot"] for span in skips} <= set(slots)
        assert len(obs.tracer.spans(name="fault.retry")) == 6

    def test_same_seed_replays_byte_identical(self, profile):
        """Deterministic replay: identical seeds, identical summaries."""

        def run_once():
            import random

            from repro.disk import build_drive
            from repro.fs import MultimediaStorageManager
            from repro.rope import MultimediaRopeServer

            drive = build_drive()
            msm = MultimediaStorageManager(
                drive,
                profile.video,
                profile.audio,
                profile.video_device,
                profile.audio_device,
            )
            mrs = MultimediaRopeServer(msm)
            play_id, _ = _recorded_play(mrs, profile)
            slots = _video_slots(mrs, play_id)
            plan = FaultPlan.random(
                seed=SEED, slots=slots, transient=4, defects=2
            )
            drive.attach_injector(FaultInjector(plan))
            session = PlaybackSession(
                mrs, recovery=RecoveryPolicy(retry_budget=1)
            )
            result = session.run([play_id], k=4)
            return result.summary()

        assert run_once() == run_once()

    def test_healthy_rerun_of_same_workload_is_glitch_free(
        self, mrs, profile
    ):
        """With injection disabled the identical workload reports zero
        misses — the glitches really were the faults' doing."""
        play_id, _ = _recorded_play(mrs, profile)
        result = PlaybackSession(mrs).run([play_id], k=4)
        assert result.all_continuous
        assert result.total_skips == 0
        assert mrs.msm.drive.stats.faults_injected == 0

    def test_head_failure_degrades_and_freezes_admission(
        self, mrs, profile
    ):
        """A dead head mid-round: remaining blocks glitch, n_max shrinks
        to zero, and new PLAY requests are refused."""
        play_id, rope_id = _recorded_play(mrs, profile)
        plan = FaultPlan(
            [FaultSpec(kind=FaultKind.HEAD_FAILURE, at_op=30)]
        )
        mrs.msm.drive.attach_injector(FaultInjector(plan))
        result = PlaybackSession(mrs).run([play_id], k=4)
        metrics = result.metrics[play_id]
        assert result.head_failure is not None
        assert result.degraded_n_max == 0
        assert metrics.blocks_delivered == 30
        assert metrics.skips == len(_video_slots(mrs, play_id)) - 30
        with pytest.raises(AdmissionRejected):
            mrs.play("u", rope_id, media=Media.VIDEO)

    @pytest.mark.chaos
    def test_multi_stream_chaos_soak(self, mrs, profile):
        """Several admitted streams under a dense seeded fault mix: the
        service stays live, glitch accounting balances, and only faulted
        blocks glitch."""
        play_a, rope_id = _recorded_play(mrs, profile, source="soakA")
        play_b = mrs.play("u", rope_id, media=Media.VIDEO)
        play_c = mrs.play("u", rope_id, media=Media.VIDEO)
        slots = _video_slots(mrs, play_a)
        plan = FaultPlan.random(
            seed=SEED + 1, slots=slots, transient=10, defects=6
        )
        mrs.msm.drive.attach_injector(FaultInjector(plan))
        obs = Observability()
        session = PlaybackSession(
            mrs, recovery=RecoveryPolicy(retry_budget=3), obs=obs
        )
        result = session.run([play_a, play_b, play_c], k=4)
        # Every stream reads the same 6 defective slots; transients fire
        # once each, against whichever stream touches the slot first.
        assert result.total_skips == 3 * 6
        assert result.total_misses == result.total_skips
        stats = mrs.msm.drive.stats
        assert stats.faults_injected == 10 + 3 * 6
        assert stats.degraded_reads == 10
        injector = mrs.msm.drive.injector
        assert injector.injected == stats.faults_injected
        assert injector.pending_transients == 0
        counters = obs.registry.snapshot_dict()["counters"]
        assert counters["fault.injected"] == stats.faults_injected
        assert counters["fault.skips"] == result.total_skips
        assert counters["fault.recovered_reads"] == stats.degraded_reads
