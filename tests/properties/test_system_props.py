"""System-level property tests: the reproduction's central guarantees.

These tie the analytic layer to the executable one over randomized
inputs: whatever the §3.4 controller admits must simulate continuously,
whatever the §4.2 repairer touches must end up within bounds, and
every recording, edit, deletion and collection must leave each slot
owned by exactly one strand, with each strand agreeing with its index.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import TESTBED_1991
from repro.core import admission as adm
from repro.core.editing_bounds import copy_bound_dense
from repro.core.symbols import DisplayDeviceParameters, video_block_model
from repro.disk import build_drive
from repro.errors import AdmissionRejected
from repro.fs import MultimediaStorageManager
from repro.fs.storage_manager import MultimediaStorageManager as MSM
from repro.media.frames import frames_for_duration
from repro.rope import Media, MultimediaRopeServer
from repro.rope.scattering_repair import ScatteringRepairer
from repro.service import PlaybackSession
from tests.fs.ownership import assert_ownership_exact

PROFILE = TESTBED_1991

slow_settings = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def fresh_servers(buffer_frames=8):
    device = DisplayDeviceParameters(
        display_rate=PROFILE.video_device.display_rate,
        buffer_frames=buffer_frames,
    )
    msm = MultimediaStorageManager(
        build_drive(), PROFILE.video, PROFILE.audio, device,
        PROFILE.audio_device,
    )
    return msm, MultimediaRopeServer(msm)


class TestAdmissionSimulationSafety:
    @slow_settings
    @given(
        n_attempt=st.integers(min_value=1, max_value=5),
        clip_seconds=st.floats(min_value=3.0, max_value=8.0),
    )
    def test_admitted_requests_always_play_continuously(
        self, n_attempt, clip_seconds
    ):
        """THE property: admission implies zero deadline misses."""
        msm, mrs = fresh_servers()
        frames = frames_for_duration(
            PROFILE.video, clip_seconds, source="prop"
        )
        request_id, rope_id = mrs.record("u", frames=frames)
        mrs.stop(request_id)
        admitted = []
        for _ in range(n_attempt):
            try:
                admitted.append(mrs.play("u", rope_id, media=Media.VIDEO))
            except AdmissionRejected:
                break
        if not admitted:
            return
        result = PlaybackSession(mrs).run(admitted)
        assert result.all_continuous


class TestSeamRepairProperty:
    @slow_settings
    @given(
        hint_a=st.integers(min_value=0, max_value=2000),
        hint_b=st.integers(min_value=3000, max_value=7000),
        seconds=st.floats(min_value=2.0, max_value=6.0),
    )
    def test_repaired_seams_always_within_bounds(
        self, hint_a, hint_b, seconds
    ):
        msm, mrs_unused = fresh_servers(buffer_frames=2)  # granularity 1
        mrs = MultimediaRopeServer(msm, auto_repair=False)
        frames = frames_for_duration(PROFILE.video, seconds, source="x")
        strand_a = msm.store_video_strand(frames, hint=hint_a)
        strand_b = msm.store_video_strand(
            frames, hint=min(hint_b, msm.drive.slots - 1)
        )
        rope_a = mrs.adopt_strands("u", video_strand_id=strand_a.strand_id)
        rope_b = mrs.adopt_strands("u", video_strand_id=strand_b.strand_id)
        merged = mrs.concate("u", rope_a, rope_b)
        repairer = ScatteringRepairer(msm)
        segments, report = repairer.repair_segments(merged.segments)
        assert report.residual_violations == 0
        for check in repairer.check_segments(segments):
            assert not check.violates
        if report.blocks_copied:
            bound = copy_bound_dense(
                msm.disk_params.seek_max,
                msm.policies.video.scattering_lower,
            )
            assert report.blocks_copied <= bound * max(
                1, report.seams_repaired
            )


class TestOwnershipProperty:
    @slow_settings
    @given(
        clips=st.integers(min_value=1, max_value=3),
        edit_position=st.floats(min_value=0.5, max_value=2.5),
        seconds=st.floats(min_value=3.0, max_value=6.0),
        doomed=st.integers(min_value=0, max_value=2),
    )
    def test_every_step_keeps_slot_ownership_exact(
        self, clips, edit_position, seconds, doomed
    ):
        """The allocated set is the disjoint union of every strand's
        media and index slots, and every strand passes its index's
        check, after each step."""
        msm, mrs = fresh_servers()

        def check():
            assert_ownership_exact(msm)
            for strand_id in msm.strand_ids():
                msm.get_strand(strand_id).verify_against_index()

        rope_ids = []
        for i in range(clips):
            frames = frames_for_duration(
                PROFILE.video, seconds, source=f"c{i}"
            )
            request_id, rope_id = mrs.record("u", frames=frames)
            mrs.stop(request_id)
            rope_ids.append(rope_id)
            check()
        if len(rope_ids) >= 2:
            mrs.insert(
                "u", rope_ids[0], edit_position, Media.VIDEO,
                rope_ids[1], 0.0, min(2.0, seconds),
            )
            check()
        mrs.delete_rope("u", rope_ids[doomed % clips])
        check()
        msm.collect_garbage()
        check()
