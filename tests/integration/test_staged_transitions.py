"""Integration: the controller's transition plans drive the round loop."""

from repro.core.buffering import buffers_for_average_continuity
from repro.media.frames import frames_for_duration
from repro.rope import Media
from repro.service import PlaybackSession, staged_k_schedule
from repro.service.rounds import Admission, RoundRobinService, StreamState


class TestStagedTransitionThroughSession:
    def test_admission_decisions_drive_a_staged_session(
        self, mrs, msm, profile
    ):
        """Admit requests one by one, execute each decision's staged plan
        on the round loop over the session's own fetch sequences and
        buffers, and verify continuity throughout."""
        frames = frames_for_duration(profile.video, 6.0, source="stg")
        record_id, rope_id = mrs.record("u", frames=frames)
        mrs.stop(record_id)

        first = mrs.play("u", rope_id, media=Media.VIDEO)
        k_after_first = msm.admission.current_k
        second = mrs.play("u", rope_id, media=Media.VIDEO)
        k_after_second = msm.admission.current_k
        assert k_after_second >= k_after_first

        # Build the staged schedule the paper prescribes: start at the
        # pre-admission k and grow by one per round up to the new value.
        admission_round = 2
        steps = [
            (admission_round + i, k)
            for i, k in enumerate(
                range(k_after_first + 1, k_after_second + 1)
            )
        ]
        schedule = staged_k_schedule(max(1, k_after_first), steps)
        join_round = admission_round + max(
            0, k_after_second - k_after_first
        )
        session = PlaybackSession(mrs)
        capacity = buffers_for_average_continuity(
            msm.architecture, max(1, k_after_second)
        )

        def stream(request_id):
            return StreamState(
                request_id=request_id,
                fetches=session.fetch_sequence(request_id),
                buffer_capacity=max(capacity, 2),
            )

        metrics = RoundRobinService(msm.drive, schedule).run(
            [stream(first)],
            [Admission(round_number=join_round, stream=stream(second))],
        )
        assert sorted(metrics) == sorted([first, second])
        assert all(m.continuous for m in metrics.values())

    def test_transition_plan_matches_current_k(self, mrs, msm, profile):
        frames = frames_for_duration(profile.video, 4.0, source="stg2")
        record_id, rope_id = mrs.record("u", frames=frames)
        mrs.stop(record_id)
        controller = msm.admission
        k_values = []
        for _ in range(3):
            mrs.play("u", rope_id, media=Media.VIDEO)
            k_values.append(controller.current_k)
        # k never decreases as requests accumulate.
        assert k_values == sorted(k_values)


class TestTableSeekDrive:
    def test_full_stack_on_a_datasheet_drive(self, profile):
        """A drive built from a measured (table) seek curve works through
        placement, storage, and playback."""
        from repro.disk import TESTBED_DRIVE, SimulatedDrive
        from repro.disk.seek import Rotation, TableSeek
        from repro.fs import MultimediaStorageManager
        from repro.media.frames import frames_for_duration
        from repro.rope import MultimediaRopeServer
        from repro.service import PlaybackSession

        drive = SimulatedDrive(
            geometry=TESTBED_DRIVE.geometry(),
            seek_model=TableSeek(
                [(1, 0.004), (64, 0.008), (256, 0.014), (1023, 0.024)]
            ),
            rotation=Rotation(rpm=3600),
            transfer_rate=TESTBED_DRIVE.transfer_rate,
            sectors_per_block=64,
        )
        msm = MultimediaStorageManager(
            drive, profile.video, profile.audio,
            profile.video_device, profile.audio_device,
        )
        mrs = MultimediaRopeServer(msm)
        frames = frames_for_duration(profile.video, 6.0, source="table")
        record_id, rope_id = mrs.record("u", frames=frames)
        mrs.stop(record_id)
        strand = msm.get_strand(
            next(iter(mrs.get_rope(rope_id).referenced_strands()))
        )
        slots = strand.slots()
        for a, b in zip(slots, slots[1:]):
            assert drive.access_gap(a, b) <= (
                msm.policies.video.scattering_upper + 1e-12
            )
        play_id = mrs.play("u", rope_id, media=Media.VIDEO)
        result = PlaybackSession(mrs).run([play_id], k=4)
        assert result.all_continuous
