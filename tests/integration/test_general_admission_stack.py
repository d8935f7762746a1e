"""Integration: per-request admission through the full stack."""

import pytest

from repro.config import TESTBED_1991
from repro.disk import build_drive
from repro.errors import AdmissionRejected
from repro.fs import MultimediaStorageManager
from repro.media.audio import generate_talk_spurts
from repro.media.frames import frames_for_duration
from repro.rope import Media, MultimediaRopeServer
from repro.service import PlaybackSession


def build_servers(general: bool):
    profile = TESTBED_1991
    msm = MultimediaStorageManager(
        build_drive(), profile.video, profile.audio,
        profile.video_device, profile.audio_device,
        general_admission=general,
    )
    return msm, MultimediaRopeServer(msm)


def record_catalogue(mrs, profile, rng):
    frames = frames_for_duration(profile.video, 6.0, source="v")
    chunks = generate_talk_spurts(profile.audio, 6.0, 0.3, rng)
    qv, video_rope = mrs.record("u", frames=frames)
    mrs.stop(qv)
    qa, audio_rope = mrs.record("u", chunks=chunks)
    mrs.stop(qa)
    return video_rope, audio_rope


def admit_mix(mrs, video_rope, audio_rope):
    admitted = []
    plan = [
        (video_rope, Media.VIDEO), (video_rope, Media.VIDEO),
        (audio_rope, Media.AUDIO), (audio_rope, Media.AUDIO),
        (audio_rope, Media.AUDIO), (audio_rope, Media.AUDIO),
    ]
    for rope_id, media in plan:
        try:
            admitted.append(mrs.play("u", rope_id, media=media))
        except AdmissionRejected:
            break
    return admitted, len(plan)


class TestGeneralAdmissionStack:
    def test_general_admits_more_of_the_mix(self, profile, rng):
        msm_u, mrs_u = build_servers(general=False)
        video_u, audio_u = record_catalogue(mrs_u, profile, rng)
        uniform_admitted, _ = admit_mix(mrs_u, video_u, audio_u)

        msm_g, mrs_g = build_servers(general=True)
        video_g, audio_g = record_catalogue(mrs_g, profile, rng)
        general_admitted, total = admit_mix(mrs_g, video_g, audio_g)

        assert len(general_admitted) > len(uniform_admitted)
        assert len(general_admitted) == total  # the whole mix fits

    def test_general_admitted_mix_plays_continuously(self, profile, rng):
        msm, mrs = build_servers(general=True)
        video_rope, audio_rope = record_catalogue(mrs, profile, rng)
        admitted, _ = admit_mix(mrs, video_rope, audio_rope)
        session = PlaybackSession(mrs)
        result = session.run(admitted)
        assert result.all_continuous

    def test_stop_releases_general_slots(self, profile, rng):
        msm, mrs = build_servers(general=True)
        video_rope, audio_rope = record_catalogue(mrs, profile, rng)
        admitted, _ = admit_mix(mrs, video_rope, audio_rope)
        active_before = msm.admission.active_count
        mrs.stop(admitted[0])
        assert msm.admission.active_count == active_before - 1

    def test_record_goes_through_general_controller(self, profile, rng):
        msm, mrs = build_servers(general=True)
        frames = frames_for_duration(profile.video, 3.0, source="r")
        request_id, _ = mrs.record("u", frames=frames)
        assert msm.admission.active_count == 1
        mrs.stop(request_id)
        assert msm.admission.active_count == 0

    @pytest.mark.parametrize("general", [False, True])
    def test_losing_the_last_head_admits_nothing(self, general):
        """Degraded-mode revalidation reads and freezes either controller
        through members both have — not duck-typing probes that let the
        general one keep admitting at n_max = 0."""
        msm, mrs = build_servers(general)
        descriptor = msm.descriptor_for_media(True)
        held = msm.admit(descriptor).request_id
        assert msm.revalidate_admission(msm.disk_params.heads) == 0
        with pytest.raises(AdmissionRejected):
            msm.admit(descriptor)
        assert msm.admission.active_count == 1
        msm.release(held)

    @pytest.mark.parametrize("general", [False, True])
    def test_stop_after_degraded_revalidation_never_raises(self, general):
        """The head lost under three admitted videos: admission freezes at
        max_k 0, yet a stop still releases — the two survivors are
        re-solved, never refused for a k beyond the frozen bound."""
        msm, _ = build_servers(general)
        descriptor = msm.descriptor_for_media(True)
        held = [msm.admit(descriptor).request_id for _ in range(3)]
        k_played = msm.admission.current_k
        assert msm.revalidate_admission(1) == 0
        msm.release(held[0])
        assert msm.admission.active_count == 2
        assert 1 <= msm.admission.current_k <= k_played
        for request_id in held[1:]:
            msm.release(request_id)
        assert msm.admission.k_values() == {}

    def test_three_testbed_videos_get_eq16_or_eq18_k(self):
        """Identical requests do not get identical k in both modes: the
        per-request solve lands on Eq. (16)'s steady-state k, the uniform
        one runs Eq. (18)'s transition-safe k."""
        k_at_three = {}
        for general in (False, True):
            msm, _ = build_servers(general)
            descriptor = msm.descriptor_for_media(True)
            for _ in range(3):
                msm.admit(descriptor)
            k_at_three[general] = msm.admission.current_k
        assert k_at_three == {False: 865, True: 287}
