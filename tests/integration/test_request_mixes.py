"""Integration: client mixes driving staggered admissions end to end."""

import pytest

from repro.errors import AdmissionRejected
from repro.media.frames import frames_for_duration
from repro.rope import Media
from repro.service import Admission, PlaybackSession


@pytest.fixture
def catalogue(mrs, profile):
    frames = frames_for_duration(profile.video, 8.0, source="mix")
    request_id, rope_id = mrs.record("studio", frames=frames)
    mrs.stop(request_id)
    return rope_id


class TestUniformMixPlayback:
    def test_uniform_mix_within_capacity_is_continuous(
        self, mrs, catalogue
    ):
        request_ids = [
            mrs.play("studio", catalogue, media=Media.VIDEO)
            for _client in range(2)
        ]
        result = PlaybackSession(mrs).run(request_ids)
        assert result.all_continuous

    def test_oversized_uniform_mix_partially_admitted(
        self, mrs, catalogue
    ):
        admitted = []
        rejected = 0
        for _client in range(12):
            try:
                admitted.append(
                    mrs.play("studio", catalogue, media=Media.VIDEO)
                )
            except AdmissionRejected:
                rejected += 1
        assert admitted and rejected
        assert PlaybackSession(mrs).run(admitted).all_continuous


class TestStaggeredMixPlayback:
    def test_staggered_arrivals_via_admissions(self, mrs, catalogue):
        # Three clients, one every half second: at 0, then 0.5 and 1.0 s.
        initial = [mrs.play("studio", catalogue, media=Media.VIDEO)]
        later = []
        for arrival in (0.5, 1.0):
            try:
                later.append(
                    (arrival, mrs.play("studio", catalogue, media=Media.VIDEO))
                )
            except AdmissionRejected:
                break
        session = PlaybackSession(mrs)
        k = max(1, mrs.msm.admission.current_k)

        def stream(request_id):
            return session.stream(request_id, k, session.fetch_sequence(request_id))

        metrics = session.loop(mrs.msm.drive, k).run(
            [stream(initial[0])], [Admission(join, stream(r)) for join, r in later]
        )
        assert all(m.continuous for m in metrics.values())
        # A later arrival waits its turn behind the streams playing, so
        # it starts up slower, counted from its own arrival.
        if later:
            first_metrics = metrics[initial[0]]
            late_metrics = metrics[later[-1][1]]
            assert late_metrics.startup_latency > (
                first_metrics.startup_latency
            )
