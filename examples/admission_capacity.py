#!/usr/bin/env python
"""Admission control under load: watching k, n_max, and startup latency.

A movies-on-demand server (the §1 entertainment scenario) takes playback
clients one at a time.  For each admission the script reports the
controller's staged k transition; at capacity the next client is
refused, and the whole admitted set is then serviced to prove the
real-time guarantee held for everyone.

Run:  python examples/admission_capacity.py
"""

from repro.config import TESTBED_1991
from repro.errors import AdmissionRejected
from repro.media import frames_for_duration
from repro.rope import Media, build_rope_server
from repro.service import PlaybackSession
from repro.units import format_seconds


def main() -> None:
    profile = TESTBED_1991
    mrs = build_rope_server()

    frames = frames_for_duration(profile.video, 10.0, source="movie")
    request_id, movie = mrs.record("studio", frames=frames,
                                   play_access=("public",))
    mrs.stop(request_id)
    print(f"catalogue: rope {movie} ({mrs.get_rope(movie).duration:.0f} s)")

    admitted = []
    while True:
        try:
            play_id = mrs.play("public", movie, media=Media.VIDEO)
        except AdmissionRejected as rejection:
            print(
                f"client #{len(admitted) + 1} REFUSED: n_max = "
                f"{rejection.n_max} (Eq. 17)"
            )
            break
        admitted.append(play_id)
        controller = mrs.msm.admission
        print(
            f"client #{len(admitted)} admitted: service runs "
            f"k = {controller.current_k} blocks/round"
        )

    print(f"\nservicing all {len(admitted)} admitted clients...")
    session = PlaybackSession(mrs)
    result = session.run(admitted)
    for number, play_id in enumerate(admitted, start=1):
        metrics = result.metrics[play_id]
        print(
            f"  client #{number}: startup "
            f"{format_seconds(metrics.startup_latency)}, "
            f"misses {metrics.misses}"
        )
    verdict = "held" if result.all_continuous else "VIOLATED"
    print(f"real-time guarantee {verdict} for every admitted client")
    print(
        "note the paper's observation: larger k buys capacity at the "
        "price of startup latency"
    )


if __name__ == "__main__":
    main()
