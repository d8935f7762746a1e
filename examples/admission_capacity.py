#!/usr/bin/env python
"""Admission control under load: watching k, n_max, and startup latency.

A movies-on-demand server (the §1 entertainment scenario) takes playback
clients one at a time.  For each admission the script reports the
controller's staged k transition; at capacity the next client is
refused, and the whole admitted set is then serviced to prove the
real-time guarantee held for everyone.  Then the same policy through
the front door (``repro.api``): one ``serve`` call decides each request
at its arrival, so a STOP frees its slot for a later open of the call,
and a PAUSE / RESUME holds the session's playback in between.

Run:  python examples/admission_capacity.py
"""

from repro.api import (
    OpenSessionRequest,
    PauseRequest,
    ResumeRequest,
    StopRequest,
)
from repro.config import TESTBED_1991
from repro.errors import AdmissionRejected
from repro.media import frames_for_duration
from repro.rope import Media, build_rope_server
from repro.server import build_media_server
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

    # --- one serve, verb by verb, through repro.api ----------------------
    server = build_media_server(cache_blocks=0, batch_window=0.0)
    trailer = frames_for_duration(profile.video, 4.0, source="trailer")
    request_id, title = server.mrs.record(
        "studio", frames=trailer, play_access=("public",)
    )
    server.mrs.stop(request_id)

    def viewer(arrival):
        return OpenSessionRequest("public", title, arrival=arrival,
                                  media=Media.VIDEO)

    requests = [viewer(0.0) for _ in range(len(admitted) + 1)] + [
        PauseRequest("C0002", 0.5),
        ResumeRequest("C0002", 1.0),
        StopRequest("C0001", 1.5),
        viewer(2.0),
    ]
    print(f"\none serve: {len(admitted) + 1} opens at 0.0 s, C0002 paused "
          "0.5-1.0 s, C0001 stopped at 1.5 s, one more open at 2.0 s")
    result = server.serve(requests)
    refused = {r.session_id: r.reject.value for r in result.rejects}
    for status in result.statuses:
        sid = status.session_id
        outcome = (f"REFUSED {refused[sid]}" if sid in refused else
                   f"{status.state.value}, {status.blocks_delivered} blocks, "
                   f"misses {status.misses}")
        print(f"  {sid}: {outcome}")
    print(f"{result.admitted} admitted in one call: the STOP freed its slot "
          "for the open that arrived after it")


if __name__ == "__main__":
    main()
