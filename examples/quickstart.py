#!/usr/bin/env python
"""Quickstart: derive a storage policy, record a clip, play it back.

This walks the library's central loop in ~60 lines:

1. pick the 1991 testbed hardware profile;
2. let the §3 analysis derive granularity and scattering bounds;
3. record a 10-second video+audio clip through the rope server
   (silence elimination included);
4. play it back through the round-robin service loop and verify
   the continuity requirement held.

Run:  python examples/quickstart.py
"""

import random

from repro.config import TESTBED_1991
from repro.media import frames_for_duration, generate_talk_spurts
from repro.rope import Media, build_rope_server
from repro.service import PlaybackSession
from repro.units import format_seconds


def main() -> None:
    profile = TESTBED_1991

    # --- 1-2: hardware + derived storage policy -------------------------
    mrs = build_rope_server()
    msm = mrs.msm
    policy = msm.policies.video
    print(f"profile: {profile.description}")
    print(
        f"derived video policy: {policy.granularity} frames/block, "
        f"scattering within "
        f"[{format_seconds(policy.scattering_lower)}, "
        f"{format_seconds(policy.scattering_upper)}]"
    )

    # --- 3: RECORD -------------------------------------------------------
    rng = random.Random(2026)
    frames = frames_for_duration(profile.video, 10.0, source="camera0")
    chunks = generate_talk_spurts(profile.audio, 10.0, 0.35, rng)
    request_id, rope_id = mrs.record("you", frames=frames, chunks=chunks)
    mrs.stop(request_id)
    rope = mrs.get_rope(rope_id)
    audio_strand = msm.get_strand(rope.segments[0].audio.strand_id)
    print(
        f"recorded rope {rope_id}: {rope.duration:.2f} s, "
        f"{audio_strand.block_count - audio_strand.stored_block_count} "
        "audio blocks silence-eliminated"
    )

    # --- 4: PLAY and verify continuity ------------------------------------
    play_id = mrs.play("you", rope_id, media=Media.AUDIO_VISUAL)
    session = PlaybackSession(mrs)
    result = session.run([play_id])
    metrics = result.metrics[play_id]
    print(
        f"playback: {metrics.blocks_delivered} blocks in "
        f"{result.rounds} service round(s), "
        f"startup latency {format_seconds(metrics.startup_latency)}, "
        f"deadline misses: {metrics.misses}"
    )
    assert metrics.continuous, "continuity requirement violated!"
    print("continuity requirement satisfied — every block met its deadline")


if __name__ == "__main__":
    main()
