#!/usr/bin/env python
"""Video mail: the §1 motivating service, end to end.

A sender records a message, trims a false start, prepends a stored
signature clip, and grants the recipient play access.  The recipient
plays the message; storage is shared (no media copied during editing)
and reclaimed by garbage collection once both parties delete their
ropes.

Run:  python examples/video_mail.py
"""

import random

from repro.config import TESTBED_1991
from repro.errors import AccessDenied
from repro.media import frames_for_duration, generate_talk_spurts
from repro.rope import Media, build_rope_server
from repro.service import PlaybackSession


def blocks_on_disk(msm) -> int:
    return sum(
        msm.get_strand(s).stored_block_count for s in msm.strand_ids()
    )


def main() -> None:
    profile = TESTBED_1991
    mrs = build_rope_server()
    msm = mrs.msm
    rng = random.Random(7)

    # The sender's stored signature clip (2 s) and new message (20 s).
    q, signature = mrs.record(
        "alice",
        frames=frames_for_duration(profile.video, 2.0, source="sig"),
        chunks=generate_talk_spurts(profile.audio, 2.0, 0.1, rng),
    )
    mrs.stop(q)
    q, message = mrs.record(
        "alice",
        frames=frames_for_duration(profile.video, 20.0, source="msg"),
        chunks=generate_talk_spurts(profile.audio, 20.0, 0.4, rng),
    )
    mrs.stop(q)
    print(f"recorded signature {signature} and message {message}")
    before_edit = blocks_on_disk(msm)

    # Edit: cut the false start (first 3 s), prepend the signature.
    mrs.delete("alice", message, Media.AUDIO_VISUAL, 0.0, 3.0)
    mrs.insert(
        "alice", message, 0.0, Media.AUDIO_VISUAL, signature, 0.0, 2.0
    )
    rope = mrs.get_rope(message)
    print(
        f"edited message: {rope.duration:.1f} s in "
        f"{rope.interval_count()} strand intervals; media blocks copied "
        f"during editing: {blocks_on_disk(msm) - before_edit}"
    )

    # Deliver: grant play access, then the recipient plays it.
    mrs.grant_access("alice", message, play=("bob",))
    try:
        mrs.delete("bob", message, Media.AUDIO_VISUAL, 0.0, 1.0)
        raise AssertionError("bob must not be able to edit")
    except AccessDenied:
        print("access control: bob can play but not edit — as granted")

    play_id = mrs.play("bob", message)
    result = PlaybackSession(mrs).run([play_id])
    print(
        f"bob played {result.metrics[play_id].blocks_delivered} blocks, "
        f"misses: {result.metrics[play_id].misses}"
    )

    # Cleanup: alice deletes her ropes; shared strands survive only as
    # long as someone references them.
    reclaimed = mrs.delete_rope("alice", signature)
    print(f"deleting the signature rope reclaimed: {reclaimed or 'nothing'}")
    reclaimed = mrs.delete_rope("alice", message)
    print(f"deleting the message reclaimed strands: {reclaimed}")
    print(f"disk occupancy now: {msm.occupancy:.3f}")


if __name__ == "__main__":
    main()
