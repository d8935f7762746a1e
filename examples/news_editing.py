#!/usr/bin/env python
"""News distribution: compose a bulletin from clips in an editing session.

The §1 news-distribution scenario through the Fig.-12 editor backend: an
editor opens three raw clips, assembles a bulletin (anchor intro →
field report excerpt → anchor outro), dubs narration over part of the
field footage, previews, and undoes a mistake.  The §4.2 seam repairer
runs automatically after every operation.

Run:  python examples/news_editing.py
"""

import random

from repro.config import TESTBED_1991
from repro.media import frames_for_duration, generate_talk_spurts
from repro.rope import EditingSession, Media, build_rope_server
from repro.service import PlaybackSession


def main() -> None:
    profile = TESTBED_1991
    mrs = build_rope_server()
    session = EditingSession(mrs, user="editor")
    rng = random.Random(11)

    # Ingest three raw clips.
    for name, seconds in (("anchor", 15.0), ("field", 30.0),
                          ("narration", 8.0)):
        frames = frames_for_duration(profile.video, seconds, source=name)
        chunks = generate_talk_spurts(profile.audio, seconds, 0.3, rng)
        request_id, rope_id = mrs.record(
            "editor", frames=frames, chunks=chunks
        )
        mrs.stop(request_id)
        session.open(name, rope_id)
        print(f"ingested {name}: {session.status(name)['length']}")

    # Assemble the bulletin.
    session.substring("anchor", "bulletin", 0.0, 6.0)       # intro
    session.insert("bulletin", 6.0, "field", 10.0, 12.0)    # excerpt
    session.concate("bulletin", "anchor")                   # outro (full)
    print(
        f"assembled bulletin: {session.status('bulletin')['length']} in "
        f"{session.status('bulletin')['intervals']} intervals"
    )
    if mrs.last_repair and mrs.last_repair.seams_repaired:
        print(
            f"seam repair copied {mrs.last_repair.blocks_copied} block(s) "
            "to keep the edited rope continuously playable"
        )

    # Dub narration audio over the field excerpt.
    session.replace(
        "bulletin", Media.AUDIO, 6.0, 8.0, "narration", 0.0, 8.0
    )
    print("dubbed narration over the field excerpt (video untouched)")

    # Oops — too much outro; trim, then change of heart: undo.
    session.delete("bulletin", 20.0, 5.0)
    print(f"after trim: {session.status('bulletin')['length']}")
    undone = session.undo()
    print(f"undid {undone}: {session.status('bulletin')['length']}")

    # Preview the final cut.
    rope_id = session.rope("bulletin").rope_id
    play_id = mrs.play("editor", rope_id)
    result = PlaybackSession(mrs).run([play_id])
    metrics = result.metrics[play_id]
    print(
        f"preview: {metrics.blocks_delivered} blocks, "
        f"misses {metrics.misses}, "
        f"operations logged: {[entry.operation for entry in session.log]}"
    )


if __name__ == "__main__":
    main()
